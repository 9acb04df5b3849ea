from __future__ import annotations

import argparse
import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import networkx as nx
import pytest

import pdom
from pdom.cli import (
    EXIT_CAP,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SCAN_FAILURE,
    build_parser,
    graph_from_generator,
    main,
    parse_proportion,
    run,
)
from pdom.formats import parse_graph6, write_graph6
from pdom.graphs import cartesian_product, complete, cycle, path, twin_hub_graph

from brute import brute_canonical


@pytest.mark.parametrize("text,expected", [
    ("1/2", Fraction(1, 2)),
    ("0/1", Fraction(0)),
    ("7/9", Fraction(7, 9)),
    ("2/6", Fraction(1, 3)),
    ("1/1", Fraction(1)),
])
def test_parse_proportion(text, expected):
    assert parse_proportion(text) == expected


@pytest.mark.parametrize("text", ["0.5", "1", "/2", "3/", "3/2", "1/0", "-1/2", "a/b", "1 / 2", "١/٢", "１/２"])
def test_parse_proportion_rejects(text):
    with pytest.raises(ValueError):
        parse_proportion(text)


def test_graph_from_generator():
    assert graph_from_generator("path:4").adj == path(4).adj
    assert graph_from_generator("cycle:5").adj == cycle(5).adj
    assert graph_from_generator("complete-bipartite:3,2").order == 5
    assert graph_from_generator("fig2").adj == twin_hub_graph().adj


@pytest.mark.parametrize("spec", ["blob:3", "path", "path:2,3", "path:x", "fig2:3", "complete-bipartite:4"])
def test_graph_from_generator_rejects(spec):
    with pytest.raises(ValueError):
        graph_from_generator(spec)


def test_gamma_golden(capsys):
    assert main(["gamma", "--gen", "path:6", "--p", "1/2"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "gamma_p = 1\n"
        "witness = {1}\n"
        "covered = 3 of 6 (target 3)\n"
    )


@pytest.mark.parametrize("module", ["pdom", "pdom.cli"])
def test_module_entry_points(module):
    env = dict(os.environ, PYTHONPATH=str(Path(pdom.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-m", module, "gamma", "--gen", "path:6", "--p", "1/2"],
                          capture_output=True, text=True, env=env, check=False)
    assert done.returncode == EXIT_OK
    assert done.stdout == "gamma_p = 1\nwitness = {1}\ncovered = 3 of 6 (target 3)\n"


def test_gamma_zero_proportion(capsys):
    assert main(["gamma", "--gen", "path:1", "--p", "0/1"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "gamma_p = 0\n"
        "witness = {}\n"
        "covered = 0 of 1 (target 0)\n"
    )


def test_influence_single_proportion(capsys):
    assert main(["influence", "--gen", "path:6", "--p", "1/1"]) == EXIT_OK
    assert capsys.readouterr().out == "influencing = {1,4}\n"


def test_influence_pendant_wheel_union(capsys):
    # The union that proximity_verdict reads for fig3 at 7/9: every vertex
    # but the hub.
    assert main(["influence", "--gen", "fig3", "--p", "7/9"]) == EXIT_OK
    assert capsys.readouterr().out == "influencing = {1,2,3,4,5,6,7,8}\n"


def test_influence_sweep_bipartite(capsys):
    assert main(["influence", "--gen", "complete-bipartite:4,2", "--all-p"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "p=1/6 influencing = {0,1,2,3,4,5}",
        "p=2/6 influencing = {0,1,2,3,4,5}",
        "p=3/6 influencing = {0,1,2,3,4,5}",
        "p=4/6 influencing = {4,5}",
        "p=5/6 influencing = {4,5}",
        "p=6/6 influencing = {0,1,2,3,4,5}",
        "intersection = {4,5}",
    ]


def test_influence_sweep_twin_hub_empty_intersection(capsys):
    assert main(["influence", "--gen", "fig2", "--all-p"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "intersection = {}"


def test_influence_sweep_subdivided_star_golden(capsys):
    # Large enough (21 vertices, 16,630 minimum sets at p = 19/21) for the
    # union-mode prune to skip whole subtrees.
    assert main(["influence", "--gen", "subdivided-star:10", "--all-p"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "p=1/21 influencing = {0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20}\n"
        "p=2/21 influencing = {0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20}\n"
        "p=3/21 influencing = {0,1,2,3,4,5,6,7,8,9,10}\n"
        "p=4/21 influencing = {0}\n"
        "p=5/21 influencing = {0}\n"
        "p=6/21 influencing = {0}\n"
        "p=7/21 influencing = {0}\n"
        "p=8/21 influencing = {0}\n"
        "p=9/21 influencing = {0}\n"
        "p=10/21 influencing = {0}\n"
        "p=11/21 influencing = {0}\n"
        "p=12/21 influencing = {0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20}\n"
        "p=13/21 influencing = {0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20}\n"
        "p=14/21 influencing = {0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20}\n"
        "p=15/21 influencing = {0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20}\n"
        "p=16/21 influencing = {0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20}\n"
        "p=17/21 influencing = {0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20}\n"
        "p=18/21 influencing = {0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20}\n"
        "p=19/21 influencing = {0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20}\n"
        "p=20/21 influencing = {0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20}\n"
        "p=21/21 influencing = {1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20}\n"
        "intersection = {}\n"
    )


def _write_relabelled_grid(file: Path, rows: int, cols: int, seed: int) -> None:
    """The grid P_rows x P_cols as an edge list, under a seeded labelling."""
    g = cartesian_product(path(rows), path(cols))
    labels = list(range(g.order))
    random.Random(seed).shuffle(labels)
    file.write_text(f"n {g.order}\n" + "".join(f"{labels[u]} {labels[v]}\n" for u, v in g.edges()))


def test_enumerate_relabelled_grid_golden(tmp_path, capsys):
    # The search takes a breadth-first candidate order here, so the 92
    # minimum dominating sets are found out of lex order and sorted back.
    file = tmp_path / "grid.txt"
    _write_relabelled_grid(file, 4, 6, seed=1)
    assert main(["enumerate", "--file", str(file), "--p", "1/1"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "{0,1,4,6,7,8,11}\n"
        "{0,1,4,6,8,11,13}\n"
        "{0,1,4,6,8,11,21}\n"
        "{0,1,4,8,11,16,21}\n"
        "{0,1,6,7,8,11,18}\n"
        "{0,3,4,5,7,12,23}\n"
        "{0,3,4,5,12,13,23}\n"
        "{0,3,4,5,12,21,23}\n"
        "{0,3,5,7,12,18,23}\n"
        "{0,3,5,7,16,18,23}\n"
        "{0,5,7,15,16,18,23}\n"
        "{1,2,3,9,11,14,21}\n"
        "{1,2,3,9,14,20,21}\n"
        "{1,2,6,8,11,13,14}\n"
        "{1,2,6,8,11,14,21}\n"
        "{1,2,6,11,13,14,19}\n"
        "{1,2,6,11,14,19,21}\n"
        "{1,2,8,9,11,14,21}\n"
        "{1,2,8,9,14,20,21}\n"
        "{1,2,9,11,14,15,21}\n"
        "{1,2,9,11,14,19,21}\n"
        "{1,2,9,14,15,20,21}\n"
        "{1,2,9,14,19,20,21}\n"
        "{1,3,4,6,11,12,13}\n"
        "{1,3,7,11,16,17,18}\n"
        "{1,4,6,8,11,12,13}\n"
        "{1,4,6,8,11,13,14}\n"
        "{1,4,6,8,11,13,18}\n"
        "{1,4,6,8,11,13,22}\n"
        "{1,4,6,8,11,14,21}\n"
        "{1,6,7,8,11,13,18}\n"
        "{1,6,7,8,11,17,18}\n"
        "{1,6,7,8,11,18,21}\n"
        "{1,6,8,11,13,14,18}\n"
        "{1,6,8,11,13,14,22}\n"
        "{1,6,8,11,13,18,22}\n"
        "{1,6,8,11,14,18,21}\n"
        "{1,6,8,11,14,21,22}\n"
        "{1,7,8,11,16,17,18}\n"
        "{1,7,11,15,16,17,18}\n"
        "{1,7,11,16,17,18,19}\n"
        "{1,7,16,17,18,19,20}\n"
        "{1,8,9,11,14,21,22}\n"
        "{1,8,9,14,20,21,22}\n"
        "{2,3,5,9,10,14,21}\n"
        "{2,3,5,9,11,14,21}\n"
        "{2,3,5,9,14,20,21}\n"
        "{2,3,5,9,14,21,23}\n"
        "{2,3,5,12,14,21,23}\n"
        "{2,3,9,14,15,20,21}\n"
        "{2,3,9,14,19,20,21}\n"
        "{2,5,9,10,14,15,21}\n"
        "{2,9,10,11,14,15,21}\n"
        "{2,9,10,14,15,20,21}\n"
        "{2,9,14,15,16,20,21}\n"
        "{2,9,14,15,19,20,21}\n"
        "{2,10,11,12,14,15,21}\n"
        "{3,4,5,6,11,12,13}\n"
        "{3,4,5,6,12,13,23}\n"
        "{3,4,5,7,10,12,17}\n"
        "{3,4,5,7,12,13,23}\n"
        "{3,4,5,7,12,17,23}\n"
        "{3,4,5,7,12,21,23}\n"
        "{3,4,5,12,13,21,23}\n"
        "{3,4,5,12,13,22,23}\n"
        "{3,4,5,12,14,21,23}\n"
        "{3,5,7,10,12,17,18}\n"
        "{3,5,7,10,16,17,18}\n"
        "{3,5,7,11,16,17,18}\n"
        "{3,5,7,12,13,18,23}\n"
        "{3,5,7,12,17,18,23}\n"
        "{3,5,7,12,18,21,23}\n"
        "{3,5,7,16,17,18,20}\n"
        "{3,5,7,16,17,18,23}\n"
        "{3,5,9,13,18,22,23}\n"
        "{3,5,12,13,14,22,23}\n"
        "{3,5,12,13,18,22,23}\n"
        "{3,5,12,14,18,21,23}\n"
        "{3,5,12,14,21,22,23}\n"
        "{3,6,7,17,18,19,20}\n"
        "{3,7,16,17,18,19,20}\n"
        "{5,7,10,15,16,17,18}\n"
        "{5,7,11,15,16,17,18}\n"
        "{5,7,15,16,17,18,20}\n"
        "{5,7,15,16,17,18,23}\n"
        "{7,9,15,16,17,18,20}\n"
        "{7,9,15,16,18,20,21}\n"
        "{7,10,11,15,16,17,18}\n"
        "{7,10,15,16,17,18,20}\n"
        "{7,11,15,16,17,18,20}\n"
        "{7,15,16,17,18,19,20}\n"
        "{9,14,15,16,18,20,21}\n"
    )


@pytest.mark.parametrize("rows,cols,p,lines,digest", [
    (5, 6, "3/4", 12648, "39842041fc93ed56af43e57644897566bc868d337e7d3408056b683b1e694428"),
    (6, 6, "1/2", 2681, "aa8777434f12e6290e59de63facf1cc52769b9ac106dd834edfbf40fecf3623d"),
])
def test_enumerate_large_family_digest(tmp_path, capsys, rows, cols, p, lines, digest):
    # Pins the sort into label lex order and the set formatting together,
    # on families too long to spell out.
    file = tmp_path / "grid.txt"
    _write_relabelled_grid(file, rows, cols, seed=1)
    assert main(["enumerate", "--file", str(file), "--p", p]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_influence_relabelled_grid_golden(tmp_path, capsys):
    file = tmp_path / "grid.txt"
    _write_relabelled_grid(file, 5, 6, seed=1)
    assert main(["influence", "--file", str(file), "--p", "3/4"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "influencing = {0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,"
        "15,16,17,18,19,20,21,22,23,24,25,26,27,28,29}\n"
    )


def test_influence_sweep_rejects_empty_graph(capsys):
    assert main(["influence", "--g6", "?", "--all-p"]) == EXIT_PARSE
    assert capsys.readouterr().err == "error: --all-p needs at least one vertex\n"


def test_enumerate_pendant_wheel(capsys):
    assert main(["enumerate", "--gen", "fig3", "--p", "7/9"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "{1,2}", "{1,3}", "{1,4}", "{1,7}", "{2,3}",
        "{2,4}", "{2,8}", "{3,4}", "{3,5}", "{4,6}",
    ]


def test_enumerate_small_cases(capsys):
    assert main(["enumerate", "--gen", "path:2", "--p", "1/1"]) == EXIT_OK
    assert capsys.readouterr().out == "{0}\n{1}\n"
    assert main(["enumerate", "--gen", "fig2", "--p", "8/9"]) == EXIT_OK
    assert capsys.readouterr().out == "{5,6}\n"


def test_scan_connected_order_three(capsys):
    assert main(["scan", "--max-order", "3", "--p", "1/2"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "# g6_g g6_h p gp_g gp_h gp_prod holds",
        "# family=connected",
        "pairs=10, failures=0",
    ]


def test_scan_failing_pairs_golden(capsys):
    # C4 x C4 at 4/5 needs only 3 vertices, against 2 * 2 for the factors
    assert main(["scan", "--max-order", "4", "--p", "4/5"]) == EXIT_SCAN_FAILURE
    assert capsys.readouterr().out.splitlines() == [
        "# g6_g g6_h p gp_g gp_h gp_prod holds",
        "# family=connected",
        "C] C] 4/5 2 2 3 false witness={0,1,6}",
        "C] Ck 4/5 2 2 3 false witness={0,2,5}",
        "pairs=55, failures=2",
    ]


def test_scan_disconnected_flag(capsys):
    assert main(["scan", "--max-order", "3", "--include-disconnected", "--p", "1/2"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "# family=all"
    assert lines[-1] == "pairs=28, failures=0"


def test_scan_external_file(tmp_path, capsys):
    listing = tmp_path / "family.g6"
    listing.write_text(f"{write_graph6(path(2))}\n{write_graph6(path(3))}\n")
    assert main(["scan", "--graphs", str(listing), "--p", "1/2"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "# family=external"
    assert lines[-1] == "pairs=3, failures=0"


def test_scan_spider_square_fails_golden(tmp_path, capsys):
    # FFHC? is the spider S(2,2,2): gamma_3/4 is 3, but its square needs only 8.
    listing = tmp_path / "spider.g6"
    listing.write_text("FFHC?\n")
    assert main(["scan", "--graphs", str(listing), "--p", "3/4"]) == EXIT_SCAN_FAILURE
    assert capsys.readouterr().out.splitlines() == [
        "# g6_g g6_h p gp_g gp_h gp_prod holds",
        "# family=external",
        "FFHC? FFHC? 3/4 3 3 8 false witness={0,1,10,19,20,25,31,44}",
        "pairs=1, failures=1",
    ]


def test_scan_reads_networkx_graph6_file(tmp_path, capsys):
    # networkx writes each graph after a ">>graph6<<" header by default.
    listing = tmp_path / "spider.g6"
    nx.write_graph6(nx.from_graph6_bytes(b"FFHC?"), str(listing))
    assert listing.read_text() == ">>graph6<<FFHC?\n"
    assert main(["scan", "--graphs", str(listing), "--p", "3/4"]) == EXIT_SCAN_FAILURE
    assert capsys.readouterr().out.splitlines() == [
        "# g6_g g6_h p gp_g gp_h gp_prod holds",
        "# family=external",
        "FFHC? FFHC? 3/4 3 3 8 false witness={0,1,10,19,20,25,31,44}",
        "pairs=1, failures=1",
    ]


def test_scan_rejects_disconnected_flag_with_file(tmp_path, capsys):
    assert main(["scan", "--graphs", str(tmp_path / "absent.g6"), "--include-disconnected", "--p", "1/2"]) == EXIT_PARSE
    assert "include-disconnected" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["", "\n \n"], ids=["empty", "blank-lines"])
def test_scan_rejects_file_without_graphs(tmp_path, capsys, text):
    listing = tmp_path / "empty.g6"
    listing.write_text(text)
    assert main(["scan", "--graphs", str(listing), "--p", "1/2"]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {listing} holds 0 graphs; expected at least one\n"


@pytest.mark.parametrize("p", ["1/1", "1/2"])
def test_scan_checks_the_product_cap_on_certified_pairs(tmp_path, capsys, p):
    # path(9) and star(8): at 1/1 both factors certify every pair, so no
    # product is built, yet the first pair's product has 81 vertices.
    listing = tmp_path / "big.g6"
    listing.write_text("HhCGGC@\nHsaCCA?\n")
    assert main(["scan", "--graphs", str(listing), "--p", p]) == EXIT_CAP
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: product order 81 exceeds the cap of 64\n"


@pytest.mark.parametrize("p", ["1/1", "1/2"])
def test_scan_rejects_order_zero_graph(tmp_path, capsys, p):
    listing = tmp_path / "zero.g6"
    listing.write_text("\nA_\n?\n")
    assert main(["scan", "--graphs", str(listing), "--p", p]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {listing}, line 3: a scan factor needs at least one vertex, got order 0\n"


def test_scan_names_the_line_over_the_vertex_cap(tmp_path, capsys):
    listing = tmp_path / "cap.g6"
    listing.write_text("A_\n~?@A\n")
    assert main(["scan", "--graphs", str(listing), "--p", "1/2"]) == EXIT_CAP
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 2: order 66 exceeds the cap of 64\n"


def test_scan_full_domination_order_five_golden(capsys):
    # Most of these pairs are certified by a 2-packing and never built.
    assert main(["scan", "--max-order", "5", "--p", "1/1"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "# g6_g g6_h p gp_g gp_h gp_prod holds",
        "# family=connected",
        "pairs=496, failures=0",
    ]


def test_scan_order_out_of_range(capsys):
    for order in ["9", "0"]:
        assert main(["scan", "--max-order", order, "--p", "1/2"]) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: --max-order must be in 1..7, got {order}\n"


def test_product_graph6(capsys):
    assert main(["product", "--gen", "path:2", "--gen2", "path:2"]) == EXIT_OK
    out = capsys.readouterr().out
    expected = cartesian_product(path(2), path(2))
    assert out == write_graph6(expected) + "\n"
    assert parse_graph6(out.strip()).adj == expected.adj
    assert brute_canonical(parse_graph6(out.strip())) == brute_canonical(cycle(4))


def test_product_graph6_long_header(capsys):
    # 64 vertices: the order takes the four-character "~" form.
    assert main(["product", "--gen", "path:8", "--gen2", "path:8"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "~?@?hCGGE?OH?a@A@@?_OGA@?G??OG?OG?GC?A@??OG?@?_?A@??A???@?_??OG??A@???"
        "GC???OG???OG???GC???A?????OG???@?_???A@????A@????@?_????OG????A@?????G"
        "??????OG?????OG?????GC?????A@??????OG?????@?_?????A@??????A???????@?_?"
        "?????OG??????A@???????GC???????OG???????OG???????GC???????A?????????OG"
        "???????@?_???????A@????????A@????????@?_????????OG????????A@\n"
    )


@pytest.mark.parametrize("argv,golden", [
    # order 9, the first packed at width 16 when Graph checks its adjacency
    (["--gen", "path:3", "--gen2", "path:3"], "HkSg_SD"),
    # order 33, width 64
    (["--gen", "cycle:3", "--gen2", "path:11"],
     "`hCGGC@?G?o?O@G?a?GO@@?CA?GA?G@?C?O@?A?K?G?G?O@G?O@C?G?`?A?GG?O@?_@?C@?A?G@?A?G?_@?C?G?O@"),
], ids=["P3xP3", "C3xP11"])
def test_product_graph6_at_packing_widths(capsys, argv, golden):
    # CI runs these on each Python from 3.10 to 3.13, so every version packs rows with struct.
    assert main(["product", *argv]) == EXIT_OK
    assert capsys.readouterr().out == golden + "\n"


def test_product_dot(capsys):
    assert main(["product", "--gen", "path:2", "--gen2", "path:3", "--dot"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "graph G {\n"
        "  node [shape=circle];\n"
        "  0;\n"
        "  1;\n"
        "  2;\n"
        "  3;\n"
        "  4;\n"
        "  5;\n"
        "  0 -- 1;\n"
        "  0 -- 3;\n"
        "  1 -- 2;\n"
        "  1 -- 4;\n"
        "  2 -- 5;\n"
        "  3 -- 4;\n"
        "  4 -- 5;\n"
        "}\n"
    )


def test_file_input_edge_list(tmp_path, capsys):
    listing = tmp_path / "edges.txt"
    listing.write_text("n 4\n0 1\n1 2\n2 3\n")
    assert main(["gamma", "--file", str(listing), "--p", "1/2"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "gamma_p = 1\n"
        "witness = {0}\n"
        "covered = 2 of 4 (target 2)\n"
    )


def test_file_input_graph6(tmp_path, capsys):
    listing = tmp_path / "k4.g6"
    listing.write_text(write_graph6(complete(4)) + "\n")
    assert main(["influence", "--file", str(listing), "--p", "1/1"]) == EXIT_OK
    assert capsys.readouterr().out == "influencing = {0,1,2,3}\n"


def test_file_input_networkx_graph6(tmp_path, capsys):
    listing = tmp_path / "petersen.g6"
    nx.write_graph6(nx.petersen_graph(), str(listing))
    assert listing.read_text() == ">>graph6<<IheA@GUAo\n"
    assert main(["gamma", "--file", str(listing), "--p", "1/1"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "gamma_p = 3\n"
        "witness = {0,2,6}\n"
        "covered = 10 of 10 (target 10)\n"
    )


def test_file_input_headed_graph6_golden(tmp_path, capsys):
    # One graph after the optional ">>graph6<<" header, as networkx writes it.
    listing = tmp_path / "headed.g6"
    listing.write_text(">>graph6<<Ch\n")
    assert main(["gamma", "--file", str(listing), "--p", "1/2"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "gamma_p = 1\n"
        "witness = {0}\n"
        "covered = 2 of 4 (target 2)\n"
    )


def test_file_input_bad_graph6_character_golden(tmp_path, capsys):
    # Positions as written: the "!" is at offset 3 of line 1, blanks included.
    listing = tmp_path / "bad.g6"
    listing.write_text("  A!\n")
    assert main(["gamma", "--file", str(listing), "--p", "1/2"]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 1, offset 3: character '!' outside the graph6 range\n"


@pytest.mark.parametrize("text,message", [
    ("0 1\n1_0 2\n", "line 2: non-integer endpoint in '1_0 2'"),
    ("+5 6\n", "line 1: non-integer endpoint in '+5 6'"),
    ("\u0663 4\n", "line 1: non-integer endpoint in '\u0663 4'"),
    ("n 1_2\n", "line 1: order '1_2' is not an integer"),
], ids=["underscore", "plus", "arabic-indic", "header"])
def test_file_input_edge_list_takes_ascii_digits_only(tmp_path, capsys, text, message):
    listing = tmp_path / "edges.txt"
    listing.write_text(text, encoding="utf-8")
    assert main(["gamma", "--file", str(listing), "--p", "1/2"]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("text,message", [
    ("n 70\n0 1\nx\n", "line 1: order 70 exceeds the cap of 64"),
    ("0 1\n1 99\n", "line 2: order 100 exceeds the cap of 64"),
], ids=["header", "edge"])
def test_file_input_edge_list_names_the_line_over_the_cap(tmp_path, capsys, text, message):
    listing = tmp_path / "edges.txt"
    listing.write_text(text)
    assert main(["gamma", "--file", str(listing), "--p", "1/2"]) == EXIT_CAP
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_file_with_multiple_graphs_rejected(tmp_path, capsys):
    listing = tmp_path / "two.g6"
    listing.write_text("A_\nA_\n")
    assert main(["gamma", "--file", str(listing), "--p", "1/2"]) == EXIT_PARSE
    assert "expected exactly one" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gamma", "--gen", "path:3", "--p", "0.5"],
    ["gamma", "--gen", "path:3", "--p", "3/2"],
    ["gamma", "--gen", "blob:3", "--p", "1/2"],
    ["gamma", "--gen", "fig2:3", "--p", "1/2"],
    ["gamma", "--file", "/nonexistent/graph.g6", "--p", "1/2"],
    ["gamma", "--g6", "A", "--p", "1/2"],
])
def test_parse_failures_exit_two(argv, capsys):
    assert main(argv) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("error:")


def test_vertex_cap_exit_three(capsys):
    assert main(["gamma", "--g6", "~?@A", "--p", "1/2"]) == EXIT_CAP
    assert capsys.readouterr().err.startswith("error:")
    assert main(["gamma", "--gen", "cycle:1000000", "--p", "1/2"]) == EXIT_CAP  # no edge list built first
    assert capsys.readouterr().err.startswith("error:")


def test_argparse_usage_errors_exit_two(capsys):
    assert main(["gamma", "--gen", "path:3"]) == EXIT_PARSE  # missing --p
    assert main(["gamma", "--gen", "path:3", "--g6", "A_", "--p", "1/2"]) == EXIT_PARSE
    assert main(["nosuchcommand"]) == EXIT_PARSE
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "gamma" in capsys.readouterr().out


def test_parser_program_name():
    assert build_parser().prog == "pdom"


def test_main_builds_no_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", lambda self, *a, **k: built.append(k) or init(self, *a, **k))
    assert main(["gamma", "--gen", "path:6", "--p", "1/2"]) == EXIT_OK
    assert main(["enumerate", "--gen", "fig2", "--p", "8/9"]) == EXIT_OK
    assert capsys.readouterr().out == "gamma_p = 1\nwitness = {1}\ncovered = 3 of 6 (target 3)\n{5,6}\n"
    assert built == []


def test_run_raises_system_exit(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["pdom", "gamma", "--gen", "path:2", "--p", "1/1"])
    with pytest.raises(SystemExit) as info:
        run()
    assert info.value.code == EXIT_OK
    assert capsys.readouterr().out.startswith("gamma_p = 1\n")
