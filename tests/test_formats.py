from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pdom.formats import (
    FormatError,
    parse_edge_list,
    parse_graph6,
    read_graph6_lines,
    write_dot,
    write_graph6,
)
from pdom.graphs import (
    MAX_VERTICES,
    Graph,
    VertexCapError,
    cartesian_product,
    complete,
    complete_bipartite,
    cycle,
    from_edges,
    path,
    pendant_wheel_graph,
    star,
    subdivided_star,
    twin_broom_tree,
    twin_hub_graph,
)

from brute import random_graph
from strategies import SEEDED


def _corpus() -> list[Graph]:
    rng = random.Random(5)
    graphs = [
        Graph(()),
        path(1),
        path(2),
        path(6),
        cycle(5),
        complete(7),
        complete_bipartite(4, 2),
        star(6),
        subdivided_star(8),
        twin_hub_graph(),
        pendant_wheel_graph(),
        twin_broom_tree(),
        cartesian_product(path(4), path(5)),
        cartesian_product(complete(2), complete(3)),
    ]
    graphs += [random_graph(rng, n) for n in range(1, 21)]
    return graphs


@pytest.mark.parametrize("g", _corpus(), ids=lambda g: f"order{g.order}")
def test_graph6_round_trip(g):
    encoded = write_graph6(g)
    decoded = parse_graph6(encoded)
    assert decoded.adj == g.adj
    assert write_graph6(decoded) == encoded


@st.composite
def graphs_up_to_cap(draw) -> Graph:
    """A labelled graph on 0..MAX_VERTICES vertices; one draw picks its edges."""
    n = draw(st.integers(0, MAX_VERTICES))
    pairs = list(combinations(range(n), 2))
    chosen = draw(st.integers(0, (1 << len(pairs)) - 1))
    return from_edges(n, [e for b, e in enumerate(pairs) if chosen >> b & 1])


@SEEDED
@given(graphs_up_to_cap())
@example(Graph(()))
@example(complete(62))  # the last order with a one-byte header
@example(path(63))  # the first order with the "~" header
@example(complete(64))
def test_graph6_round_trip_up_to_cap(g):
    encoded = write_graph6(g)
    assert encoded.startswith("~") == (g.order >= 63)
    assert parse_graph6(encoded).adj == g.adj


@SEEDED
@given(graphs_up_to_cap())
@example(Graph(()))
@example(complete(64))
def test_edge_list_round_trip_up_to_cap(g):
    text = f"n {g.order}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())
    assert parse_edge_list(text).adj == g.adj


def test_known_encodings():
    assert write_graph6(path(2)) == "A_"
    assert write_graph6(Graph(())) == "?"
    assert write_graph6(path(1)) == "@"
    # decode a star on 5 vertices centered at the last index
    assert parse_graph6("D?{").adj == from_edges(5, [(0, 4), (1, 4), (2, 4), (3, 4)]).adj
    assert write_graph6(parse_graph6("D?{")) == "D?{"


def test_long_order_header():
    for g in (complete(63), path(63), path(64)):
        encoded = write_graph6(g)
        assert encoded.startswith("~")
        assert parse_graph6(encoded).adj == g.adj


# write_graph6 at the cap, pinned as literals: a round trip passes when the
# writer and the parser go wrong in the same way, and ORDER_7_SHA256 stops at
# order 7. Both use the four-character "~" order header.
CYCLE_63 = (
    "~??~hCGGC@?G?_@?@??_?G?@??C??G??G??C??@???G???_??@???@????_???G???@???"
    "?C????G????G????C????@?????G?????_????@?????@??????_?????G?????@??????"
    "C??????G??????G??????C??????@???????G???????_??????@???????@????????_?"
    "??????G???????@????????C????????G????????G????????C????????@?????????G"
    "?????????_????????@?????????@??????????o?????????G"
)
P8_X_P8 = (
    "~?@?hCGGE?OH?a@A@@?_OGA@?G??OG?OG?GC?A@??OG?@?_?A@??A???@?_??OG??A@???"
    "GC???OG???OG???GC???A?????OG???@?_???A@????A@????@?_????OG????A@?????G"
    "??????OG?????OG?????GC?????A@??????OG?????@?_?????A@??????A???????@?_?"
    "?????OG??????A@???????GC???????OG???????OG???????GC???????A?????????OG"
    "???????@?_???????A@????????A@????????@?_????????OG????????A@"
)


@pytest.mark.parametrize("g,expected", [
    (cycle(63), CYCLE_63),
    (cartesian_product(path(8), path(8)), P8_X_P8),
], ids=["C63", "P8xP8"])
def test_write_graph6_goldens_at_the_cap(g, expected):
    assert len(expected) == 4 + (g.order * (g.order - 1) // 2 + 5) // 6
    assert write_graph6(g) == expected
    assert parse_graph6(expected).adj == g.adj


def test_parse_graph6_ignores_surrounding_whitespace():
    assert parse_graph6(" A_\n").adj == path(2).adj


def test_parse_graph6_skips_the_graph6_header():
    assert parse_graph6(">>graph6<<A_").adj == path(2).adj
    assert parse_graph6(" >>graph6<<" + P8_X_P8 + "\n").adj == cartesian_product(path(8), path(8)).adj
    # Offsets count from the start of the token, the header included.
    with pytest.raises(FormatError, match="character '!' outside the graph6 range") as err:
        read_graph6_lines("A_\n>>graph6<<A!\n")
    assert (err.value.line, err.value.offset) == (2, 11)
    with pytest.raises(FormatError) as err:
        parse_graph6(">>graph6<<")
    assert "empty graph6 token" in str(err.value)


@pytest.mark.parametrize("text", [">>sparse6<<:An", ">>graph6<A_", ">>digraph6<<&A?"])
def test_parse_graph6_rejects_other_headers(text):
    with pytest.raises(FormatError, match="character '>' outside the graph6 range") as err:
        parse_graph6(text)
    assert err.value.offset == 0


@pytest.mark.parametrize("bad,pos", [
    ("A", 1),        # missing body
    ("A__", 2),      # trailing data
    ("B__", 2),      # body too long for order 3
    ("~?", 2),       # truncated long header
])
def test_parse_graph6_length_errors(bad, pos):
    with pytest.raises(FormatError) as err:
        parse_graph6(bad)
    assert err.value.offset == pos


def test_parse_graph6_bad_characters_and_padding():
    with pytest.raises(FormatError):
        parse_graph6("")
    with pytest.raises(FormatError) as err:
        parse_graph6("A" + chr(30))
    assert err.value.offset == 1
    # chr(30) is whitespace to str.strip, so the case above meets the length
    # check; a body character below 63 meets the range check.
    with pytest.raises(FormatError, match="character '!' outside the graph6 range") as err:
        parse_graph6("D?!")
    assert err.value.offset == 2
    # order 2 has one edge bit; the remaining five must stay zero
    with pytest.raises(FormatError):
        parse_graph6("A`")


def test_parse_graph6_order_cap():
    with pytest.raises(VertexCapError):
        parse_graph6("~?@A")  # order 66
    with pytest.raises(VertexCapError):
        parse_graph6("~~")


def test_read_graph6_lines_reports_line_numbers():
    graphs = read_graph6_lines("A_\n\nBw\n")
    assert [g.order for g in graphs] == [2, 3]
    with pytest.raises(FormatError) as err:
        read_graph6_lines("A_\nA\n")
    assert err.value.line == 2
    with pytest.raises(VertexCapError, match=r"^line 2: order 66 exceeds the cap of 64$"):
        read_graph6_lines("A_\n~?@A\n")
    with pytest.raises(VertexCapError, match=r"^line 3: order beyond 64 "):
        read_graph6_lines("A_\n\n~~\n")


@pytest.mark.parametrize("blank", ["\r", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"],
                         ids=["CR", "FS", "GS", "RS", "NEL", "LS"])
def test_lines_end_at_newline_alone(blank):
    # str.splitlines also breaks at these; here they are blank space.
    with pytest.raises(FormatError) as err:
        read_graph6_lines(f"A_{blank}\nA!")
    assert (err.value.line, err.value.offset) == (2, 1)
    with pytest.raises(FormatError) as err:
        parse_edge_list(f"0 1{blank}\n2 x")
    assert err.value.line == 2


def test_offsets_count_leading_blanks():
    with pytest.raises(FormatError, match=r"^line 1, offset 3: character '!' outside the graph6 range$") as err:
        read_graph6_lines("  A!")
    assert (err.value.line, err.value.offset) == (1, 3)
    with pytest.raises(FormatError, match=r"^offset 3: ") as err:
        parse_graph6("  A!")
    assert err.value.line is None


def test_parse_edge_list_basic():
    assert parse_edge_list("0 1\n1 2").adj == path(3).adj
    assert parse_edge_list("n 4\n0 1\n").adj == from_edges(4, [(0, 1)]).adj
    assert parse_edge_list("n 3").order == 3  # isolated vertices only
    assert list(parse_edge_list("0 1\n0 1\n").edges()) == [(0, 1)]


@pytest.mark.parametrize("text,line", [
    ("0 1\n2 2", 2),        # self-loop
    ("0 1\nx 3", 2),        # non-integer
    ("0 1 2", 1),           # wrong token count
    ("n 3\n0 5", 2),        # beyond declared order
    ("n x", 1),             # bad header
    ("n 3 4", 1),           # header token count
    ("0 -1", 1),            # negative vertex
    ("0 1\n1_0 2", 2),     # int() takes these four, the format does not
    ("+5 6", 1),
    ("\u0663 4", 1),        # ARABIC-INDIC DIGIT THREE
    ("n 1_2\n0 1", 1),
])
def test_parse_edge_list_errors_carry_line_numbers(text, line):
    with pytest.raises(FormatError) as err:
        parse_edge_list(text)
    assert err.value.line == line


def test_parse_edge_list_empty_and_cap():
    with pytest.raises(FormatError):
        parse_edge_list("")
    with pytest.raises(VertexCapError):
        parse_edge_list("n 70")


@pytest.mark.parametrize("text,error,message", [
    ("n 70\n0 1\nx", VertexCapError, "line 1: order 70 exceeds the cap of 64"),  # before line 3's fault
    ("0 1\n1 99\n", VertexCapError, "line 2: order 100 exceeds the cap of 64"),
    ("0 1\n\n63 64\n0 200\n", VertexCapError, "line 3: order 65 exceeds the cap of 64"),  # the first such edge
    ("n 64\n0 64\n", FormatError, "line 2: edge (0, 64) out of range for declared order 64"),
], ids=["header", "edge", "first-edge", "under-a-header"])
def test_parse_edge_list_names_the_line_over_the_cap(text, error, message):
    # As read_graph6_lines does: the line number in front of the message.
    with pytest.raises(ValueError) as err:
        parse_edge_list(text)
    assert type(err.value) is error
    assert str(err.value) == message


def test_parse_edge_list_takes_order_64():
    g = parse_edge_list("0 1\n62 63\n")
    assert g.order == 64 and list(g.edges()) == [(0, 1), (62, 63)]
    assert parse_edge_list("n 64\n").order == 64


def test_write_dot_golden():
    expected = (
        "graph G {\n"
        "  node [shape=circle];\n"
        "  0;\n"
        "  1;\n"
        "  2;\n"
        "  0 -- 1;\n"
        "  1 -- 2;\n"
        "}\n"
    )
    assert write_dot(path(3)) == expected
