"""pdom benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all     # every workload, each in its own process

Workloads (see workloads.py and GLOSSARY.md): scan, full_cover,
partial_cover, sweep. Each runs single-process as a closed loop: the next
call starts when the previous one has returned and its output was checked.

A run builds its pass once and makes one untimed warm-up call, which also
proves that the output checks reject a no-op entry point and each mutated
line, and checks the bundled figures against the brute-force oracle. With
--trace 0 it then repeats the pass for about --seconds, with a fresh
interpreter doing the workload's set-up (setup_s) between passes. Each
call and each set-up is timed between two runs of a fixed speed loop and
reported in reference seconds (see speed_loop); wall_ref_s sums each
call's median repeat. With --trace 1 it alternates untraced and
traced passes, reports the per-layer totals of one pass and the tracing
overhead, and asserts the traced call counts. The metrics and their units
are the ones BENCHMARK.json names. The last line of standard output is one
JSON object.

Runs under default interpreter settings: no -O (the solver's assert is a
check) and the garbage collector on.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 15


def declared_metrics(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def machine() -> str:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            model = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), model)
    except OSError:
        pass
    return (f"{model}, {os.cpu_count()} cpus, {platform.machine()}; "
            f"{platform.python_implementation()} {platform.python_version()}")


def cpu_seconds() -> float:
    children = os.times()
    return time.process_time() + children.children_user + children.children_system


class Calls:
    """Runs items, counts attempted and failed calls, and collects faults
    that make the run incorrect. Reasons go to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.faults: list[str] = []

    def run(self, item) -> tuple[float, object]:
        """Seconds the call took, and its output (None when it failed)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            code, output, err = item.run()
        except Exception as exc:  # a crashing call is a failed item, not a crashed benchmark
            return time.perf_counter() - start, self._fail(item.label, f"raised {exc!r}")
        elapsed = time.perf_counter() - start
        reason = f"exit {code}: {err.strip()}" if code != 0 else item.check(output)
        return elapsed, (self._fail(item.label, reason) if reason else output)

    def run_pass(self, items) -> list[float]:
        return [self.run(item)[0] for item in items]

    def _fail(self, label: str, reason: str) -> None:
        self.failed += 1
        print(f"FAILED {label}: {reason}", file=sys.stderr)

    def fault(self, what: str, problems: list[str]) -> None:
        for problem in problems:
            self.faults.append(f"{what}: {problem}")
            print(f"FAULT {what}: {problem}", file=sys.stderr)


def probe_seconds(name: str, seed: int, workdir: Path, calls: Calls) -> float:
    """Wall time of one fresh interpreter doing the workload's set-up."""
    workdir.mkdir(exist_ok=True)
    start = time.perf_counter()
    # wait() without a timeout blocks in waitpid; with one it polls in steps of up to 50 ms.
    code = subprocess.Popen([sys.executable, str(HERE / "probe.py"), name, str(seed), str(workdir)],
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).wait()
    elapsed = time.perf_counter() - start
    if code != 0:
        calls.fault("setup probe", [f"exit {code}"])
    return elapsed


# Seconds the speed loop takes on an uncontended core of the reference host
# (Xeon, CPython 3.11.7). It turns a call's time into reference seconds.
REFERENCE_LOOP_S = 0.011


def speed_loop() -> float:
    """Seconds of a fixed pure-Python loop of small-int bit operations, list
    indexing and dict stores, the kind of work the solver does.

    The host the benchmark was built on runs a core at one speed and then at
    up to 1.8 times slower, as other tenants come and go; over a 30 s run the
    slow share drifts from none to all. Timing this loop just before and
    just after a call measures the speed the call ran at.
    """
    start = time.perf_counter()
    closed = [(1 << (i % 61)) | (1 << (i * 7 % 61)) | (1 << (i * 13 % 61)) for i in range(64)]
    best, seen = 0, {}
    for k in range(12000):
        covered = 0
        for v in range(k % 5, 64, 5):
            covered |= closed[v]
        count = covered.bit_count()
        if count > best:
            best = count
        seen[k & 63] = count
    return time.perf_counter() - start


def reference_seconds(seconds: float, loop_before: float, loop_after: float) -> float:
    """A call's time at the reference speed: its seconds scaled by the speed
    the loops around it measured."""
    return seconds * REFERENCE_LOOP_S * 2 / (loop_before + loop_after)


def calibrated(run) -> tuple[float, float]:
    """Seconds and reference seconds of run(), which returns its seconds."""
    before = speed_loop()
    seconds = run()
    return seconds, reference_seconds(seconds, before, speed_loop())


def median_pass(rows: list[list[float]]) -> float:
    """Time of one pass: the sum over its calls of each call's median repeat.
    Every pass runs the same calls on the same inputs."""
    return sum(statistics.median(repeats) for repeats in zip(*rows))


def measure(args, workdir: Path) -> dict:
    import brute
    import checks
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    units = declared_metrics(args.trace)
    calls = Calls()

    items = workload.make_pass(random.Random(args.seed), workdir)
    per_pass = sum(item.count for item in items)
    warmup = items[-1]
    _, output = calls.run(warmup)
    if output is not None:
        calls.fault("check self-test", checks.self_test(warmup.check, output))
    calls.fault("figures", checks.figure_faults(workloads.cli, brute))

    start = time.perf_counter()
    if args.trace:
        tracer = tracing.Tracer()
        plain, traced, cpu, layers = [], [], [], []
        while True:
            cpu_start = cpu_seconds()
            plain.append(sum(calls.run_pass(items)))
            cpu.append(cpu_seconds() - cpu_start)
            with tracer.installed():
                traced.append(sum(calls.run_pass(items)))
            layer = tracer.take()
            layers.append(layer)
            calls.fault("traced counts", [
                f"{name} = {layer[name]}, expected {want}"
                for name, want in workload.expected_counts.items() if layer[name] != want
            ] + [
                f"{name} = {layer[name]}, expected at least {least}"
                for name, least in workload.least_counts.items() if layer[name] < least
            ] + ([f"{layer['conjecture.product_solves']} product solves exceed "
                  f"{layer['conjecture.pairs']} pairs"]
                 if layer["conjecture.product_solves"] > layer["conjecture.pairs"] else []))
            spent = time.perf_counter() - start
            if spent + statistics.median(plain) + statistics.median(traced) > args.seconds:
                break
        values = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
        values["process.cpu_s"] = statistics.median(cpu)
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        summary = f"passes={len(layers)} traced, {len(plain)} untraced; items/pass={per_pass}"
        printed = {}
    else:
        # Probes run between passes, spread evenly over the run's span.
        probes, rows = [], []
        probe = lambda: probe_seconds(args.workload, args.seed, workdir / "probe", calls)  # noqa: E731
        while True:
            due = 1 + SETUP_PROBES * (time.perf_counter() - start) / args.seconds
            while len(probes) < min(due, SETUP_PROBES):
                probes.append(calibrated(probe))
            rows.append([calibrated(lambda: calls.run(item)[0]) for item in items])
            if time.perf_counter() - start + median_pass([[s for s, _ in row] for row in rows]) > args.seconds:
                break
        while len(probes) < SETUP_PROBES:
            probes.append(calibrated(probe))
        wall, wall_ref = (median_pass([[pair[k] for pair in row] for row in rows]) for k in (0, 1))
        values = {
            "wall_ref_s": wall_ref,
            "items_per_ref_s": per_pass / wall_ref,
            "setup_s": statistics.median(ref for _, ref in probes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        summary = (f"passes={len(rows)}; items/pass={per_pass}; "
                   f"pass seconds={[round(sum(s for s, _ in row), 4) for row in rows]}")
        # The same three in plain seconds, which follow the host's speed.
        printed = {"wall_s": (wall, "s"), "items_per_s": (per_pass / wall, "1/s"),
                   "setup_plain_s": (statistics.median(s for s, _ in probes), "s")}

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# machine: {machine()}")
    print(f"# {summary}")
    for name, metric in metrics.items():
        print(f"{name:46s} {metric['value']:14.6g} {metric['unit']}")
    for name, (value, unit) in printed.items():
        print(f"{name:46s} {value:14.6g} {unit} (plain)")
    print(f"{'error_rate':46s} {calls.failed / calls.attempted:14.6g} ratio ({calls.failed} of {calls.attempted} calls)")
    return {
        "correct": calls.failed == 0 and not calls.faults,
        "attempted": calls.attempted,
        "failed": calls.failed,
        "metrics": metrics,
    }


def run_all(args, names) -> dict:
    """Each workload in its own process, one after the other."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
        if result is None:
            print(f"{name}: exit {done.returncode}, no result", file=sys.stderr)
            correct = False
            continue
        print("\n".join(lines[:-1]))
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{metric}": value for metric, value in result["metrics"].items()})
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pdom" / "__init__.py").is_file() or not (ROOT / "tests" / "brute.py").is_file():
        print(f"error: {ROOT} is not a pdom checkout (needs src/pdom and tests/brute.py)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import workloads

    if args.workload == "all":
        result = run_all(args, list(workloads.WORKLOADS))
    elif args.workload in workloads.WORKLOADS:
        workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            result = measure(args, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            with contextlib.suppress(OSError):  # still in use by another run
                workdir.parent.rmdir()
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)} or all")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
