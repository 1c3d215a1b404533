"""posetsat benchmark: exception sweeps, lattice searches and exact solves.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the package is imported from ``src/`` next to this
directory.  Each workload repeats whole passes over its operations for about
``--seconds`` seconds, checks every verdict against its pinned expected
answer, and prints its metrics by name with their units.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The exit code is 1 when any verdict
is wrong.  See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("chain-sweep", "lattice-sweep", "exact-solve")
SETUP_SAMPLES = 11
# The timed metrics are in reference seconds: seconds on a CPU on which the
# reference loop (``reference_seconds``) takes REFERENCE_S.  The loop is
# timed between operations and around each set-up, so each is scaled by the
# speed the shared host gave the process at that moment.
REFERENCE_LOOPS = 50_000
REFERENCE_REPEATS = 3
REFERENCE_S = 0.00375

# name -> unit; the bounds live in BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "subsets_per_s": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def setup(workload: str, tracer=None):
    """Import the package and build the workload's timed inputs.

    Returns the operations and the seconds this took.
    """
    start = perf_counter()
    from posetsat import constructs, posetspec
    if tracer is not None:
        tracer.install_setup(constructs, posetspec)
    import workloads
    ops = workloads.build(workload)
    return ops, perf_counter() - start


def setup_seconds(workload: str) -> float:
    """Median set-up time over fresh processes, so imports are paid each time.

    Each process times the reference loop just before and just after its
    set-up and reports reference seconds.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload]
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def cpu_now() -> float:
    """CPU seconds of this process and of its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def reference_seconds() -> float:
    """Seconds one fixed pure-Python loop of bit operations takes now.

    The fastest of a few repeats, so that a preemption in one of them does
    not count as a slow CPU.
    """
    best = float("inf")
    for _ in range(REFERENCE_REPEATS):
        start = perf_counter()
        acc = 0
        for i in range(REFERENCE_LOOPS):
            acc = (acc << 1 ^ i) & 0xFFFF
        best = min(best, perf_counter() - start)
    return best


def run_pass(ops, tracer=None, meter=None) -> list[dict]:
    """Run every operation once; one row per operation.

    With a tracer, each operation is also the root span of its layer spans.
    With a meter, each row also holds the seconds the operation spent in
    sweeps and the absent subsets those sweeps decided.
    """
    results: dict[str, object] = {}
    rows = []
    ref = reference_seconds() if meter else None
    for op in ops:
        span = tracer.begin("op", {"name": op.name}) if tracer else None
        swept0 = (meter.seconds, meter.candidates) if meter else (0.0, 0)
        cpu0, t0 = cpu_now(), perf_counter()
        try:
            raw, error = op.run(results), None
        except Exception as exc:  # a failed operation is counted, the pass goes on
            raw, error = None, f"{type(exc).__name__}: {exc}"
        wall, cpu = perf_counter() - t0, cpu_now() - cpu0
        if span is not None:
            tracer.end(span)
        results[op.name] = raw
        row = {"op": op, "raw": raw, "error": error, "wall": wall, "cpu": cpu}
        if meter is not None:
            ref_after = reference_seconds()
            row["ref"] = (ref + ref_after) / 2
            ref = ref_after
            row["sweep"] = meter.seconds - swept0[0]
            row["candidates"] = meter.candidates - swept0[1]
        rows.append(row)
    return rows


def check(rows: list[dict]) -> tuple[list, list[str]]:
    """Verdicts of one pass and a description of each mismatch."""
    verdicts, problems = [], []
    for row in rows:
        op = row["op"]
        got = row["error"]
        if got is None:
            try:
                got = op.verdict(row["raw"])
            except Exception as exc:  # a verdict that cannot be read is wrong
                got = f"{type(exc).__name__}: {exc}"
        verdicts.append([op.name, got])
        if got != op.expected:
            problems.append(f"{op.name}: got {got!r}, expected {op.expected!r} "
                            f"({op.source})")
    return verdicts, problems


def median_sum(passes: list[list[dict]], key: str, calibrated: bool = False) -> float:
    """Sum over operations of the operation's median over the passes.

    ``calibrated`` scales each operation to reference seconds by the mean of
    the reference loops timed just before and just after it.  That takes out
    the host's drift in speed; the median then takes out the passes that
    other tenants preempted.  The fastest pass would instead pick the
    operations whose reference loop happened to be slowed.
    """
    def cost(row):
        return row[key] / row["ref"] * REFERENCE_S if calibrated else row[key]

    return sum(statistics.median(cost(p[i]) for p in passes)
               for i in range(len(passes[0])))


def end_to_end(passes: list[list[dict]], setup_s: float, attempted: int,
               failed: int) -> dict:
    rss_kb = max(resource.getrusage(who).ru_maxrss
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return {
        "setup_s": setup_s,
        "wall_s": median_sum(passes, "wall", True),
        "cpu_s": median_sum(passes, "cpu", True),
        "subsets_per_s": sum(row["candidates"] for row in passes[0])
                         / median_sum(passes, "sweep", True),
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": rss_kb / 1024,
    }


def per_layer(untraced, traced, setup_tracer) -> dict:
    import tracing

    by_pass = [tracing.layer_metrics(t.spans) for _rows, t in traced]
    metrics = tracing.setup_metrics(setup_tracer.spans)
    metrics.update({k: statistics.median(m[k] for m in by_pass) for k in by_pass[0]})
    metrics["trace.overhead_s"] = (median_sum([rows for rows, _t in traced], "wall")
                                   - median_sum(untraced, "wall"))
    return metrics


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "commit": git_commit(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict):
    """Measure one workload; returns (metrics, attempted, failed)."""
    import tracing

    setup_s = 0.0 if trace else setup_seconds(name)
    setup_tracer = tracing.Tracer() if trace else None
    ops, _ = setup(name, setup_tracer)
    if setup_tracer is not None:
        setup_tracer.uninstall()
    from posetsat import solver, verify
    import workloads

    # The check pass runs first and doubles as the warm-up; it counts
    # against the run's seconds.
    start = perf_counter()
    check_rows = run_pass(workloads.build(name, seed, check=True))
    untraced, traced = [], []
    child_dir = OUT / f"children-{os.getpid()}"
    timed = perf_counter()
    while True:
        if trace and len(untraced) > len(traced):
            tracer = tracing.Tracer(child_dir)
            tracer.install(verify, solver)
            try:
                traced.append((run_pass(ops, tracer), tracer))
            finally:
                tracer.uninstall()
        else:
            meter = tracing.SweepMeter(verify, solver)
            try:
                untraced.append(run_pass(ops, meter=meter))
            finally:
                meter.uninstall()
        now = perf_counter()
        per_pass = (now - timed) / (len(untraced) + len(traced))
        # Start another pass if it should end by half a pass past the deadline.
        if (not trace or traced) and now - start + per_pass / 2 > seconds:
            break

    all_rows = [check_rows] + untraced + [rows for rows, _t in traced]
    # Distinct verdicts per operation over every pass, the relabeled check
    # pass included: one verdict each when the run is consistent.
    seen: dict[str, list] = {}
    problems = []
    for rows in all_rows:
        verdicts, wrong = check(rows)
        problems += wrong
        for op_name, got in verdicts:
            if got not in seen.setdefault(op_name, []):
                seen[op_name].append(got)
    digest = hashlib.sha256(json.dumps(sorted(seen.items())).encode()).hexdigest()
    attempted = sum(len(rows) for rows in all_rows)
    failed = len(problems)

    if trace:
        metrics = per_layer(untraced, traced, setup_tracer)
        units = tracing.UNITS
        shutil.rmtree(child_dir, ignore_errors=True)
        (OUT / f"trace-{name}-seed{seed}.json").write_text(json.dumps({
            "workload": name, "seed": seed, "env": env, "metrics": metrics,
            "span_fields": ["name", "start", "end", "parent", "attrs"],
            "setup_spans": setup_tracer.spans,
            "pass_spans": [t.spans for _rows, t in traced]}))
    else:
        metrics = end_to_end(untraced, setup_s, attempted, failed)
        units = END_TO_END

    print(f"workload {name} seed {seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes, {attempted} verdicts, {failed} wrong")
    for key, value in metrics.items():
        print(f"  {key} = {value:.6g} {units[key]}")
    print(f"  failed_ratio = {failed / attempted:.6g}")
    if not trace:
        refs = [r["ref"] for rows in untraced for r in rows]
        print(f"  uncalibrated wall_s = {median_sum(untraced, 'wall'):.6g} s; reference "
              f"loop {min(refs) * 1e3:.3g} ms fastest, "
              f"{statistics.median(refs) * 1e3:.3g} ms median "
              f"(reference seconds assume {REFERENCE_S * 1e3:g} ms)")
    print(f"  verdict digest {digest}")
    for line in problems:
        print(f"WRONG {line}", file=sys.stderr)
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "posetsat").is_dir():
        print(f"posetsat sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        before = reference_seconds()
        seconds = setup(args.workload)[1]
        speed = (before + reference_seconds()) / 2
        print(seconds / speed * REFERENCE_S)
        return 0

    env = environment()
    print("environment " + json.dumps(env))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        m, a, f = run_workload(name, args.seed, args.seconds, bool(args.trace), env)
        prefix = "" if len(names) == 1 else name + "/"
        metrics.update({prefix + k: v for k, v in m.items()})
        attempted += a
        failed += f
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
