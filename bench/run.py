"""Benchmark harness for inccat.

    python3 bench/run.py --workload hall-fin7 --seed 1 --seconds 20 --trace 0

Runs passes of one workload, one at a time, each in a fresh child
interpreter (``child.py``) under a wall-clock timeout and an address-space
cap, until ``--seconds`` have passed.  Every pass of a run repeats the
same seeded inputs.  With ``--trace 0`` it prints the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced passes and prints the
per-layer table and ``trace_overhead_ratio``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# The keys of ``workloads.WORKLOADS``, listed here so that the parent never
# imports ``inccat``: only the children do.
WORKLOAD_NAMES = ("verify-fin4", "hall-fin7", "canon-cold", "k0-snf")

# A run must end within 180 s; passes start only before ``--seconds`` and
# every child is killed at this deadline.
RUN_DEADLINE_S = 170.0
# Address-space cap of each child.  An SNF regression that blows up memory
# then fails one pass with MemoryError instead of exhausting the machine.
CHILD_AS_LIMIT = 3 * 1024**3
# ``setup_s`` is the median of at least this many untraced set-ups per run.
MIN_SETUPS = 3
# The tail is the highest percentile that leaves this many samples beyond.
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_AS_LIMIT, CHILD_AS_LIMIT))


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile leaving TAIL_BEYOND samples beyond.

    With fewer than TAIL_BEYOND + 1 samples no percentile qualifies, and
    the maximum is reported as percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n


def _git_commit(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(root: str, children: int, loadavg_start: float) -> dict:
    try:
        import sympy

        sympy_version = sympy.__version__
    except ImportError:
        sympy_version = "missing"
    return {
        "python": platform.python_version(),
        "sympy": sympy_version,
        "commit": _git_commit(root),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg_start,
        "children": children,
    }


class Runner:
    """Starts child passes and keeps every report and failure."""

    def __init__(self, root: str, workload: str, seed: int, deadline: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.children = 0
        self.errors: list[str] = []
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        # Fixed hashing makes traced counts repeat exactly; no bytecode is
        # written, so every set-up compiles the same sources.
        self.env["PYTHONHASHSEED"] = "0"
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"

    def child(self, *, trace: bool = False, check: bool = False, setup_only: bool = False,
              spans: str = "") -> dict | None:
        cmd = [
            sys.executable, os.path.join(HERE, "child.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--trace", str(int(trace)), "--check", str(int(check)),
            "--setup-only", str(int(setup_only)), "--spans", spans,
        ]
        self.children += 1
        spawned = _now()
        proc = subprocess.Popen(
            cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, preexec_fn=_limit_child,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - _now()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            self.errors.append(f"pass {self.children}: timed out")
            return None
        if proc.returncode != 0:
            last = err.strip().splitlines()[-1:] or ["no output"]
            self.errors.append(f"pass {self.children}: exit {proc.returncode}: {last[0]}")
            return None
        try:
            report = json.loads(out.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            self.errors.append(f"pass {self.children}: no report on stdout")
            return None
        report["setup_s"] = report["ready"] - spawned - report["prepare_s"]
        return report


def _benchmark_spec(root: str) -> dict:
    """``BENCHMARK.json``: its metric lists say which metrics are gated."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    return {
        "setup_s": _median(setups),
        "wall_s": _median([p["wall_s"] for p in passes]),
        "ops_per_s": _median([len(p["latencies"]) / p["wall_s"] for p in passes]),
        "op_p50_ms": _median([1e3 * statistics.median(p["latencies"]) for p in passes]),
        "op_tail_ms": _median([1e3 * tail(p["latencies"])[0] for p in passes]),
        "peak_rss_mb": _median([p["rss_mb"] for p in passes]),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = _now()
    root = os.getcwd()
    for needed in (os.path.join("src", "inccat", "__init__.py"), "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(root, needed)):
            sys.stderr.write(f"error: run from the repository root; {needed} is missing\n")
            return 2
    loadavg_start = os.getloadavg()[0]
    runner = Runner(root, args.workload, args.seed, started + RUN_DEADLINE_S)
    spans_dir = os.path.join(root, ".bench_out")

    # (traced, report) for every pass, in order.  A failed pass keeps None
    # and ends the run: it is reported, not retried.
    passes: list[tuple[bool, dict | None]] = []
    setups: list[float] = []
    kinds = [False, True] if args.trace else [False]
    while True:
        traced = kinds[len(passes) % len(kinds)]
        first_of_kind = not any(t == traced for t, _ in passes)
        spans = ""
        if traced:
            os.makedirs(spans_dir, exist_ok=True)
            spans = os.path.join(spans_dir, f"{args.workload}.spans")
        report = runner.child(trace=traced, check=first_of_kind, spans=spans)
        passes.append((traced, report))
        if report is None:
            break
        if not traced:
            setups.append(report["setup_s"])
        enough = len(passes) >= len(kinds)
        if enough and (_now() - started >= args.seconds or _now() >= runner.deadline):
            break
    while not args.trace and len(setups) < MIN_SETUPS and _now() < runner.deadline:
        report = runner.child(setup_only=True)
        if report is not None:
            setups.append(report["setup_s"])

    ok_untraced = [r for t, r in passes if r is not None and not t]
    ok_traced = [r for t, r in passes if r is not None and t]
    completed = [r for _, r in passes if r is not None]
    units = completed[0]["units"] if completed else 0
    attempted = units * len(passes)
    # A pass that failed, or whose outputs differ from the first completed
    # pass (traced or not), counts all of its operations as failed.
    failed = units * (len(passes) - len(completed))
    for r in completed:
        if r["digest"] != completed[0]["digest"]:
            runner.errors.append(f"outputs differ between passes: {r['digest']} vs {completed[0]['digest']}")
            failed += r["units"]
        else:
            failed += r["failed"]

    env = environment(root, runner.children, loadavg_start)
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} passes {len(passes)} "
          f"(traced {sum(t for t, _ in passes)}) set-ups {len(setups)}")
    for error in runner.errors:
        print(f"# error {error}")
    if not ok_untraced or (args.trace and not ok_traced):
        sys.stderr.write("error: no pass of this workload completed\n")
        for error in runner.errors:
            sys.stderr.write(f"  {error}\n")
        return 1

    n_ops = len(ok_untraced[0]["latencies"])
    _, pct = tail(ok_untraced[0]["latencies"])
    reported: dict[str, tuple[float, str]] = {
        "failed_ratio": (failed / attempted if attempted else 0.0, "ratio"),
    }
    if args.trace:
        layers = ok_traced[0]["layers"]
        for other in ok_traced[1:]:
            differ = [k for k, v in layers.items() if isinstance(v, int) and other["layers"][k] != v]
            if differ:
                runner.errors.append(f"traced counts differ between passes: {differ}")
        for name, value in layers.items():
            unit = "s" if name.endswith(("_s", ".s")) else ("ratio" if name.endswith("_ratio") else "count")
            reported[name] = (value, unit)
        overhead = _median([r["wall_s"] for r in ok_traced]) / _median([r["wall_s"] for r in ok_untraced])
        reported["trace_overhead_ratio"] = (overhead, "ratio")
    else:
        for name, value in end_to_end(ok_untraced, setups).items():
            reported[name] = (value, END_TO_END[name])

    gated = [m["name"] for m in _benchmark_spec(root)["per_layer" if args.trace else "end_to_end"]]
    missing = [name for name in gated if name not in reported]
    if missing:
        sys.stderr.write(f"error: metrics not produced: {missing}\n")
        return 1
    width = max(len(name) for name in reported)
    for name, (value, unit) in sorted(reported.items()):
        note = f"  (p{pct:.2f} of {n_ops} per pass)" if name == "op_tail_ms" else ""
        mark = "" if name in gated else "  [not in BENCHMARK.json]"
        print(f"{name:<{width}}  {value:<12.6g} {unit}{note}{mark}")
    print(json.dumps({
        "correct": failed == 0 and not runner.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": reported[name][0], "unit": reported[name][1]} for name in gated},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
