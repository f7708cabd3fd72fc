"""One pass of one workload in a fresh interpreter; started by ``run.py``.

Prints one JSON line: the monotonic time at which set-up finished, the
input-generation time to subtract from set-up, the pass's wall time,
every operation's latency, ``ru_maxrss``, the units attempted and
failed, a digest of the outputs and, when traced, the per-layer table.
The module-level memo tables of ``inccat`` start empty in every pass, as
they do for a user who runs the CLI.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default="")
    args = parser.parse_args()

    from workloads import WORKLOADS  # imports inccat: part of set-up

    workload = WORKLOADS[args.workload]
    t = _now()
    prepared = workload.prepare(args.seed)
    prepare_s = _now() - t

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(f"{args.workload}/seed={args.seed}").install()
    state = workload.setup()
    ready = _now()
    if args.setup_only:
        print(json.dumps({"ready": ready, "prepare_s": prepare_s}))
        return 0

    ops = workload.ops(args.seed, state, prepared)
    latencies = []
    outputs = []
    clock = time.perf_counter
    start = clock()
    for _kind, _args, thunk in ops:
        t0 = clock()
        outputs.append(thunk())
        latencies.append(clock() - t0)
    wall = clock() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.table()
        if args.spans:
            tracer.write_spans(args.spans)
    failed = workload.check(args.seed, state, prepared, ops, outputs, bool(args.check))
    print(
        json.dumps(
            {
                "ready": ready,
                "prepare_s": prepare_s,
                "wall_s": wall,
                "latencies": latencies,
                "kinds": [kind for kind, _, _ in ops],
                "rss_mb": rss_mb,
                "units": workload.units(ops),
                "failed": failed,
                "digest": workload.digest(outputs),
                "layers": layers,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
