"""One pass of a workload in a fresh interpreter; run.py starts one per pass.

A fresh interpreter per pass keeps roots' lru_cache from turning a repeated
call into a cache hit. Prints one JSON line: the monotonic time of the first
workload call (run.py subtracts the time it started this process, which gives
setup_s), the times of the reference slices (bench/reference.py) taken right
after set-up and after every stretch of at least SEGMENT_S of operations, the
pass's wall time and its scaled wall time, its peak resident memory, each
operation's output, and with --trace 1 the per-layer metrics and the spans.

    PYTHONPATH=src python3 bench/one_pass.py --workload lattice --seed 0 --trace 0
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


# operations run back to back for at least this long between reference slices
SEGMENT_S = 0.3
SETUP_SLICES = 3


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import minklat
    from minklat import intpoly, lattice, measures, roots, search, verify

    src = Path(__file__).resolve().parents[1] / "src"
    if Path(minklat.__file__).resolve().parent != src / "minklat":
        print(f"minklat imported from {minklat.__file__}, not {src}", file=sys.stderr)
        return 2

    import reference
    import tracer
    import workloads

    runner = workloads.Runner()
    prepared = runner.prepare(workloads.make_ops(args.workload, args.seed))
    tr = None
    if args.trace:
        tr = tracer.Tracer()
        tr.install([intpoly, roots, measures, search, lattice, verify])
    first_call = time.monotonic()
    reference.slice_s()  # warm-up, not kept
    # the speed right after set-up, which run.py scales setup_s by
    slices = [reference.slice_s() for _ in range(SETUP_SLICES)]
    if args.setup_only:
        print(json.dumps({"first_call": first_call, "slices": slices}))
        return 0

    raws = []
    errors = {}
    wall = scaled = segment = 0.0
    for i, (op, poly) in enumerate(prepared):
        if tr is not None:
            tr.op = i
        t0 = time.perf_counter()
        try:
            raws.append(runner.call(op, poly))
        except Exception:  # a failed operation is counted, not fatal
            raws.append(None)
            errors[i] = traceback.format_exc(limit=3)
        segment += time.perf_counter() - t0
        if segment >= SEGMENT_S or i == len(prepared) - 1:
            slices.append(reference.slice_s())
            wall += segment
            scaled += reference.scaled(segment, slices[-2], slices[-1])
            segment = 0.0
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tr is not None:
        tr.uninstall()
    outputs = []
    for i, ((op, poly), raw) in enumerate(zip(prepared, raws)):
        if i in errors:
            outputs.append({"error": errors[i]})
        else:
            outputs.append(runner.describe(op, poly, raw))
    result = {
        "first_call": first_call,
        "wall_s": wall,
        "scaled_wall_s": scaled,
        "slices": slices,
        "peak_rss_mib": peak_kib / 1024.0,
        "ops": [op for op, _ in prepared],
        "outputs": outputs,
    }
    if tr is not None:
        stats = {"generated": 0, "passed_prescreen": 0}
        for out in outputs:
            for key in stats:
                stats[key] += out.get("stats", {}).get(key, 0)
        result["layers"] = tracer.layer_metrics(tr.spans, stats)
        result["spans"] = tr.spans
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
