"""minklat benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload search|families|lattice --seed N \\
        --seconds S --trace 0|1

Run from the root of a source tree (it imports minklat from ./src). Each pass
over the workload's inputs runs in a fresh interpreter (bench/one_pass.py),
single-threaded; passes repeat while another fits within --seconds, at least
one. Extra interpreters that only import minklat and build the inputs sample
setup_s, scaled like the passes by reference slices timed right after set-up.
After the timed passes the outputs are checked against computations made
apart from the program (bench/checks.py).

A pass's scaled_wall_s is its wall time with each stretch of about 0.3 s scaled
by the speed of a fixed reference slice (bench/reference.py) timed at both of
its ends, so that the host's drifting speed cancels out.

The last line of standard output is one JSON object: correct, attempted,
failed, and the metrics: with --trace 0 scaled_wall_s, setup_s and
peak_rss_mib (medians over passes), with --trace 1 the per-layer metrics,
pass.wall_s and pass.slice_s among them. The full result,
each operation's problems and, with --trace 1, the spans go to bench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
# setup-only interpreters per run, on top of one per pass
SETUP_SAMPLES = 5
# per-layer metrics of the whole traced pass, after the tracer's own: its raw
# wall time and the median reference slice, i.e. the host's speed during it
PASS_METRICS = ("pass.wall_s", "pass.slice_s")
# a run must end within 180 s; stop starting work well before that
DEADLINE_S = 165.0

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import one_pass  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: argparse.Namespace, started: float, setup_only: bool = False) -> dict:
    """Run one interpreter; returns its JSON with setup_raw_s (its wall time
    up to the first workload call) and setup_s (that time scaled by the speed
    of the reference slices taken right after) added."""
    cmd = [
        sys.executable, str(HERE / "one_pass.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    timeout = DEADLINE_S - (time.monotonic() - started)
    if timeout <= 0:
        raise TimeoutError("no time left for another pass")
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_raw_s"] = result["first_call"] - t0
    speed = statistics.median(result["slices"][:one_pass.SETUP_SLICES])
    result["setup_s"] = reference.scaled(result["setup_raw_s"], speed, speed)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "minklat" / "__init__.py").is_file():
        print(f"no minklat source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    passes = []
    try:
        # warm-up: the first interpreter of a run reads (or compiles) the
        # sources cold; its figures are not kept
        spawn(args, started, setup_only=True)
        # start another pass only if it can end within --seconds, judging by
        # the last one, so that a run's length does not depend on the pass
        last = 0.0
        while not passes or time.monotonic() - started + last <= args.seconds:
            t0 = time.monotonic()
            passes.append(spawn(args, started))
            last = time.monotonic() - t0
        setups = [p["setup_s"] for p in passes]
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                setups.append(spawn(args, started, setup_only=True)["setup_s"])
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    first = passes[0]
    ops, outs = first["ops"], first["outputs"]
    # every pass of a run must give the same outputs
    same = all(p["ops"] == ops and p["outputs"] == outs for p in passes[1:])
    tables = {n: [workloads.parse_coeffs(t) for t in texts]
              for n, texts in workloads.M_LT_ONE_TABLES.items()}
    problems = checks.check_pass(args.workload, ops, outs, tables)

    if args.trace:
        for p in passes:
            p["layers"].update(zip(PASS_METRICS, (p["wall_s"], statistics.median(p["slices"]))))
        metrics = {
            name: {
                "value": statistics.median(p["layers"][name] for p in passes),
                "unit": tracer.metric_unit(name),
            }
            for name in first["layers"]
        }
    else:
        metrics = {
            "scaled_wall_s": {
                "value": statistics.median(p["scaled_wall_s"] for p in passes), "unit": "s",
            },
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {
                "value": statistics.median(p["peak_rss_mib"] for p in passes),
                "unit": "MiB",
            },
        }
    result = {
        "correct": same,
        "attempted": len(ops) * len(passes),
        "failed": len(problems) * len(passes),
        "metrics": metrics,
    }

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(result)
    detail.update({
        "passes": [
            {k: p[k] for k in ("wall_s", "scaled_wall_s", "setup_raw_s", "setup_s",
                               "peak_rss_mib", "slices")}
            for p in passes
        ],
        "setup_samples": setups,
        "problems": {str(i): {"op": ops[i], "problems": v} for i, v in sorted(problems.items())},
    })
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if args.trace:
        (OUT_DIR / f"{stem}.spans.json").write_text(
            json.dumps({"fields": ["layer", "name", "parent", "op", "start", "end"],
                        "ops": ops, "spans": first["spans"]}) + "\n"
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
