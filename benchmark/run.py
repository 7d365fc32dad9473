"""The delaylab benchmark: one workload, measured for a fixed time.

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Two fresh worker processes (``worker.py``)
only set up; a third sets up and then runs the operations one after another,
starting a new one only while it is expected to finish within S seconds of
the start of the run (at least two always run, so their artifacts can be
compared byte for byte).  One operation is one experiment run, bracketed by
a fixed calibration task (``calibrate.py``) and followed by its checks.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With --trace 0 the metrics are
the end-to-end ones: ``wall_rel`` (the operations' total time over their
calibration time), ``peak_rss_mb`` (median over the operations) and
``setup_s`` (median over the three processes); with --trace 1 every operation
runs under the tracer and the metrics are the per-layer ones.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 2  # the operations' worker sets up once more
RUN_LIMIT_S = 170  # a run must end within 180 s, however slow the machine
THREADS = str(min(2, os.cpu_count() or 1))


def _spawn(args, out, until, deadline, setup_only=False):
    """Run one worker to its end or the deadline; the JSON records it printed.

    A worker that exits abnormally or is stopped at the deadline adds one
    failure record after the operations it finished.
    """
    out.mkdir(parents=True)
    env = dict(os.environ, OMP_NUM_THREADS=THREADS, OPENBLAS_NUM_THREADS=THREADS,
               MKL_NUM_THREADS=THREADS)
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--out", str(out), "--trace", str(args.trace)]
    argv += ["--setup-only"] if setup_only else ["--until", repr(until)]
    argv += ["--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - time.clock_gettime(time.CLOCK_MONOTONIC), 0.001))
        stdout, error = proc.stdout, None
        if proc.returncode != 0:
            error = f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    except subprocess.TimeoutExpired as exc:  # run() has killed the worker and waited for it
        stdout = exc.stdout.decode() if isinstance(exc.stdout, bytes) else exc.stdout or ""
        error = f"worker stopped at the {RUN_LIMIT_S} s limit of a run"
    records = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    if error is not None or not records:
        records.append({"error": error or "worker printed no result"})
    return records


def mark_differing(ops):
    """Fail every operation whose artifact hashes differ from the first one's.

    The keyed RNG promises byte-identical artifacts for one configuration.
    Returns the indices of the operations marked.
    """
    reference = next((op["files"] for op in ops if "files" in op), None)
    marked = []
    for i, op in enumerate(ops):
        if "files" in op and op["files"] != reference:
            op["failures"].append("artifacts differ from the first operation's")
            marked.append(i)
    return marked


def _calibration(op):
    """The calibration time that brackets an operation: the mean of the runs before and after it."""
    return (op["cal_before_s"] + op["cal_after_s"]) / 2


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "delaylab" / "__init__.py").is_file():
        print(f"error: no delaylab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    deadline = start + RUN_LIMIT_S
    runs = ROOT / ".bench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(runs, ignore_errors=True)
    setups = []
    for i in range(SETUP_PROBES):
        probe = _spawn(args, runs / f"setup{i}", None, deadline, setup_only=True)[0]
        if "error" in probe:
            print(f"error: set-up failed: {probe['error']}", file=sys.stderr)
            return 1
        setups.append(probe["setup_s"])

    records = _spawn(args, runs / "ops", start + args.seconds, deadline)
    if "setup_s" in records[0]:
        setups.append(records.pop(0)["setup_s"])
    ops = records
    for i, op in enumerate(ops):
        problems = [op["error"]] if "error" in op else op["failures"]
        status = "FAIL " + "; ".join(problems)[:500] if problems else "ok"
        print(f"op {i}: wall_s={op.get('wall_s', float('nan')):.3f} "
              f"cpu_s={op.get('cpu_s', float('nan')):.3f} "
              f"calibration_s={_calibration(op) if 'cal_after_s' in op else float('nan'):.4f} "
              f"peak_rss_mb={op.get('peak_rss_mb', float('nan')):.1f} "
              f"checked_profiles={op.get('checked_profiles', 0)} {status}")

    for i in mark_differing(ops):
        print(f"op {i}: FAIL artifacts differ from the first operation's")
    good = [op for op in ops if "error" not in op and not op["failures"]]
    wrong = [op for op in ops if op.get("failures")]

    if args.trace:
        absent = sorted({name for op in good for name in op.get("absent", [])})
        if absent:
            print("absent layers (not found in the program): " + ", ".join(absent))
        names = good[0]["layers"] if good else {}
        metrics = {name: _metric(statistics.median(op["layers"][name][0] for op in good), unit)
                   for name, (_, unit) in names.items()}
        if good:
            metrics["host.calibration_s"] = _metric(statistics.median(map(_calibration, good)), "s")
    else:
        metrics = {}
        if good:
            wall_s = sum(op["wall_s"] for op in good)
            metrics["wall_rel"] = _metric(wall_s / sum(_calibration(op) for op in good), "x")
            metrics["peak_rss_mb"] = _metric(statistics.median(op["peak_rss_mb"] for op in good), "MB")
            print(f"reference: wall_s mean {wall_s / len(good):.3f}, "
                  f"cpu_s mean {statistics.fmean(op['cpu_s'] for op in good):.3f}")
        metrics["setup_s"] = _metric(statistics.median(setups), "s")
    failed = len(ops) - len(good)
    first_trace = runs / "ops" / "op0" / "trace.json"
    if first_trace.is_file():
        shutil.copyfile(first_trace, runs.with_name(runs.name + ".json"))
    shutil.rmtree(runs, ignore_errors=True)
    print(json.dumps({"correct": not wrong, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
