"""A fresh process that sets up once, then runs the workload's operations.

    python3 benchmark/worker.py --workload W --seed N --out DIR --trace 0|1
                                --spawned-at T [--until U | --setup-only]

T is the parent's CLOCK_MONOTONIC reading taken just before it started this
process, so the reported set-up time covers interpreter start, ``import
delaylab`` and one tiny warm-up run of the workload's experiment.  With
--setup-only the process stops there and prints one JSON object.  Otherwise
it runs operations while the next one is expected to end before the
CLOCK_MONOTONIC time U (at least two always run).  One operation is one
experiment at the workload's scale, the calibration task of ``calibrate.py``,
then the checks of the experiment's outputs; the task also runs once before
the first operation, so every operation is bracketed by two runs of it.
The process prints one JSON object after set-up and one per operation.
"""

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from calibrate import calibration_s  # noqa: E402
from tracer import Recorder, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_OPERATIONS = 2  # so their artifacts can be compared byte for byte


def _import_delaylab():
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import delaylab
    import_s = time.perf_counter() - t0
    if not Path(delaylab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"delaylab imported from {delaylab.__file__}, not from this checkout")
    return import_s


def check_outputs(workload, out, recorder):
    """Every check of the workload; a list of failure messages."""
    config, metrics, flags = checks.parse_summary((out / "summary.txt").read_text())
    experiment = WORKLOADS[workload]["experiment"]
    min_count = int(config.get("min_count", 0))
    failures = []
    if experiment == "E6_idim":
        return checks.check_idim(metrics, flags, checks.read_csv(out / "idim.csv"))
    found, enumerated = checks.check_profiles(recorder.samples, recorder.pred, recorder.succ)
    failures += found
    if experiment == "E4_counterexample":
        rows = checks.read_csv(out / "skew_refs.csv")
        failures += checks.check_skew(config, metrics, flags, rows)
        failures += checks.check_hat_rows(recorder.samples, enumerated, rows, "obs", min_count)
    elif experiment == "E3_model_nonpredict":
        rows = checks.read_csv(out / "model_refs.csv")
        failures += checks.check_model(config, metrics, flags, rows)
        failures += checks.check_hat_rows(recorder.samples, enumerated, rows, "obs", min_count)
    elif experiment == "E5_ergodic_predict":
        rows = checks.read_csv(out / "trend_refs.csv")
        failures += checks.check_trend(config, metrics, flags, rows)
        failures += checks.check_ladder_rows(recorder.samples, enumerated, rows, "case")
    return failures


def run_operation(spec, seed, out, recorder, tracer, import_s):
    """One timed run_experiment, a calibration right after it, then its checks.

    Returns a JSON-ready record.
    """
    from delaylab import experiments
    recorder.reset()
    if tracer is not None:
        tracer.reset()
    result = {"failures": []}
    cfg = experiments.ExperimentConfig(spec["experiment"], seed, spec["overrides"])
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        experiments.run_experiment(cfg, out)
    except Exception as exc:  # the operation failed; report it so run.py counts it
        traceback.print_exc()
        result["error"] = f"run_experiment raised {exc!r}"
        return result
    result["wall_s"] = time.perf_counter() - t0
    result["cpu_s"] = time.process_time() - cpu0
    result["cal_after_s"] = calibration_s()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result["failures"] += check_outputs(spec["name"], out, recorder)
    result["checked_profiles"] = len(recorder.samples)
    result["files"] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(import_s)
        result["absent"] = tracer.absent
        (out / "trace.json").write_text(json.dumps(
            {"spans": tracer.spans, "counters": tracer.counters, "aggregate": tracer.aggregate()}))
    return result


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--until", type=float)
    mode.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    spec = dict(WORKLOADS[args.workload], name=args.workload)

    import_s = _import_delaylab()
    from delaylab import experiments
    experiments.run_experiment(
        experiments.ExperimentConfig(spec["experiment"], args.seed, spec["warmup"]), args.out / "warmup")
    setup = {"setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at,
             "import_s": import_s}
    print(json.dumps(setup), flush=True)
    if args.setup_only:
        return 0

    recorder = Recorder(args.seed)
    recorder.install()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    cal_before_s = calibration_s()
    done = 0
    while True:
        now = time.clock_gettime(time.CLOCK_MONOTONIC)
        if done >= MIN_OPERATIONS and now + (now - start) / done > args.until:
            break
        out = args.out / f"op{done}"
        result = run_operation(spec, args.seed, out, recorder, tracer, import_s)
        result["cal_before_s"] = cal_before_s  # the task ran after the previous operation
        cal_before_s = result["cal_after_s"] if "cal_after_s" in result else calibration_s()
        if tracer is not None and done > 0:
            (out / "trace.json").unlink(missing_ok=True)  # keep the first operation's spans only
        print(json.dumps(result), flush=True)
        done += 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
