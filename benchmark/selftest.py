"""Self-test of the benchmark's checks: each must reject a corrupted output.

    python3 benchmark/selftest.py

Runs every experiment once at a small scale in this process, confirms that
all checks accept the true outputs, then corrupts one output at a time (a
flag, a CSV cell, a summary metric, a captured profile) and confirms that
the check meant to catch it reports a failure.  Takes a few seconds;
exits 1 if any check accepts a corruption or rejects a true output.
"""

import copy
import dataclasses
import sys
import shutil
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import Recorder  # noqa: E402

SMALL = {
    "E4_counterexample": {"orbit_n": 400_000, "n_obs": 1, "n_refs": 20},
    "E3_model_nonpredict": {"n_samples": 100_000, "n_obs": 3, "n_refs": 40},
    "E5_ergodic_predict": {"rot_n": 50_000, "henon_n": 50_000, "n_refs": 20},
    "E6_idim": {"n_samples": 50_000, "n_centers": 500, "skew_orbit_n": 100_000, "skew_stride": 5},
}

problems = []


def expect(label, failures, reject):
    ok = bool(failures) == reject
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {'rejected' if failures else 'accepted'}"
          + (f" ({str(failures[0])[:100]})" if failures else ""))
    if not ok:
        problems.append(label)


def with_row(rows, index, **cells):
    out = copy.deepcopy(rows)
    out[index].update({k: repr(v) for k, v in cells.items()})
    return out


def with_entry(samples, level, **fields):
    """A copy of the samples whose first profile has one ladder entry changed."""
    out = list(samples)
    est = out[0]["est"]
    ladder = list(est.ladder)
    ladder[level] = dataclasses.replace(ladder[level], **fields)
    out[0] = dict(out[0], est=dataclasses.replace(est, ladder=tuple(ladder)))
    return out


def first_big_level(sample):
    return next(j for j, e in enumerate(sample["est"].ladder) if e.count > 1 and e.sigma > 1e-3)


def test_profiles(name, rec, rows, key, min_count):
    found, enumerated = checks.check_profiles(rec.samples, rec.pred, rec.succ)
    expect(f"{name} enumeration, true profiles", found, False)
    j = first_big_level(rec.samples[0])
    entry = rec.samples[0]["est"].ladder[j]
    expect(f"{name} enumeration, count + 1",
           checks.check_profiles(with_entry(rec.samples, j, count=entry.count + 1), rec.pred, rec.succ)[0], True)
    expect(f"{name} enumeration, chi + 1e-6",
           checks.check_profiles(with_entry(rec.samples, j, chi=entry.chi + 1e-6), rec.pred, rec.succ)[0], True)
    expect(f"{name} enumeration, sigma x 1.0001",
           checks.check_profiles(with_entry(rec.samples, j, sigma=entry.sigma * 1.0001), rec.pred, rec.succ)[0],
           True)
    est = rec.samples[0]["est"]
    moved = [dict(rec.samples[0], est=dataclasses.replace(est, sigma_hat_eps=est.ladder[0].eps * 3))]
    expect(f"{name} enumeration, sigma_hat taken at the wrong level",
           checks.check_profiles(moved, rec.pred, rec.succ)[0], True)
    if key == "case":
        expect(f"{name} CSV ladder rows, true", checks.check_ladder_rows(rec.samples, enumerated, rows, key), False)
        group_start = next(i for i, r in enumerate(rows) if r[key] == rows[-1][key])
        at = group_start + rec.samples[0]["index"] * len(enumerated[0]) + j
        bad = with_row(rows, at, sigma=float(rows[at]["sigma"]) * 1.0001)
        expect(f"{name} CSV ladder rows, sigma x 1.0001", checks.check_ladder_rows(rec.samples, enumerated, bad, key),
               True)
    else:
        expect(f"{name} CSV rows, true", checks.check_hat_rows(rec.samples, enumerated, rows, key, min_count), False)
        group_start = next(i for i, r in enumerate(rows) if r[key] == rows[-1][key])
        at = group_start + rec.samples[0]["index"]
        bad = with_row(rows, at, count=float(rows[at]["count"]) + 1)
        expect(f"{name} CSV rows, count + 1", checks.check_hat_rows(rec.samples, enumerated, bad, key, min_count),
               True)


def main():
    from delaylab.experiments import ExperimentConfig, run_experiment

    rec = Recorder(seed=5)
    rec.install()
    tmp = HERE.parent / ".bench_runs" / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)

    def small(experiment, csv_name):
        out = tmp / experiment
        run_experiment(ExperimentConfig(experiment, 5, SMALL[experiment]), out)
        config, metrics, flags = checks.parse_summary((out / "summary.txt").read_text())
        return config, metrics, flags, checks.read_csv(out / csv_name)

    config, metrics, flags, rows = small("E4_counterexample", "skew_refs.csv")
    expect("E4 true outputs", checks.check_skew(config, metrics, flags, rows), False)
    expect("E4 fiber flag false",
           checks.check_skew(config, metrics, dict(flags, fiber_nonpredictable=False), rows), True)
    expect("E4 atom flag inconsistent",
           checks.check_skew(config, metrics, dict(flags, atom_predictable=not flags["atom_predictable"]), rows), True)
    p_rows = [i for i, r in enumerate(rows) if r["side"] == "p"]
    expect("E4 p sigma_hat cell changed",
           checks.check_skew(config, metrics, flags, with_row(rows, p_rows[0], sigma_hat=0.5)), True)
    high = copy.deepcopy(rows)
    for i in p_rows:
        high[i]["sigma_hat"] = "0.002"
    expect("E4 marked-point median above 1e-3",
           checks.check_skew(config, dict(metrics, p_sigma_max=0.002, p_sigma_median=0.002),
                             dict(flags, atom_predictable=False), high), True)
    test_profiles("E4", rec, rows, "obs", int(config["min_count"]))

    config, metrics, flags, rows = small("E3_model_nonpredict", "model_refs.csv")
    expect("E3 true outputs", checks.check_model(config, metrics, flags, rows), False)
    expect("E3 flag false", checks.check_model(config, metrics, dict(flags, model_nonpredictable=False), rows), True)
    expect("E3 sigma_oracle cell x 1.001",
           checks.check_model(config, metrics, flags,
                              with_row(rows, 3, sigma_oracle=float(rows[3]["sigma_oracle"]) * 1.001)), True)
    expect("E3 y cell + 1e-6",
           checks.check_model(config, metrics, flags, with_row(rows, 3, y=float(rows[3]["y"]) + 1e-6)), True)
    expect("E3 oracle_match_min metric changed",
           checks.check_model(config, dict(metrics, oracle_match_min=metrics["oracle_match_min"] - 0.01),
                              flags, rows), True)
    test_profiles("E3", rec, rows, "obs", int(config["min_count"]))

    config, metrics, flags, rows = small("E5_ergodic_predict", "trend_refs.csv")
    expect("E5 true outputs", checks.check_trend(config, metrics, flags, rows), False)
    expect("E5 flag false", checks.check_trend(config, metrics, dict(flags, henon_k3_trend=False), rows), True)
    expect("E5 monotone fraction metric changed",
           checks.check_trend(config, dict(metrics, henon_k2_monotone_fraction=0.5), flags, rows), True)
    test_profiles("E5", rec, rows, "case", int(config["min_count"]))

    config, metrics, flags, rows = small("E6_idim", "idim.csv")
    expect("E6 true outputs", checks.check_idim(metrics, flags, rows), False)
    expect("E6 flag false", checks.check_idim(metrics, dict(flags, point_box_zero=False), rows), True)
    seg = [i for i, r in enumerate(rows) if r["measure"] == "uniform_segment" and r["estimator"] == "box"]
    expect("E6 box value cell changed",
           checks.check_idim(metrics, flags, with_row(rows, seg[0], value=float(rows[seg[0]]["value"]) + 0.5)), True)
    stretched = copy.deepcopy(rows)
    for i in seg:
        stretched[i]["value"] = repr(float(rows[i]["value"]) * 1.5)
    found = checks.check_idim(dict(metrics, uniform_segment_box=metrics["uniform_segment_box"] * 1.5), flags,
                              stretched)
    expect("E6 segment dimension 1.5 (analytic 1)", [f for f in found if "analytic" in f], True)

    files = {"summary.txt": "a", "idim.csv": "b"}
    ops = [{"failures": [], "files": files}, {"failures": [], "files": dict(files, **{"idim.csv": "c"})}]
    expect("artifact bytes differ between operations", run.mark_differing(ops), True)
    expect("artifact bytes equal between operations", run.mark_differing(ops[:1] * 2), False)

    shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(problems)} problem(s)" + (": " + ", ".join(problems) if problems else ""))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
