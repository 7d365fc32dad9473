"""Acceptance suite: every criterion at its stated scale and tolerance.

Each check prints one `[criterion N] PASS/FAIL` line (run pytest with -s to
see them stream).  The experiment runs are shared session fixtures, so the
whole suite performs each long computation once.
"""

import math

import numpy as np
import pytest

from delaylab.embedding import delay_series, PairedVectors
from delaylab.experiments import ExperimentConfig, run_experiment
from delaylab.predictability import chi_sigma

SEED = 7


def _criterion(num, description, condition, detail=""):
    state = "PASS" if condition else "FAIL"
    print(f"[criterion {num:2d}] {state} {description} {detail}")
    assert condition, f"criterion {num}: {description} {detail}"


def _run(request, tmp_path_factory, experiment, overrides=None):
    out = tmp_path_factory.mktemp(experiment)
    cfg = ExperimentConfig(experiment, SEED, overrides or {})
    return run_experiment(cfg, out), out


@pytest.fixture(scope="session")
def e1(request, tmp_path_factory):
    return _run(request, tmp_path_factory, "E1_parabolic")


@pytest.fixture(scope="session")
def e2(request, tmp_path_factory):
    return _run(request, tmp_path_factory, "E2_natural_measure")


@pytest.fixture(scope="session")
def e3(request, tmp_path_factory):
    return _run(request, tmp_path_factory, "E3_model_nonpredict")


@pytest.fixture(scope="session")
def e4(request, tmp_path_factory):
    return _run(request, tmp_path_factory, "E4_counterexample")


@pytest.fixture(scope="session")
def e5(request, tmp_path_factory):
    return _run(request, tmp_path_factory, "E5_ergodic_predict")


@pytest.fixture(scope="session")
def e6(request, tmp_path_factory):
    return _run(request, tmp_path_factory, "E6_idim")


def test_criterion_1_parabolic_decay(e1):
    summary, _ = e1
    slope = summary.metrics["rho_slope"]
    seconds = summary.timings["rho_seconds"]
    _criterion(1, "radial decay slope in [-0.55, -0.45] within 30 s",
               -0.55 <= slope <= -0.45 and seconds < 30.0,
               f"(slope={slope:.4f}, {seconds:.1f}s)")


def test_criterion_2_linear_visit_growth(e1):
    summary, _ = e1
    rp = summary.metrics["visit_ratio_spread_p"]
    rq = summary.metrics["visit_ratio_spread_q"]
    g1 = summary.metrics["gap_max_50_100"]
    g2 = summary.metrics["gap_max_150_200"]
    _criterion(2, "visit-time growth ratio <= 4 and stabilized gap maxima",
               rp <= 4.0 and rq <= 4.0 and g1 == g2,
               f"(spread_p={rp:.2f}, spread_q={rq:.2f}, gap_max={g1:.0f}/{g2:.0f})")


def test_criterion_3_bounded_discrepancy(e1):
    summary, _ = e1
    slope = summary.metrics["absdiff_slope"]
    _criterion(3, "|N_p - N_q| regression slope within [-0.05, 0.05]",
               -0.05 <= slope <= 0.05, f"(slope={slope:+.4f})")


def test_criterion_4_natural_measure_halves(e2):
    summary, _ = e2
    fracs = [summary.metrics[f"occupation_{side}_start{s}"]
             for side in ("p", "q") for s in (1, 2, 3)]
    _criterion(4, "box occupation within 0.5 +/- 0.05 for three starts",
               all(abs(f - 0.5) <= 0.05 for f in fracs),
               "(" + ", ".join(f"{f:.3f}" for f in fracs) + ")")


def test_criterion_5_information_dimension(e6):
    summary, _ = e6
    m = summary.metrics
    ok = (abs(m["model_measure_ball"] - 0.5) <= 0.1
          and abs(m["model_measure_box"] - 0.5) <= 0.1
          and abs(m["uniform_segment_ball"] - 1.0) <= 0.1
          and abs(m["uniform_segment_box"] - 1.0) <= 0.1
          and abs(m["point_mass_ball"]) <= 0.05
          and abs(m["point_mass_box"]) <= 0.05)
    _criterion(5, "idim estimates: model 0.5 +/- 0.1, segment 1.0 +/- 0.1, atom 0 +/- 0.05", ok,
               f"(model {m['model_measure_ball']:.3f}/{m['model_measure_box']:.3f}, "
               f"segment {m['uniform_segment_ball']:.3f}/{m['uniform_segment_box']:.3f}, "
               f"atom {m['point_mass_ball']:.3f}/{m['point_mass_box']:.3f})")


def test_criterion_6_model_nonpredictability(e3):
    summary, _ = e3
    pf = summary.metrics["predictable_fraction_max"]
    om = summary.metrics["oracle_match_min"]
    _criterion(6, "model at k=1: predictable fraction <= 0.2, oracle match >= 0.8",
               pf <= 0.2 and om >= 0.8, f"(pred_frac={pf:.3f}, match={om:.3f})")


def test_criterion_7_counterexample(e4):
    summary, _ = e4
    p_max = summary.metrics["p_sigma_max"]
    q_frac = summary.metrics["q_nonpredictable_fraction"]
    _criterion(7, "skew product at k=1: fiber passages non-predictable, marked point tight",
               q_frac >= 0.5 and p_max < 1e-3,
               f"(q_nonpred={q_frac:.4f}, p_sigma_max={p_max:.2e})")


def test_criterion_8_ergodic_trend(e5):
    summary, _ = e5
    rot = summary.metrics["rotation_k2_monotone_fraction"]
    hen = summary.metrics["henon_k3_monotone_fraction"]
    _criterion(8, "sigma decreasing on last 4 levels: rotation k=2 >= 90%, Henon k=3 >= 80%",
               rot >= 0.9 and hen >= 0.8, f"(rotation={rot:.3f}, henon={hen:.3f})")


def test_criterion_9_estimator_oracle():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for k in (1, 2):
        m = rng.normal(size=200)
        s = delay_series(m, k)
        for _ in range(25):
            y = s.predecessors[rng.integers(0, len(s))]
            eps = rng.uniform(0.1, 2.0)
            idx = [i for i in range(len(s)) if np.linalg.norm(s.predecessors[i] - y) < eps]
            chi, sigma, count = chi_sigma(s, y, eps)
            assert count == len(idx)
            if not idx:
                continue
            cloud = s.successors[idx]
            mean = cloud.mean(axis=0)
            std = math.sqrt(float(np.mean(np.sum((cloud - mean) ** 2, axis=1))))
            worst = max(worst, float(np.max(np.abs(chi - mean))), abs(sigma - std))
    two = PairedVectors(1, np.array([[0.0], [0.5]]), np.array([[1.0], [3.5]]))
    _, sigma2, n2 = chi_sigma(two, [0.25], 1.0)
    exact_two = (n2 == 2 and sigma2 * sigma2 == (3.5 - 1.0) ** 2 / 4.0)
    _criterion(9, "conditional statistics equal enumeration to 1e-12; two-point form exact",
               worst < 1e-12 and exact_two, f"(worst dev {worst:.2e})")


def test_criterion_10_determinism(e1, e3, tmp_path_factory):
    _, out_e1 = e1
    _, out_e3 = e3
    again_e1 = tmp_path_factory.mktemp("E1_again")
    again_e3 = tmp_path_factory.mktemp("E3_again")
    run_experiment(ExperimentConfig("E1_parabolic", SEED), again_e1)
    run_experiment(ExperimentConfig("E3_model_nonpredict", SEED), again_e3)
    same = True
    for first, second in ((out_e1, again_e1), (out_e3, again_e3)):
        for csv in sorted(first.glob("*.csv")):
            same = same and (csv.read_bytes() == (second / csv.name).read_bytes())
    _criterion(10, "rerun with the same seed reproduces CSV artifacts byte for byte", same)
