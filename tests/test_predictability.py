import csv
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from delaylab.dimension import _check_ladder, ball_mass_dimension, box_counting_idim
from delaylab.dynamics import ambient_of_states, GOLDEN_ROTATION, SystemConfig, trajectory
from delaylab.embedding import delay_series, PairedVectors
from delaylab.experiments import _draw, ExperimentConfig, run_experiment
from delaylab.observables import evaluate, Observable
from delaylab.predictability import (
    _square_cut,
    BruteEngine,
    chi_sigma,
    default_ladder,
    predictability_report,
    Sorted1DEngine,
)

ALPHA = GOLDEN_ROTATION


def test_neighbor_indices_examples():
    """The ball holds only the vectors that have a successor."""
    s = delay_series([0.0, 1.0, 2.0], 1)
    assert chi_sigma(s, [0.0], 0.5)[2] == 1
    assert chi_sigma(s, [0.0], 10.0)[2] == 2  # 2.0 is the last vector: no successor
    assert chi_sigma(s, [0.5], 1e-12)[2] == 0
    with pytest.raises(ValueError):
        chi_sigma(s, [0.0], 0.0)


def test_chi_sigma_two_neighbors():
    # predecessors 0.0, 0.25 inside the ball; successors are 0.25, 8.0
    s = delay_series([0.0, 0.25, 8.0, 9.0], 1)
    chi, sigma, count = chi_sigma(s, [0.1], 0.5)
    assert count == 2
    assert chi[0] == (0.25 + 8.0) / 2
    assert sigma == abs(8.0 - 0.25) / 2


def test_chi_sigma_identical_successors():
    pv = PairedVectors(1, np.array([[0.0], [0.1], [0.2]]), np.array([[5.0], [5.0], [5.0]]))
    chi, sigma, count = chi_sigma(pv, [0.1], 1.0)
    assert count == 3
    assert sigma == 0.0
    assert chi[0] == 5.0


def test_chi_sigma_empty_ball_distinguished():
    s = delay_series([0.0, 1.0, 2.0], 1)
    chi, sigma, count = chi_sigma(s, [10.0], 0.5)
    assert count == 0 and chi is None and sigma is None


def test_chi_sigma_matches_enumerated_oracle():
    """Conditional mean and deviation against direct enumeration, 1e-12."""
    rng = np.random.default_rng(21)
    for k in (1, 2, 3):
        m = rng.normal(size=300)
        s = delay_series(m, k)
        for _ in range(20):
            y = s.predecessors[rng.integers(0, len(s))] + rng.normal(scale=0.05, size=k)
            eps = rng.uniform(0.05, 1.0)
            idx = [i for i in range(len(s))
                   if np.linalg.norm(s.predecessors[i] - y) < eps]
            chi, sigma, count = chi_sigma(s, y, eps)
            assert count == len(idx)
            if not idx:
                continue
            cloud = s.successors[idx]
            mean = cloud.mean(axis=0)
            std = math.sqrt(float(np.mean(np.sum((cloud - mean) ** 2, axis=1))))
            assert np.max(np.abs(chi - mean)) < 1e-12
            assert abs(sigma - std) < 1e-12


def test_two_point_formula_exact():
    pv = PairedVectors(1, np.array([[0.0], [0.5]]), np.array([[1.0], [3.0]]))
    chi, sigma, count = chi_sigma(pv, [0.25], 1.0)
    assert count == 2
    assert sigma * sigma == (3.0 - 1.0) ** 2 / 4.0


def test_permutation_invariance():
    rng = np.random.default_rng(22)
    pred = rng.normal(size=(100, 2))
    succ = rng.normal(size=(100, 2))
    perm = rng.permutation(100)
    a = PairedVectors(2, pred, succ)
    b = PairedVectors(2, pred[perm], succ[perm])
    y = pred[0]
    for eps in (0.3, 1.0, 3.0):
        chi_a, sig_a, n_a = chi_sigma(a, y, eps)
        chi_b, sig_b, n_b = chi_sigma(b, y, eps)
        assert n_a == n_b
        assert np.max(np.abs(chi_a - chi_b)) < 1e-12
        assert abs(sig_a - sig_b) < 1e-12


def test_translation_equivariance():
    rng = np.random.default_rng(23)
    pred = rng.normal(size=(200, 3))
    succ = rng.normal(size=(200, 3))
    shift = np.array([2.5, -1.0, 0.5])
    a = PairedVectors(3, pred, succ)
    b = PairedVectors(3, pred + shift, succ + shift)
    y = pred[7]
    chi_a, sig_a, _ = chi_sigma(a, y, 1.5)
    chi_b, sig_b, _ = chi_sigma(b, y + shift, 1.5)
    assert np.max(np.abs(chi_b - (chi_a + shift))) < 1e-12
    assert abs(sig_b - sig_a) < 1e-12


def test_ladder_counts_monotone():
    rng = np.random.default_rng(24)
    s = delay_series(rng.normal(size=2000), 2)
    ladder = default_ladder(s)
    for _ in range(10):
        y = s.predecessors[rng.integers(0, len(s))]
        est = BruteEngine(s, [y], ladder).profile(y, ladder, min_count=2)
        counts = [e.count for e in est.ladder]
        assert all(b <= a for a, b in zip(counts, counts[1:]))


def test_sigma_profile_identical_vectors():
    s = delay_series([1.0] * 50, 1)
    est = BruteEngine(s, [[1.0]], [0.5, 0.25]).profile([1.0], [0.5, 0.25], min_count=2)
    assert est.sigma_hat == 0.0
    assert est.predictable is True


def test_sigma_profile_undefined_when_sparse():
    s = delay_series([0.0, 1.0, 2.0, 3.0], 1)
    est = BruteEngine(s, [[0.0]], [1e-6]).profile([0.0], [1e-6], min_count=2)
    assert est.sigma_hat is None
    assert est.predictable is None
    assert not est.defined


def test_sigma_profile_ladder_validation():
    s = delay_series([0.0, 1.0, 2.0], 1)
    with pytest.raises(ValueError):
        BruteEngine(s, [[0.0]], [0.1, 0.2])  # not decreasing
    with pytest.raises(ValueError):
        BruteEngine(s, [[0.0]], [0.1]).profile([0.0], [0.1], min_count=1)


@pytest.mark.parametrize("ladder", [[math.nan, 0.5, 0.25], [1.0, math.nan, 0.25],
                                    [1.0, 0.5, math.nan]])
def test_nan_ladder_level_rejected(ladder):
    # a NaN level compares false both ways: an empty ball to one engine, one point to the other
    s = delay_series(np.arange(10.0), 1)
    points = np.arange(20.0).reshape(10, 2)
    for call in (lambda: BruteEngine(s, [[1.0]], ladder),
                 lambda: Sorted1DEngine(s, [[1.0]], ladder),
                 lambda: chi_sigma(s, [1.0], math.nan),
                 lambda: ball_mass_dimension(points, ladder, 5, 0),
                 lambda: box_counting_idim(points, ladder)):
        with pytest.raises(ValueError, match="ladder"):
            call()


def test_ladder_error_names_first_bad_level():
    # 2000 halvings underflow to 0 near level 1,075: name that level, not all 2000
    s = delay_series(np.arange(10.0), 1)
    with pytest.raises(ValueError, match=r"got 2000 levels, level 10\d\d = 0\.0$") as err:
        predictability_report(s, [[1.0]], levels=2000)
    assert len(str(err.value)) < 100
    for ladder, at in (([1.0, 0.5, 0.5], "got 3 levels, level 2 = 0.5"),
                       ([1.0, -0.5], "got 2 levels, level 1 = -0.5"), ([], "got 0 levels")):
        with pytest.raises(ValueError, match=f"{re.escape(at)}$"):
            _check_ladder(ladder)


@pytest.mark.parametrize("name,val", [
    ("levels", True), ("levels", 2.5), ("levels", 0), ("levels", "8"),
    ("min_count", 2.5), ("min_count", 1), ("min_count", True),
    ("top", -1), ("top", 0.0), ("top", math.nan), ("top", math.inf), ("top", True),
    ("threshold", math.nan), ("threshold", math.inf), ("threshold", 0.0), ("threshold", "1e-3"),
])
def test_report_rejects_bad_knobs(name, val):
    s = delay_series(np.arange(30.0), 2)
    with pytest.raises(ValueError, match=f"^{name} must be .*, not {re.escape(repr(val))}$"):
        predictability_report(s, s.predecessors[:2], **{name: val})


def test_report_accepts_numpy_knobs():
    s = delay_series(np.sin(np.arange(300.0)), 2)
    ys = s.predecessors[:5]
    got, want = (predictability_report(s, ys, *knobs) for knobs in
                 ((np.int64(6), np.float64(0.3), np.int32(3), np.float64(0.01)), (6, 0.3, 3, 0.01)))
    assert [(e.sigma_hat, e.sigma_hat_count, e.predictable) for e in got] == \
        [(e.sigma_hat, e.sigma_hat_count, e.predictable) for e in want]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("k", [1, 2])
def test_non_finite_pairs_rejected(bad, k):
    # no engine sees a non-finite value: at the first measurement it is in
    # predecessor row 0 alone, at the last in the last successor row alone
    for at, where in ((0, "predecessors row 0 = "), (-1, f"successors row {19 - k} = ")):
        x = np.arange(20.0)
        x[at] = bad
        for call in (lambda: delay_series(x, k),
                     lambda: chi_sigma(delay_series(x, k), np.ones(k), 1.0),
                     lambda: predictability_report(delay_series(x, k), np.ones((1, k)))):
            with pytest.raises(ValueError, match=f"^{where}.* is not finite$"):
                call()
    for block, where in ((0, "predecessors row 3 = "), (1, "successors row 3 = ")):
        pair = [np.ones((5, k)), np.ones((5, k))]
        pair[block][3, k - 1] = bad
        with pytest.raises(ValueError, match=f"^{where}"):
            PairedVectors(k, *pair)


def test_linear_system_sigma_rate():
    """On a 1-Lipschitz deterministic series, sigma_hat shrinks like eps.

    The reference sits away from the sawtooth wrap preimage 1 - gamma, where
    the successor map is an exact isometry.
    """
    n = 20_000
    gamma = GOLDEN_ROTATION
    m = np.mod(0.123 + gamma * np.arange(n), 1.0)
    s = delay_series(m, 1)
    ladder = [0.05 * 2.0**-j for j in range(6)]
    est = BruteEngine(s, [[0.6]], ladder).profile([0.6], ladder, min_count=10)
    assert est.sigma_hat < 0.01
    admissible = [e for e in est.ladder if e.count >= 10 and e.sigma > 0.0]
    assert len(admissible) >= 2
    x, y = np.log([e.eps for e in admissible]), np.log([e.sigma for e in admissible])
    assert np.polyfit(x, y, 1)[0] == pytest.approx(1.0, abs=0.3)


def test_two_atom_rotation_oracle():
    """Conditional deviation at a circle reference approaches the analytic
    two-atom value |cos 2 pi (t0 + a) - cos 2 pi (-t0 + a)| / 2."""
    n = 200_000
    t0 = 0.2
    t = np.mod(t0 + ALPHA * np.arange(n), 1.0)
    m = np.cos(2 * np.pi * t)
    s = delay_series(m, 1)
    oracle = abs(math.cos(2 * math.pi * (t0 + ALPHA)) - math.cos(2 * math.pi * (-t0 + ALPHA))) / 2
    y, ladder = [math.cos(2 * math.pi * t0)], [0.2 * 2.0**-j for j in range(8)]
    est = BruteEngine(s, [y], ladder).profile(y, ladder)
    assert est.defined
    assert abs(est.sigma_hat - oracle) <= 0.1 * oracle


def test_engines_agree_small():
    rng = np.random.default_rng(25)
    m = rng.normal(size=3000)
    s = delay_series(m, 1)
    ladder = default_ladder(s)
    ys = rng.normal(size=(25, 1))
    table = Sorted1DEngine(s, ys, ladder)
    for y in ys:
        ea = BruteEngine(s, [y], ladder).profile(y, ladder, 5, 1e-3)
        for sorted1d in (Sorted1DEngine(s, [y], ladder), table):
            eb = sorted1d.profile(y, ladder, 5, 1e-3)
            for la, lb in zip(ea.ladder, eb.ladder):
                assert la.count == lb.count
                if la.sigma is not None:
                    assert abs(la.sigma - lb.sigma) < 1e-12
                    assert np.max(np.abs(la.chi - lb.chi)) < 1e-12


def test_sorted1d_counts_equal_points_below_half_ulp():
    """Points equal to the reference are inside every ball, also when y - eps
    and y + eps round to y (eps below half an ulp of |y|, 6e-8 at 1e9), and
    points next to a rounded edge y -/+ eps count as in BruteEngine."""
    pv = PairedVectors(1, np.full((5, 1), 1e9), np.arange(5.0)[:, None])
    for eps in (5e-8, 1e-7, 1e-20):
        brute, sorted1d = (engine(pv, [[1e9]], [eps]).profile([1e9], [eps], min_count=2).ladder[0]
                           for engine in (BruteEngine, Sorted1DEngine))
        assert brute.count == sorted1d.count == 5
        assert brute.sigma == sorted1d.sigma
    u = math.ulp(1e9)
    for ticks, eps, count in (([-1, 0, 0, 1], u / 4, 2), ([-1, 0, 0, 1], u / 2, 2), ([-1, 0, 0, 1], u, 2),
                              ([-1, 0, 1, 2], 2.5 * u, 4)):  # 1e9 + 2.5u rounds to 1e9 + 2u
        pv = PairedVectors(1, 1e9 + u * np.array(ticks, dtype=float)[:, None], np.zeros((4, 1)))
        assert BruteEngine(pv, [[1e9]], [eps]).profile([1e9], [eps], 2).ladder[0].count == count
        assert Sorted1DEngine(pv, [[1e9]], [eps]).profile([1e9], [eps], 2).ladder[0].count == count
    # (x - 0)^2 underflows to 0 for |x| below about 1.5e-162, so those points
    # are inside a ball of radius 1e-300 whose rounded edges are 1e138 times closer
    pv = PairedVectors(1, np.array([[-1e-150], [-1e-170], [0.0], [1e-170], [1e-160]]), np.zeros((5, 1)))
    assert BruteEngine(pv, [[0.0]], [1e-300]).profile([0.0], [1e-300], 2).ladder[0].count == 3
    assert Sorted1DEngine(pv, [[0.0]], [1e-300]).profile([0.0], [1e-300], 2).ladder[0].count == 3


def test_engines_agree_large_balls():
    # balls of more than 16,384 points
    rng = np.random.default_rng(26)
    m = rng.normal(size=60_000)
    s = delay_series(m, 1)
    ladder = [3.0, 1.0, 0.3]
    ea = BruteEngine(s, [[0.0]], ladder).profile([0.0], ladder, 5, 1e-3)
    eb = Sorted1DEngine(s, [[0.0]], ladder).profile([0.0], ladder, 5, 1e-3)
    assert ea.ladder[0].count == eb.ladder[0].count > 16384
    for la, lb in zip(ea.ladder, eb.ladder):
        assert la.count == lb.count
        assert abs(la.sigma - lb.sigma) < 1e-12
        assert np.max(np.abs(la.chi - lb.chi)) < 1e-12


def test_sorted1d_sigma_of_large_tight_balls():
    """Balls of 4e4-8e4 points whose successors spread 1e-5 around 10: sigma
    matches enumeration to 1e-9 relative, where moments of the whole series
    lose it to cancellation (the successors are 0 on half of the series)."""
    rng = np.random.default_rng(41)
    n = 200_000
    x = rng.uniform(0.0, 1.0, n)
    s = np.where(x < 0.5, 10.0 + 1e-5 * rng.normal(size=n), 0.0)
    pv = PairedVectors(1, x[:, None], s[:, None])
    ladder = [0.2, 0.1]
    ea = BruteEngine(pv, [[0.25]], ladder).profile([0.25], ladder, 2)
    for ys in ([[0.25]], [[0.25], [0.3], [0.1]]):  # alone, and cut into bins by other references
        eb = Sorted1DEngine(pv, ys, ladder).profile([0.25], ladder, 2)
        assert [e.count for e in eb.ladder] == [e.count for e in ea.ladder]
        assert ea.ladder[1].count > 30_000
        for la, lb in zip(ea.ladder, eb.ladder):
            assert abs(lb.sigma - la.sigma) <= 1e-9 * la.sigma
            assert abs(lb.chi[0] - la.chi[0]) <= 1e-12 * la.chi[0]


def test_report_table_equals_single_reference_profiles():
    """predictability_report answers k = 1 references from one table built over
    all of them; each answer equals a table of that reference alone."""
    rng = np.random.default_rng(42)
    s = delay_series(np.cumsum(rng.normal(size=60_001)) * 1e-2, 1)
    ys = s.predecessors[rng.choice(len(s), 100, replace=False)]
    ladder = default_ladder(s, 10)
    for y, est in zip(ys, predictability_report(s, ys, 10, 0.2, 20, 1e-3)):
        alone = Sorted1DEngine(s, [y], ladder).profile(y, ladder, 20, 1e-3)
        assert (est.sigma_hat_eps, est.sigma_hat_count, est.predictable) == (
            alone.sigma_hat_eps, alone.sigma_hat_count, alone.predictable)
        for a, b in zip(est.ladder, alone.ladder):
            assert (a.eps, a.count) == (b.eps, b.count)
            if a.count:
                assert abs(a.sigma - b.sigma) <= 1e-12 * b.sigma
                assert abs(a.chi[0] - b.chi[0]) <= 1e-12 * abs(b.chi[0])


def test_sorted1d_rejects_bad_references():
    s = delay_series(np.arange(10.0), 1)
    with pytest.raises(ValueError, match="k = 1"):
        Sorted1DEngine(s, [[1.0, 2.0]], [0.5])


@pytest.mark.parametrize("engine,k", [(Sorted1DEngine, 1), (BruteEngine, 1), (BruteEngine, 2)])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_engines_reject_non_finite_reference(engine, k, bad):
    s = delay_series(np.arange(10.0), k)
    ys = np.ones((3, k))
    ys[2, k - 1] = bad
    with pytest.raises(ValueError, match="reference 2 .* not finite"):
        engine(s, ys, [0.5])


@pytest.mark.parametrize("engine,k", [(Sorted1DEngine, 1), (BruteEngine, 2)])
def test_engines_need_references(engine, k):
    with pytest.raises(ValueError, match="at least one reference"):
        engine(delay_series(np.arange(10.0), k), [], [0.5])


@pytest.mark.parametrize("engine,k", [(Sorted1DEngine, 1), (BruteEngine, 1), (BruteEngine, 3)])
def test_profile_outside_the_table_raises(engine, k):
    s = delay_series(np.arange(20.0), k)
    ys, ladder = s.predecessors[[2, 5]], [4.0, 2.0]
    e = engine(s, ys, ladder)
    assert e.profile(ys[1], ladder, 2).ladder[0].count > 0
    with pytest.raises(ValueError, match="not in the engine.s table"):
        e.profile(ys[1] + 0.5, ladder, 2)
    for other in ([4.0], [4.0, 1.0], [4.0, 2.0, 1.0], [math.nan, 2.0]):
        with pytest.raises(ValueError, match="not in the engine.s table"):
            e.profile(ys[1], other, 2)
    with pytest.raises(ValueError, match="min_count"):
        e.profile(ys[1], ladder, 1)


@pytest.mark.parametrize("k", [2, 3])
def test_brute_table_equals_one_reference_engines(k):
    """One BruteEngine over m references, its shells merged one level at a
    time over all of them, equals m one-reference engines bit for bit."""
    rng = np.random.default_rng(44 + k)
    s = delay_series(np.cumsum(rng.normal(size=5_000)) * 0.1, k)
    ys = np.concatenate([s.predecessors[rng.choice(len(s), 30, replace=False)],
                         rng.normal(size=(5, k)) * 100.0])  # the last ones hold no point
    ladder = default_ladder(s, 8)
    table = BruteEngine(s, ys, ladder)
    for y in ys:
        est, alone = table.profile(y, ladder, 5), BruteEngine(s, [y], ladder).profile(y, ladder, 5)
        assert (est.sigma_hat, est.sigma_hat_eps, est.predictable) == (
            alone.sigma_hat, alone.sigma_hat_eps, alone.predictable)
        for a, b in zip(est.ladder, alone.ladder):
            assert (a.eps, a.count, a.sigma) == (b.eps, b.count, b.sigma)
            assert (a.chi is None and b.chi is None) or a.chi.tobytes() == b.chi.tobytes()


def test_report_without_references_is_empty():
    for k in (1, 2):
        assert predictability_report(delay_series(np.arange(10.0), k), []) == ()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_default_ladder_equals_row_major_diameter(k):
    """The diameter from one column at a time equals the norm of the row-major
    block's extent bit for bit, and a constant series gets diameter 1."""
    rng = np.random.default_rng(60 + k)
    for m in (1e3 + 3.7 * rng.normal(size=5_000), np.cumsum(rng.normal(size=999)),
              np.full(50, 2.5)):
        pred = delay_series(m, k).predecessors
        diam = float(np.linalg.norm(pred.max(axis=0) - pred.min(axis=0)))
        want = [0.2 * (diam if diam > 0.0 else 1.0) * 0.5**j for j in range(8)]
        assert default_ladder(delay_series(m, k), 8, 0.2) == want
    assert default_ladder(delay_series(np.full(50, 2.5), k), 3, 0.2) == [0.2, 0.1, 0.05]


def test_default_ladder_rejects_series_without_pairs():
    for k in (1, 2):
        s = delay_series(np.arange(float(k)), k)
        with pytest.raises(ValueError, match=f"k = {k} has 0 pairs"):
            predictability_report(s, [np.zeros(k)])


def test_engine_chosen_by_k(monkeypatch):
    """k = 1 profiles on Sorted1DEngine at every length, k >= 2 on BruteEngine."""
    used = []
    for cls in (BruteEngine, Sorted1DEngine):
        def profile(engine, y, ladder, min_count, threshold, _orig=cls.profile):
            used.append(type(engine))
            return _orig(engine, y, ladder, min_count, threshold)
        monkeypatch.setattr(cls, "profile", profile)
    rng = np.random.default_rng(27)
    for n, k, cls in ((100, 1, Sorted1DEngine), (60_000, 1, Sorted1DEngine), (60_000, 2, BruteEngine)):
        s = delay_series(rng.normal(size=n), k)
        used.clear()
        predictability_report(s, s.predecessors[:3], 8, 0.2, 20, 1e-3)
        assert used == [cls] * 3


def _rotation_k1_report(h, n_orbit, n_refs, seed):
    """Defined estimates and their predictable fraction at n_refs references drawn from
    the second half of a k = 1 rotation series from (0.2,)."""
    cfg = SystemConfig("rotation")
    series = delay_series(evaluate(h, ambient_of_states(cfg, trajectory(cfg, (0.2,), n_orbit))), 1)
    n_pred = len(series)
    refs = _draw(np.random.default_rng(seed), np.arange(n_pred // 2, n_pred), n_refs)
    defined = [e for e in predictability_report(series, series.predecessors[refs]) if e.defined]
    return defined, sum(e.predictable for e in defined) / len(defined)


def test_report_constant_observable_fully_predictable():
    const = Observable(2, "zero", {(0, 0): 2.0}, 1)
    _, fraction = _rotation_k1_report(const, 2_000, 50, 3)
    assert fraction == 1.0


def test_report_rotation_k1_not_predictable():
    h = Observable(2, "cosine_fiber", degree_bound=1)
    defined, fraction = _rotation_k1_report(h, 100_000, 100, 4)
    assert fraction < 0.5
    sigmas = np.array([e.sigma_hat for e in defined])
    assert np.median(sigmas) > 0.05


# -- BruteEngine against the norm-based per-level reduction ------------------


def norm_profile(pred, succ, y, ladder):
    """(count, chi, sigma) per level by the full-width norm pass and per-level masks."""
    d = np.linalg.norm(pred - y, axis=1)
    coarse = d < ladder[0]
    d_sub, s_sub = d[coarse], succ[coarse]
    levels = []
    for eps in ladder:
        cloud = s_sub[d_sub < eps]
        if len(cloud) == 0:
            levels.append((0, None, None))
            continue
        chi = cloud.mean(axis=0)
        levels.append((len(cloud), chi, float(np.sqrt(np.mean(np.sum((cloud - chi) ** 2, axis=1))))))
    return levels


def assert_levels_close(est, levels, succ, ladder, min_count):
    """Counts and sigma_hat_eps exact; chi and sigma within 4 n spacing(max|succ| + spread),
    since the shell sums add in another order than the per-level two-pass reduction."""
    tol = 4 * len(succ) * np.spacing(np.abs(succ).max() + np.ptp(succ))
    assert len(est.ladder) == len(levels)
    for entry, (count, chi, sigma) in zip(est.ladder, levels):
        assert entry.count == count
        if count == 0:
            assert entry.chi is None and entry.sigma is None
        else:
            assert abs(entry.sigma - sigma) <= tol
            assert entry.chi.shape == chi.shape and np.all(np.abs(entry.chi - chi) <= tol)
    held = [eps for eps, (count, _, _) in zip(ladder, levels) if count >= min_count]
    assert est.sigma_hat_eps == (held[-1] if held else None)


# values on a small integer grid, so points and successors repeat
grid_series = st.builds(
    lambda k, ticks, offset, spread: (k, offset + spread * np.asarray(ticks, dtype=float)),
    st.integers(1, 3),
    st.lists(st.integers(0, 7), min_size=4, max_size=120),
    st.sampled_from([0.0, 1.0, -3.5e3, 1e6, 1e9]),
    st.sampled_from([1.0, 0.1, 1e-4, 1e-9]),
)


@settings(max_examples=300, deadline=None)
@given(series=grid_series, data=st.data())
def test_brute_profile_equals_norm_reduction(series, data):
    k, m = series
    assume(len(m) >= k + 1)
    s = delay_series(m, k)
    pred, succ = s.predecessors, s.successors
    y = s.predecessors[data.draw(st.integers(0, len(s) - 1), label="ref")]
    if data.draw(st.booleans(), label="off-grid"):
        y = y + data.draw(st.floats(-1.0, 1.0), label="shift") * (m.max() - m.min() + 1e-300)
    d = np.linalg.norm(pred - y, axis=1)
    exact = sorted({float(v) for v in d if v > 0.0}, reverse=True)
    # levels at exactly a point's distance (that point is outside) and between
    chosen = data.draw(st.lists(st.sampled_from(exact), max_size=6, unique=True), label="exact") if exact else []
    extra = data.draw(st.lists(st.floats(1e-12, 1e12), max_size=3, unique=True), label="extra")
    ladder = sorted(set(chosen) | set(extra), reverse=True)
    assume(ladder)
    est = BruteEngine(s, [y], ladder).profile(y, ladder, min_count=2)
    assert_levels_close(est, norm_profile(pred, succ, y, ladder), succ, ladder, 2)


@settings(max_examples=100, deadline=None)
@given(
    k=st.integers(1, 3), n=st.integers(2, 300), offset=st.sampled_from([0.0, 2.0**20, -1e8]),
    spread=st.sampled_from([1.0, 1e-6, 1e-10]), seed=st.integers(0, 2**32 - 1),
)
def test_brute_profile_equals_norm_reduction_paired(k, n, offset, spread, seed):
    # unrelated successors, large offsets with near-zero spread, duplicated rows
    rng = np.random.default_rng(seed)
    pred = offset + spread * rng.normal(size=(n, k))
    pred[rng.integers(0, n, n // 3)] = pred[0]
    succ = offset + spread * rng.normal(size=(n, k))
    y = pred[rng.integers(0, n)]
    ladder = sorted(spread * rng.uniform(0.01, 4.0, 5), reverse=True)
    est = BruteEngine(PairedVectors(k, pred, succ), [y], ladder).profile(y, ladder, min_count=2)
    assert_levels_close(est, norm_profile(pred, succ, y, ladder), succ, ladder, 2)


SHELL_CASES = ["empty top ball", "empty inner shells", "exact distances", "innermost shell", "mixed"]


@settings(max_examples=300, deadline=None)
@given(k=st.integers(2, 3), case=st.sampled_from(SHELL_CASES), data=st.data())
def test_brute_shell_edge_cases(k, case, data):
    """Ladders with an empty top ball, empty inner shells, levels at exactly a
    point's distance (that point is outside) or with every point in the
    innermost shell, over duplicated grid rows."""
    point = st.tuples(*[st.integers(-3, 3)] * k)
    pool = data.draw(st.lists(point, min_size=1, max_size=10, unique=True), label="pool")
    rows = data.draw(st.lists(st.sampled_from(pool), min_size=2, max_size=60), label="rows")
    pred = np.array(rows, dtype=float)
    succ = np.array(data.draw(st.lists(point, min_size=len(rows), max_size=len(rows)), label="succ"), dtype=float)
    y = np.array(data.draw(st.sampled_from(pool), label="y"), dtype=float)
    if case == "empty top ball" or data.draw(st.booleans(), label="off-grid"):
        y += 0.5
    dist = np.unique(np.linalg.norm(pred - y, axis=1))
    far = 2.0 * dist[-1] + 1.0
    gaps = [b - (b - a) * f for a, b in zip(dist, dist[1:]) for f in (0.25, 0.5, 0.75)]
    if case == "empty top ball":
        ladder = [dist[0], dist[0] / 2, dist[0] / 4]
    elif case == "empty inner shells":
        a, b = data.draw(st.sampled_from(list(zip([0.0, *dist], [*dist, far]))), label="gap")
        ladder = [far, *(b - (b - a) * f for f in (0.25, 0.5, 0.75) if b - (b - a) * f > 0)]
    elif case == "exact distances":
        exact = [e for e in dist if e > 0] or [1.0]
        ladder = data.draw(st.lists(st.sampled_from(exact), min_size=1, unique=True), label="levels")
    elif case == "innermost shell":
        ladder = [2 * far, far]
    else:
        candidates = st.sampled_from([far, *gaps, *(e for e in dist if e > 0)])
        ladder = data.draw(st.lists(candidates, min_size=1, max_size=8, unique=True), label="levels")
    ladder = sorted({float(e) for e in ladder}, reverse=True)
    est = BruteEngine(PairedVectors(k, pred, succ), [y], ladder).profile(y, ladder, min_count=2)
    levels = norm_profile(pred, succ, y, ladder)
    assert_levels_close(est, levels, succ, ladder, 2)
    if case == "empty top ball":
        assert all(count == 0 for count, _, _ in levels)
    elif case == "innermost shell":
        assert levels[-1][0] == len(pred)


def test_brute_sigma_of_large_tight_balls():
    """k = 2 balls of 1e4-7e4 points whose successors spread 1e-5 around 10,
    with a trend across the shells: sigma matches math.fsum enumeration to
    1e-9 relative and chi to 1e-12."""
    rng = np.random.default_rng(43)
    n = 400_000
    pred = rng.uniform(0.0, 1.0, (n, 2))
    succ = np.where(pred[:, :1] < 0.5, 10.0 + 1e-5 * (rng.normal(size=(n, 2)) + pred), 0.0)
    y = np.array([0.25, 0.5])
    ladder = [0.24, 0.12]
    est = BruteEngine(PairedVectors(2, pred, succ), [y], ladder).profile(y, ladder, 2)
    d = np.linalg.norm(pred - y, axis=1)
    assert est.ladder[1].count > 10_000
    for eps, entry in zip(ladder, est.ladder):
        cloud = succ[d < eps]
        assert entry.count == len(cloud)
        chi = np.array([math.fsum(c) / len(cloud) for c in cloud.T])
        sigma = math.sqrt(math.fsum(((cloud - chi) ** 2).ravel()) / len(cloud))
        assert abs(entry.sigma - sigma) <= 1e-9 * sigma
        assert np.all(np.abs(entry.chi - chi) <= 1e-12 * chi)


def test_brute_profile_rejects_wrong_width():
    with pytest.raises(ValueError, match="k = 2"):
        BruteEngine(delay_series(np.arange(10.0), 2), [[1.0]], [1.0])


# squares that are subnormal, that underflow to 0 or overflow to inf, and exact squares
positive_eps = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=True),
    st.floats(1.5e-162, 1.5e-154), st.floats(min_value=5e-324, max_value=1.5e-162),
    st.floats(min_value=1.3e154, allow_infinity=False),
    st.builds(math.ldexp, st.integers(1, 2**26), st.integers(-560, 500)),
    st.just(math.inf),
)


@settings(max_examples=1_000, deadline=None)
@given(eps=positive_eps)
def test_square_cut_is_sqrt_membership(eps):
    """s < _square_cut(eps) holds exactly when sqrt(s) < eps, for the sums of
    squares (never negative) at and beside the cut and eps * eps."""
    cut, square = _square_cut(eps), eps * eps
    near = [cut, square, 0.0, math.inf, math.nan]
    near += [math.nextafter(v, to) for v in (cut, square) for to in (-math.inf, math.inf)]
    for s in near:
        if not s < 0.0:
            assert (s < cut) == (math.sqrt(s) < eps), (eps, cut, s)


@settings(max_examples=300, deadline=None)
@given(eps=st.lists(positive_eps, min_size=1, max_size=12))
@example(eps=[1e-200, 1e-160, 5e-324, 1.0, 1e160, 1e200, math.inf])  # squares under- and overflow
def test_square_cut_array_equals_scalars(eps):
    cuts = _square_cut(np.array(eps))
    assert cuts.shape == (len(eps),)
    assert [float(c) for c in cuts] == [float(_square_cut(e)) for e in eps]
    assert _square_cut(np.array(eps).reshape(-1, 1)).shape == (len(eps), 1)


@settings(max_examples=100, deadline=None)
@given(
    ticks=st.lists(st.integers(0, 20), min_size=3, max_size=150),
    offset=st.sampled_from([0.0, -7.0, 1e6, 1e9]), spread=st.sampled_from([1.0, 1e-3]),
    ref=st.integers(0, 20), data=st.data(),
)
def test_sorted1d_and_brute_agree(ticks, offset, spread, ref, data):
    # levels a quarter tick from every point, at exactly a point's distance
    # (that point is outside) and one ulp above it (inside, while y + eps may
    # round onto the point); the sums differ only in their order
    s = delay_series(offset + spread * np.asarray(ticks, dtype=float), 1)
    y = [offset + spread * (ref + data.draw(st.sampled_from([0.0, 0.5]), label="half"))]
    d = np.linalg.norm(s.predecessors - y, axis=1)
    levels = st.sampled_from([spread * e for e in (0.25, 0.75, 1.25, 2.25, 5.25, 10.25)])
    if (d > 0).any():
        exact = st.sampled_from(sorted({float(v) for v in d if v > 0.0}))
        levels |= exact | exact.map(lambda e: float(np.nextafter(e, np.inf)))
    ladder = sorted(data.draw(st.lists(levels, min_size=1, unique=True), label="ladder"), reverse=True)
    # other references cut y's balls into several bins of the table
    others = data.draw(st.lists(st.integers(0, 40), max_size=8), label="others")
    ys = [y] + [[offset + spread * o / 2] for o in others]
    a = BruteEngine(s, [y], ladder).profile(y, ladder, min_count=2)
    tol = 4 * len(ticks) * np.spacing(abs(offset) + 20 * spread)
    for engine in (Sorted1DEngine(s, [y], ladder), Sorted1DEngine(s, ys, ladder)):
        b = engine.profile(y, ladder, min_count=2)
        for la, lb in zip(a.ladder, b.ladder):
            assert la.count == lb.count
            if la.count:
                assert abs(la.chi[0] - lb.chi[0]) <= tol
                assert abs(la.sigma - lb.sigma) <= tol
            else:
                assert lb.chi is None and lb.sigma is None
        assert a.sigma_hat_eps == b.sigma_hat_eps


# -- one Engine.profile call per reference (the interface tracers wrap) ------


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


CONTRACT_RUNS = [
    ("E3_model_nonpredict", {"n_samples": 60_000, "n_obs": 2, "n_refs": 15}, "model_refs.csv"),
    ("E4_counterexample", {"orbit_n": 200_000, "n_obs": 2, "n_refs": 10}, "skew_refs.csv"),
    ("E5_ergodic_predict", {"rot_n": 5_000, "henon_n": 5_000, "n_refs": 12}, "trend_refs.csv"),
]


@pytest.mark.parametrize("experiment,overrides,artifact", CONTRACT_RUNS)
def test_one_profile_call_per_reference(experiment, overrides, artifact, tmp_path, monkeypatch):
    calls = []
    for cls in (BruteEngine, Sorted1DEngine):
        def counted(engine, y, ladder, min_count, threshold, _orig=cls.profile):
            calls.append(float(np.asarray(y, dtype=float).reshape(-1)[0]))
            return _orig(engine, y, ladder, min_count, threshold)
        monkeypatch.setattr(cls, "profile", counted)
    run_experiment(ExperimentConfig(experiment, 7, overrides), tmp_path)
    rows = _read_csv(tmp_path / artifact)
    if experiment == "E3_model_nonpredict":
        assert len(calls) == overrides["n_obs"] * overrides["n_refs"] == len(rows)
        assert calls == [float(r["y"]) for r in rows]
    elif experiment == "E4_counterexample":
        assert len(calls) == len(rows) and len(rows) >= overrides["n_obs"] * 2
    else:
        refs = {(r["case"], r["ref_idx"]) for r in rows}
        assert len(calls) == len(refs) == 3 * overrides["n_refs"]
