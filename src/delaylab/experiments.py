"""Named experiments, flat-file configuration and keyed RNG.

Each experiment reproduces one family of desk-scale checks; run_experiment
writes plot-ready CSVs plus a plain-text summary and returns the metrics and
pass flags.  All randomness flows through counter-based generators keyed by
(seed, experiment, stage) so reruns are byte-identical.
"""

import hashlib
import math
import numbers
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .csvio import emit_csv, format_cell
from .dimension import (
    _fit,
    ball_mass_dimension,
    box_counting_idim,
    point_mass_measure,
    pointwise_dim_quantiles,
    sample_model_measure,
    uniform_segment_measure,
)
from .dynamics import (GOLDEN_ROTATION, SystemConfig, ambient_of_states, box_flags,
                       sample_model_states, trajectory, visit_statistics)
from .embedding import delay_series, PairedVectors
from .observables import evaluate, monomial_basis, Observable, perturb
from .predictability import predictability_report

EXPERIMENT_IDS = ("E1_parabolic", "E2_natural_measure", "E3_model_nonpredict",
                  "E4_counterexample", "E5_ergodic_predict", "E6_idim")

_SHORT_IDS = {e.split("_")[0]: e for e in EXPERIMENT_IDS}

DESCRIPTIONS = {
    "E1_parabolic": "radial parabolic decay and visit-time growth of the spiral map",
    "E2_natural_measure": "occupation fractions of the two boxes along spiral orbits",
    "E3_model_nonpredict": "non-predictability of the two-piece model at k = 1",
    "E4_counterexample": "skew-product orbits: fiber passages vs the marked point at k = 1",
    "E5_ergodic_predict": "shrinking conditional deviations for rotation (k=2) and Henon (k=2,3)",
    "E6_idim": "information-dimension estimates: model measure, benchmarks, skew orbit",
}

DEFAULTS = {
    "E1_parabolic": dict(
        rho_kappa=0.05, rho_r0=0.5, rho_n=1_000_000, rho_fit_lo=1_000, rho_fit_hi=1_000_000,
        visits_kappa=0.092, visits_delta=0.2, visits_r0=0.5, visits_phi0=2.0, visits_n=900_000,
    ),
    "E2_natural_measure": dict(
        kappa=0.092, delta=0.2, m_iterates=1_000_000,
        start1_r=0.5, start1_phi=2.0, start2_r=0.9, start2_phi=4.0, start3_r=1.5, start3_phi=1.0,
    ),
    "E3_model_nonpredict": dict(
        n_samples=400_000, n_obs=20, n_refs=200, pert_scale=0.1, alpha=GOLDEN_ROTATION,
        ladder_levels=8, ladder_top=0.2, min_count=20, threshold=1e-3,
    ),
    "E4_counterexample": dict(
        orbit_n=10_000_000, kappa=0.05, delta=0.1, alpha=GOLDEN_ROTATION,
        start_r=0.5, start_phi=1.0, start_t=0.3,
        n_obs=20, n_refs=200, pert_scale=0.1,
        ladder_levels=14, ladder_top=0.2, min_count=20, threshold=1e-3,
        p_ref_fiber_gate=0.01,
    ),
    "E5_ergodic_predict": dict(
        rot_n=1_000_000, henon_n=1_000_000, henon_burn=1_000, n_refs=100,
        pert_scale=0.1, alpha=GOLDEN_ROTATION,
        ladder_levels=8, ladder_top=0.2, min_count=20, threshold=1e-3,
    ),
    "E6_idim": dict(
        n_samples=100_000, n_centers=2_000, point_n=10_000,
        eps_hi_exp=4, eps_lo_exp=8,
        skew_orbit_n=2_000_000, skew_stride=20, kappa=0.05, delta=0.1, alpha=GOLDEN_ROTATION,
    ),
}

# keys that become a SystemConfig constant: checked against its bounds when the config is built
_SYSTEM_KEYS = {"kappa": "kappa", "delta": "delta", "rho_kappa": "kappa",
                "visits_kappa": "kappa", "visits_delta": "delta"}
# start angles and fiber starts: trajectory wraps any finite value
_ANY_FINITE_KEYS = {"visits_phi0", "start1_phi", "start2_phi", "start3_phi", "start_phi", "start_t"}
# lower bounds other than "positive": a deviation needs two points in the ball, the
# k = 2 rotation and k = 3 Henon series need one delay vector with a successor, and
# the Henon orbit may start without burn-in
_AT_LEAST = {"min_count": 2, "rot_n": 3, "henon_n": 4, "henon_burn": 0}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment_id: str
    seed: int = 0
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment_id not in EXPERIMENT_IDS:
            raise ValueError(f"unknown experiment {self.experiment_id!r}")
        # rng_for keys its streams with the seed's text, so 7.0 or "7" would draw other samples
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        defaults = DEFAULTS[self.experiment_id]
        for key, val in self.overrides.items():
            if key not in defaults:
                raise ValueError(f"unknown key {key!r} for {self.experiment_id}")
            if isinstance(val, bool) or not isinstance(val, numbers.Real):
                raise ValueError(f"key {key!r} must be a number, got {val!r}")
            if not math.isfinite(val):
                raise ValueError(f"key {key!r} must be finite, got {val!r}")
            if isinstance(defaults[key], int) and not float(val).is_integer():
                raise ValueError(f"key {key!r} must be an integer")
            if key in _AT_LEAST:
                if val < _AT_LEAST[key]:
                    raise ValueError(f"key {key!r} must be at least {_AT_LEAST[key]}, got {val!r}")
            elif val <= 0 and key not in _ANY_FINITE_KEYS:
                raise ValueError(f"key {key!r} must be positive")
            if key == "p_ref_fiber_gate" and val > 0.5:
                # min(t, 1 - t) never exceeds 1/2, so a wider gate admits every fiber point
                raise ValueError(f"key {key!r} must be at most 0.5, got {val!r}")
            if key in _SYSTEM_KEYS:
                try:
                    SystemConfig("spiral_f", **{_SYSTEM_KEYS[key]: float(val)})
                except ValueError as exc:
                    raise ValueError(f"key {key!r}: {exc}") from None
        if self.experiment_id == "E1_parabolic":
            lo, hi, n = self.param("rho_fit_lo"), self.param("rho_fit_hi"), self.param("rho_n")
            if lo >= min(hi, n):  # the slope fit needs two points in [lo, min(hi, n)]
                raise ValueError(f"key 'rho_fit_lo' = {lo} must be below 'rho_fit_hi' = {hi} "
                                 f"and 'rho_n' = {n}: the fit window needs two points")
        if self.experiment_id == "E6_idim":
            hi, lo = self.param("eps_hi_exp"), self.param("eps_lo_exp")
            if lo - hi < 1:  # the ladder 2^-hi .. 2^-lo needs two levels for a slope
                raise ValueError(f"keys 'eps_hi_exp' = {hi} and 'eps_lo_exp' = {lo} give fewer than "
                                 "two ladder levels; eps_lo_exp must exceed eps_hi_exp")
            if lo > 62:  # the atom's coordinate 1 over 2^-63 is past the int64 cube indices
                raise ValueError(f"key 'eps_lo_exp' must be at most 62, got {lo}")

    def param(self, key):
        defaults = DEFAULTS[self.experiment_id]
        val = self.overrides.get(key, defaults[key])
        return int(val) if isinstance(defaults[key], int) else float(val)


@dataclass(frozen=True)
class RunSummary:
    experiment_id: str
    config: dict
    metrics: dict
    pass_flags: dict
    wall_time: float
    timings: dict = field(default_factory=dict)

    @property
    def all_passed(self):
        return all(self.pass_flags.values())


def rng_for(seed, experiment, stage):
    """Counter-based generator with a key derived from (seed, experiment, stage)."""
    digest = hashlib.sha256(f"{seed}:{experiment}:{stage}".encode()).digest()
    key = np.frombuffer(digest[:16], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def parse_config(text):
    """Flat ``key = value`` configuration, '#' starts a comment.

    The experiment key is mandatory; seed defaults to 0; every other key must
    belong to the experiment's override table.  No key may appear twice.
    """
    experiment = None
    seed = 0
    overrides = {}
    lines = {}  # key: the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key in lines:
            raise ValueError(f"line {lineno}: key {key!r} already set on line {lines[key]}")
        lines[key] = lineno
        if key == "experiment":
            experiment = _SHORT_IDS.get(val, val)
            continue
        try:
            num = int(val)
        except ValueError:
            try:
                num = float(val)
            except ValueError:
                raise ValueError(f"line {lineno}: value for {key!r} is not a number: {val!r}") from None
        if key == "seed":
            if not float(num).is_integer():
                raise ValueError(f"line {lineno}: seed must be an integer")
            seed = int(num)
        else:
            overrides[key] = num
    if experiment is None:
        raise ValueError("experiment missing from configuration")
    return ExperimentConfig(experiment, seed, overrides)


def _perturbed(cfg, experiment, stage, base):
    """base plus uniform [-pert_scale, pert_scale] amplitudes from rng_for(seed, experiment, stage)."""
    scale = cfg.param("pert_scale")
    size = len(monomial_basis(base.ambient_dim, base.degree_bound))
    return perturb(base, rng_for(cfg.seed, experiment, stage).uniform(-scale, scale, size))


def _draw(rng, pool, n):
    """min(n, len(pool)) distinct entries of pool, drawn with rng, in ascending order."""
    return np.sort(rng.choice(pool, size=min(n, len(pool)), replace=False))


def _logspaced_ints(lo, hi, n=200):
    vals = np.unique(np.round(np.logspace(math.log10(lo), math.log10(hi), n)).astype(int))
    return vals[(vals >= lo) & (vals <= hi)]


def _report_table(cfg, series, ys):
    """predictability_report of the reference vectors ys, in order, on the config's ladder_levels,
    ladder_top, min_count and threshold, as arrays: the ladder (L,), count (m, L) as floats, sigma
    (m, L), NaN in an empty ball, and hat (m, 3), each reference's sigma_hat, sigma_hat_eps and
    sigma_hat_count, NaN, NaN and 0 where sigma_hat is undefined."""
    estimates = predictability_report(series, ys, *map(cfg.param, ("ladder_levels", "ladder_top",
                                                                   "min_count", "threshold")))
    entries = [e for est in estimates for e in est.ladder]  # reference-major
    count, sigma = (np.array(v, dtype=float).reshape(len(estimates), -1)  # a None sigma reads as NaN
                    for v in ([e.count for e in entries], [e.sigma for e in entries]))
    hat = np.array([(e.sigma_hat, e.sigma_hat_eps, e.sigma_hat_count) for e in estimates], dtype=float)
    return np.array([e.eps for e in estimates[0].ladder]), count, sigma, hat


def _fraction(flags):
    """The share of true flags, NaN when there are none to count."""
    return float(np.mean(flags)) if len(flags) else float("nan")


# -- E1: parabolic decay and visit growth -------------------------------------


def _run_e1_rho(cfg, out):
    # r_1 .. r_n: the radius row depends on r alone, so the angle start is immaterial
    rs = trajectory(SystemConfig("spiral_f", kappa=cfg.param("rho_kappa")), (cfg.param("rho_r0"), 0.0),
                    cfg.param("rho_n"), burn_in=1)[:, 0]
    rho = 1.0 - rs
    ns = _logspaced_ints(cfg.param("rho_fit_lo"), min(cfg.param("rho_fit_hi"), len(rs)))
    slope = _fit(np.log(ns), np.log(rho[ns - 1]))[0]
    emit_csv(out / "rho.csv", ["n", "rho"], [[float(n), float(rho[n - 1])] for n in ns])
    return {"rho_slope": slope}, {"rho_slope_in_band": -0.55 <= slope <= -0.45}


def _run_e1_visits(cfg, out):
    metrics = {}
    flags = {}
    vis_cfg = SystemConfig("spiral_f", kappa=cfg.param("visits_kappa"), delta=cfg.param("visits_delta"))
    traj = trajectory(vis_cfg, (cfg.param("visits_r0"), cfg.param("visits_phi0")), cfg.param("visits_n"))
    visits, gap_idx, gaps = visit_statistics(traj, vis_cfg.delta)

    i_arr = np.arange(1, len(visits) + 1)
    n_p = (visits[:, 1] - visits[:, 0]).astype(float)
    n_q = (visits[:, 3] - visits[:, 2]).astype(float)
    metrics["visits_completed"] = float(len(visits))

    band = (i_arr >= 10) & (i_arr <= 200)
    if band.any():
        ratio_p = n_p[band] / i_arr[band]
        ratio_q = n_q[band] / i_arr[band]
        metrics["visit_ratio_spread_p"] = float(ratio_p.max() / ratio_p.min())
        metrics["visit_ratio_spread_q"] = float(ratio_q.max() / ratio_q.min())
    else:
        metrics["visit_ratio_spread_p"] = metrics["visit_ratio_spread_q"] = float("nan")
    flags["visit_growth_p"] = metrics["visit_ratio_spread_p"] <= 4.0
    flags["visit_growth_q"] = metrics["visit_ratio_spread_q"] <= 4.0

    diff_band = (i_arr >= 20) & (i_arr <= 200)
    absdiff = np.abs(n_p - n_q)
    if diff_band.sum() >= 2:
        metrics["absdiff_slope"] = _fit(i_arr[diff_band], absdiff[diff_band])[0]
    else:
        metrics["absdiff_slope"] = float("nan")
    flags["bounded_discrepancy"] = abs(metrics["absdiff_slope"]) <= 0.05

    w1 = gaps[(gap_idx >= 50) & (gap_idx <= 100)]
    w2 = gaps[(gap_idx >= 150) & (gap_idx <= 200)]
    metrics["gap_max_50_100"] = float(w1.max()) if len(w1) else float("nan")
    metrics["gap_max_150_200"] = float(w2.max()) if len(w2) else float("nan")
    flags["gap_maxima_equal"] = metrics["gap_max_50_100"] == metrics["gap_max_150_200"]

    if len(visits):
        order = np.argsort(visits[0])  # chronological order of the four markers in visit 1
        seq = visits[:, order].ravel()
        metrics["visits_interleaved"] = float(np.all(np.diff(seq) > 0))
    else:
        metrics["visits_interleaved"] = 0.0

    # float rows, so each cell is a Python float and writes as "5.0"
    emit_csv(out / "visits.csv",
             ["i", "n_minus_p", "n_plus_p", "N_p", "n_minus_q", "n_plus_q", "N_q", "absdiff"],
             np.column_stack([i_arr, visits[:, :2], n_p, visits[:, 2:], n_q, absdiff]).tolist())
    emit_csv(out / "gaps.csv", ["pair_i", "gap"], np.column_stack([gap_idx, gaps]).astype(float).tolist())
    return metrics, flags


# -- E2: occupation fractions ---------------------------------------------------


def _run_e2(cfg, out):
    metrics = {}
    flags = {}
    sys_cfg = SystemConfig("spiral_f", kappa=cfg.param("kappa"), delta=cfg.param("delta"))
    m = cfg.param("m_iterates")
    checkpoints = sorted({min(m, c) for c in (10_000, 100_000, 500_000, m)})
    rows = []
    for s in (1, 2, 3):
        r0 = cfg.param(f"start{s}_r")
        phi0 = cfg.param(f"start{s}_phi")
        traj = trajectory(sys_cfg, (r0, phi0), m)
        in_p, in_q = box_flags(traj[:, 0], traj[:, 1], sys_cfg.delta)
        cp = np.cumsum(in_p)
        cq = np.cumsum(in_q)
        for c in checkpoints:
            rows.append([r0, phi0, float(c), cp[c - 1] / c, cq[c - 1] / c])
        for box, cum in (("p", cp), ("q", cq)):
            key = f"occupation_{box}_start{s}"
            metrics[key] = float(cum[-1] / m)
            flags[key] = abs(metrics[key] - 0.5) <= 0.05  # a Python float, so a bool
    emit_csv(out / "occupation.csv", ["start_r", "start_phi", "m", "frac_p", "frac_q"], rows)
    return metrics, flags


# -- E3: model system, k = 1 ----------------------------------------------------


def _two_atom_sigma(h, ts, alpha):
    """Exact eps -> 0 conditional deviation at each circle reference h(t0), t0 in ts, for a
    degree-1 observable h, which is c + a4 cos + a5 sin on the fiber circle over q (x1 = -1 and
    x2 = x3 = 0 there).

    The level set of the cosine restriction through t0 is the reflected pair
    {t0, 2 t* - t0} with equal conditional weights; the deviation is half the
    gap between the two rotated images.
    """
    if h.degree_bound > 1:
        raise ValueError("circle restriction implemented for degree <= 1 only")
    coef = h.total_coeffs()
    c = 0.0 + coef.get((0,) * 5, 0.0) - coef.get((1, 0, 0, 0, 0), 0.0)
    a4, a5 = (0.0 + coef.get(m, 0.0) for m in ((0, 0, 0, 1, 0), (0, 0, 0, 0, 1)))
    tstar = math.atan2(a5, a4) / (2.0 * math.pi)

    def h_c(t):
        return c + a4 * math.cos(2 * math.pi * t) + a5 * math.sin(2 * math.pi * t)

    return np.array([abs(h_c(t0 + alpha) - h_c((2.0 * tstar - t0) % 1.0 + alpha)) / 2.0 for t0 in ts])


def _run_e3(cfg, out):
    metrics, flags = {}, {}
    alpha = cfg.param("alpha")
    n_refs = cfg.param("n_refs")
    threshold = cfg.param("threshold")

    model = SystemConfig("model_T0", alpha=alpha)
    states = sample_model_states(cfg.param("n_samples"), rng_for(cfg.seed, "E3", "samples"))
    pred_amb = ambient_of_states(model, states)
    # one model step per row: the circle rotates by alpha, and the marked
    # point's rows keep component 0, which ambient_of_states maps to p at t = 0
    succ_amb = ambient_of_states(model, np.column_stack([states[:, 0], (states[:, 1] + alpha) % 1.0]))
    ref_t = rng_for(cfg.seed, "E3", "refs").random(n_refs)
    ref_amb = ambient_of_states(model, np.column_stack([np.ones(n_refs), ref_t]))

    base = Observable(5, "cosine_fiber", degree_bound=1)
    pred_fracs, match_fracs, rows = [], [], []
    for j in range(cfg.param("n_obs")):
        h = _perturbed(cfg, "E3", f"obs{j}", base)
        pairs = PairedVectors(1, evaluate(h, pred_amb)[:, None], evaluate(h, succ_amb)[:, None])
        y_refs = evaluate(h, ref_amb)
        hat = _report_table(cfg, pairs, y_refs)[3]
        oracle = _two_atom_sigma(h, ref_t, alpha)
        s_hat, defined = hat[:, 0], hat[:, 2] > 0
        matched = np.abs(s_hat - oracle) <= 0.1 * np.maximum(oracle, threshold)
        pred_fracs.append(_fraction(s_hat[defined] < threshold))
        match_fracs.append(_fraction(matched[defined]))
        rows += np.column_stack([np.full(n_refs, float(j)), ref_t, y_refs, s_hat, hat[:, 2], oracle,
                                 np.where(defined, matched, np.nan)]).tolist()

    metrics["predictable_fraction_max"] = float(np.max(pred_fracs))
    metrics["predictable_fraction_mean"] = float(np.mean(pred_fracs))
    metrics["oracle_match_min"] = float(np.min(match_fracs))
    metrics["oracle_match_mean"] = float(np.mean(match_fracs))
    flags["model_nonpredictable"] = metrics["predictable_fraction_max"] <= 0.2
    flags["two_atom_oracle_match"] = metrics["oracle_match_min"] >= 0.8
    emit_csv(out / "model_refs.csv",
             ["obs", "t0", "y", "sigma_hat", "count", "sigma_oracle", "matched"], rows)
    return metrics, flags


# -- E4: skew-product counterexample, k = 1 -------------------------------------


def _reference_pools(cfg, sys_cfg, orbit):
    """Late predecessor indices in U_p with the fiber near 0, and in U_q."""
    n = len(orbit)
    r, phi, t = orbit[n // 2: n - 1].T  # predecessors only, late half: contiguous column views
    in_p, in_q = box_flags(r, phi, sys_cfg.delta)
    fiber_near_zero = np.minimum(t, 1.0 - t) < cfg.param("p_ref_fiber_gate")
    return n // 2 + np.flatnonzero(in_p & fiber_near_zero), n // 2 + np.flatnonzero(in_q)


def _run_e4(cfg, out):
    metrics, flags = {}, {}
    sys_cfg = SystemConfig("skew_T", alpha=cfg.param("alpha"), kappa=cfg.param("kappa"),
                           delta=cfg.param("delta"))
    orbit = trajectory(sys_cfg, (cfg.param("start_r"), cfg.param("start_phi"), cfg.param("start_t")),
                       cfg.param("orbit_n"))
    pool_p, pool_q = _reference_pools(cfg, sys_cfg, orbit)
    if len(pool_p) == 0 or len(pool_q) == 0:
        raise ValueError("empty reference pools; orbit too short for late-time passages")
    rng = rng_for(cfg.seed, "E4", "refs")
    refs_p = _draw(rng, pool_p, cfg.param("n_refs"))
    refs_q = _draw(rng, pool_q, cfg.param("n_refs"))
    metrics["p_ref_pool"] = float(len(pool_p))
    metrics["q_ref_pool"] = float(len(pool_q))
    amb = ambient_of_states(sys_cfg, orbit)  # once for all observables
    del orbit

    base = Observable(5, "coord:0", degree_bound=1)
    refs = np.concatenate([refs_p, refs_q])  # one engine profiles both sides, p first
    on_p = np.arange(len(refs)) < len(refs_p)
    hats, rows = [], []  # hats[j]: observable j's (sigma_hat, eps, count) per reference
    for j in range(cfg.param("n_obs")):
        m = evaluate(_perturbed(cfg, "E4", f"obs{j}", base), amb)
        hats.append(_report_table(cfg, delay_series(m, 1), m[refs])[3])
        rows += [[float(j), "p" if p else "q", *cells]
                 for p, cells in zip(on_p, np.column_stack([refs, hats[-1]]).tolist())]
    hats = np.array(hats)
    p_arr, q_arr = (hats[:, side, 0][hats[:, side, 2] > 0] for side in (on_p, ~on_p))
    for arr, name, pool in ((p_arr, "marked-point", pool_p), (q_arr, "fiber", pool_q)):
        if not len(arr):
            raise ValueError(f"no {name} reference was defined: none reached min_count = "
                             f"{cfg.param('min_count')} in a pool of {len(pool)} late passages")

    metrics["p_sigma_max"] = float(p_arr.max())
    metrics["p_sigma_median"] = float(np.median(p_arr))
    metrics["q_nonpredictable_fraction"] = float(np.mean(q_arr >= cfg.param("threshold")))
    metrics["q_sigma_median"] = float(np.median(q_arr))
    flags["atom_predictable"] = metrics["p_sigma_max"] < 1e-3
    flags["fiber_nonpredictable"] = metrics["q_nonpredictable_fraction"] >= 0.5
    emit_csv(out / "skew_refs.csv",
             ["obs", "side", "ref_idx", "sigma_hat", "sigma_hat_eps", "count"], rows)
    return metrics, flags


# -- E5: predictability trend for ergodic benchmarks ----------------------------


def _monotone_last4(count, sigma, min_count):
    """(fraction, eligible): eligible counts the rows of the (m, L) count and sigma tables with four
    levels of min_count points, fraction the share of them whose sigma falls strictly over the last four."""
    eligible = monotone = 0
    for c, s in zip(count, sigma):
        last = s[c >= min_count][-4:]
        if len(last) == 4:
            eligible += 1
            monotone += bool(np.all(last[1:] < last[:-1]))
    return (monotone / eligible if eligible else float("nan")), eligible


def _run_e5(cfg, out):
    metrics, flags = {}, {}
    rot_cfg = SystemConfig("rotation", alpha=cfg.param("alpha"))
    henon_cfg = SystemConfig("henon")
    henon_n = cfg.param("henon_n")
    henon_burn = cfg.param("henon_burn")
    cases = (  # (case, RNG stage, system, start, k, orbit length, burn-in, base observable, degree)
        ("rotation_k2", "rotation", rot_cfg, (0.2,), 2, cfg.param("rot_n"), 0, "cosine_fiber", 3),
        ("henon_k2", "henon_k2", henon_cfg, (0.0, 0.0), 2, henon_n, henon_burn, "coord:0", 3),
        ("henon_k3", "henon_k3", henon_cfg, (0.0, 0.0), 3, henon_n, henon_burn, "coord:0", 5),
    )
    rows = []
    for case, stage, sys_cfg, x0, k, n_orbit, burn_in, base_id, degree in cases:
        h = _perturbed(cfg, "E5", f"{stage}_obs", Observable(2, base_id, degree_bound=degree))
        orbit = trajectory(sys_cfg, x0, n_orbit, burn_in)
        series = delay_series(evaluate(h, ambient_of_states(sys_cfg, orbit)), k)
        n_pred = len(series)
        # references sample the push-forward of the orbit's empirical measure over its second half
        refs = _draw(rng_for(cfg.seed, "E5", f"{stage}_refs"), np.arange(n_pred // 2, n_pred),
                     cfg.param("n_refs"))
        ladder, count, sigma, hat = _report_table(cfg, series, series.predecessors[refs])
        frac, eligible = _monotone_last4(count, sigma, cfg.param("min_count"))
        metrics[f"{case}_monotone_fraction"] = frac
        metrics[f"{case}_eligible_refs"] = float(eligible)
        rows += [[case, *cells] for cells in np.column_stack([np.repeat(refs, len(ladder)),
                 np.tile(ladder, len(refs)), count.ravel(), sigma.ravel()]).tolist()]
        if case == "rotation_k2":
            metrics["rotation_k2_predictable_fraction"] = _fraction(
                hat[hat[:, 2] > 0, 0] < cfg.param("threshold"))

    flags["rotation_k2_trend"] = metrics["rotation_k2_monotone_fraction"] >= 0.9
    flags["henon_k3_trend"] = metrics["henon_k3_monotone_fraction"] >= 0.8
    emit_csv(out / "trend_refs.csv", ["case", "ref_idx", "eps", "count", "sigma"], rows)
    return metrics, flags


# -- E6: information dimension ---------------------------------------------------


def _run_e6(cfg, out):
    metrics = {}
    flags = {}
    ladder = [2.0 ** (-j) for j in range(cfg.param("eps_hi_exp"), cfg.param("eps_lo_exp") + 1)]
    n_samples = cfg.param("n_samples")

    def seed(stage):
        return int(rng_for(cfg.seed, "E6", stage).integers(0, 2**63))

    def skew_measure():
        skew = SystemConfig("skew_T", alpha=cfg.param("alpha"), kappa=cfg.param("kappa"),
                            delta=cfg.param("delta"))
        orbit = trajectory(skew, (0.5, 1.0, 0.3), cfg.param("skew_orbit_n"))
        return ambient_of_states(skew, orbit[::cfg.param("skew_stride")])

    measures = [  # (name, RNG stage whose "<stage>_centers" seeds the ball centres, builder)
        ("model_measure", "model", lambda: sample_model_measure(n_samples, seed("model"))),
        ("uniform_segment", "segment", lambda: uniform_segment_measure(n_samples, seed("segment"))),
        ("point_mass", "point", lambda: point_mass_measure(cfg.param("point_n"))),
        ("skew_orbit", "skew", skew_measure),
    ]
    rows = []
    for name, stage, build in measures:
        mu = build()
        ball, pointwise = ball_mass_dimension(mu, ladder, cfg.param("n_centers"),
                                              seed(f"{stage}_centers"))
        box = box_counting_idim(mu, ladder)
        del mu  # the next measure is built with this one freed
        for kind, est in (("ball", ball), ("box", box)):
            for (eps, val), n_used in zip(est.ladder, est.levels_used):
                rows.append([name, kind, eps, val, float(n_used)])
            metrics[f"{name}_{kind}"] = est.estimate
        if stage == "model":
            for q, v in pointwise_dim_quantiles(pointwise).items():
                metrics[f"model_measure_dimH_proxy_q{int(q * 100):02d}"] = v

    flags["model_ball_half"] = abs(metrics["model_measure_ball"] - 0.5) <= 0.1
    flags["model_box_half"] = abs(metrics["model_measure_box"] - 0.5) <= 0.1
    flags["segment_ball_one"] = abs(metrics["uniform_segment_ball"] - 1.0) <= 0.1
    flags["segment_box_one"] = abs(metrics["uniform_segment_box"] - 1.0) <= 0.1
    flags["point_ball_zero"] = abs(metrics["point_mass_ball"]) <= 0.05
    flags["point_box_zero"] = abs(metrics["point_mass_box"]) <= 0.05
    emit_csv(out / "idim.csv", ["measure", "estimator", "eps", "value", "n_used"], rows)
    return metrics, flags


# -- driver ----------------------------------------------------------------------


_RUNNERS = {
    "E1_parabolic": [("rho", _run_e1_rho), ("visits", _run_e1_visits)],
    "E2_natural_measure": [("occupation", _run_e2)],
    "E3_model_nonpredict": [("model_nonpredict", _run_e3)],
    "E4_counterexample": [("counterexample", _run_e4)],
    "E5_ergodic_predict": [("ergodic_trend", _run_e5)],
    "E6_idim": [("idim", _run_e6)],
}


def run_experiment(cfg, out_dir):
    """Run one named experiment; write CSVs plus summary.txt under out_dir.

    Each stage's wall time goes into timings as "<stage>_seconds".  Raises
    RuntimeError naming the failing stage if any sub-operation fails.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    metrics = {}
    flags = {}
    timings = {}
    for stage, runner in _RUNNERS[cfg.experiment_id]:
        t0 = time.perf_counter()
        try:
            m, f = runner(cfg, out)
        except Exception as exc:
            raise RuntimeError(f"stage {stage!r} of {cfg.experiment_id} failed: {exc}") from exc
        timings[f"{stage}_seconds"] = time.perf_counter() - t0
        metrics.update(m)
        flags.update(f)
    wall = time.perf_counter() - start
    summary = RunSummary(cfg.experiment_id, _config_echo(cfg), metrics, flags, wall, timings)
    _write_summary(out / "summary.txt", summary)
    return summary


def _config_echo(cfg):
    """Every key as the run reads it, so two spellings of one override (2, 2.0) echo alike."""
    return {"experiment": cfg.experiment_id, "seed": cfg.seed,
            **{key: cfg.param(key) for key in sorted(DEFAULTS[cfg.experiment_id])}}


def _write_summary(path, summary):
    # deliberately excludes wall time so artifact bytes depend on config only
    lines = [f"experiment = {summary.experiment_id}"]
    for key, val in summary.config.items():
        if key == "experiment":
            continue
        lines.append(f"{key} = {format_cell(val)}")
    lines.append("")
    for key in sorted(summary.metrics):
        lines.append(f"metric {key} = {format_cell(summary.metrics[key])}")
    lines.append("")
    for key in sorted(summary.pass_flags):
        lines.append(f"pass {key} = {str(summary.pass_flags[key]).lower()}")
    Path(path).write_text("\n".join(lines) + "\n")
