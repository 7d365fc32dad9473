"""Correctness checks made apart from the program.

Every check returns a list of failure messages; an empty list means it held.
The checks read the run's artifacts (``summary.txt`` and the CSVs) and the
profile calls kept by ``tracer.Recorder``.  They recompute each value from
first principles: ball statistics by direct enumeration, the two-atom
deviation in closed form, dimension slopes by their own least squares, and
compare against analytic dimensions.  None of them imports delaylab.
"""

import csv
import math

import numpy as np

EPS = np.finfo(float).eps


def parse_summary(text):
    """(config, metrics, flags) from a summary.txt."""
    config, metrics, flags = {}, {}, {}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, _, val = line.partition(" = ")
        if key.startswith("metric "):
            metrics[key[7:]] = float(val)
        elif key.startswith("pass "):
            flags[key[5:]] = {"true": True, "false": False}[val]
        else:
            config[key] = val
    return config, metrics, flags


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a, b, rel=1e-12):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_flags(flags, exempt=()):
    out = [f"pass flag {k} is false" for k, v in sorted(flags.items()) if not v and k not in exempt]
    if not flags:
        out.append("summary has no pass flags")
    return out


# -- ball statistics by enumeration -----------------------------------------------


def enumerate_ladder(pred, succ, y, ladder):
    """Count, chi, sigma over the open balls ||x - y|| < eps, with tolerances.

    ``near`` counts points whose distance is within rounding of eps, where
    membership depends on how the distance was formed.  The tolerances admit
    an exact engine that reduces a ball through differences of running sums
    over the whole series: such a difference carries rounding of at most
    eps_mach times the series' total (absolute first, squared second
    centred moment), whatever the ball's size.
    """
    d = np.sqrt(np.sum((pred - y) ** 2, axis=1))
    c = succ - succ.mean(axis=0)
    abs_sum = np.abs(c).sum(axis=0)
    sq_sum = float((c * c).sum())
    round_eps = 8.0 * EPS * (np.abs(y).max() + ladder[0])
    keep = d < ladder[0] + round_eps
    d, cand = d[keep], succ[keep]
    levels = []
    for eps in ladder:
        inside = d < eps
        count = int(inside.sum())
        near = int((np.abs(d - eps) <= round_eps).sum())
        chi = sigma = None
        if count:
            cloud = cand[inside]
            chi = cloud.mean(axis=0)
            sigma = float(np.sqrt(np.mean(np.sum((cloud - chi) ** 2, axis=1))))
        levels.append({"eps": eps, "count": count, "near": near, "chi": chi, "sigma": sigma,
                       "tol_chi": EPS * abs_sum + 1e-12 * (1.0 + np.abs(chi if chi is not None else 0.0)),
                       "tol_var": EPS * sq_sum + 1e-9 * (sigma or 0.0) ** 2})
    return levels


def select_hat(levels, min_count):
    """The finest level holding at least min_count points, or None."""
    hat = None
    for lev in levels:
        if lev["count"] >= min_count:
            hat = lev
    return hat


def _same_stats(where, lev, count, chi, sigma):
    if count != lev["count"]:
        if abs(count - lev["count"]) > lev["near"]:
            return [f"{where}: count {count} != enumerated {lev['count']}"]
        return []  # membership decided by rounding at the boundary
    if count == 0:
        return [] if chi is None and sigma is None else [f"{where}: empty ball has statistics"]
    out = []
    chi = np.atleast_1d(np.asarray(chi, dtype=float))
    if chi.shape != lev["chi"].shape or np.any(np.abs(chi - lev["chi"]) > lev["tol_chi"]):
        out.append(f"{where}: chi {chi} != enumerated {lev['chi']}")
    if sigma is None or abs(sigma * sigma - lev["sigma"] ** 2) > lev["tol_var"]:
        out.append(f"{where}: sigma {sigma} != enumerated {lev['sigma']}")
    return out


def check_profiles(samples, pred, succ):
    """Each kept profile against enumeration: every ladder level and sigma_hat.

    Returns (failures, enumerated levels per sample).
    """
    if not samples or pred is None:
        return ["no profiled references were captured"], []
    out = []
    enumerated = []
    for s in samples:
        est = s["est"]
        levels = enumerate_ladder(pred, succ, s["y"], s["ladder"])
        enumerated.append(levels)
        tag = f"profile call {s['index']}"
        if len(est.ladder) != len(levels):
            out.append(f"{tag}: {len(est.ladder)} ladder levels, expected {len(levels)}")
            continue
        for j, (entry, lev) in enumerate(zip(est.ladder, levels)):
            if entry.eps != lev["eps"]:
                out.append(f"{tag} level {j}: eps {entry.eps} != {lev['eps']}")
            out += _same_stats(f"{tag} level {j}", lev, entry.count, entry.chi, entry.sigma)
        hat = select_hat(levels, s["min_count"])
        if hat is None:
            if est.sigma_hat is not None:
                out.append(f"{tag}: sigma_hat {est.sigma_hat} but no level holds {s['min_count']}")
        elif est.sigma_hat_eps != hat["eps"] or est.sigma_hat is None:
            out.append(f"{tag}: sigma_hat taken at eps {est.sigma_hat_eps}, expected {hat['eps']}")
        else:
            out += _same_stats(f"{tag} sigma_hat", hat, est.sigma_hat_count, hat["chi"], est.sigma_hat)
            if est.predictable != (est.sigma_hat < s["threshold"]):
                out.append(f"{tag}: predictable {est.predictable} disagrees with the threshold")
    return out, enumerated


def _last_group(rows, key):
    last = rows[-1][key] if rows else None
    return [r for r in rows if r[key] == last]


def check_hat_rows(samples, enumerated, rows, key, min_count):
    """CSV rows of the last engine (one per profile call) against enumeration."""
    group = _last_group(rows, key)
    out = []
    for s, levels in zip(samples, enumerated):
        if s["index"] >= len(group):
            out.append(f"profile call {s['index']} has no CSV row")
            continue
        row = group[s["index"]]
        if "y" in row and float(row["y"]) != float(s["y"][0]):
            out.append(f"CSV row {s['index']}: y {row['y']} != profiled {s['y'][0]}")
        hat = select_hat(levels, min_count)
        if hat is None:
            if not math.isnan(float(row["sigma_hat"])):
                out.append(f"CSV row {s['index']}: sigma_hat defined without {min_count} neighbours")
            continue
        if "sigma_hat_eps" in row and float(row["sigma_hat_eps"]) != hat["eps"]:
            out.append(f"CSV row {s['index']}: sigma_hat_eps {row['sigma_hat_eps']} != {hat['eps']}")
        sigma = float(row["sigma_hat"])
        out += _same_stats(f"CSV row {s['index']}", hat, int(float(row["count"])), hat["chi"],
                           None if math.isnan(sigma) else sigma)
    return out


def check_ladder_rows(samples, enumerated, rows, key):
    """Trend CSV (one row per ladder level) of the last engine against enumeration."""
    group = _last_group(rows, key)
    out = []
    for s, levels in zip(samples, enumerated):
        block = group[s["index"] * len(levels):(s["index"] + 1) * len(levels)]
        if len(block) != len(levels):
            out.append(f"profile call {s['index']} has no CSV block")
            continue
        for j, (row, lev) in enumerate(zip(block, levels)):
            if float(row["eps"]) != lev["eps"]:
                out.append(f"CSV ref {s['index']} level {j}: eps {row['eps']} != {lev['eps']}")
            sigma = float(row["sigma"])
            out += _same_stats(f"CSV ref {s['index']} level {j}", lev, int(float(row["count"])),
                               lev["chi"], None if math.isnan(sigma) else sigma)
    return out


# -- per-experiment checks -----------------------------------------------------------


def check_skew(config, metrics, flags, rows):
    """E4: flags, and the summary metrics recomputed from skew_refs.csv.

    atom_predictable is a maximum over every marked-point reference; at the
    benchmark's orbit length a fraction of a percent of those references sit
    above 1e-3, so that flag holds on some seeds and not on others.  It is
    checked for consistency with p_sigma_max; the typical marked-point
    reference must still be predictable (median below 1e-3).
    """
    out = check_flags(flags, exempt=("atom_predictable",))
    p = np.array([float(r["sigma_hat"]) for r in rows if r["side"] == "p"])
    q = np.array([float(r["sigma_hat"]) for r in rows if r["side"] == "q"])
    p, q = p[~np.isnan(p)], q[~np.isnan(q)]
    if len(p) == 0 or len(q) == 0:
        return out + ["no defined marked-point or fiber references"]
    threshold = float(config["threshold"])
    expect = {"p_sigma_max": float(p.max()), "p_sigma_median": float(np.median(p)),
              "q_nonpredictable_fraction": float(np.mean(q >= threshold)),
              "q_sigma_median": float(np.median(q))}
    for key, val in expect.items():
        if not _close(metrics.get(key, math.nan), val):
            out.append(f"metric {key} = {metrics.get(key)} but the CSV gives {val}")
    if flags.get("atom_predictable") != (expect["p_sigma_max"] < 1e-3):
        out.append("atom_predictable disagrees with p_sigma_max")
    if not expect["p_sigma_median"] < 1e-3:
        out.append(f"median marked-point sigma {expect['p_sigma_median']} is not below 1e-3")
    return out


def two_atom_sigma(a0, a4, a5, t0, alpha):
    """Closed form of the two-atom deviation for h = a0 + a4 cos 2pi t + a5 sin 2pi t.

    Writing h = a0 + A cos(2 pi (t - t*)), the level set through t0 is
    {t0, 2 t* - t0}; half the gap between their rotated images is
    A |sin(2 pi (t0 - t*))| |sin(2 pi alpha)|.
    """
    amp = math.hypot(a4, a5)
    tstar = math.atan2(a5, a4) / (2.0 * math.pi)
    return amp * abs(math.sin(2.0 * math.pi * (t0 - tstar)) * math.sin(2.0 * math.pi * alpha))


def check_model(config, metrics, flags, rows):
    """E3: flags, the closed-form oracle, and the summary metrics from model_refs.csv."""
    out = check_flags(flags)
    alpha = float(config["alpha"])
    threshold = float(config["threshold"])
    pred_fracs, match_fracs = [], []
    for obs in sorted({r["obs"] for r in rows}, key=float):
        group = [r for r in rows if r["obs"] == obs]
        t0 = np.array([float(r["t0"]) for r in group])
        y = np.array([float(r["y"]) for r in group])
        design = np.column_stack([np.ones_like(t0), np.cos(2 * np.pi * t0), np.sin(2 * np.pi * t0)])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = float(np.abs(design @ coef - y).max())
        if resid > 1e-9 * max(1.0, float(np.abs(y).max())):
            out.append(f"obs {obs}: reference values are not a first-harmonic function of t0 "
                       f"(residual {resid:.3g})")
        n_def = n_pred = n_match = 0
        for r, t in zip(group, t0):
            oracle = two_atom_sigma(*coef, t, alpha)
            if abs(float(r["sigma_oracle"]) - oracle) > 1e-9 * max(1.0, oracle):
                out.append(f"obs {obs} t0 {t}: sigma_oracle {r['sigma_oracle']} != closed form {oracle}")
            sigma = float(r["sigma_hat"])
            if math.isnan(sigma):
                continue
            n_def += 1
            n_pred += sigma < threshold
            matched = abs(sigma - oracle) <= 0.1 * max(oracle, threshold)
            n_match += matched
            if float(r["matched"]) != float(matched):
                out.append(f"obs {obs} t0 {t}: matched column {r['matched']} disagrees")
        pred_fracs.append(n_pred / n_def if n_def else math.nan)
        match_fracs.append(n_match / n_def if n_def else math.nan)
    expect = {"predictable_fraction_max": float(np.max(pred_fracs)),
              "oracle_match_min": float(np.min(match_fracs)),
              "oracle_match_mean": float(np.mean(match_fracs))}
    for key, val in expect.items():
        if not _close(metrics.get(key, math.nan), val):
            out.append(f"metric {key} = {metrics.get(key)} but the CSV gives {val}")
    return out


def check_trend(config, metrics, flags, rows):
    """E5: flags, and the monotone fractions recomputed from trend_refs.csv."""
    out = check_flags(flags)
    min_count = int(config["min_count"])
    for case in dict.fromkeys(r["case"] for r in rows):
        by_ref = {}
        for r in rows:
            if r["case"] == case:
                by_ref.setdefault(r["ref_idx"], []).append(r)
        eligible = monotone = 0
        for levels in by_ref.values():
            sig = [float(r["sigma"]) for r in levels
                   if int(float(r["count"])) >= min_count and not math.isnan(float(r["sigma"]))]
            if len(sig) < 4:
                continue
            eligible += 1
            monotone += all(b < a for a, b in zip(sig[-4:], sig[-3:]))
        frac = monotone / eligible if eligible else math.nan
        for key, val in ((f"{case}_monotone_fraction", frac), (f"{case}_eligible_refs", float(eligible))):
            if not _close(metrics.get(key, math.nan), val):
                out.append(f"metric {key} = {metrics.get(key)} but the CSV gives {val}")
    return out


ANALYTIC_DIMENSION = {"model_measure": (0.5, 0.1), "uniform_segment": (1.0, 0.1), "point_mass": (0.0, 0.05)}


def check_idim(metrics, flags, rows):
    """E6: flags, slopes refitted from idim.csv, and the analytic dimensions."""
    out = check_flags(flags)
    for (measure, estimator) in dict.fromkeys((r["measure"], r["estimator"]) for r in rows):
        pts = [(math.log(float(r["eps"])), float(r["value"])) for r in rows
               if r["measure"] == measure and r["estimator"] == estimator and not math.isnan(float(r["value"]))]
        x = np.array([p[0] for p in pts])
        v = np.array([p[1] for p in pts])
        y = v * x if estimator == "ball" else v  # ball rows hold mean log-mass / log eps
        slope = float(np.polyfit(x, y, 1)[0]) if len(x) >= 2 else math.nan
        key = f"{measure}_{estimator}"
        if not abs(metrics.get(key, math.nan) - slope) <= 1e-9:
            out.append(f"metric {key} = {metrics.get(key)} but the CSV slope is {slope}")
        if measure in ANALYTIC_DIMENSION:
            target, tol = ANALYTIC_DIMENSION[measure]
            if not abs(slope - target) <= tol:
                out.append(f"{key} = {slope} is not within {tol} of the analytic {target}")
    missing = {m for m in ANALYTIC_DIMENSION} - {r["measure"] for r in rows}
    return out + [f"idim.csv has no rows for {m}" for m in sorted(missing)]
