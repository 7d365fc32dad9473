import re

import numpy as np
import pytest

from delaylab import embedding, experiments
from delaylab.cli import main
from delaylab.dynamics import ambient_of_states, GOLDEN_ROTATION, SystemConfig
from delaylab.embedding import delay_series
from delaylab.experiments import (
    emit_csv,
    ExperimentConfig,
    parse_config,
    rng_for,
    run_experiment,
)
from delaylab.observables import evaluate, Observable, perturb
from delaylab.predictability import predictability_report


def test_parse_config_basic():
    cfg = parse_config("experiment = E1\nseed = 7\n")
    assert cfg.experiment_id == "E1_parabolic"
    assert cfg.seed == 7
    assert cfg.overrides == {}


def test_parse_config_full_name_comments_and_overrides():
    text = """
    # a comment
    experiment = E3_model_nonpredict
    seed = 3   # inline comment
    n_obs = 5
    """
    cfg = parse_config(text)
    assert cfg.experiment_id == "E3_model_nonpredict"
    assert cfg.seed == 3
    assert cfg.overrides == {"n_obs": 5}
    assert cfg.param("n_obs") == 5
    assert cfg.param("n_refs") == 200  # default fills in


def test_parse_config_bad_value_reports_line():
    with pytest.raises(ValueError, match="line 2"):
        parse_config("experiment = E1\nseed = abc\n")


def test_parse_config_missing_experiment():
    with pytest.raises(ValueError, match="experiment missing"):
        parse_config("")
    with pytest.raises(ValueError, match="experiment missing"):
        parse_config("# nothing\n\n")


@pytest.mark.parametrize("text,key,lines", [
    ("experiment = E3\nn_obs = 5\nn_obs = 6\nexperiment = E4\n", "n_obs", (2, 3)),
    ("experiment = E3\nn_obs = 5\n# n_obs = 6\nexperiment = E4\n", "experiment", (1, 4)),
    ("seed = 1\nexperiment = E3\n\nseed = 1\n", "seed", (1, 4)),
])
def test_parse_config_rejects_repeated_key(text, key, lines):
    with pytest.raises(ValueError, match=f"line {lines[1]}: key '{key}' already set on line {lines[0]}"):
        parse_config(text)


def test_parse_config_unknown_key_named():
    with pytest.raises(ValueError, match="frobnicate"):
        parse_config("experiment = E1\nfrobnicate = 3\n")


@pytest.mark.parametrize("key,val", [("threshold", "nan"), ("pert_scale", "inf")])
def test_parse_config_rejects_nonfinite(key, val):
    with pytest.raises(ValueError, match=key):
        parse_config(f"experiment = E3\n{key} = {val}\n")


def test_config_override_type_check():
    for bad in (2.5, "abc", np.int64(-5)):
        with pytest.raises(ValueError, match="n_obs"):
            ExperimentConfig("E3_model_nonpredict", 0, {"n_obs": bad})
    with pytest.raises(ValueError, match="unknown experiment"):
        ExperimentConfig("E9_nope", 0)
    # an E6 ladder 2^-eps_hi_exp .. 2^-eps_lo_exp needs at least two levels
    for hi, lo in ((8, 4), (5, 5)):
        with pytest.raises(ValueError, match="'eps_hi_exp' = .* 'eps_lo_exp'"):
            ExperimentConfig("E6_idim", 0, {"eps_hi_exp": hi, "eps_lo_exp": lo})
    with pytest.raises(ValueError, match="'eps_hi_exp' = 9 and 'eps_lo_exp' = 8"):
        parse_config("experiment = E6\neps_hi_exp = 9\n")
    assert ExperimentConfig("E6_idim", 0, {"eps_hi_exp": 5, "eps_lo_exp": 6}).param("eps_lo_exp") == 6
    with pytest.raises(ValueError, match="key 'eps_lo_exp' must be at most 62, got 63$"):
        ExperimentConfig("E6_idim", 0, {"eps_lo_exp": 63})
    # the E1 slope fit needs two points in [rho_fit_lo, min(rho_fit_hi, rho_n)]
    for bad in ({"rho_n": 5000, "rho_fit_lo": 6000}, {"rho_fit_lo": 5000, "rho_fit_hi": 5000},
                {"rho_n": 1000}):
        with pytest.raises(ValueError, match="'rho_fit_lo' = .* 'rho_fit_hi' = .* 'rho_n'"):
            ExperimentConfig("E1_parabolic", 0, bad)
    assert ExperimentConfig("E1_parabolic", 0, {"rho_n": 1001}).param("rho_n") == 1001
    # system constants keep SystemConfig's bounds, kappa in (0, 0.1] and delta in (0, 0.2]
    for experiment, key, bad in (("E2_natural_measure", "kappa", 0.2), ("E1_parabolic", "visits_delta", 0.3),
                                 ("E1_parabolic", "rho_kappa", 0.5), ("E1_parabolic", "visits_kappa", 0.11),
                                 ("E4_counterexample", "delta", 0.25), ("E6_idim", "kappa", 0.5)):
        with pytest.raises(ValueError, match=f"key '{key}'"):
            ExperimentConfig(experiment, 0, {key: bad})
    assert ExperimentConfig("E1_parabolic", 0, {"rho_kappa": 0.1, "visits_delta": 0.2}).param("rho_kappa") == 0.1
    # a conditional deviation needs at least two points in the ball
    for experiment in ("E3_model_nonpredict", "E4_counterexample", "E5_ergodic_predict"):
        with pytest.raises(ValueError, match="'min_count' must be at least 2"):
            ExperimentConfig(experiment, 0, {"min_count": 1})
    assert ExperimentConfig("E3_model_nonpredict", 0, {"min_count": 2}).param("min_count") == 2
    # trajectory wraps any finite start angle or fiber start, and the Henon orbit may skip burn-in
    for experiment, key, val in (("E4_counterexample", "start_t", 0.0), ("E4_counterexample", "start_phi", 0.0),
                                 ("E2_natural_measure", "start1_phi", -1.0), ("E1_parabolic", "visits_phi0", 0.0),
                                 ("E5_ergodic_predict", "henon_burn", 0)):
        assert ExperimentConfig(experiment, 0, {key: val}).param(key) == val
    with pytest.raises(ValueError, match="'henon_burn' must be at least 0"):
        ExperimentConfig("E5_ergodic_predict", 0, {"henon_burn": -1})
    with pytest.raises(ValueError, match="'start_r' must be positive"):
        ExperimentConfig("E4_counterexample", 0, {"start_r": 0.0})
    # the k = 2 rotation and k = 3 Henon series need one delay vector with a successor
    for key, bad in (("rot_n", 2), ("henon_n", 3)):
        with pytest.raises(ValueError, match=f"'{key}' must be at least {bad + 1}"):
            ExperimentConfig("E5_ergodic_predict", 0, {key: bad})
    assert ExperimentConfig("E5_ergodic_predict", 0, {"rot_n": 3, "henon_n": 4}).param("henon_n") == 4


def test_config_rejects_bool_overrides():
    # bool is a numbers.Real, so True used to run as n_obs = 1 and alpha = 1.0
    for experiment, key in (("E3_model_nonpredict", "n_obs"), ("E3_model_nonpredict", "alpha"),
                            ("E4_counterexample", "threshold"), ("E5_ergodic_predict", "henon_burn")):
        for bad in (True, False, np.bool_(True)):
            with pytest.raises(ValueError, match=f"key '{key}' must be a number"):
                ExperimentConfig(experiment, 0, {key: bad})
    assert ExperimentConfig("E3_model_nonpredict", 0, {"n_obs": np.int64(3)}).param("n_obs") == 3


def test_fiber_gate_at_most_half():
    # min(t, 1 - t) never exceeds 1/2, so a wider gate would admit every fiber point
    with pytest.raises(ValueError, match="p_ref_fiber_gate"):
        ExperimentConfig("E4_counterexample", 0, {"p_ref_fiber_gate": 0.51})
    with pytest.raises(ValueError, match="p_ref_fiber_gate"):
        parse_config("experiment = E4\np_ref_fiber_gate = 2\n")
    assert ExperimentConfig("E4_counterexample", 0, {"p_ref_fiber_gate": 0.5}).param(
        "p_ref_fiber_gate") == 0.5


def test_emit_csv(tmp_path):
    path = tmp_path / "t.csv"
    emit_csv(path, ["a", "b"], [[0.1, 2.0]])
    text = path.read_text()
    assert text == "a,b\n0.1,2.0\n"
    assert float(text.splitlines()[1].split(",")[0]) == 0.1  # round-trip exact

    emit_csv(path, ["x"], [])
    assert path.read_text() == "x\n"

    third = 1.0 / 3.0
    emit_csv(path, ["v"], [[third]])
    assert float(path.read_text().splitlines()[1]) == third

    with pytest.raises(ValueError):
        emit_csv(path, ["a", "b"], [[1.0]])


def test_emit_csv_numpy_scalars_write_as_python_scalars(tmp_path):
    # numpy 2 reprs a float64 as "np.float64(0.5)"; no CSV cell or summary metric may read so
    py_row = [0.5, 1.0 / 3.0, float("nan"), float("inf"), -0.0, 1e-300, 7, -3, "p"]
    np_row = [np.float64(0.5), np.float64(1.0 / 3.0), np.float64("nan"), np.float64("inf"),
              np.float64(-0.0), np.float64(1e-300), np.int64(7), np.int32(-3), "p"]
    emit_csv(tmp_path / "py.csv", list("abcdefghi"), [py_row])
    emit_csv(tmp_path / "np.csv", list("abcdefghi"), [np_row])
    assert (tmp_path / "np.csv").read_bytes() == (tmp_path / "py.csv").read_bytes()
    assert [experiments.format_cell(v) for v in np_row] == [experiments.format_cell(v) for v in py_row]
    assert experiments.format_cell(np.float32(0.1)) == repr(float(np.float32(0.1)))


def _series_with_sparse_references(k):
    """A delay series of a scalar orbit in [0, 1) plus one isolated point at 5,
    and its references: three data vectors, the isolated one (balls of one
    point, below min_count) and one far outside (empty balls)."""
    x = np.concatenate([np.random.default_rng(3).random(3_000) ** 2, [5.0], [0.5] * k])
    series = delay_series(x, k)
    iso = np.flatnonzero(series.predecessors[:, 0] == 5.0)[0]
    ys = np.vstack([series.predecessors[[10, 500, 2_000, iso]], np.full((1, k), 100.0)])
    return series, ys


@pytest.mark.parametrize("k", [1, 2])
def test_report_table_equals_sigma_estimates(k):
    cfg = ExperimentConfig("E3_model_nonpredict", 0, {"ladder_levels": 10, "min_count": 20})
    series, ys = _series_with_sparse_references(k)
    ladder, count, sigma, hat = experiments._report_table(cfg, series, ys)
    estimates = predictability_report(series, ys, 10, cfg.param("ladder_top"), 20, cfg.param("threshold"))
    assert ladder.shape == (10,) and count.shape == sigma.shape == (len(ys), 10)
    assert hat.shape == (len(ys), 3) and count.dtype == hat.dtype == float
    for i, est in enumerate(estimates):
        assert ladder.tolist() == [e.eps for e in est.ladder]
        assert count[i].tolist() == [e.count for e in est.ladder]
        assert np.array_equal(np.isnan(sigma[i]), count[i] == 0)
        assert sigma[i][count[i] > 0].tolist() == [e.sigma for e in est.ladder if e.count]
        # hat holds sigma_hat, its eps and its count, NaN, NaN and 0 where sigma_hat is undefined
        want = (np.nan, np.nan, 0) if est.sigma_hat is None else (
            est.sigma_hat, est.sigma_hat_eps, est.sigma_hat_count)
        assert np.array_equal(hat[i], want, equal_nan=True)
        if est.defined:
            assert ladder[count[i] >= 20][-1] == hat[i, 1]
            assert sigma[i, ladder == hat[i, 1]] == hat[i, 0] and count[i, ladder == hat[i, 1]] == hat[i, 2]
    # the isolated reference holds only itself, the far one nothing, and the data ones sigma_hat
    assert count[3].tolist() == [1.0] * 10 and hat[3, 2] == 0 and np.isnan(hat[3, :2]).all()
    assert count[4].tolist() == [0.0] * 10 and hat[4, 2] == 0 and np.isnan(hat[4, :2]).all()
    assert (hat[:3, 2] >= 20).all() and (count[:3] < 20).any()


def test_two_atom_sigma_equals_closed_form():
    """The two-atom oracle against the closed form A |sin 2pi(t0 - t*)| |sin 2pi alpha| of
    h = c + A cos 2pi(t - t*) on the fiber circle over q, on 200 random degree-1 perturbations
    of E3's base observable, with a4 and a5 read from h's values on that circle, not from its
    coefficients."""
    alpha = GOLDEN_ROTATION
    model = SystemConfig("model_T0", alpha=alpha)
    base = Observable(5, "cosine_fiber", degree_bound=1)
    rng = np.random.default_rng(27)
    quarter = ambient_of_states(model, np.column_stack([np.ones(4), [0.0, 0.25, 0.5, 0.75]]))
    for _ in range(200):
        h = perturb(base, rng.uniform(-1.0, 1.0, 6))
        h0, h1, h2, h3 = evaluate(h, quarter)
        a4, a5 = (h0 - h2) / 2.0, (h1 - h3) / 2.0
        amp, tstar = np.hypot(a4, a5), np.arctan2(a5, a4) / (2.0 * np.pi)
        ts = rng.random(50)
        want = amp * np.abs(np.sin(2.0 * np.pi * (ts - tstar)) * np.sin(2.0 * np.pi * alpha))
        assert np.abs(experiments._two_atom_sigma(h, ts, alpha) - want).max() <= 1e-12 * amp
    with pytest.raises(ValueError, match="degree <= 1"):
        experiments._two_atom_sigma(Observable(5, "cosine_fiber", degree_bound=2), ts, alpha)


def test_monotone_last4_on_a_hand_made_table():
    nan = np.nan
    count = np.array([[10, 8, 6, 4, 3, 3],      # falls over the last four: monotone
                      [10, 8, 6, 4, 3, 3],      # a tie in the last four (and in the first)
                      [10, 8, 6, 4, 0, 0],      # empty levels at the end: the last four admissible fall
                      [10, 8, 6, 2, 1, 0],      # three admissible levels: not eligible
                      [10, 9, 8, 7, 6, 2],      # the last four admissible fall, the first four do not
                      [10] * 6], dtype=float)   # rises
    sigma = np.array([[6, 5, 4, 3, 2, 1],
                      [6, 6, 4, 3, 3, 1],
                      [5, 4, 3, 2, nan, nan],
                      [3, 2, 1, 0.5, 0, nan],
                      [1, 5, 4, 3, 2, 9],
                      [1, 2, 3, 4, 5, 6]], dtype=float)
    assert experiments._monotone_last4(count, sigma, 3) == (3 / 5, 5)
    frac, eligible = experiments._monotone_last4(count[3:4], sigma[3:4], 3)
    assert np.isnan(frac) and eligible == 0
    assert experiments._monotone_last4(count, sigma, 11)[1] == 0


def test_rng_for_keyed_streams():
    a = rng_for(7, "E3", "refs").random(4)
    b = rng_for(7, "E3", "refs").random(4)
    c = rng_for(7, "E3", "samples").random(4)
    d = rng_for(8, "E3", "refs").random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


@pytest.fixture(scope="module")
def e3_small(tmp_path_factory):
    out = tmp_path_factory.mktemp("e3a")
    cfg = ExperimentConfig("E3_model_nonpredict", 5,
                           {"n_samples": 30_000, "n_obs": 2, "n_refs": 40})
    return cfg, run_experiment(cfg, out), out


def test_run_experiment_e3_smoke(e3_small):
    cfg, summary, out = e3_small
    assert (out / "model_refs.csv").exists()
    assert (out / "summary.txt").exists()
    assert "predictable_fraction_max" in summary.metrics
    assert summary.metrics["oracle_match_min"] >= 0.0
    assert set(summary.pass_flags) == {"model_nonpredictable", "two_atom_oracle_match"}


def test_run_experiment_deterministic_bytes(e3_small, tmp_path):
    cfg, _, out_a = e3_small
    out_b = tmp_path / "again"
    run_experiment(cfg, out_b)
    assert (out_a / "model_refs.csv").read_bytes() == (out_b / "model_refs.csv").read_bytes()
    assert (out_a / "summary.txt").read_bytes() == (out_b / "summary.txt").read_bytes()


def test_summary_echo_independent_of_override_spelling(tmp_path):
    # 2 and 2.0 are one run of an integer key, 1 and 1.0 one run of a float key
    summaries = []
    for spelling in ("n_obs = 2\nalpha = 1", "n_obs = 2.0\nalpha = 1.0"):
        cfg = parse_config(f"experiment = E3\nn_samples = 2000\nn_refs = 5\n{spelling}\n")
        run_experiment(cfg, tmp_path / spelling[-1])
        summaries.append((tmp_path / spelling[-1] / "summary.txt").read_text())
    assert summaries[0] == summaries[1]
    assert "n_obs = 2\n" in summaries[0] and "alpha = 1.0\n" in summaries[0]


def test_run_experiment_e6_smoke_and_determinism(tmp_path):
    cfg = ExperimentConfig("E6_idim", 11, {
        "n_samples": 20_000, "n_centers": 300, "point_n": 2_000,
        "skew_orbit_n": 100_000, "skew_stride": 10,
    })
    a = tmp_path / "a"
    b = tmp_path / "b"
    sa = run_experiment(cfg, a)
    run_experiment(cfg, b)
    assert (a / "idim.csv").read_bytes() == (b / "idim.csv").read_bytes()
    for key in ("model_measure_ball", "model_measure_box", "uniform_segment_ball",
                "point_mass_ball", "skew_orbit_ball", "skew_orbit_box"):
        assert key in sa.metrics
    assert sa.pass_flags["point_ball_zero"]
    assert sa.pass_flags["point_box_zero"]


def test_parse_config_fractional_seed_rejected():
    with pytest.raises(ValueError, match="seed"):
        parse_config("experiment = E1\nseed = 7.5\n")


@pytest.mark.parametrize("bad", [True, np.bool_(False), 2.5, 7.0, "7", None])
def test_config_rejects_non_integer_seed(bad):
    # rng_for keys its streams with the seed's text, so 7.0 drew other samples than 7
    with pytest.raises(ValueError, match=f"seed must be an integer, got {re.escape(repr(bad))}"):
        ExperimentConfig("E3_model_nonpredict", bad)


def test_config_numpy_integer_seed_is_that_integer(tmp_path):
    cfg = ExperimentConfig("E3_model_nonpredict", np.int64(7))
    assert type(cfg.seed) is int and cfg.seed == 7
    assert rng_for(cfg.seed, "E3", "refs").random(5).tolist() == rng_for(7, "E3", "refs").random(5).tolist()
    summary = experiments.RunSummary(cfg.experiment_id, experiments._config_echo(cfg), {}, {}, 0.0)
    experiments._write_summary(tmp_path / "summary.txt", summary)
    assert "\nseed = 7\n" in (tmp_path / "summary.txt").read_text()
    assert ExperimentConfig("E3_model_nonpredict", -3).seed == -3  # as parse_config and the CLI accept


def test_run_experiment_e1_smoke_files_and_determinism(tmp_path):
    cfg = ExperimentConfig("E1_parabolic", 0, {"rho_n": 50_000, "visits_n": 150_000})
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_experiment(cfg, a)
    run_experiment(cfg, b)
    for name in ("rho.csv", "visits.csv", "gaps.csv", "summary.txt"):
        assert (a / name).exists()
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("experiment,overrides,stages", [
    ("E1_parabolic", {"rho_n": 20_000, "visits_n": 50_000}, ["rho", "visits"]),
    ("E2_natural_measure", {"m_iterates": 20_000}, ["occupation"]),
])
def test_run_experiment_times_each_stage(experiment, overrides, stages, tmp_path):
    summary = run_experiment(ExperimentConfig(experiment, 0, overrides), tmp_path)
    assert list(summary.timings) == [f"{stage}_seconds" for stage in stages]
    assert all(0.0 <= t <= summary.wall_time for t in summary.timings.values())


@pytest.mark.parametrize("experiment,overrides", [
    ("E1_parabolic", {"rho_n": 20_000, "visits_n": 50_000}),
    ("E2_natural_measure", {"m_iterates": 20_000}),
    ("E3_model_nonpredict", {"n_samples": 2_000, "n_obs": 1, "n_refs": 5}),
    ("E4_counterexample", {"orbit_n": 5_000, "n_obs": 1, "n_refs": 5, "ladder_levels": 4,
                           "p_ref_fiber_gate": 0.5}),
    ("E5_ergodic_predict", {"rot_n": 3_000, "henon_n": 3_000, "n_refs": 5}),
    ("E6_idim", {"n_samples": 2_000, "n_centers": 50, "point_n": 100, "skew_orbit_n": 3_000,
                 "skew_stride": 1}),
])
def test_flags_are_bools_and_metrics_floats(experiment, overrides, tmp_path):
    """Every pass flag is a Python bool, not a numpy bool, and every metric a Python float."""
    summary = run_experiment(ExperimentConfig(experiment, 0, overrides), tmp_path)
    assert summary.pass_flags and summary.metrics
    assert [key for key, v in summary.pass_flags.items() if type(v) is not bool] == []
    assert [key for key, v in summary.metrics.items() if type(v) is not float] == []


def test_summary_lists_metrics_and_flags(e3_small):
    _, summary, out = e3_small
    text = (out / "summary.txt").read_text()
    for key in summary.metrics:
        assert f"metric {key} = " in text
    for key in summary.pass_flags:
        assert f"pass {key} = " in text
    assert "wall" not in text  # summaries carry no timing noise


def test_stage_failure_names_stage(tmp_path):
    cfg = ExperimentConfig("E4_counterexample", 0, {"orbit_n": 2_000})
    with pytest.raises(RuntimeError, match="counterexample"):
        run_experiment(cfg, tmp_path)  # late-time pools are empty on a tiny orbit


def test_e4_undefined_marked_point_named(tmp_path):
    cfg = ExperimentConfig("E4_counterexample", 0, {"orbit_n": 200_000, "min_count": 10_000_000})
    with pytest.raises(RuntimeError, match="'counterexample'.*no marked-point reference was defined"):
        run_experiment(cfg, tmp_path)


def test_e5_runs_at_shortest_orbits(tmp_path):
    cfg = ExperimentConfig("E5_ergodic_predict", 0, {"rot_n": 3, "henon_n": 4, "henon_burn": 0})
    summary = run_experiment(cfg, tmp_path)
    assert summary.metrics["rotation_k2_eligible_refs"] == 0.0  # one reference, too few neighbours
    assert len((tmp_path / "trend_refs.csv").read_text().splitlines()) == 1 + 3 * 8


def test_e4_measures_the_orbit_once(tmp_path, monkeypatch):
    """The ambient coordinates are built once per orbit, not once per observable.

    The run starts at fiber coordinate t = 0, a valid start like any finite t.
    """
    calls = []

    def counted(cfg, states, _orig=experiments.ambient_of_states):
        calls.append(len(states))
        return _orig(cfg, states)
    for module in (experiments, embedding):
        monkeypatch.setattr(module, "ambient_of_states", counted)
    cfg = ExperimentConfig("E4_counterexample", 0,
                           {"orbit_n": 200_000, "n_obs": 2, "n_refs": 10, "start_t": 0.0})
    summary = run_experiment(cfg, tmp_path)
    assert calls == [200_000]
    assert set(summary.pass_flags) == {"atom_predictable", "fiber_nonpredictable"}


def test_e6_finest_level_62_runs(tmp_path):
    # the model atom p has a coordinate 1: 1 / 2^-62 is still an int64 cube index
    cfg = ExperimentConfig("E6_idim", 0, {"n_samples": 2_000, "n_centers": 50, "point_n": 100,
                                          "skew_orbit_n": 3_000, "skew_stride": 1,
                                          "eps_lo_exp": 62})
    summary = run_experiment(cfg, tmp_path)
    assert summary.pass_flags["point_ball_zero"] and summary.pass_flags["point_box_zero"]
    assert f"{2.0**-62!r}" in (tmp_path / "idim.csv").read_text()


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "E1" in out and "E6" in out


def test_cli_run_with_config(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text(
        "experiment = E6\nseed = 2\nn_samples = 20000\nn_centers = 300\n"
        "point_n = 2000\nskew_orbit_n = 100000\nskew_stride = 10\n"
    )
    out_dir = tmp_path / "run"
    code = main(["run", "--config", str(cfg_file), "--out", str(out_dir)])
    assert code in (0, 1)
    assert (out_dir / "idim.csv").exists()
    stdout = capsys.readouterr().out
    assert "[PASS]" in stdout or "[FAIL]" in stdout
    assert "backend=c " in stdout or "backend=python " in stdout  # E6 runs a skew orbit


def test_cli_requires_experiment():
    assert main(["run"]) == 2


@pytest.mark.parametrize("args,message", [
    (["run", "--experiment", "E9"], "unknown experiment 'E9'"),
    (["run", "--config", "{cfg}"], "unknown key 'no_such_key' for E1_parabolic"),
    (["run", "--config", "{missing}"], "No such file"),
    (["run", "--config", "{repeated}"], "line 3: key 'seed' already set on line 2"),
])
def test_cli_rejected_input_exits_2(tmp_path, capsys, args, message):
    # exit 1 means a pass flag failed, so input rejected before the run must not exit 1
    cfg_file, repeated = tmp_path / "cfg.txt", tmp_path / "repeated.cfg"
    cfg_file.write_text("experiment = E1\nno_such_key = 3\n")
    repeated.write_text("experiment = E1\nseed = 1\nseed = 2\n")
    args = [a.format(cfg=cfg_file, missing=tmp_path / "missing.cfg", repeated=repeated) for a in args]
    assert main([*args, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "run").exists()


def test_cli_failed_run_exits_3(tmp_path, capsys):
    # a stage that raises is neither rejected input (2) nor a failed pass flag (1)
    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text("experiment = E4\norbit_n = 1000\n")
    assert main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: stage 'counterexample' of E4_counterexample failed: empty "
                          "reference pools")


def test_readme_api_matches_all():
    """The README's API section names exactly delaylab.__all__, and each name resolves."""
    from pathlib import Path

    import delaylab

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"`([A-Za-z_]\w*)`", section)
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(delaylab.__all__)
    assert len(delaylab.__all__) == len(set(delaylab.__all__))
    assert all(getattr(delaylab, name, None) is not None for name in delaylab.__all__)
