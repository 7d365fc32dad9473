"""The benchmark's workloads: one experiment each, with the overrides that size it.

This module imports nothing from delaylab, so run.py can read it without
paying for the program's import; only the worker processes load the program.
"""

WORKLOADS = {
    # E4 at k = 1: long interpreted skew orbit, two 1-D engine builds over
    # the whole orbit, 800 interval-search profiles.
    "skew_k1": {
        "experiment": "E4_counterexample",
        "overrides": {"orbit_n": 1_000_000, "n_obs": 2},
        "warmup": {"orbit_n": 5_000, "n_obs": 1, "n_refs": 5, "ladder_levels": 4,
                   "p_ref_fiber_gate": 0.5},
    },
    # E3 at k = 1: no orbit kernel; 8 series of 400,000 samples and 600
    # profiles per engine build, against the exact two-atom oracle.
    "model_k1": {
        "experiment": "E3_model_nonpredict",
        "overrides": {"n_refs": 600, "n_obs": 8},
        "warmup": {"n_samples": 2_000, "n_obs": 1, "n_refs": 5},
    },
    # E5 at k = 2, 3: delay series plus 300 full-distance BruteEngine profiles.
    "ergodic_k23": {
        "experiment": "E5_ergodic_predict",
        "overrides": {"rot_n": 100_000, "henon_n": 100_000},
        "warmup": {"rot_n": 3_000, "henon_n": 3_000, "n_refs": 5},
    },
    # E6: the only workload that runs the dimension layer.  The ball-mass
    # query on the half-atom model measure costs about twice as much on half
    # of the seeds, so fewer samples keep that swing a small share of an
    # operation; the skew orbit still yields 100,000 points.
    "idim": {
        "experiment": "E6_idim",
        "overrides": {"n_samples": 25_000, "n_centers": 1_000, "skew_orbit_n": 1_000_000,
                      "skew_stride": 10},
        "warmup": {"n_samples": 2_000, "n_centers": 50, "point_n": 100,
                   "skew_orbit_n": 3_000, "skew_stride": 1},
    },
}
