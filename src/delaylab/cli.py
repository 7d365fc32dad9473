"""Command-line driver: run one named experiment or list what exists."""

import argparse
import sys
from pathlib import Path

from . import _kernels
from .experiments import (
    DESCRIPTIONS,
    EXPERIMENT_IDS,
    ExperimentConfig,
    _SHORT_IDS,
    parse_config,
    run_experiment,
)


def build_parser():
    parser = argparse.ArgumentParser(prog="delaylab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("--experiment", help="experiment id (E1..E6 or full name)")
    run.add_argument("--seed", type=int, default=None, help="base seed (default 0)")
    run.add_argument("--config", type=Path, default=None, help="key = value configuration file")
    run.add_argument("--out", type=Path, default=None, help="artifact directory")

    sub.add_parser("list", help="list experiments")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for eid in EXPERIMENT_IDS:
            print(f"{eid.split('_')[0]:4s} {eid:24s} {DESCRIPTIONS[eid]}")
        return 0

    if args.config is None and args.experiment is None:
        print("error: --experiment or --config required", file=sys.stderr)
        return 2
    experiment, seed, overrides = args.experiment, 0, {}
    try:  # input rejected before the run exits 2; a failed pass flag exits 1
        if args.config is not None:
            base = parse_config(args.config.read_text())
            experiment = base.experiment_id if experiment is None else experiment
            seed, overrides = base.seed, base.overrides
        cfg = ExperimentConfig(_SHORT_IDS.get(experiment, experiment),
                               seed if args.seed is None else args.seed, overrides)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = args.out if args.out is not None else Path("out") / f"{cfg.experiment_id}_seed{cfg.seed}"
    summary = run_experiment(cfg, out)
    backend = _kernels.BACKEND or "none"  # None: the experiment reached no compiled loop
    print(f"{cfg.experiment_id} seed={cfg.seed} wall={summary.wall_time:.1f}s "
          f"backend={backend} -> {out}")
    for key in sorted(summary.metrics):
        print(f"  metric {key} = {summary.metrics[key]}")
    for key in sorted(summary.pass_flags):
        state = "PASS" if summary.pass_flags[key] else "FAIL"
        print(f"  [{state}] {key}")
    return 0 if summary.all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
