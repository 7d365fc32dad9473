"""Run E1-E6 at default scale and print one ``sha256  path`` line per artifact.

    python tools/artifact_digest.py OUT [--seed 7]

Each experiment writes into OUT/<experiment id>.  The lines name each file
relative to OUT, in sorted order, so two trees' artifacts compare byte for
byte with a ``diff`` of their outputs.  After the runs, ``backend=c`` or
``backend=python`` on stderr names the orbit, bin and shell code that ran,
so a claim that two backends agree shows which ones did.  The package is
imported from the checkout that holds this script.
"""

import argparse
import hashlib
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("out", type=Path, help="artifact directory")
    parser.add_argument("--seed", type=int, default=7, help="base seed (default 7)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from delaylab import _kernels
    from delaylab.experiments import EXPERIMENT_IDS, ExperimentConfig, run_experiment

    for eid in EXPERIMENT_IDS:
        run_experiment(ExperimentConfig(eid, args.seed), args.out / eid)
    print(f"backend={_kernels.BACKEND}", file=sys.stderr)
    for eid in EXPERIMENT_IDS:
        for path in sorted((args.out / eid).iterdir()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(args.out)}")


if __name__ == "__main__":
    main()
