"""Run E1-E6 at default scale and print one ``sha256  path`` line per artifact.

    python tools/artifact_digest.py OUT [--seed 7] [--python-backend] [--experiments ID ...]

Each experiment writes into OUT/<experiment id>.  The lines name each file
relative to OUT, in sorted order, so two trees' artifacts compare byte for
byte with a ``diff`` of their outputs.  ``--experiments`` runs and digests
only the named experiments (the ids ``delaylab list`` prints, e.g.
``E6_idim``; default all six), so a change to one experiment is checked on
many seeds without the others' cost.  After the runs, one line on stderr
names what ran: ``backend=c`` or ``backend=python`` (the orbit, bin and
shell code), the numpy version, and the SIMD targets numpy dispatches on
this CPU (after any ``NPY_DISABLE_CPU_FEATURES``), so a claim that two
backends or two hosts agree shows which ones did.  The package is imported
from the checkout that holds this script.  ``--python-backend`` runs
without the compiled loops, as if gcc were missing, so one host checks
that both backends give the same bytes.
"""

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"


def main(argv=None):
    sys.path.insert(0, str(SRC))
    from delaylab import _kernels
    from delaylab.experiments import EXPERIMENT_IDS, ExperimentConfig, run_experiment

    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("out", type=Path, help="artifact directory")
    parser.add_argument("--seed", type=int, default=7, help="base seed (default 7)")
    parser.add_argument("--python-backend", action="store_true",
                        help="run the numpy fallbacks in place of the compiled loops")
    parser.add_argument("--experiments", nargs="+", choices=EXPERIMENT_IDS, default=EXPERIMENT_IDS,
                        metavar="ID", help="experiments to run (default all six)")
    args = parser.parse_args(argv)
    eids = [eid for eid in EXPERIMENT_IDS if eid in args.experiments]
    if args.python_backend:
        _kernels._lib, _kernels.BACKEND = None, "python"
    for eid in eids:
        run_experiment(ExperimentConfig(eid, args.seed), args.out / eid)
    umath = (getattr(np, "_core", None) or np.core)._multiarray_umath
    simd = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    print(f"backend={_kernels.BACKEND} numpy={np.__version__} simd={','.join(simd) or 'none'}",
          file=sys.stderr)
    for eid in eids:
        for path in sorted((args.out / eid).iterdir()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(args.out)}")


if __name__ == "__main__":
    main()
