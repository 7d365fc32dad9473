"""Outside-in instrumentation of delaylab: wrappers installed by name.

Nothing here edits the program.  A wrapper replaces a function at every name
that refers to it, because ``experiments`` binds most layer functions with
``from ... import``; methods are replaced on their class.  A name that no
longer exists is reported as absent and skipped.

Two instruments use this:

* ``Recorder`` is installed in every measured run.  It keeps the input
  arrays of the most recently built ball-statistics engine and a seeded
  reservoir of that engine's profile calls, so the checks can recompute them
  by enumeration after the timer stops.  Keeping only the latest engine holds
  no array past the point where the program would have built the next one.
* ``Tracer`` is installed only in traced runs.  It records one span per call
  (name, start, end, parent) plus counters, and derives self times.
"""

import importlib
import inspect
import random
import sys
import time
from pathlib import Path

import numpy as np


def _delaylab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "delaylab" or name.startswith("delaylab."))]


def rebind(owner, attr, make_wrapper):
    """Replace ``owner.attr`` and every module-level alias of it; False if absent."""
    orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if orig is None:
        return False
    wrapped = make_wrapper(orig)
    setattr(owner, attr, wrapped)
    if not isinstance(owner, type):
        for mod in _delaylab_modules():
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)
    return True


class Recorder:
    """Seeded sample of profile calls on the latest engine, with its inputs."""

    def __init__(self, seed, per_engine=4):
        self.seed = seed
        self.per_engine = per_engine
        self.reset()

    def reset(self):
        """Forget every sample and reseed, so each operation checks the same calls."""
        self.rng = random.Random(self.seed)
        self.engine = None
        self.pred = self.succ = None
        self.calls = 0
        self.samples = []

    def install(self):
        for cls in filter(None, (_resolve("predictability.Sorted1DEngine"),
                                 _resolve("predictability.BruteEngine"))):
            rebind(cls, "__init__", self._wrap_init)
            rebind(cls, "profile", self._wrap_profile)

    def _wrap_init(self, orig):
        rec = self

        def __init__(engine, series, *args, **kwargs):
            rec.engine = rec.pred = rec.succ = None  # drop the previous engine first
            rec.samples = []
            rec.calls = 0
            orig(engine, series, *args, **kwargs)
            rec.engine = engine
            rec.pred = np.asarray(series.predecessors, dtype=float).reshape(len(series.predecessors), -1)
            rec.succ = np.asarray(series.successors, dtype=float).reshape(len(series.successors), -1)

        return __init__

    def _wrap_profile(self, orig):
        rec = self
        signature = inspect.signature(orig)

        def profile(engine, *args, **kwargs):
            est = orig(engine, *args, **kwargs)
            if engine is not rec.engine:
                return est
            slot = len(rec.samples) if len(rec.samples) < rec.per_engine else rec.rng.randrange(rec.calls + 1)
            if slot < rec.per_engine:
                bound = signature.bind(engine, *args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                call = {"index": rec.calls, "y": np.array(a["y"], dtype=float).reshape(-1),
                        "ladder": [float(e) for e in a["ladder"]], "min_count": int(a["min_count"]),
                        "threshold": float(a["threshold"]), "est": est}
                if slot == len(rec.samples):
                    rec.samples.append(call)
                else:
                    rec.samples[slot] = call
            rec.calls += 1
            return est

        return profile


def _count_orbit(n_pos, burn_pos):
    def count(args, kwargs, out):
        burn = int(args[burn_pos]) if burn_pos is not None else 0
        return {"iterates": int(args[n_pos]) + burn}
    return count


def _count_rows(args, kwargs, out):
    return {"rows": int(np.size(out))}


def _count_ambient(args, kwargs, out):
    return {"rows": int(np.shape(out)[0])}


def _count_build(args, kwargs, out):
    return {"points": len(args[1].predecessors)}


def _count_profile(args, kwargs, out):
    engine = args[0]
    top = out.ladder[0].count if out.ladder else 0
    n = len(getattr(engine, "pred", getattr(engine, "ys", ())))
    return {"refs": 1, "defined": int(out.defined), "top_ball": top / n if n else 0.0}


def _count_ball(args, kwargs, out):
    return {"centers": int(args[2] if len(args) > 2 else kwargs["n_centers"])}


def _count_csv(args, kwargs, out):
    return {"bytes": Path(args[0]).stat().st_size}


# (owner path under delaylab, attribute, counter function or None)
TRACED = [
    ("_kernels", "radial_orbit", _count_orbit(2, None)),
    ("_kernels", "spiral_orbit", _count_orbit(3, 4)),
    ("_kernels", "skew_orbit", _count_orbit(6, 7)),
    ("_kernels", "henon_orbit", _count_orbit(4, 5)),
    ("_kernels", "ikeda_orbit", _count_orbit(6, 7)),
    ("dynamics", "trajectory", None),
    ("manifold", "product_ambient_array", _count_ambient),
    ("observables", "evaluate", _count_rows),
    ("embedding", "delay_series", None),
    ("predictability.Sorted1DEngine", "__init__", _count_build),
    ("predictability.BruteEngine", "__init__", _count_build),
    ("predictability.Sorted1DEngine", "profile", _count_profile),
    ("predictability.BruteEngine", "profile", _count_profile),
    ("dimension", "ball_mass_dimension", _count_ball),
    ("dimension", "box_counting_idim", None),
    ("csvio", "emit_csv", _count_csv),
    ("experiments", "run_experiment", None),
]


def _resolve(path):
    """The delaylab module or class at ``path``, or None if it no longer exists."""
    mod_name, _, cls_name = path.partition(".")
    try:
        owner = importlib.import_module(f"delaylab.{mod_name}")
    except ImportError:
        return None
    return getattr(owner, cls_name, None) if cls_name else owner


class Tracer:
    """Spans with parents and counters, aggregated into per-name self times."""

    def __init__(self):
        self.spans = []    # [name, start, end, parent]
        self.stack = []
        self.counters = {}
        self.absent = []

    def reset(self):
        """Forget every span and counter, to start the next operation."""
        self.spans = []
        self.stack = []
        self.counters = {}

    def install(self):
        for path, attr, count in TRACED:
            name = f"{path.rpartition('.')[2]}.{attr}"
            owner = _resolve(path)
            if owner is None or not rebind(owner, attr, lambda f, n=name, c=count: self._wrap(f, n, c)):
                self.absent.append(name)

    def _wrap(self, orig, name, count):
        tracer = self

        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, tracer.stack[-1] if tracer.stack else -1]
            tracer.spans.append(span)
            tracer.stack.append(len(tracer.spans) - 1)
            try:
                out = orig(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if count is not None:
                bucket = tracer.counters.setdefault(name, {})
                for key, val in count(args, kwargs, out).items():
                    bucket[key] = bucket.get(key, 0) + val
            return out

        return traced

    def aggregate(self):
        """{name: {"calls", "total_s", "self_s"}} with self = total minus child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        agg = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            a = agg.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            a["calls"] += 1
            a["total_s"] += end - start
            a["self_s"] += end - start - child[i]
        return agg

    def layer_metrics(self, import_s):
        """The per-layer metrics of one traced run; 0 where the layer did no work."""
        agg = self.aggregate()
        cnt = self.counters

        def self_s(name):
            return agg.get(name, {}).get("self_s", 0.0)

        def calls(name):
            return agg.get(name, {}).get("calls", 0)

        def c(name, key):
            return cnt.get(name, {}).get(key, 0)

        def per(num, den, scale):
            return num / den * scale if den else 0.0

        orbit_iters = sum(c(f"_kernels.{k}_orbit", "iterates")
                          for k in ("radial", "spiral", "skew", "henon", "ikeda"))
        refs = c("Sorted1DEngine.profile", "refs") + c("BruteEngine.profile", "refs")
        builds = calls("Sorted1DEngine.__init__") + calls("BruteEngine.__init__")
        return {
            "orbit.skew_ns_per_iter": (per(self_s("_kernels.skew_orbit"),
                                           c("_kernels.skew_orbit", "iterates"), 1e9), "ns/iter"),
            "orbit.henon_ns_per_iter": (per(self_s("_kernels.henon_orbit"),
                                            c("_kernels.henon_orbit", "iterates"), 1e9), "ns/iter"),
            "orbit.iterates": (orbit_iters, "count"),
            "measure.ambient_ns_per_sample": (per(self_s("manifold.product_ambient_array"),
                                                  c("manifold.product_ambient_array", "rows"), 1e9),
                                              "ns/sample"),
            "measure.evaluate_ns_per_sample": (per(self_s("observables.evaluate"),
                                                   c("observables.evaluate", "rows"), 1e9), "ns/sample"),
            "measure.samples": (c("observables.evaluate", "rows"), "count"),
            "embed.delay_series_s": (self_s("embedding.delay_series"), "s"),
            "engine.sorted1d_build_ns_per_point": (per(self_s("Sorted1DEngine.__init__"),
                                                       c("Sorted1DEngine.__init__", "points"), 1e9),
                                                   "ns/point"),
            "engine.sorted1d_builds": (calls("Sorted1DEngine.__init__"), "count"),
            "engine.refs_per_build": (per(refs, builds, 1.0), "refs/build"),
            "profile.sorted1d_us_per_ref": (per(self_s("Sorted1DEngine.profile"),
                                                calls("Sorted1DEngine.profile"), 1e6), "us/ref"),
            "profile.brute_us_per_ref": (per(self_s("BruteEngine.profile"),
                                             calls("BruteEngine.profile"), 1e6), "us/ref"),
            "profile.refs": (refs, "count"),
            "profile.defined_fraction": (per(c("Sorted1DEngine.profile", "defined")
                                             + c("BruteEngine.profile", "defined"), refs, 1.0),
                                         "fraction"),
            "profile.brute_top_ball_fraction": (per(c("BruteEngine.profile", "top_ball"),
                                                    calls("BruteEngine.profile"), 1.0), "fraction"),
            "idim.ball_mass_s": (self_s("dimension.ball_mass_dimension"), "s"),
            "idim.box_counting_s": (self_s("dimension.box_counting_idim"), "s"),
            "idim.centers": (c("dimension.ball_mass_dimension", "centers"), "count"),
            "experiments.self_s": (self_s("experiments.run_experiment"), "s"),
            "io.emit_csv_s": (self_s("csvio.emit_csv"), "s"),
            "io.csv_bytes": (c("csvio.emit_csv", "bytes"), "bytes"),
            "setup.import_s": (import_s, "s"),
        }
