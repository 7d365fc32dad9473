"""Print three size figures of the delaylab package, one per line.

    python tools/api_size.py

1. Python lines in src/delaylab;
2. lines of src/delaylab/_orbits.c;
3. settable values: the parameters of every public function and method of
   the package modules (``_kernels`` and classmethods included, ``self`` and
   ``cls`` not), the fields of every dataclass, the constructor parameters of
   the other non-exception classes, and the ids in ``SYSTEM_IDS``.

The package is imported from the checkout that holds this script.
"""

import dataclasses
import importlib
import inspect
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "delaylab"


def _params(func):
    return [p for p in inspect.signature(func).parameters if p not in ("self", "cls")]


def settable_values():
    sys.path.insert(0, str(SRC))
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        name = "delaylab" if path.stem == "__init__" else f"delaylab.{path.stem}"
        mod = importlib.import_module(name)
        for attr, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != name:
                continue  # imported from elsewhere
            if inspect.isfunction(obj) and not attr.startswith("_"):
                total += len(_params(obj))
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                if dataclasses.is_dataclass(obj):
                    total += len(dataclasses.fields(obj))
                elif "__init__" in vars(obj):
                    total += len(_params(obj.__init__))
                for meth_name, meth in vars(obj).items():
                    if isinstance(meth, classmethod):
                        meth = meth.__func__
                    if inspect.isfunction(meth) and not meth_name.startswith("_"):
                        total += len(_params(meth))
    return total + len(importlib.import_module("delaylab.dynamics").SYSTEM_IDS)


def main():
    print(sum(len(p.read_text().splitlines()) for p in PACKAGE.glob("*.py")))
    print(len((PACKAGE / "_orbits.c").read_text().splitlines()))
    print(settable_values())


if __name__ == "__main__":
    main()
