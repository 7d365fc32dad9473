"""Compare two artifact trees written by tools/artifact_digest.py.

    python tools/artifact_diff.py A B

For every CSV present in both trees it prints, per numeric column, the
largest absolute and relative difference between A and B (relative to the
larger magnitude of the pair; NaN equals NaN, NaN against a number is inf).
For every summary.txt it prints the same for each metric line.  Other
files are compared byte for byte.

Exits 1 when any ``count`` column, any ``pass`` line of a summary.txt, a
non-numeric cell, a CSV header or row count, or the set of files differs;
exits 0 otherwise.
"""

import argparse
import csv
import math
import sys
from pathlib import Path


def _diff(a, b):
    """(absolute, relative) difference of two floats."""
    if math.isnan(a) or math.isnan(b):
        return (0.0, 0.0) if math.isnan(a) and math.isnan(b) else (math.inf, math.inf)
    d = abs(a - b)
    return d, d / max(abs(a), abs(b)) if d else 0.0


def _float(text):
    try:
        return float(text)
    except ValueError:
        return None


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def compare_csv(name, a, b):
    """Printed lines and failure messages for one CSV."""
    ra, rb = _read_csv(a), _read_csv(b)
    if not ra or not rb or ra[0] != rb[0]:
        return [], [f"{name}: headers differ"]
    if len(ra) != len(rb):
        return [], [f"{name}: {len(ra) - 1} rows against {len(rb) - 1}"]
    lines, failures = [], []
    for j, column in enumerate(ra[0]):
        pairs = [(x[j], y[j]) for x, y in zip(ra[1:], rb[1:])]
        numbers = [(_float(x), _float(y)) for x, y in pairs]
        if any(x is None or y is None for x, y in numbers):
            differing = sum(x != y for x, y in pairs)
            if differing:
                failures.append(f"{name}: column {column}: {differing} non-numeric cells differ")
            continue
        diffs = [_diff(x, y) for x, y in numbers]
        max_abs = max((d[0] for d in diffs), default=0.0)
        max_rel = max((d[1] for d in diffs), default=0.0)
        lines.append(f"{name}  {column}  max_abs={max_abs:.3g}  max_rel={max_rel:.3g}")
        if column == "count" and max_abs:
            failures.append(f"{name}: column count differs in {sum(d[0] > 0 for d in diffs)} rows")
    return lines, failures


def _summary(path):
    entries = {}
    for line in path.read_text().splitlines():
        key, sep, val = line.partition(" = ")
        if sep:
            entries[key] = val
    return entries


def compare_summary(name, a, b):
    """Printed lines and failure messages for one summary.txt."""
    ea, eb = _summary(a), _summary(b)
    lines, failures = [], []
    for key in sorted(ea.keys() | eb.keys()):
        va, vb = ea.get(key), eb.get(key)
        if key.startswith("metric ") and va is not None and vb is not None:
            d_abs, d_rel = _diff(float(va), float(vb))
            lines.append(f"{name}  {key}  abs={d_abs:.3g}  rel={d_rel:.3g}")
        elif va != vb:
            lines.append(f"{name}  {key}: {va} -> {vb}")
            if key.startswith("pass "):
                failures.append(f"{name}: {key} {va} -> {vb}")
    return lines, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("a", type=Path, help="artifact tree A")
    parser.add_argument("b", type=Path, help="artifact tree B")
    args = parser.parse_args(argv)
    files_a = {p.relative_to(args.a) for p in args.a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(args.b) for p in args.b.rglob("*") if p.is_file()}
    failures = [f"{p}: only in {args.a}" for p in sorted(files_a - files_b)]
    failures += [f"{p}: only in {args.b}" for p in sorted(files_b - files_a)]
    for rel in sorted(files_a & files_b):
        a, b = args.a / rel, args.b / rel
        if a.read_bytes() == b.read_bytes():
            print(f"{rel}  identical")
            continue
        if rel.suffix == ".csv":
            lines, found = compare_csv(rel, a, b)
        elif rel.name == "summary.txt":
            lines, found = compare_summary(rel, a, b)
        else:
            lines, found = [], [f"{rel}: bytes differ"]
        print("\n".join(lines) if lines else f"{rel}  differs")
        failures += found
    for message in failures:
        print(f"DIFFERS: {message}")
    print("counts and pass flags equal" if not failures else f"{len(failures)} differences")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
