"""CSV emission with one declared float policy: shortest round-trip text."""

from pathlib import Path

import numpy as np


def format_cell(v):
    """A float, Python or numpy, as its shortest round-trip repr, a numpy integer as an int."""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(int(v) if isinstance(v, np.integer) else v)


def emit_csv(path, header, rows):
    """Write header plus rectangular rows, newline-terminated."""
    width = len(header)
    lines = [",".join(header)]
    for row in rows:
        if len(row) != width:
            raise ValueError("rows must be rectangular")
        lines.append(",".join(format_cell(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")
