"""Ambient coordinates of the product of a 2-sphere and a circle.

States carry the sphere as the plane in polar coordinates (r, phi) and the
circle as t in turns; the ambient model is R^5: the sphere goes through the
inverse stereographic projection, the circle through (cos 2*pi*t, sin 2*pi*t).

Layout: every (n, d) array returned here is the .T view of a coordinate-major
(d, n) block, so each coordinate is a contiguous column.  Each coordinate is
written into its row of the block in place.
"""

import numpy as np


def _sphere_rows(rows, r, phi):
    """Write (2x, 2y, |z|^2 - 1) / (|z|^2 + 1) of z = r*e^{i phi} into three rows."""
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    x1, x2, x3 = rows
    den = r * r
    np.subtract(den, 1.0, out=x3)
    den += 1.0
    x3 /= den
    two_r = 2.0 * r
    for row, trig in ((x1, np.cos), (x2, np.sin)):
        trig(phi, out=row)
        row *= two_r
        row /= den


def _fiber_rows(rows, t):
    """Write (cos 2*pi*t, sin 2*pi*t) into two rows."""
    cos_row, sin_row = rows
    np.multiply(2.0 * np.pi, np.asarray(t, dtype=float), out=cos_row)  # the angle first
    np.sin(cos_row, out=sin_row)
    np.cos(cos_row, out=cos_row)


def sphere_ambient_array(r, phi):
    """(n, 3) ambient coordinates of arrays of finite polar states."""
    block = np.empty((3, len(r)))
    _sphere_rows(block, r, phi)
    return block.T


def circle_ambient_array(t):
    """(n, 2) ambient coordinates (cos 2*pi*t, sin 2*pi*t) for circle-only systems."""
    block = np.empty((2, len(t)))
    _fiber_rows(block, t)
    return block.T


def product_ambient_array(r, phi, t):
    """(n, 5) ambient coordinates of arrays of finite polar-fiber states."""
    block = np.empty((5, len(t)))
    _sphere_rows(block[:3], r, phi)
    _fiber_rows(block[3:], t)
    return block.T
