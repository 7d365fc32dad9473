"""Ambient coordinates of the product of a 2-sphere and a circle.

States carry the sphere as the plane in polar coordinates (r, phi) and the
circle as t in turns; the ambient model is R^5: the sphere goes through the
inverse stereographic projection, the circle through (cos 2*pi*t, sin 2*pi*t).
"""

import numpy as np


def sphere_coords(r, phi):
    """Inverse stereographic image (2x, 2y, |z|^2 - 1) / (|z|^2 + 1) of z = r*e^{i phi}."""
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    den = 1.0 + r * r
    return (
        2.0 * r * np.cos(phi) / den,
        2.0 * r * np.sin(phi) / den,
        (r * r - 1.0) / den,
    )


def fiber_coords(t):
    t = np.asarray(t, dtype=float)
    return np.cos(2.0 * np.pi * t), np.sin(2.0 * np.pi * t)


def product_ambient_array(r, phi, t):
    """Vectorized ambient coordinates for arrays of finite polar-fiber states.

    Returns an (n, 5) array; used by observable evaluation over long orbits.
    """
    x1, x2, x3 = sphere_coords(r, phi)
    x4, x5 = fiber_coords(t)
    return np.column_stack([x1, x2, x3, x4, x5])


def circle_ambient_array(t):
    """Ambient R^2 coordinates (cos 2*pi*t, sin 2*pi*t) for circle-only systems."""
    x1, x2 = fiber_coords(t)
    return np.column_stack([x1, x2])
