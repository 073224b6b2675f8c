"""The mass rule of the ball-mass ladders, written out over the whole grid
without any function of ``potlab.grid``.

Sort the ladder's closed-ball bounds r^2 (1 + 1e-12), each a scalar square,
stably.  Each node joins the shell of the first disk, in that order, whose
bound its squared distance does not exceed; a node outside every disk
joins none.  Each shell adds its nodes one by one in row-major order,
starting from 0.0, and the shells are added outward: disk k's mass is the
running total out to its shell, times h and then h again.
"""

import numpy as np


def shell_binned_disk_integrals(f, center, radii) -> list[float]:
    """The mass of f over the exact-center closed disk of each radius of
    ``radii`` (in the caller's order) by the shell rule above."""
    g = f.grid
    bounds = [r**2 * (1.0 + 1e-12) for r in radii]
    ranked = sorted(range(len(bounds)), key=bounds.__getitem__)
    d2 = (g.X - center[0]) ** 2 + (g.Y - center[1]) ** 2
    inside = d2[..., None] <= np.array([bounds[k] for k in ranked])
    first = np.where(inside.any(axis=-1), inside.argmax(axis=-1), -1)
    masses = [0.0] * len(bounds)
    total = 0.0
    for rank, k in enumerate(ranked):
        shell = 0.0
        for v in f.values[first == rank].tolist():  # row-major order
            shell += v
        total += shell
        masses[k] = total * g.h * g.h
    return masses
