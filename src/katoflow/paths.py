"""Batch Brownian paths and bridge midpoints.

``sample_paths_batch`` draws n paths on one time grid, and
``bridge_midpoints`` is the Brownian-bridge midpoint law that refines a batch
of grid intervals, which is what accurate action integrals of singular
potentials need.
"""

import math

import numpy as np

from .errors import TimeDomainError


def whole_steps(horizon, grid_step):
    """n when horizon is n >= 1 steps of grid_step, to 1e-12; else None."""
    ratio = horizon / grid_step
    n = int(round(ratio)) if math.isfinite(ratio) else 0
    if n >= 1 and abs(n * grid_step - horizon) < 1e-12 * max(1.0, horizon):
        return n
    return None


def _grid(horizon, grid_step):
    """(times, steps) on [0, horizon]: n steps of exactly horizon/n when
    grid_step divides horizon, else steps of grid_step closed by a shorter one."""
    if grid_step <= 0:
        raise TimeDomainError("grid_step must be > 0")
    n = whole_steps(horizon, grid_step)
    if n is not None:
        return np.linspace(0.0, horizon, n + 1), np.full(n, horizon / n)
    times = np.append(np.arange(0.0, horizon, grid_step), horizon)
    return times, np.diff(times)


def sample_paths_batch(space, x, horizon, grid_step, n, rng):
    """(times, positions of shape (n, n_times, dim)) of n paths on the grid.

    Each step is one ``move`` of the space: an exact Gaussian transition on
    R^d, and on the sphere exact for steps of at least 1e-3 r^2."""
    if horizon <= 0:
        raise TimeDomainError("horizon must be > 0")
    if grid_step > horizon:
        raise TimeDomainError("need grid_step <= horizon")
    x = space.check_point(x)
    times, steps = _grid(horizon, grid_step)
    return times, space.walk(x, steps, n, rng)


def bridge_midpoints(xl, xr, delta, rng):
    """Brownian-bridge midpoints of Euclidean intervals of length delta.

    ``xl`` and ``xr`` hold the interval endpoints row by row; the midpoint law
    is the endpoint average plus per-coordinate variance 2*(delta/4) = delta/2.
    """
    mid = xl + xr
    mid *= 0.5
    noise = rng.standard_normal(xl.shape)
    noise *= math.sqrt(delta / 2.0)
    mid += noise
    return mid

