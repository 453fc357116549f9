"""Batch Brownian paths, bridge midpoints and Hoelder moduli.

``sample_paths_batch`` draws n paths on one time grid; ``bridge_midpoints``
is the Brownian-bridge midpoint law that refines a batch of grid intervals,
which is what accurate action integrals of singular potentials need; and
``holder_modulus`` measures the Hoelder regularity of sampled paths.
"""

import math

import numpy as np

from .errors import TimeDomainError


def _grid(horizon, grid_step):
    """(times, steps) on [0, horizon]: n steps of exactly horizon/n when
    grid_step divides horizon, else steps of grid_step closed by a shorter one."""
    n = int(round(horizon / grid_step))
    if abs(n * grid_step - horizon) < 1e-12 * max(1.0, horizon) and n >= 1:
        return np.linspace(0.0, horizon, n + 1), np.full(n, horizon / n)
    times = np.append(np.arange(0.0, horizon, grid_step), horizon)
    return times, np.diff(times)


def sample_paths_batch(space, x, horizon, grid_step, n, rng):
    """(times, positions of shape (n, n_times, dim)) of n paths on the grid.

    Euclidean steps are exact Gaussian transitions; sphere steps are
    ``StateSpace._sphere_step`` moves, exact for steps of at least 1e-3 r^2."""
    if horizon <= 0:
        raise TimeDomainError("horizon must be > 0")
    if not 0 < grid_step <= horizon:
        raise TimeDomainError("need 0 < grid_step <= horizon")
    x = space.check_point(x)
    times, steps = _grid(horizon, grid_step)
    if space.kind == "euclidean":
        d = space.dimension
        incr = rng.standard_normal((n, len(steps), d)) * np.sqrt(2.0 * steps)[None, :, None]
        pts = np.empty((n, len(times), d))
        pts[:, 0, :] = x
        np.cumsum(incr, axis=1, out=pts[:, 1:, :])
        pts[:, 1:, :] += x
        return times, pts
    pts = np.empty((n, len(times), 3))
    pts[:, 0, :] = x
    cur = np.tile(x, (n, 1))
    for i in range(1, len(times)):
        cur = space._sphere_step(steps[i - 1], cur, rng)
        pts[:, i, :] = cur
    return times, pts


def bridge_midpoints(xl, xr, delta, rng):
    """Brownian-bridge midpoints of Euclidean intervals of length delta.

    ``xl`` and ``xr`` hold the interval endpoints row by row; the midpoint law
    is the endpoint average plus per-coordinate variance 2*(delta/4) = delta/2.
    """
    return 0.5 * (xl + xr) + math.sqrt(delta / 2.0) * rng.standard_normal(xl.shape)


def holder_modulus(space, times, points, alpha):
    """max over grid pairs of d(w(s), w(s')) / |s - s'|^alpha.

    ``points`` is one path ``(n_times, dim)`` or a batch ``(n, n_times, dim)``
    on ``times``, as ``sample_paths_batch`` returns them; a batch gives one
    modulus per path."""
    times = np.asarray(times, dtype=float)
    pts = np.asarray(points, dtype=float)
    n = len(times)
    if n < 2:
        raise TimeDomainError("a path needs >= 2 grid times")
    batch = pts.reshape(-1, n, pts.shape[-1])
    if space.kind == "sphere2":
        diam = np.full(len(batch), math.pi * space.radius)
    else:
        diam = np.linalg.norm(batch.max(axis=1) - batch.min(axis=1), axis=-1)
    best = np.zeros(len(batch))
    live, w = np.arange(len(batch)), batch  # paths whose modulus can still grow
    for lag in range(1, n):
        gaps = times[lag:] - times[:-lag]
        # gaps grow with the lag: a path whose diameter bound is reached is done
        grow = diam[live] / gaps.min() ** alpha > best[live]
        if not grow.all():
            live, w = live[grow], w[grow]
            if live.size == 0:
                break
        q = space.distance_batch(w[:, lag:], w[:, :-lag]) / gaps**alpha
        best[live] = np.maximum(best[live], q.max(axis=-1))
    return float(best[0]) if pts.ndim == 2 else best.reshape(pts.shape[:-2])
