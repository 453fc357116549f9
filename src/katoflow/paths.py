"""Brownian path skeletons on a refinable time grid.

A skeleton stores (time, point) pairs; Euclidean skeletons can be refined by
Brownian-bridge midpoint insertion without disturbing existing entries, which
is what accurate action integrals of singular potentials need.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TimeDomainError, UnsupportedRefinementError


@dataclass
class PathSkeleton:
    space: object
    times: np.ndarray  # strictly increasing, times[0] == 0
    points: np.ndarray  # shape (len(times), embedding_dim)
    seed_lineage: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.times)

    @property
    def start(self):
        return self.points[0]

    @property
    def end(self):
        return self.points[-1]

    def interval(self, i):
        """(t_left, t_right, x_left, x_right) of grid interval i."""
        return self.times[i], self.times[i + 1], self.points[i], self.points[i + 1]


def _grid(horizon, grid_step):
    """(times, steps) on [0, horizon]: n steps of exactly horizon/n when
    grid_step divides horizon, else steps of grid_step closed by a shorter one."""
    n = int(round(horizon / grid_step))
    if abs(n * grid_step - horizon) < 1e-12 * max(1.0, horizon) and n >= 1:
        return np.linspace(0.0, horizon, n + 1), np.full(n, horizon / n)
    times = np.append(np.arange(0.0, horizon, grid_step), horizon)
    return times, np.diff(times)


def sample_path(space, x, horizon, grid_step, rng, seed=None):
    """Skeleton on the uniform grid {0, h, 2h, ..., horizon}."""
    times, pts = sample_paths_batch(space, x, horizon, grid_step, 1, rng)
    return PathSkeleton(space, times, pts[0], {"seed": seed, "refinements": []})


def sample_paths_batch(space, x, horizon, grid_step, n, rng):
    """(times, positions of shape (n, n_times, dim)) of n paths on the grid.

    Euclidean steps are exact Gaussian transitions; sphere steps use the
    geodesic walk of ``StateSpace``."""
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
        cur = space._sphere_walk(steps[i - 1], cur, rng)
        pts[:, i, :] = cur
    return times, pts


def refine_bridge(path, interval_index, rng):
    """Insert the Brownian-bridge midpoint of a grid interval (Euclidean only).

    Midpoint law: mean = average of the endpoints, per-coordinate variance
    2*(delta/4) = delta/2 for an interval of length delta.
    """
    if path.space.kind != "euclidean":
        raise UnsupportedRefinementError(
            "bridge refinement supports Euclidean skeletons only; "
            "sphere paths use fixed fine grids"
        )
    if not 0 <= interval_index < len(path) - 1:
        raise TimeDomainError(f"no interval {interval_index}")
    tl, tr, xl, xr = path.interval(interval_index)
    delta = tr - tl
    mid_t = 0.5 * (tl + tr)
    mid = 0.5 * (xl + xr) + math.sqrt(delta / 2.0) * rng.standard_normal(xl.shape)
    path.times = np.insert(path.times, interval_index + 1, mid_t)
    path.points = np.insert(path.points, interval_index + 1, mid, axis=0)
    path.seed_lineage.setdefault("refinements", []).append(int(interval_index))
    return path


def holder_modulus(path, alpha, block=2048):
    """max over skeleton pairs of d(w(s), w(s')) / |s - s'|^alpha."""
    n = len(path)
    if n < 2:
        raise TimeDomainError("skeleton needs >= 2 entries")
    times = path.times
    pts = path.points
    dts = np.diff(times)
    best = 0.0
    if np.ptp(dts) < 1e-9 * dts.max():
        # uniform grid: |s - s'| depends only on the index lag
        h = (times[-1] - times[0]) / (n - 1)
        one_d = path.space.kind == "euclidean" and pts.shape[1] == 1
        if one_d:
            w = pts[:, 0]
            diam = float(w.max() - w.min())
        else:
            diam = float(
                np.linalg.norm(pts.max(axis=0) - pts.min(axis=0))
            )
            if path.space.kind == "sphere2":
                diam = math.pi * path.space.radius
        for lag in range(1, n):
            denom = (lag * h) ** alpha
            if diam / denom <= best:
                break  # no longer-lag pair can improve the maximum
            if one_d:
                dmax = float(np.abs(w[lag:] - w[:-lag]).max())
            else:
                dmax = float(path.space.distance_batch(pts[lag:], pts[:-lag]).max())
            best = max(best, dmax / denom)
        return best
    for lo in range(0, n - 1, block):
        hi = min(lo + block, n - 1)
        rows = pts[lo:hi]  # (b, dim)
        row_t = times[lo:hi]
        # pairs (i, j) with i in [lo, hi), j > i
        dists = path.space.distance_batch(rows[:, None, :], pts[None, lo + 1:, :])
        dt = times[None, lo + 1:] - row_t[:, None]
        mask = dt > 0
        if np.any(mask):
            q = np.where(mask, dists / np.where(mask, dt, 1.0) ** alpha, 0.0)
            best = max(best, float(q.max()))
    return best


def dump_paths_csv(paths, fileobj):
    """CSV rows (path_id, time, coord_0, ..., coord_{d-1})."""
    writer = csv.writer(fileobj)
    dim = paths[0].points.shape[1]
    writer.writerow(["path_id", "time"] + [f"coord_{i}" for i in range(dim)])
    for pid, p in enumerate(paths):
        for t, pt in zip(p.times, p.points):
            writer.writerow([pid, repr(float(t))] + [repr(float(c)) for c in pt])
