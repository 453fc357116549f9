import io
import math

import numpy as np
import pytest
from scipy import stats

from katoflow import paths, spaces
from katoflow.errors import TimeDomainError, UnsupportedRefinementError

E1 = spaces.euclidean(1)
E3 = spaces.euclidean(3)
S2 = spaces.sphere2(1.0)


def test_single_step_skeleton():
    p = paths.sample_path(E1, np.zeros(1), 1.0, 1.0, np.random.default_rng(0))
    assert len(p) == 2
    assert p.times[0] == 0.0 and p.times[-1] == 1.0


@pytest.mark.parametrize("grid_step", [0.0, -0.1, 1.5])
def test_grid_step_must_lie_in_horizon(grid_step):
    rng = np.random.default_rng(0)
    with pytest.raises(TimeDomainError):
        paths.sample_paths_batch(E1, np.zeros(1), 1.0, grid_step, 4, rng)
    with pytest.raises(TimeDomainError):
        paths.sample_path(E1, np.zeros(1), 1.0, grid_step, rng)


def test_horizon_not_multiple_of_step_ends_at_horizon():
    p = paths.sample_path(E1, np.zeros(1), 1.0, 0.3, np.random.default_rng(0))
    assert p.times[-1] == 1.0
    assert np.all(np.diff(p.times) > 0)


def test_increments_uncorrelated():
    rng = np.random.default_rng(42)
    n = 100_000
    _, pts = paths.sample_paths_batch(E1, np.zeros(1), 1.0, 0.25, n, rng)
    inc = np.diff(pts[:, :, 0], axis=1)  # (n, 4)
    corr = np.corrcoef(inc.T)
    off = corr[~np.eye(4, dtype=bool)]
    assert np.max(np.abs(off)) < 3.0 / math.sqrt(n)


def test_endpoint_law_matches_transition():
    rng = np.random.default_rng(7)
    n = 50_000
    x = np.array([0.1, -0.2, 0.3])
    _, pts = paths.sample_paths_batch(E3, x, 0.8, 0.1, n, rng)
    direct = E3.sample_transition_batch(0.8, x, n, np.random.default_rng(8))
    for axis in range(3):
        res = stats.ks_2samp(pts[:, -1, axis], direct[:, axis])
        assert res.pvalue > 1e-3


def test_determinism_bitwise():
    a = paths.sample_path(E3, np.zeros(3), 1.0, 0.125, np.random.default_rng(99))
    b = paths.sample_path(E3, np.zeros(3), 1.0, 0.125, np.random.default_rng(99))
    paths.refine_bridge(a, 3, np.random.default_rng(1))
    paths.refine_bridge(b, 3, np.random.default_rng(1))
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.points, b.points)


def test_refinement_preserves_existing_entries():
    p = paths.sample_path(E1, np.zeros(1), 1.0, 0.25, np.random.default_rng(5))
    t_before = p.times.copy()
    x_before = p.points.copy()
    paths.refine_bridge(p, 1, np.random.default_rng(6))
    assert len(p) == len(t_before) + 1
    kept = np.isin(p.times, t_before)
    assert np.array_equal(p.times[kept], t_before)
    assert np.array_equal(p.points[kept], x_before)
    assert p.seed_lineage["refinements"] == [1]


def test_bridge_midpoint_variance():
    rng = np.random.default_rng(11)
    mids = []
    for _ in range(40_000):
        p = paths.PathSkeleton(
            E1, np.array([0.0, 1.0]), np.zeros((2, 1)), {"refinements": []}
        )
        paths.refine_bridge(p, 0, rng)
        mids.append(p.points[1, 0])
    mids = np.asarray(mids)
    assert abs(mids.mean()) < 0.02
    assert np.var(mids) == pytest.approx(0.5, rel=0.03)


def test_degenerate_bridge_collapses():
    rng = np.random.default_rng(3)
    p = paths.PathSkeleton(
        E1, np.array([0.0, 1e-16]), np.full((2, 1), 2.5), {"refinements": []}
    )
    paths.refine_bridge(p, 0, rng)
    assert p.points[1, 0] == pytest.approx(2.5, abs=1e-7)


def test_sphere_refinement_rejected():
    p = paths.sample_path(
        S2, np.array([0.0, 0.0, 1.0]), 0.5, 0.25, np.random.default_rng(0)
    )
    with pytest.raises(UnsupportedRefinementError):
        paths.refine_bridge(p, 0, np.random.default_rng(0))


def test_refinement_invariance_of_endpoint_law():
    rng = np.random.default_rng(17)
    ends = []
    for _ in range(20_000):
        p = paths.sample_path(E1, np.zeros(1), 1.0, 0.5, rng)
        paths.refine_bridge(p, 0, rng)
        paths.refine_bridge(p, 2, rng)
        paths.refine_bridge(p, 1, rng)
        ends.append(p.points[-1, 0])
    res = stats.kstest(np.asarray(ends), "norm", args=(0.0, math.sqrt(2.0)))
    assert res.pvalue > 1e-3


def test_markov_consistency_after_conditioning():
    rng = np.random.default_rng(23)
    n = 40_000
    _, pts = paths.sample_paths_batch(E1, np.zeros(1), 1.0, 0.25, n, rng)
    # increment after time s=0.5 vs a fresh transition of the same duration
    later = pts[:, -1, 0] - pts[:, 2, 0]
    fresh = E1.sample_transition_batch(0.5, np.zeros(1), n, np.random.default_rng(24))
    res = stats.ks_2samp(later, fresh[:, 0])
    assert res.pvalue > 1e-3


def test_holder_modulus_constant_path():
    p = paths.PathSkeleton(
        E1, np.array([0.0, 0.5, 1.0]), np.zeros((3, 1)), {"refinements": []}
    )
    assert paths.holder_modulus(p, 0.4) == 0.0


def test_holder_modulus_requires_two_entries():
    p = paths.PathSkeleton(E1, np.array([0.0]), np.zeros((1, 1)), {})
    with pytest.raises(TimeDomainError):
        paths.holder_modulus(p, 0.4)


def _moduli(alpha, grid_step, n_paths, seed):
    rng = np.random.default_rng(seed)
    times, pts = paths.sample_paths_batch(E1, np.zeros(1), 1.0, grid_step, n_paths, rng)
    out = []
    for i in range(n_paths):
        p = paths.PathSkeleton(E1, times, pts[i], {"refinements": []})
        out.append(paths.holder_modulus(p, alpha))
    return np.asarray(out)


def test_holder_modulus_stabilizes_below_half():
    med_coarse = np.median(_moduli(0.4, 1e-2, 24, 31))
    med_mid = np.median(_moduli(0.4, 1e-3, 24, 31))
    med_fine = np.median(_moduli(0.4, 1e-4, 12, 31))
    assert med_mid / med_coarse < 1.6
    assert med_fine / med_mid < 1.35
    assert np.all(np.isfinite(_moduli(0.4, 1e-3, 24, 32)))


def test_holder_modulus_diverges_above_half():
    med_coarse = np.median(_moduli(0.6, 1e-2, 12, 41))
    med_fine = np.median(_moduli(0.6, 1e-4, 12, 41))
    assert med_fine >= 2.0 * med_coarse


def test_csv_dump_roundtrip_columns():
    p = paths.sample_path(E3, np.zeros(3), 0.5, 0.25, np.random.default_rng(2))
    buf = io.StringIO()
    paths.dump_paths_csv([p, p], buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "path_id,time,coord_0,coord_1,coord_2"
    assert len(lines) == 1 + 2 * len(p)
