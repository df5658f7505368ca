"""Contrast stretch, 1-D k-means against an exhaustive partition oracle,
and threshold labeling."""

import itertools

import numpy as np
import pytest

from htvseg import cluster


def best_partition_wcss(values, k):
    """Optimal 1-D k-means by brute force. For sorted data every optimal
    clustering is a contiguous partition, so try all split points."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    best = (np.inf, None)
    for splits in itertools.combinations(range(1, n), k - 1):
        bounds = (0,) + splits + (n,)
        wcss = 0.0
        centers = []
        for a, b in zip(bounds[:-1], bounds[1:]):
            seg = x[a:b]
            c = seg.mean()
            centers.append(c)
            wcss += np.sum((seg - c) ** 2)
        if wcss < best[0]:
            best = (wcss, np.array(centers))
    return best


def test_stretch_basic():
    g = np.array([[2.0, 4.0], [6.0, 10.0]])
    out = cluster.stretch(g)
    assert np.array_equal(out, [[0.0, 0.25], [0.5, 1.0]])


def test_stretch_already_unit_range_is_identity():
    g = np.array([[0.0, 0.3], [0.7, 1.0]])
    assert np.array_equal(cluster.stretch(g), g)


def test_stretch_constant_goes_to_zero():
    assert np.array_equal(cluster.stretch(np.full((3, 3), 5.0)), np.zeros((3, 3)))


def test_stretch_rejects_non_finite():
    g = np.zeros((2, 2))
    g[0, 0] = np.nan
    with pytest.raises(ValueError):
        cluster.stretch(g)


def test_kmeans_two_obvious_groups():
    values = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    res = cluster.kmeans_1d(values, 2)
    assert np.allclose(res.centers, [0.0, 1.0])
    assert res.wcss == 0.0


def test_kmeans_small_example():
    values = np.array([0.0, 0.1, 0.9, 1.0])
    res = cluster.kmeans_1d(values, 2)
    assert np.allclose(res.centers, [0.05, 0.95], atol=1e-12)


def test_kmeans_centers_sorted_and_restart_trace():
    rng = np.random.default_rng(3)
    values = rng.uniform(0.0, 1.0, size=200)
    res = cluster.kmeans_1d(values, 3, restarts=7, seed=5)
    assert np.all(np.diff(res.centers) >= 0.0)
    assert res.restart_wcss.shape == (1,)      # one exact solve
    assert res.wcss == res.restart_wcss.min()
    # the reported energy is that of assigning each value to its nearest center
    nearest = np.min((values[:, None] - res.centers[None, :]) ** 2, axis=1)
    assert res.wcss == pytest.approx(nearest.sum(), rel=1e-12)


def dp_partition_wcss(values, k):
    """Optimal 1-D k-means by the plain O(k n^2) dynamic program over split
    points of the sorted values. cost[j, i] is the sum of squares of
    x[j:i], from running sums shifted by the segment's first value."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    cost = np.full((n + 1, n + 1), np.inf)
    for j in range(n):
        d = x[j:] - x[j]
        cost[j, j + 1:] = np.cumsum(d * d) - np.cumsum(d) ** 2 / np.arange(1, n - j + 1)
    best = cost[0].copy()
    for _ in range(2, k + 1):
        best = np.min(best[:, None] + cost, axis=0)
    return best[n]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("k", [2, 3])
def test_kmeans_matches_exhaustive_oracle(seed, k):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(k + 1, 13))
    values = rng.uniform(0.0, 1.0, size=n)
    res = cluster.kmeans_1d(values, k, restarts=20, seed=seed)
    wcss_star, centers_star = best_partition_wcss(values, k)
    assert abs(res.wcss - wcss_star) < 1e-9
    assert np.allclose(np.sort(res.centers), centers_star, atol=1e-9)


@pytest.mark.parametrize("case", range(12))
def test_kmeans_matches_quadratic_dp(case):
    rng = np.random.default_rng([7, case])
    k = 2 + case % 4
    n = int(rng.integers(150, 300))
    values = rng.uniform(0.0, 1.0, size=n)
    if case % 2:
        values = np.round(values * 20) / 20   # many duplicates
    res = cluster.kmeans_1d(values, k)
    assert abs(res.wcss - dp_partition_wcss(values, k)) < 1e-9
    assert np.all(np.diff(res.centers) > 0.0)


def test_kmeans_three_gaussian_mixture_reaches_global_optimum():
    # A local-minimum trap: Lloyd from one seed stops at WCSS 35.3 here.
    rng = np.random.default_rng(0)
    values = np.concatenate([rng.normal(0.1, 0.02, 9000),
                             rng.normal(0.5, 0.02, 300),
                             rng.normal(0.9, 0.02, 700)])
    res = cluster.kmeans_1d(values, 3)
    assert res.wcss == pytest.approx(3.98, abs=0.01)
    assert np.allclose(res.centers, [0.1, 0.5, 0.9], atol=0.005)


def test_kmeans_deterministic():
    rng = np.random.default_rng(4)
    values = rng.uniform(size=50)
    a = cluster.kmeans_1d(values, 3, restarts=5, seed=9)
    b = cluster.kmeans_1d(values, 3, restarts=5, seed=9)
    c = cluster.kmeans_1d(values, 3)   # restarts and seed are ignored
    for other in (b, c):
        assert np.array_equal(a.centers, other.centers)
        assert a.wcss == other.wcss
        assert np.array_equal(a.restart_wcss, other.restart_wcss)


def test_kmeans_argument_errors():
    values = np.linspace(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        cluster.kmeans_1d(values, 1)
    with pytest.raises(ValueError):
        cluster.kmeans_1d(np.full(10, 0.5), 2)  # fewer distinct values than k


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kmeans_rejects_non_finite(bad):
    values = np.linspace(0.0, 1.0, 10)
    values[[2, 7]] = bad
    with pytest.raises(ValueError, match="2 non-finite"):
        cluster.kmeans_1d(values, 2)


def test_label_two_phase():
    g = np.array([[0.0, 0.2], [0.8, 1.0]])
    lab = cluster.label(g, np.array([0.1, 0.9]))
    assert np.array_equal(lab.labels, [[1, 1], [2, 2]])
    assert np.array_equal(lab.thresholds, [0.5])
    assert np.allclose(lab.phase_means, [0.1, 0.9])
    assert lab.k == 2


def test_label_three_phase_thresholds():
    g = np.array([[0.0, 0.29], [0.31, 0.69], [0.71, 1.0]])
    lab = cluster.label(g, np.array([0.1, 0.5, 0.9]))
    assert np.allclose(lab.thresholds, [0.3, 0.7])
    assert np.array_equal(lab.labels, [[1, 1], [2, 2], [3, 3]])
    # value exactly at a threshold joins the upper phase
    tie = cluster.label(np.array([[0.3]]), np.array([0.1, 0.5, 0.9]))
    assert tie.labels[0, 0] == 2


def test_label_value_0p69_lands_in_middle_phase():
    lab = cluster.label(np.array([[0.69]]), np.array([0.1, 0.5, 0.9]))
    assert lab.labels[0, 0] == 2


def test_label_means_are_phase_averages():
    g = np.array([[0.0, 0.1], [0.9, 1.0]])
    lab = cluster.label(g, np.array([0.2, 0.8]))
    assert np.allclose(lab.phase_means, [0.05, 0.95])


def test_label_empty_phase_keeps_center_as_mean():
    g = np.array([[0.0, 0.05], [0.02, 0.01]])
    lab = cluster.label(g, np.array([0.0, 0.9]))
    assert np.all(lab.labels == 1)
    assert lab.phase_means[1] == 0.9


def test_label_requires_sorted_centers():
    with pytest.raises(ValueError):
        cluster.label(np.zeros((2, 2)), np.array([0.9, 0.1]))


def test_label_matches_threshold_count_reference():
    # values on and next to the thresholds; ties join the upper phase
    centers = np.array([0.1, 0.4, 0.4, 0.9])
    thresholds = 0.5 * (centers[:-1] + centers[1:])
    rng = np.random.default_rng(2)
    g = np.concatenate([rng.uniform(size=200), thresholds,
                        np.nextafter(thresholds, 0.0), [0.0, 1.0]]).reshape(-1, 4)
    lab = cluster.label(g, centers)
    expected = np.ones(g.shape, dtype=np.int32)
    for t in thresholds:
        expected += (g >= t).astype(np.int32)
    assert lab.labels.dtype == np.int32
    assert np.array_equal(lab.labels, expected)
    for i in range(4):
        mask = expected == i + 1
        mean = g[mask].mean() if mask.any() else centers[i]
        assert lab.phase_means[i] == pytest.approx(mean, rel=1e-12)


def test_label_monotone_in_value():
    g = np.linspace(0.0, 1.0, 64).reshape(8, 8)
    lab = cluster.label(g, np.array([0.2, 0.5, 0.8]))
    flat = lab.labels.ravel()
    assert np.all(np.diff(flat) >= 0)


def test_piecewise_constant_reconstruction():
    g = np.array([[0.0, 0.1], [0.9, 1.0]])
    lab = cluster.label(g, np.array([0.2, 0.8]))
    recon = cluster.piecewise_constant(lab)
    assert np.array_equal(recon, lab.phase_means[lab.labels - 1])
    assert recon.shape == g.shape
