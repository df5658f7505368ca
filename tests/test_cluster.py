"""Contrast stretch, 1-D k-means against an exhaustive partition oracle,
threshold labeling, and the Stage-2 call that runs the three."""

import itertools
import warnings

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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_label_rejects_non_finite(bad):
    g = np.array([[bad, 0.1], [0.9, 0.2]])
    with pytest.raises(ValueError, match="image to label has 1 non-finite entry"):
        cluster.label(g, np.array([0.1, 0.9]))
    with pytest.raises(ValueError, match="centers has 1 non-finite entry"):
        cluster.label(np.zeros((2, 2)), np.array([0.1, bad]))


@pytest.mark.parametrize("centers", [[0.5], [[0.2, 0.8]]])
def test_label_rejects_fewer_than_two_centers(centers):
    with pytest.raises(ValueError, match="need a 1-D array of at least 2 centers"):
        cluster.label(np.zeros((2, 2)), np.array(centers))


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


@pytest.mark.parametrize("k", [2, 3, 4])
def test_segment_gives_the_bits_of_stretch_kmeans_label(k):
    rng = np.random.default_rng([7, k])
    field = rng.choice([0.2, 0.45, 0.7, 0.9][:k], size=(40, 48))
    field += rng.normal(0.0, 0.05, field.shape)
    stretched, km, labeling = cluster.segment(field, k)
    expect = cluster.stretch(field)
    expect_km = cluster.kmeans_1d(expect.ravel(), k)
    expect_labeling = cluster.label(expect, expect_km.centers)
    assert stretched.tobytes() == expect.tobytes()
    assert km.centers.tobytes() == expect_km.centers.tobytes()
    assert km.wcss == expect_km.wcss
    assert labeling.labels.tobytes() == expect_labeling.labels.tobytes()
    assert labeling.thresholds.tobytes() == expect_labeling.thresholds.tobytes()
    assert labeling.phase_means.tobytes() == expect_labeling.phase_means.tobytes()


def test_segment_names_a_constant_restoration():
    with pytest.raises(ValueError, match=r"^the restoration is constant \(0\.416666666667\); "
                                         r"there are no 3 phases to separate$"):
        cluster.segment(np.full((6, 5), 5.0 / 12.0), 3)


def test_segment_reduces_the_restoration_once(monkeypatch):
    """One range reduction of the restoration serves both the stretch and
    the constant check; k-means and labeling read only the stretched
    field."""
    field = np.random.default_rng(4).uniform(0.1, 0.9, (16, 16))
    seen = []

    def spy(name, a, source=None):
        seen.append(a)
        return finite_range(name, a, source)

    finite_range = cluster.finite_range
    monkeypatch.setattr(cluster, "finite_range", spy)
    cluster.segment(field, 2)
    assert sum(a is field for a in seen) == 1
    assert not any(np.shares_memory(a, field) for a in seen if a is not field)


def first_layer(values):
    """Sorted values, prefix sums of the centered values and of their
    squares, and the one-segment layer e[i] = -s1[i]**2 / i."""
    xs = np.sort(np.asarray(values, dtype=float))
    n = xs.size
    centered = xs - xs.mean()
    s1 = np.concatenate(([0.0], np.cumsum(centered)))
    s2 = np.concatenate(([0.0], np.cumsum(centered * centered)))
    e = np.full(n + 1, np.inf)
    e[1:] = -s1[1:] ** 2 / np.arange(1, n + 1)
    return xs, s1, s2, e


def unbounded_kmeans(values, k):
    """kmeans_1d's dynamic program with every layer solved in full: the same
    prefix sums and the same _split_layer, without the bound on the last
    inner layer and without the power-of-two scale (which is exact, so it
    changes no bit), then a scan of every split of the tail segment."""
    xs, s1, _, e = first_layer(values)
    n = xs.size
    splits = []
    for c in range(2, k):
        e, arg = cluster._split_layer(e, s1, c, n - k + c)
        splits.append(arg)
    j = np.arange(k - 1, n)
    bounds = [n, k - 1 + int(np.argmin(e[j] - (s1[n] - s1[j]) ** 2 / (n - j)))]
    for arg in reversed(splits):
        bounds.append(int(arg[bounds[-1]]))
    bounds = [0] + bounds[::-1]
    centers = np.array([xs[a:b].mean() for a, b in zip(bounds[:-1], bounds[1:])])
    wcss = float(sum(np.sum((xs[a:b] - mu) ** 2)
                     for a, b, mu in zip(bounds[:-1], bounds[1:], centers)))
    return centers, wcss


@pytest.mark.parametrize("kind", ["uniform", "ties", "modes", "levels"])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_kmeans_matches_unbounded_layers(kind, k):
    rng = np.random.default_rng([11, k, len(kind)])
    for n in (k + 7, 300, 5000, 100_000):
        if kind == "levels":
            # k + 1 evenly filled levels: merging any two neighbours costs
            # the same, so the last split ties exactly or to rounding
            values = np.arange(n) % (k + 1) / k
        elif kind == "modes":
            sizes = rng.multinomial(n, rng.dirichlet([1.0, 1.0, 1.0]))
            values = np.concatenate([rng.normal(mu, 0.03, size)
                                     for mu, size in zip((0.2, 0.5, 0.8), sizes)])
        else:
            values = rng.uniform(0.0, 1.0, size=n)
            if kind == "ties":
                values = np.round(values * 20) / 20
        res = cluster.kmeans_1d(values, k)
        centers, wcss = unbounded_kmeans(values, k)
        assert np.array_equal(res.centers, centers)
        assert res.wcss == wcss


def test_bounded_last_layer_solves_few_end_points():
    rng = np.random.default_rng(16)
    xs, s1, s2, e = first_layer(rng.uniform(0.0, 1.0, size=2 ** 16))
    n = xs.size
    full, full_arg = cluster._split_layer(e, s1, 2, n - 1)
    best, arg = cluster._split_layer(e, s1, 2, n - 1, s2)
    solved = np.isfinite(best)
    assert 0 < np.count_nonzero(solved) < n / 16
    # solved end points carry the full layer's values and splits
    assert np.array_equal(best[solved], full[solved])
    assert np.array_equal(arg[solved], full_arg[solved])
    j = np.arange(2, n)
    tail = (s1[n] - s1[j]) ** 2 / (n - j)
    assert np.argmin(best[j] - tail) == np.argmin(full[j] - tail)


@pytest.mark.parametrize("scale", [1e-200, 1e-165, 1e153])
def test_kmeans_extreme_value_scales(scale):
    # squares of these values under- or overflow unless they are rescaled
    values = np.array([0, 1, 2, 10, 11, 12, 30, 31, 32], dtype=float) * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = cluster.kmeans_1d(values, 3)
    assert np.allclose(res.centers / scale, [1.0, 11.0, 31.0], rtol=1e-12, atol=0.0)


@pytest.fixture(scope="module")
def restoration_512():
    """The stretched 5-iteration restoration of a noisy 512x512 three-phase
    phantom, as the CLI clusters it."""
    from htvseg import add_gaussian_noise, edge_weight, make_three_phase, restore
    from htvseg.degrade import LinearOperatorA

    f = add_gaussian_noise(make_three_phase(512, 512, 0.3, 0.5, 0.7).image, 0.1, seed=3)
    restored, _ = restore.run(f, LinearOperatorA.identity(f.shape),
                              restore.SolverParams(lam=0.1, gamma=1.95, max_iter=5),
                              edge_weight(f))
    return cluster.stretch(restored).ravel()


@pytest.mark.parametrize("kind,k", [("two-valued", 2), *(
    (kind, k) for kind in ("first", "ties", "restoration") for k in (2, 3, 4, 5))])
def test_kmeans_scans_only_solved_end_points(restoration_512, kind, k):
    """The final scan runs over the end points the bounded last inner layer
    solved (all of them for k = 2); centers and wcss are bit-equal to the
    full layers' scan of every split. On "first", k - 1 single low values
    under a block of equal ones, the tail starts at the first end point."""
    rng = np.random.default_rng([12, k])
    if kind == "two-valued":
        values = np.where(rng.uniform(size=5000) < 0.3, 0.25, 0.75)
    elif kind == "first":
        values = np.concatenate((np.arange(k - 1) / 8, np.ones(1000)))
    elif kind == "ties":
        values = np.round(rng.uniform(0.0, 1.0, size=20_000) * 8) / 8
    else:
        values = restoration_512
    res = cluster.kmeans_1d(values, k)
    centers, wcss = unbounded_kmeans(values, k)
    assert np.array_equal(res.centers, centers)
    assert res.wcss == wcss


@pytest.mark.parametrize("case", range(8))
def test_both_level_paths_give_the_same_bits(monkeypatch, case):
    """A divide-and-conquer level of few intervals is solved on slices and
    one of many in a batch. With every level on either path, each layer's
    values and splits, and so kmeans_1d's centers and wcss, are bit-equal,
    on data with duplicates and exact ties, and match the quadratic DP."""
    rng = np.random.default_rng([13, case])
    k = 3 + case % 3
    n = int(rng.integers(200, 400))
    values = rng.uniform(0.0, 1.0, size=n)
    if case % 2:
        values = np.round(values * 12) / 12       # duplicates
    if case % 4 == 2:
        values = np.arange(n) % (k + 1) / k       # evenly filled levels: ties
    xs, s1, s2, e = first_layer(values)
    results = []
    for sliced in (0, n):                         # all batched, all sliced
        monkeypatch.setattr(cluster, "SLICED_LEVEL", sliced)
        layers = [cluster._split_layer(e, s1, 2, n - 1),
                  cluster._split_layer(e, s1, 2, n - 1, s2)]
        res = cluster.kmeans_1d(values, k)
        results.append((layers, res))
        assert abs(res.wcss - dp_partition_wcss(values, k)) < 1e-9
    (layers_a, res_a), (layers_b, res_b) = results
    for (best_a, arg_a), (best_b, arg_b) in zip(layers_a, layers_b):
        assert np.array_equal(best_a, best_b)
        assert np.array_equal(arg_a, arg_b)
    assert np.array_equal(res_a.centers, res_b.centers)
    assert res_a.wcss == res_b.wcss
