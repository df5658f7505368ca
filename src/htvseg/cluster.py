"""Stage-2 thresholding: linear stretch, 1-D K-means, phase labeling.

The restored image is stretched to [0,1], its intensities are split into K
groups by exact 1-D K-means (a dynamic program over split points of the
sorted values, which reaches the global optimum of the within-cluster sum
of squares without seeds), and the midpoints of consecutive sorted centers
become the K-1 thresholds that cut the range into phases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class KMeansResult:
    """Sorted cluster centers and their within-cluster sum of squares.
    ``restart_wcss`` holds the energy of each solve; the exact method
    solves once, so it is the one-entry array ``[wcss]``."""

    centers: np.ndarray
    wcss: float
    restart_wcss: np.ndarray


@dataclass(frozen=True)
class PhaseLabeling:
    """Per-pixel phase labels in {1..K} with the centers, thresholds and
    per-phase mean intensities that produced them."""

    labels: np.ndarray
    centers: np.ndarray
    thresholds: np.ndarray
    phase_means: np.ndarray

    @property
    def k(self) -> int:
        return len(self.centers)


def stretch(g: np.ndarray) -> np.ndarray:
    """Affine map of g onto [0,1]; a constant image maps to all zeros."""
    g = np.asarray(g, dtype=float)
    if not np.isfinite(g).all():
        raise ValueError("cannot stretch a non-finite image")
    lo, hi = g.min(), g.max()
    if hi == lo:
        return np.zeros_like(g)
    return (g - lo) / (hi - lo)


def _split_layer(e: np.ndarray, s1: np.ndarray, lo: int, hi: int):
    """One DP layer: for every end point i in [lo, hi], the split j in
    [lo-1, i-1] minimizing e[j] - (s1[i] - s1[j])**2 / (i - j), and that
    minimum (inf outside [lo, hi]). Optimal splits are monotone in i, so
    the argmins come from a divide and conquer that solves the middle end
    point of each open interval and hands each half the matching part of
    the split range. Each recursion level is one batch of array operations
    over all intervals' candidates at once, which number at most n plus
    the intervals. Ties keep the smallest split."""
    best = np.full(e.size, np.inf)
    arg = np.zeros(e.size, dtype=np.intp)
    ilo, ihi = np.array([lo]), np.array([hi])
    jlo, jhi = np.array([lo - 1]), np.array([hi - 1])
    while ilo.size:
        mid = (ilo + ihi) // 2
        jtop = np.minimum(jhi, mid - 1)
        counts = jtop - jlo + 1
        starts = np.cumsum(counts) - counts
        j = np.arange(int(counts.sum())) - np.repeat(starts - jlo, counts)
        seg = s1[j]
        seg -= np.repeat(s1[mid], counts)
        seg *= seg
        seg /= np.repeat(mid, counts) - j
        val = e[j]
        val -= seg
        low = np.minimum.reduceat(val, starts)
        hits = np.flatnonzero(val == np.repeat(low, counts))
        opt = j[hits[np.searchsorted(hits, starts)]]
        best[mid], arg[mid] = low, opt
        left, right = ilo < mid, mid < ihi
        ilo, ihi, jlo, jhi = (np.concatenate((ilo[left], mid[right] + 1)),
                              np.concatenate((mid[left] - 1, ihi[right])),
                              np.concatenate((jlo[left], opt[right])),
                              np.concatenate((opt[left], jhi[right])))
    return best, arg


def kmeans_1d(values: np.ndarray, k: int, restarts: int | None = None,
              seed: int | None = None) -> KMeansResult:
    """Globally optimal 1-D k-means: the k groups with the lowest
    within-cluster sum of squares, and their sorted centers.

    Optimal clusters are contiguous in sorted order, so a dynamic program
    over split points of the sorted values finds the optimum exactly
    (Wang & Song 2011; Gronlund et al. 2017). Segment costs come from
    prefix sums of the mean-centered values. Each inner layer is solved by
    :func:`_split_layer` in O(n log n); the last layer needs only the end
    point n, so it is one O(n) scan. No seeds are drawn, so the result is
    deterministic. ``restarts`` and ``seed`` are ignored; they are kept so
    that callers of the former restart heuristic keep working.
    """
    values = np.asarray(values, dtype=float).ravel()
    if k < 2:
        raise ValueError(f"need at least 2 clusters, got k={k}")
    bad = values.size - int(np.count_nonzero(np.isfinite(values)))
    if bad:
        raise ValueError(f"values to cluster have {bad} non-finite "
                         f"entr{'y' if bad == 1 else 'ies'} (NaN or inf)")
    xs = np.sort(values)
    n = xs.size
    distinct = min(n, 1 + int(np.count_nonzero(xs[1:] != xs[:-1])))
    if distinct < k:
        raise ValueError(f"need at least {k} distinct values, got {distinct}")

    centered = xs - xs.mean()
    s1 = np.concatenate(([0.0], np.cumsum(centered)))
    s2 = np.concatenate(([0.0], np.cumsum(centered * centered)))
    # cost of the best c-segment split of xs[:i] is s2[i] + best_c[i];
    # e[j] = cost_{c-1}(j) - s2[j] is what layer c minimizes over splits j
    e = np.full(n + 1, np.inf)
    e[1:] = -s1[1:] ** 2 / np.arange(1, n + 1)
    splits = []
    for c in range(2, k):
        e, arg = _split_layer(e, s1, c, n - k + c)
        splits.append(arg)
    j = np.arange(k - 1, n)
    last = e[j] - (s1[n] - s1[j]) ** 2 / (n - j)
    bounds = [n, k - 1 + int(np.argmin(last))]
    for arg in reversed(splits):
        bounds.append(int(arg[bounds[-1]]))
    bounds.append(0)
    bounds.reverse()

    centers = np.array([xs[a:b].mean() for a, b in zip(bounds[:-1], bounds[1:])])
    wcss = float(sum(np.sum((xs[a:b] - mu) ** 2)
                     for a, b, mu in zip(bounds[:-1], bounds[1:], centers)))
    return KMeansResult(centers=centers, wcss=wcss, restart_wcss=np.array([wcss]))


def label(g_stretched: np.ndarray, centers: np.ndarray) -> PhaseLabeling:
    """Assign phase i where threshold_{i-1} <= value < threshold_i, with
    thresholds the midpoints of consecutive centers (outer bounds 0 and 1).
    A value equal to a threshold joins the upper phase. An empty phase
    reports its center as the phase mean."""
    g_stretched = np.asarray(g_stretched, dtype=float)
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 1 or len(centers) < 2:
        raise ValueError("need a 1-D array of at least 2 centers")
    if np.any(np.diff(centers) < 0):
        raise ValueError("centers must be sorted ascending")
    thresholds = 0.5 * (centers[:-1] + centers[1:])
    labels = np.ones(g_stretched.shape, dtype=np.int32)
    for t in thresholds:
        labels += (g_stretched >= t).astype(np.int32)
    means = np.empty(len(centers))
    for i in range(len(centers)):
        mask = labels == i + 1
        means[i] = g_stretched[mask].mean() if np.any(mask) else centers[i]
    return PhaseLabeling(labels=labels, centers=centers.copy(),
                         thresholds=thresholds, phase_means=means)


def piecewise_constant(labeling: PhaseLabeling) -> np.ndarray:
    """Image with each pixel replaced by its phase's mean intensity."""
    return labeling.phase_means[labeling.labels - 1]
