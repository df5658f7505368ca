"""Stage-2 thresholding: linear stretch, 1-D K-means, phase labeling.

The restored image is stretched to [0,1], its intensities are split into K
groups by exact 1-D K-means (a dynamic program over split points of the
sorted values, which reaches the global optimum of the within-cluster sum
of squares without seeds; its last inner layer solves only the end points
a cost bound cannot rule out), and the midpoints of consecutive sorted
centers become the K-1 thresholds that cut the range into phases.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .grid import finite_range


@dataclass(frozen=True, eq=False)
class KMeansResult:
    """Sorted cluster centers and their within-cluster sum of squares.
    ``restart_wcss`` holds the energy of each solve; the exact method
    solves once, so it is the one-entry array ``[wcss]``."""

    centers: np.ndarray
    wcss: float
    restart_wcss: np.ndarray


@dataclass(frozen=True, eq=False)
class PhaseLabeling:
    """Per-pixel phase labels in {1..K} with the thresholds that produced
    them and the per-phase mean intensities."""

    labels: np.ndarray
    thresholds: np.ndarray
    phase_means: np.ndarray

    @property
    def k(self) -> int:
        return len(self.phase_means)


def stretch(g: np.ndarray) -> np.ndarray:
    """Affine map of g onto [0,1]; a constant image maps to all zeros."""
    g = np.asarray(g, dtype=float)
    return _stretch(g, *finite_range("image to stretch", g))


def _stretch(g: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """:func:`stretch` of g, whose range [lo, hi] the caller has formed."""
    return np.zeros_like(g) if hi == lo else (g - lo) / (hi - lo)


# A divide-and-conquer level with at most this many intervals solves each
# on contiguous slices of the prefix sums; a level of more, narrower
# intervals solves them all in one batch of gathers.
SLICED_LEVEL = 4


def _solve_slices(e, s1, ramp, mid, jlo, jtop):
    """Each interval's minimum of e[j] - (s1[mid] - s1[j])**2 / (mid - j)
    over j in [jlo, jtop], and its first (smallest) minimizing j, from
    contiguous slices; the divisors are a reversed view of ``ramp``."""
    low, opt = np.empty(mid.size), np.empty(mid.size, dtype=np.intp)
    for t, (i, a, b) in enumerate(zip(mid.tolist(), jlo.tolist(),
                                      jtop.tolist())):
        seg = np.subtract(s1[a:b + 1], s1[i])
        seg *= seg
        seg /= ramp[i - a:i - b - 1:-1]
        val = np.subtract(e[a:b + 1], seg, out=seg)
        at = int(np.argmin(val))
        low[t], opt[t] = val[at], a + at
    return low, opt


def _solve_batch(e, s1, mid, jlo, jtop):
    """What :func:`_solve_slices` returns, from one batch of array
    operations over all intervals' candidates."""
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
    return low, j[hits[np.searchsorted(hits, starts)]]


def _split_layer(e: np.ndarray, s1: np.ndarray, lo: int, hi: int,
                 s2: np.ndarray | None = None):
    """One DP layer: for every end point i in [lo, hi], the split j in
    [lo-1, i-1] minimizing e[j] - (s1[i] - s1[j])**2 / (i - j), and that
    minimum (inf outside [lo, hi]). Optimal splits are monotone in i, so
    the argmins come from a divide and conquer that solves the middle end
    point of each open interval and hands each half the matching part of
    the split range. A recursion level's candidates number at most n plus
    its intervals. The first levels have few, wide intervals, and each is
    solved on contiguous slices (:func:`_solve_slices`); a level of more
    than SLICED_LEVEL intervals is one batch of array operations over all
    their candidates at once (:func:`_solve_batch`). Both form each value
    by the same operations and keep the smallest split among ties.

    ``s2``, the prefix sums of squares, marks the last inner layer (``hi``
    is n - 1, and the layer's costs cost(i) = best[i] + s2[i] are read only
    at the split i minimizing cost(i) + C(i, n), C the cost of the tail
    segment). cost never decreases in i and C never increases, so every end
    point strictly between solved end points l < r costs at least
    cost(l) + C(r, n), with 0 for a missing neighbour. After each level an
    interval whose bound exceeds the best total solved so far by more than
    the rounding slack is dropped: its end points stay inf, and every other
    interval keeps the split range and values of the full layer, so the
    minimizing split is the same, ties included. The slack covers rounding:
    sequential prefix sums of n centered values put at most
    4 n**1.5 2**-53 s2[n] on one segment cost, a total sums lo + 1 of them
    and three s2 entries, and a pruning test compares three totals; the
    slack is about 40 times that first-order bound."""
    best = np.full(e.size, np.inf)
    arg = np.zeros(e.size, dtype=np.intp)
    ramp = np.arange(float(e.size))     # ramp[i - j] = i - j, the divisors
    ilo, ihi = np.array([lo]), np.array([hi])
    jlo, jhi = np.array([lo - 1]), np.array([hi - 1])
    if s2 is not None:
        n = e.size - 1
        head, tail = np.zeros(n + 1), np.zeros(n + 1)   # cost(i), C(i, n)
        top = np.inf
        slack = (lo + 2) * n ** 1.5 * 2.0 ** -44 * s2[n]
    while ilo.size:
        mid = (ilo + ihi) // 2
        jtop = np.minimum(jhi, mid - 1)
        if ilo.size <= SLICED_LEVEL:
            low, opt = _solve_slices(e, s1, ramp, mid, jlo, jtop)
        else:
            low, opt = _solve_batch(e, s1, mid, jlo, jtop)
        best[mid], arg[mid] = low, opt
        left, right = ilo < mid, mid < ihi
        ilo, ihi, jlo, jhi = (np.concatenate((ilo[left], mid[right] + 1)),
                              np.concatenate((mid[left] - 1, ihi[right])),
                              np.concatenate((jlo[left], opt[right])),
                              np.concatenate((opt[left], jhi[right])))
        if s2 is not None:
            head[mid] = low + s2[mid]
            tail[mid] = s2[n] - s2[mid] - (s1[n] - s1[mid]) ** 2 / (n - mid)
            top = min(top, np.min(head[mid] + tail[mid]))
            keep = head[ilo - 1] + tail[ihi + 1] <= top + slack
            ilo, ihi, jlo, jhi = ilo[keep], ihi[keep], jlo[keep], jhi[keep]
    return best, arg


def kmeans_1d(values: np.ndarray, k: int, restarts: int | None = None,
              seed: int | None = None) -> KMeansResult:
    """Globally optimal 1-D k-means: the k groups with the lowest
    within-cluster sum of squares, and their sorted centers.

    Optimal clusters are contiguous in sorted order, so a dynamic program
    over split points of the sorted values finds the optimum exactly
    (Wang & Song 2011; Gronlund et al. 2017). Segment costs come from
    prefix sums of the mean-centered values, divided by the power of two
    nearest their largest magnitude: the scale is exact, so no bit of the
    result moves, and the squares neither under- nor overflow at any value
    scale. Each inner layer is solved by :func:`_split_layer` in
    O(n log n), except the last one, whose costs are read only through the
    tail segment: a cost bound prunes it to the few end points that can
    hold the optimal split (a few hundred of 262,144 on a 512x512
    restoration). The last layer needs only the end point n, so it is one
    O(n) scan. No seeds are drawn, so the result is deterministic.
    ``restarts`` and ``seed`` are ignored; they are kept so that callers of
    the former restart heuristic keep working.
    """
    values = np.asarray(values, dtype=float).ravel()
    if not isinstance(k, numbers.Integral):
        raise ValueError(f"cluster count k must be an integer, got {k!r}")
    if k < 2:
        raise ValueError(f"need at least 2 clusters, got k={k}")
    finite_range("values to cluster", values)
    xs = np.sort(values)
    n = xs.size
    distinct = min(n, 1 + int(np.count_nonzero(xs[1:] != xs[:-1])))
    if distinct < k:
        raise ValueError(f"need at least {k} distinct values, got {distinct}")

    # Prefix sums s1 of the scaled centered values and s2 of their squares,
    # each formed in place behind its leading 0.
    s1, s2, e = np.empty(n + 1), np.empty(n + 1), np.empty(n + 1)
    s1[0] = s2[0] = 0.0
    centered = np.subtract(xs, xs.mean(), out=s1[1:])
    top = max(-float(centered.min()), float(centered.max()))
    np.ldexp(centered, -np.frexp(top)[1], out=centered)
    np.cumsum(np.square(centered, out=s2[1:]), out=s2[1:])
    np.cumsum(centered, out=centered)
    # cost of the best c-segment split of xs[:i] is s2[i] + best_c[i];
    # e[j] = cost_{c-1}(j) - s2[j] is what layer c minimizes over splits j
    e[0] = np.inf
    np.negative(np.square(s1[1:], out=e[1:]), out=e[1:])
    e[1:] /= np.arange(1.0, n + 1)
    splits = []
    for c in range(2, k):
        e, arg = _split_layer(e, s1, c, n - k + c, s2 if c == k - 1 else None)
        splits.append(arg)
    # The tail segment starts after an end point j < n where e is finite:
    # a split the last inner layer solved (e is inf elsewhere), or, for
    # k = 2, any of 1..n-1.
    j = np.flatnonzero(np.isfinite(e[:n]))
    last = e[j] - (s1[n] - s1[j]) ** 2 / (n - j)
    bounds = [n, int(j[np.argmin(last)])]
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
    finite_range("image to label", g_stretched)
    finite_range("centers", centers)
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
    return PhaseLabeling(labels=labels, thresholds=thresholds, phase_means=means)


def piecewise_constant(labeling: PhaseLabeling) -> np.ndarray:
    """Image with each pixel replaced by its phase's mean intensity."""
    return labeling.phase_means[labeling.labels - 1]


def segment(restored: np.ndarray, k: int) -> tuple[np.ndarray, KMeansResult, PhaseLabeling]:
    """Stage 2 as (stretched, KMeansResult, PhaseLabeling): :func:`stretch`,
    :func:`kmeans_1d` into k groups, :func:`label`. The range the stretch
    reads is reduced once; a constant restoration has no k phases to
    separate and raises ValueError naming its value."""
    restored = np.asarray(restored, dtype=float)
    lo, hi = finite_range("restoration", restored)
    if hi == lo:
        raise ValueError(f"the restoration is constant ({lo:.12g}); "
                         f"there are no {k} phases to separate")
    stretched = _stretch(restored, lo, hi)
    km = kmeans_1d(stretched.ravel(), k)
    return stretched, km, label(stretched, km.centers)
