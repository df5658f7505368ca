"""Segmentation accuracy: percentage of misclassified pixels.

The literature calls this quantity "accuracy" even though it counts errors;
lower is better, 0 means a perfect labeling.
"""

from __future__ import annotations

import numpy as np

from .grid import finite_range


def sa(pred, truth) -> float:
    """Percent of pixels whose predicted phase differs from the truth.

    pred may be a label array or anything with a .labels attribute. Phases
    are numbered 1..K; predicted labels must stay within the truth's range.
    Phase indices are compared as they are: Stage 2 numbers phases by
    increasing intensity, as a truth map numbered the same way does.
    """
    pred = np.asarray(getattr(pred, "labels", pred))
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape}, truth {truth.shape}")
    lo, hi = finite_range("truth", truth)
    if lo < 1:
        raise ValueError("truth labels must be >= 1")
    k = int(hi)
    lo, hi = finite_range("pred", pred)
    if lo < 1 or hi > k:
        raise ValueError(f"pred labels must lie in 1..{k}")
    return 100.0 * np.count_nonzero(pred != truth) / truth.size
