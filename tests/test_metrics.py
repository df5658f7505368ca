import numpy as np
import pytest

from htvseg import cluster
from htvseg.metrics import sa


def test_sa_perfect_agreement_is_zero():
    truth = np.array([[1, 1], [2, 2]])
    assert sa(truth.copy(), truth) == 0.0


def test_sa_counts_mismatched_fraction():
    truth = np.array([[1, 1], [2, 2]])
    pred = np.array([[1, 2], [2, 2]])
    assert sa(pred, truth) == 25.0


def test_sa_total_disagreement():
    truth = np.ones((4, 4), dtype=np.int32)
    truth[:2] = 2
    pred = 3 - truth
    assert sa(pred, truth) == 100.0


def test_sa_accepts_labeling_object():
    g = np.array([[0.0, 0.1], [0.9, 1.0]])
    lab = cluster.label(g, np.array([0.05, 0.95]))
    truth = np.array([[1, 1], [2, 2]])
    assert sa(lab, truth) == 0.0


def test_sa_pred_may_use_fewer_phases():
    truth = np.array([[1, 2], [3, 3]])
    pred = np.array([[1, 2], [2, 2]])
    assert sa(pred, truth) == 50.0


def test_sa_rejects_bad_inputs():
    truth = np.array([[1, 2], [2, 2]])
    with pytest.raises(ValueError):
        sa(np.array([[0, 1], [1, 1]]), truth)  # label below 1
    with pytest.raises(ValueError):
        sa(np.array([[1, 3], [1, 1]]), truth)  # label above truth's range
    with pytest.raises(ValueError):
        sa(np.array([[1, 1, 1]]), truth)  # shape mismatch
    with pytest.raises(ValueError):
        sa(truth, np.array([[0, 1], [1, 1]]))  # truth must start at 1
