"""Two-stage grayscale segmentation.

Stage 1 restores a noisy, possibly blurred image by minimizing a
box-constrained hybrid first/second-order total variation energy with an
alternating split Bregman scheme. Stage 2 stretches the restoration to
[0,1], clusters its intensities with 1-D K-means and thresholds at the
midpoints between consecutive cluster centers; ``segment`` runs it.
"""

from .cluster import segment
from .degrade import LinearOperatorA, add_gaussian_noise, gaussian_kernel
from .metrics import sa
from .phantom import make_three_phase, make_two_phase
from .restore import SolverParams, run
from .weight import edge_weight

__version__ = "0.1.0"

__all__ = [
    "LinearOperatorA", "SolverParams", "add_gaussian_noise", "edge_weight",
    "gaussian_kernel", "make_three_phase", "make_two_phase", "run", "sa",
    "segment",
]
