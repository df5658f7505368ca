"""Two-stage grayscale segmentation.

Stage 1 restores a noisy, possibly blurred image by minimizing a
box-constrained hybrid first/second-order total variation energy with an
alternating split Bregman scheme. Stage 2 stretches the restoration to
[0,1], clusters its intensities with 1-D K-means and thresholds at the
midpoints between consecutive cluster centers; ``segment`` runs it.
"""

from .cluster import (KMeansResult, PhaseLabeling, kmeans_1d, label,
                      piecewise_constant, segment, stretch)
from .degrade import (BlurKernel, LinearOperatorA, add_gaussian_noise,
                      gaussian_kernel, motion_kernel)
from .metrics import sa
from .phantom import Phantom, make_three_phase, make_two_phase
from .restore import ConvergenceReport, SolverParams, objective, run
from .weight import edge_weight, gaussian_smooth

__version__ = "0.1.0"

__all__ = [
    "BlurKernel", "ConvergenceReport", "KMeansResult", "LinearOperatorA",
    "Phantom", "PhaseLabeling", "SolverParams", "add_gaussian_noise",
    "edge_weight", "gaussian_kernel", "gaussian_smooth", "kmeans_1d",
    "label", "make_three_phase", "make_two_phase", "motion_kernel",
    "objective", "piecewise_constant", "run", "sa", "segment", "stretch",
]
