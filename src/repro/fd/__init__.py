"""Soft functional dependency learning.

This package implements the offline learning half of COAX (Section 5 of the
paper): drawing a sample, bucketing it on a grid to obtain a compact
training set of dense-cell centres (Algorithm 1), fitting Bayesian linear
models between attribute pairs, estimating error margins, detecting which
pairs constitute usable soft FDs, and merging correlated pairs into groups
with a single predictor attribute per group.
"""

from repro.fd.model import FDModel, LinearFDModel, SplineFDModel, SplineSegment
from repro.fd.bayesian import BayesianLinearRegression, PosteriorSummary
from repro.fd.bucketing import BucketGrid, BucketingConfig, build_training_set
from repro.fd.margins import MarginEstimate, estimate_margins
from repro.fd.detection import DetectionConfig, FDCandidate, detect_soft_fds, evaluate_pair
from repro.fd.groups import FDGroup, build_groups, per_model_inlier_masks

__all__ = [
    "FDModel",
    "LinearFDModel",
    "SplineFDModel",
    "SplineSegment",
    "BayesianLinearRegression",
    "PosteriorSummary",
    "BucketGrid",
    "BucketingConfig",
    "build_training_set",
    "MarginEstimate",
    "estimate_margins",
    "DetectionConfig",
    "FDCandidate",
    "detect_soft_fds",
    "evaluate_pair",
    "FDGroup",
    "build_groups",
    "per_model_inlier_masks",
]
