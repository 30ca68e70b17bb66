"""Iterated nonlinear feature synthesis for binary classification.

The pipeline alternates convex logistic fits with feature construction:
bootstrap replicates of the regularized maximum-likelihood problem are
weighted by their full-data likelihood, the principal directions of the
weighted solution cloud redefine the features, and symmetric products of
the redefined features extend the space. Every round keeps the previous
best model representable while the parameter dimension stays capped.
"""

import os

# One BLAS thread, set before anything imports numpy: a multi-threaded product rounds by how
# it splits the work, so a model's bytes would depend on the host's CPU count.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

__version__ = "0.1.0"
