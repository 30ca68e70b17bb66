"""Iterated nonlinear feature synthesis for binary classification.

The pipeline alternates convex logistic fits with feature construction:
bootstrap replicates of the regularized maximum-likelihood problem are
weighted by their full-data likelihood, the principal directions of the
weighted solution cloud redefine the features, and symmetric products of
the redefined features extend the space. Every round keeps the previous
best model representable while the parameter dimension stays capped.
"""

__version__ = "0.1.0"
