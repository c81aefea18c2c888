"""Learning substrate: one-class SVM, MARS regression, elliptic envelope.

The environment provides no scikit-learn, so the classifiers and regressors
the paper names are implemented here from first principles:

* :class:`OneClassSvm` — Schölkopf's ν-formulation, solved by SMO with
  second-order (WSS2) working-set selection on kernel rows computed on
  demand, so the n x n Gram matrix is never built;
* :class:`MarsRegression` — Multivariate Adaptive Regression Splines
  (forward hinge-basis growth + GCV backward pruning), the model the paper
  uses to map PCM measurements to side-channel fingerprints, and
  :class:`LatentGainMars`, its rank-1 multi-output form;
* :class:`EllipticEnvelope` — the Mahalanobis one-class baseline.
"""

from repro.learn.elliptic import EllipticEnvelope
from repro.learn.latent import LatentGainMars
from repro.learn.mars import MarsRegression
from repro.learn.ocsvm import OneClassSvm

__all__ = [
    "OneClassSvm",
    "MarsRegression",
    "LatentGainMars",
    "EllipticEnvelope",
]
