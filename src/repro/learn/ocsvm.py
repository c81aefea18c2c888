"""One-class support vector machine (Schölkopf's ν-formulation).

The trusted-region boundaries B1..B5 of the paper are all one-class SVMs
trained on (synthetic) golden fingerprint populations.  The dual problem is

    minimize    0.5 * alpha' K alpha
    subject to  0 <= alpha_i <= 1 / (nu * n),    sum_i alpha_i = 1

and the decision function is  f(x) = sum_i alpha_i k(x_i, x) - rho, with a
device declared *inside* the trusted region when f(x) >= 0.

The dual is solved by sequential minimal optimization: at optimality
(Kα)_i >= rho for alpha_i = 0, (Kα)_i <= rho for alpha_i = C, and
(Kα)_i = rho in between.  Each iteration pairs the most violating "up"
coordinate i with the "down" coordinate j of largest second-order gain
(libsvm's WSS2) and transfers weight between them in closed form.  Only
coordinates with alpha > 0 can move down, and they are few (about the
support vectors), so they are kept as an ascending index array that changes
only when a coordinate enters or leaves the set: the stopping test and the
choice of j scan it alone, while the choice of i and the gradient update
run over all n.  The result is bit for bit that of scanning all n with the
others masked out (``tests.oracles.FullScanOneClassSvm``).  Kernel
rows are computed on demand and kept for the rest of the fit, so the n x n
Gram matrix is never built: SMO touches only the rows of the coordinates it
selects.  A fit's optimality is judged, not assumed: the KKT residual at
exit is kept as ``kkt_residual_`` and a fit that stops above ``tol`` logs a
warning.

Inference scores a batch in row blocks of about ``_BLOCK_ENTRIES`` kernel
entries (256 KiB, sized to L2) and gives the bits of the training path's
distance and exp arithmetic in nine passes over each block: the GEMM against
the support vectors times 2 (exact, so it equals ``2 * (x @ s.T)``), adding
the squared norms, subtracting, scaling by ``-gamma``, marking the tail, one
clip to ``[-_UNDERFLOW_CUT, 0]``, ``np.exp``, zeroing the tail and one small
``block @ alpha`` product, all on the calling thread.  The clip replaces the
distance floor at 0 (a rounding-negative distance gives
``exp(0) = exp(-0) = 1`` either way) and the floor at the cut.  Kernel
entries with ``gamma * ||x - s||^2 >= _UNDERFLOW_CUT`` are set to exactly 0
instead of being passed to ``np.exp``: they are below 1e-304, so with
``sum(alpha) = 1`` a score moves by at most 1e-304, while ``np.exp`` leaves
its SIMD path near -708 and spends 15-170 ns per entry on results that round
to 0 or are subnormal.
Devices from another lot lie far from the support vectors and hit that tail
for many of their entries.
"""

from __future__ import annotations

import logging
from typing import Optional

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.stats.kernels import median_heuristic_gamma_strided, rbf_from_sq_dists
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_2d, check_probability

_log = logging.getLogger("repro.ocsvm")

#: Numerical slack of the dual solution.  The dual is only solved to
#: ``tol`` (1e-6), so distinctions at this scale carry no information: dual
#: weights below it are treated as zero when extracting support vectors.
BOUNDARY_TOL = 1e-12

#: Floor on the pair curvature ``a_ij`` in second-order working-set
#: selection (libsvm's ``TAU``): near-duplicate points have ``a_ij ~ 0``.
_MIN_CURVATURE = 1e-12

#: Kernel entries per inference block: 256 KiB fits L2 and keeps the GEMM unthreaded.
_BLOCK_ENTRIES = 32_768

#: gamma * ||x - s||^2 from which a kernel entry is 0: e^-700 < 1e-304; np.exp slows past -708.
_UNDERFLOW_CUT = 700.0


def _sq_dists_against(points: np.ndarray, anchors: np.ndarray,
                      anchor_sq_norms: np.ndarray) -> np.ndarray:
    """Squared distances between ``points`` and ``anchors``.

    ``anchor_sq_norms`` is the ``(1, m)`` row of the anchors' squared norms,
    computed once by the caller.  The arithmetic mirrors
    :func:`~repro.stats.kernels.pairwise_sq_dists` operation for operation.
    """
    x_norm = np.sum(points**2, axis=1)[:, None]
    prod = points @ anchors.T
    prod *= 2.0
    sq = x_norm + anchor_sq_norms
    np.subtract(sq, prod, out=sq)
    return np.maximum(sq, 0.0, out=sq)


def _rbf_against(points: np.ndarray, anchors: np.ndarray,
                 anchor_sq_norms: np.ndarray, gamma: float) -> np.ndarray:
    """RBF kernel block between ``points`` and ``anchors``, as
    :func:`~repro.stats.kernels.rbf_kernel` computes it."""
    return rbf_from_sq_dists(_sq_dists_against(points, anchors, anchor_sq_norms),
                             gamma)


def _scoring_cache(support: np.ndarray) -> tuple:
    """What scoring needs of the support vectors: their squared norms as a
    ``(1, m)`` row and the support vectors times 2."""
    return np.sum(support**2, axis=1)[None, :], 2.0 * support


class OneClassSvm:
    """ν-one-class SVM with an RBF kernel.

    Parameters
    ----------
    nu:
        Upper bound on the fraction of training outliers and lower bound on
        the fraction of support vectors, in (0, 1].
    gamma:
        RBF kernel coefficient; ``None`` selects the median heuristic.
    tol:
        KKT violation tolerance for the SMO stopping criterion.
    max_iterations:
        SMO iteration cap (each iteration updates one pair).
    max_training_samples:
        Training sets larger than this are subsampled (the 10^5-point KDE
        populations of the paper would otherwise need up to 10^5 kernel
        rows of 10^5 entries).  Subsampling is deterministic given ``seed``.

    After :meth:`fit`, ``kkt_residual_`` is the maximal KKT violation of the
    dual solution and ``converged_`` says whether it is below ``tol`` with
    the iteration cap not reached.
    """

    def __init__(
        self,
        nu: float = 0.05,
        gamma: Optional[float] = None,
        tol: float = 1e-6,
        max_iterations: int = 200_000,
        max_training_samples: int = 2000,
        seed: SeedLike = None,
    ):
        check_probability(nu, "nu")
        if gamma is not None and gamma <= 0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        if max_training_samples <= 1:
            raise ValueError(
                f"max_training_samples must be > 1, got {max_training_samples}"
            )
        self.nu = float(nu)
        self.gamma = gamma
        self.tol = float(tol)
        self.max_iterations = int(max_iterations)
        self.max_training_samples = int(max_training_samples)
        self.seed = seed
        self.support_vectors_: Optional[np.ndarray] = None
        self.dual_coefs_: Optional[np.ndarray] = None
        self.rho_: Optional[float] = None
        self.effective_gamma_: Optional[float] = None
        self.n_iterations_: int = 0
        self.kkt_residual_: Optional[float] = None
        self.converged_: bool = False
        self._scoring: Optional[tuple] = None

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------

    def fit(self, data) -> "OneClassSvm":
        """Learn the trusted boundary from an ``(n, d)`` inlier sample."""
        data = check_2d(data, "data")
        with span("ocsvm.fit", n=int(min(data.shape[0], self.max_training_samples)),
                  nu=self.nu) as fit_span:
            self._fit(data)
            fit_span.set(
                iterations=self.n_iterations_,
                support_vectors=int(self.support_vectors_.shape[0]),
                gamma=self.effective_gamma_,
                kkt_residual=self.kkt_residual_,
                converged=self.converged_,
            )
        if not self.converged_:
            _log.warning(
                "one-class SVM not converged: KKT residual %.3g after %d "
                "iterations (tol %.3g)", self.kkt_residual_, self.n_iterations_,
                self.tol,
            )
        obs_metrics.histogram("ocsvm.iterations").observe(self.n_iterations_)
        obs_metrics.histogram("ocsvm.kkt_residual").observe(self.kkt_residual_)
        obs_metrics.histogram("ocsvm.support_vectors").observe(
            self.support_vectors_.shape[0]
        )
        return self

    def training_indices(self, n_rows: int) -> Optional[np.ndarray]:
        """The rows of an ``n_rows``-row sample that :meth:`fit` trains on.

        ``None`` when the sample is within ``max_training_samples`` (all
        rows); otherwise a fresh draw of ``max_training_samples`` indices
        from ``seed``.  A caller that subsamples with these indices hands
        :meth:`fit` a sample it trains on whole, so the draw is made once
        (a ``Generator`` seed advances with each draw).
        """
        if n_rows <= self.max_training_samples:
            return None
        rng = as_generator(self.seed)
        return rng.choice(n_rows, size=self.max_training_samples, replace=False)

    def _fit(self, data) -> None:
        idx = self.training_indices(data.shape[0])
        if idx is not None:
            data = data[idx]
        n = data.shape[0]
        gamma = self.gamma if self.gamma is not None else median_heuristic_gamma_strided(data)

        # Kernel rows are computed the first time SMO needs them and kept for
        # the rest of the fit; the working sets touch a small fraction of the
        # n rows, so the n x n Gram matrix is never built.
        sq_norms = np.sum(data**2, axis=1)[None, :]
        rows = {}

        def row(k: int) -> np.ndarray:
            # _rbf_against's arithmetic on one row, reading the row's squared
            # norm from sq_norms; gamma was checked by the start block below.
            # The one-row 2-D product keeps _rbf_against's GEMM path, and so
            # its bits.
            cached = rows.get(k)
            if cached is None:
                prod = data[k:k + 1] @ data.T
                prod *= 2.0
                sq = sq_norms[0, k] + sq_norms
                np.subtract(sq, prod, out=sq)
                np.maximum(sq, 0.0, out=sq)
                sq *= -gamma
                cached = rows[k] = np.exp(sq, out=sq)[0]
            return cached

        c_bound = 1.0 / (self.nu * n)
        # libsvm's one-class initialization: fill the first floor(nu * n)
        # coordinates to the box bound (plus a fractional remainder), so the
        # start is already feasible *and* as sparse as the optimum.  The
        # uniform 1/n start needs ~n pair updates just to drain the other
        # n - nu*n coordinates; this one converges in O(#SV) updates.  With
        # nu * n < 1 the scheme would dump all mass on one point — for such
        # tiny populations the uniform start is both safer and cheap anyway.
        full = min(n, int(self.nu * n))
        if full == 0:
            alpha = np.full(n, 1.0 / n)
        else:
            alpha = np.zeros(n)
            alpha[:full] = c_bound
            alpha[full:full + 1] = max(0.0, 1.0 - full * c_bound)
        # (K alpha)_i needs only the kernel columns of the nonzero start
        # coordinates; by symmetry they are the first rows, computed as one
        # block and kept.
        start = n if full == 0 else min(n, full + 1)
        block = _rbf_against(data[:start], data, sq_norms, gamma)
        rows.update(enumerate(block))
        gradient = alpha[:start] @ block

        # Incremental working-set bookkeeping.  The up selection runs over all
        # n coordinates: adding a +inf penalty excludes those pinned at the box
        # bound, and only the two updated coordinates' penalties change per
        # iteration.  The down candidates (alpha > 0) are few — about the
        # support vectors — so they are kept as an ascending index array
        # (the first ``n_down`` entries of ``down``), shifted in place only
        # when a coordinate enters or leaves the set, and the stopping test
        # and the choice of j run over it alone.  Ascending order keeps
        # argmax's first-index tie-break of the full-length scan.
        up_penalty = np.where(alpha >= c_bound - 1e-15, np.inf, 0.0)
        members = np.flatnonzero(alpha > 1e-15)
        n_down = members.size
        down = np.empty(n, dtype=np.intp)
        down[:n_down] = members
        work = np.empty(n)
        col = np.empty(n)

        capped = False
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            np.add(gradient, up_penalty, out=work)
            i = int(work.argmin())
            if work[i] == np.inf:  # no coordinate can move up
                break
            candidates = down[:n_down]
            gradient_down = gradient.take(candidates)
            if gradient_down.max() - gradient[i] < self.tol:  # none can move down
                break
            # Second-order selection of j (WSS2, Fan, Chen & Lin 2005): among
            # the down candidates with positive violation b_j = G_j - G_i,
            # maximize the guaranteed objective decrease b_j^2 / a_ij with
            # a_ij = K_ii + K_jj - 2 K_ij (k(x, x) = 1 for the RBF kernel).
            row_i = row(i)
            curvature = row_i.take(candidates)
            curvature *= -2.0
            curvature += 1.0 + row_i[i]
            np.maximum(curvature, _MIN_CURVATURE, out=curvature)
            gradient_down -= gradient[i]
            np.maximum(gradient_down, 0.0, out=gradient_down)
            gradient_down *= gradient_down
            gradient_down /= curvature
            position = int(gradient_down.argmax())
            j = int(candidates[position])
            row_j = row(j)
            violation = gradient[j] - gradient[i]
            pair_curvature = row_i[i] + row_j[j] - 2.0 * row_i[j]
            if pair_curvature <= 1e-15:
                step = min(c_bound - alpha[i], alpha[j])
            else:
                step = min(violation / pair_curvature, c_bound - alpha[i], alpha[j])
            if step <= 0.0:
                break
            i_enters = alpha[i] <= 1e-15
            alpha[i] += step
            alpha[j] -= step
            # The kernel is symmetric, so rows stand in for columns
            # (contiguous access) in the gradient update.
            np.subtract(row_i, row_j, out=col)
            col *= step
            gradient += col
            up_penalty[i] = np.inf if alpha[i] >= c_bound - 1e-15 else 0.0
            up_penalty[j] = np.inf if alpha[j] >= c_bound - 1e-15 else 0.0
            if alpha[j] <= 1e-15:  # j leaves the down set
                down[position:n_down - 1] = down[position + 1:n_down]
                n_down -= 1
            if i_enters and alpha[i] > 1e-15:  # i joins it
                at = int(down[:n_down].searchsorted(i))
                down[at + 1:n_down + 1] = down[at:n_down]
                down[at] = i
                n_down += 1
        else:
            capped = True
        self._store_solution(data, alpha, gradient, gamma, c_bound, iterations, capped)

    def _store_solution(self, data, alpha, gradient, gamma, c_bound,
                        iterations, capped) -> None:
        """Extract the boundary from a dual solution and judge its optimality.

        ``gradient`` is the solver's ``K alpha``.  The KKT residual is the
        maximal violation ``max G(down) - min G(up)`` over the coordinates
        that can still move; the fit has converged when it is below ``tol``
        and the iteration cap did not stop the solver.
        """
        self.n_iterations_ = iterations

        support = alpha > BOUNDARY_TOL
        self.support_vectors_ = data[support]
        self.dual_coefs_ = alpha[support]
        self.effective_gamma_ = float(gamma)
        self._scoring = _scoring_cache(self.support_vectors_)

        # rho from margin support vectors (0 < alpha < C); fall back to the
        # mean over all support vectors if none sit strictly inside the box.
        margin = support & (alpha < c_bound - 1e-9)
        reference = margin if margin.any() else support
        self.rho_ = float(np.mean(gradient[reference]))

        up = alpha < c_bound - 1e-15
        down = alpha > 1e-15
        residual = 0.0
        if up.any() and down.any():
            residual = max(0.0, float(gradient[down].max() - gradient[up].min()))
        self.kkt_residual_ = residual
        self.converged_ = bool(residual < self.tol and not capped)

    def _check_fitted(self):
        if self.support_vectors_ is None:
            raise RuntimeError("OneClassSvm must be fitted before use")

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------

    def decision_function(self, points) -> np.ndarray:
        """Signed distance-like score; >= 0 means inside the trusted region.

        Scored in row blocks of about ``_BLOCK_ENTRIES`` kernel entries with
        the nine passes of the module docstring: the bits of the training
        path's arithmetic, except that entries with ``gamma * ||x - s||^2 >=
        _UNDERFLOW_CUT`` are exactly 0, which moves a score by at most
        1e-304.
        """
        self._check_fitted()
        points = check_2d(points, "points")
        support = self.support_vectors_
        if points.shape[1] != support.shape[1]:
            raise ValueError(
                f"points have {points.shape[1]} features, SVM was fitted on "
                f"{support.shape[1]}"
            )
        sv_sq_norms, sv_doubled = self._scoring
        x_norms = np.sum(points**2, axis=1)[:, None]
        rows = max(1, _BLOCK_ENTRIES // support.shape[0])
        scores = np.empty(points.shape[0])
        for start in range(0, points.shape[0], rows):
            stop = start + rows
            # The transposed view: a contiguous copy of it takes another
            # BLAS path, which moves one-row scores in the last bit.
            prod = points[start:stop] @ sv_doubled.T
            block = x_norms[start:stop] + sv_sq_norms
            np.subtract(block, prod, out=block)
            block *= -self.effective_gamma_
            cut = block <= -_UNDERFLOW_CUT
            np.clip(block, -_UNDERFLOW_CUT, 0.0, out=block)
            np.exp(block, out=block)
            np.copyto(block, 0.0, where=cut)
            scores[start:stop] = block @ self.dual_coefs_
        scores -= self.rho_
        return scores

    # ------------------------------------------------------------------
    # artifact-cache state
    # ------------------------------------------------------------------

    def to_state(self) -> dict:
        """Codec state of the fitted boundary (see :mod:`repro.cache.codec`).

        The seed is deliberately dropped: it only drives training-set
        subsampling, which the stored support vectors already reflect, and
        live seeds may be ``Generator`` objects with no stable encoding.
        """
        self._check_fitted()
        return {
            "params": {
                "nu": self.nu,
                "gamma": self.gamma,
                "tol": self.tol,
                "max_iterations": self.max_iterations,
                "max_training_samples": self.max_training_samples,
            },
            "support_vectors": self.support_vectors_,
            "dual_coefs": self.dual_coefs_,
            "rho": float(self.rho_),
            "effective_gamma": float(self.effective_gamma_),
            "n_iterations": int(self.n_iterations_),
        }

    @classmethod
    def from_state(cls, state: dict) -> "OneClassSvm":
        """Rebuild a fitted boundary from :meth:`to_state` output."""
        model = cls(**state["params"])
        model.support_vectors_ = np.asarray(state["support_vectors"], dtype=float)
        model.dual_coefs_ = np.asarray(state["dual_coefs"], dtype=float)
        model.rho_ = float(state["rho"])
        model.effective_gamma_ = float(state["effective_gamma"])
        model.n_iterations_ = int(state["n_iterations"])
        model._scoring = _scoring_cache(model.support_vectors_)
        return model
