"""Kernel Mean Matching (paper Section 2.4; Gretton et al. 2009).

When the PCM distribution of the fabricated devices differs from the PCM
distribution the regression functions were trained on (covariate shift),
KMM re-weights the training samples so that the weighted training mean
matches the test mean in a reproducing-kernel Hilbert space:

    minimize   || (1/n_tr) sum_i beta_i Phi(x_i^tr) - (1/n_te) sum_j Phi(x_j^te) ||^2
    subject to beta_i in [0, B],   | (1/n_tr) sum_i beta_i - 1 | <= eps

which expands to the QP of the paper's Eq. (4):

    min_beta  0.5 beta' K beta - kappa' beta,
    K_ij = k(x_i^tr, x_j^tr),   kappa_i = (n_tr / n_te) sum_j k(x_i^tr, x_j^te).

:func:`solve_kmm_qp` solves it exactly with a primal active-set method.
"""

from __future__ import annotations

import logging
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.stats.kernels import (
    median_heuristic_gamma_from_sq,
    pairwise_sq_dists,
    rbf_from_sq_dists,
)
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_2d

_log = logging.getLogger("repro.kmm")

#: Active-set iteration cap; the display lot needs 18 iterations and no
#: KMM instance of up to 150 weights seen in testing needed more than ~400.
MAX_ITERATIONS = 1000
#: Optimality tolerance on the KKT residual, relative to max(1, |kappa|_inf).
KKT_TOLERANCE = 1e-9


def _active_set(K, c, B, beta, free, total, max_iterations, tol):
    """Primal active-set iterations for ``min 0.5 b'Kb - c'b`` on ``[0, B]^n``.

    ``beta`` is a feasible start and ``free`` marks the variables not held
    at a bound; both are updated in place.  With ``total`` set, ``sum(beta)``
    is also held at ``total`` (``beta`` must already satisfy it) through the
    scalar multiplier ``nu``.  Each iteration minimizes over the free
    variables with one LU solve of the free block (the target and, with
    ``total`` set, the all-ones direction as two right-hand sides) and walks
    towards that minimum.  A bound that blocks the walk joins the held set.
    A full step reaches the free-subspace minimum, and the bound with the
    most negative multiplier is then freed; when none is below ``-tol`` the
    point is optimal.  Deciding optimality by the full step, not by a
    numerically zero step, keeps the method from cycling on the nearly
    singular Gram matrices KMM produces.  LU, unlike Cholesky, does not
    test positive definiteness; ``K`` is a Gram matrix plus a ridge, and
    :class:`KernelMeanMatcher` judges every solution by its KKT residual.

    Returns ``(nu, iterations, optimal)``.
    """
    nu = 0.0
    for iteration in range(1, max_iterations + 1):
        idx = np.flatnonzero(free)
        if idx.size:
            held = np.where(free, 0.0, beta)
            rhs = c[idx] - K[idx] @ held
            if total is None:
                target = np.linalg.solve(K[np.ix_(idx, idx)], rhs)
            else:
                target, direction = np.linalg.solve(
                    K[np.ix_(idx, idx)], np.column_stack([rhs, np.ones(idx.size)])
                ).T
                nu = (total - held.sum() - target.sum()) / direction.sum()
                target = target + nu * direction
            step = target - beta[idx]
            with np.errstate(divide="ignore", invalid="ignore"):
                room = np.where(step < 0.0, -beta[idx] / step,
                                np.where(step > 0.0, (B - beta[idx]) / step, np.inf))
            block = int(np.argmin(room))
            if room[block] < 1.0:
                beta[idx] += room[block] * step
                beta[idx[block]] = 0.0 if step[block] < 0.0 else B
                free[idx[block]] = False
                continue
            beta[idx] = target
        # Free-subspace minimum: a held bound with a negative multiplier
        # (gradient pointing into the box) is released.
        gradient = K @ beta - c - nu
        multiplier = np.where(beta == B, -gradient, gradient)
        multiplier[free] = np.inf
        worst = int(np.argmin(multiplier))
        if multiplier[worst] >= -tol:
            return nu, iteration, True
        free[worst] = True
    return nu, max_iterations, False


def solve_kmm_qp(K, kappa, B: float, lower: float,
                 upper: float) -> Tuple[np.ndarray, float, int, bool]:
    """Exact solution of ``min 0.5 b'Kb - kappa'b`` over ``0 <= b <= B``
    with ``lower <= sum(b) <= upper``.

    ``K`` must be symmetric positive definite.  The box problem is solved
    first, from ``b = 0``: KMM optima are sparse (most weights sit at 0), so
    the active set grows from the bottom in about two iterations per
    non-zero weight.  If its sum leaves the slab, strict convexity puts the
    optimum on the violated side, and the solver continues with
    ``sum(b)`` held there, restarting from the box solution moved along a
    straight line towards ``b = 0`` or ``b = B`` until its sum fits.

    Returns ``(beta, nu, iterations, optimal)``: ``nu`` is the slab
    multiplier in the Lagrangian gradient ``K b - kappa - nu`` (zero when
    the slab does not bind) and ``optimal`` is False only when the
    iteration cap stopped the solver.
    """
    n = kappa.shape[0]
    if n * B < lower:
        raise ValueError(
            f"infeasible KMM problem: {n} weights of at most B={B} cannot "
            f"sum to {lower}"
        )
    # Release bounds down to a tenth of the convergence tolerance, so an
    # optimal exit always passes the KKT check in KernelMeanMatcher.
    tol = 0.1 * KKT_TOLERANCE * max(1.0, float(np.abs(kappa).max()))
    beta = np.zeros(n)
    free = np.zeros(n, dtype=bool)
    nu, iterations, optimal = _active_set(
        K, kappa, B, beta, free, None, MAX_ITERATIONS, tol
    )
    total = beta.sum()
    if optimal and not lower <= total <= upper:
        bound, corner = (upper, 0.0) if total > upper else (lower, B)
        beta += (bound - total) / (n * corner - total) * (corner - beta)
        free = (beta > 0.0) & (beta < B)
        nu, more, optimal = _active_set(
            K, kappa, B, beta, free, bound, MAX_ITERATIONS - iterations, tol
        )
        iterations += more
    return beta, nu, iterations, optimal


def kkt_residual(K, kappa, beta, nu: float, B: float,
                 lower: float, upper: float) -> float:
    """KKT residual of a candidate KMM solution (zero at the optimum).

    The larger of the projected-gradient norm of the Lagrangian gradient
    ``K beta - kappa - nu`` on the box ``[0, B]`` and the slab's
    complementary-slackness violation: ``nu > 0`` needs ``sum(beta)`` at
    ``lower``, ``nu < 0`` at ``upper``.
    """
    gradient = K @ beta - kappa - nu
    projected = beta - np.clip(beta - gradient, 0.0, B)
    total = float(beta.sum())
    slack = total - lower if nu > 0 else upper - total if nu < 0 else 0.0
    return max(float(np.abs(projected).max()), abs(nu) * abs(slack) / beta.size)


class KmmProblem:
    """Precomputed geometry of one (train, test) matching instance.

    The expensive part of KMM setup is the pooled pairwise squared-distance
    matrix — O((n_tr + n_te)^2 d) — which does not depend on the kernel
    bandwidth.  Building a :class:`KmmProblem` hoists that computation so a
    bandwidth sweep (and the median heuristic) reuses it; each candidate
    gamma then only pays one elementwise ``exp``.  Kernels are materialized
    into fresh buffers with exactly the operations the one-shot path uses,
    so weights computed through a problem are bitwise identical to
    :meth:`KernelMeanMatcher.fit` on the same arrays.
    """

    def __init__(self, train, test):
        train = check_2d(train, "train")
        test = check_2d(test, "test")
        if train.shape[1] != test.shape[1]:
            raise ValueError(
                f"train and test must share features, got {train.shape[1]} "
                f"and {test.shape[1]}"
            )
        self.n_train = int(train.shape[0])
        self.n_test = int(test.shape[0])
        pooled = np.vstack([train, test])
        #: Pooled squared distances; kept pristine (kernels use copies).
        self.sq_dists_ = pairwise_sq_dists(pooled, pooled)

    def median_gamma(self) -> float:
        """The median-heuristic bandwidth of the pooled population."""
        return median_heuristic_gamma_from_sq(self.sq_dists_)

    def kernel(self, gamma: float) -> np.ndarray:
        """The pooled RBF kernel at ``gamma`` (a fresh buffer per call)."""
        return rbf_from_sq_dists(self.sq_dists_.copy(), gamma)

    def sweep(self, gammas: Sequence[float], B: float = 10.0,
              eps: Optional[float] = None) -> List["KernelMeanMatcher"]:
        """Fit one matcher per candidate bandwidth, reusing the distances.

        Returns the fitted matchers in ``gammas`` order; compare their
        ``rkhs_residual_`` / :meth:`KernelMeanMatcher.effective_sample_size`
        to choose a bandwidth.  Each arm is bitwise identical to a one-shot
        :meth:`KernelMeanMatcher.fit` at its gamma.
        """
        return [
            KernelMeanMatcher(B=B, eps=eps, gamma=float(g)).fit_problem(self)
            for g in gammas
        ]


class KernelMeanMatcher:
    """Covariate-shift correction by kernel mean matching.

    Parameters
    ----------
    B:
        Upper bound on individual importance weights (paper's tuning
        parameter ``B``).  Large values let the matcher concentrate mass on
        few samples; the default of 10 is the detector's calibration bound
        (Gretton et al. use 1000).
    eps:
        Slack on the mean of the weights (paper's ``eps``).  ``None``
        selects the common heuristic ``(sqrt(n_tr) - 1) / sqrt(n_tr)``.
    gamma:
        RBF kernel width; ``None`` selects the median heuristic computed on
        the pooled data.
    """

    def __init__(self, B: float = 10.0, eps: Optional[float] = None,
                 gamma: Optional[float] = None):
        if B <= 0:
            raise ValueError(f"B must be positive, got {B}")
        if eps is not None and eps < 0:
            raise ValueError(f"eps must be non-negative, got {eps}")
        self.B = float(B)
        self.eps = eps
        self.gamma = gamma
        self.weights_: Optional[np.ndarray] = None
        self.converged_: bool = False
        self.rkhs_residual_: Optional[float] = None
        self.kkt_residual_: Optional[float] = None
        self.qp_iterations_: int = 0

    def fit(self, train, test) -> "KernelMeanMatcher":
        """Compute importance weights for ``train`` so it matches ``test``.

        Both arguments are ``(n, d)`` sample matrices over the same features
        (PCM measurements, in the paper's use).  Sweeping several bandwidths
        over the same pair?  Build one :class:`KmmProblem` and use
        :meth:`fit_problem` / :meth:`KmmProblem.sweep` instead — same
        weights, one distance pass.
        """
        return self.fit_problem(KmmProblem(train, test))

    def fit_problem(self, problem: KmmProblem) -> "KernelMeanMatcher":
        """Fit on a prebuilt :class:`KmmProblem` (distances already pooled).

        ``converged_`` is judged from the solution, not reported by the
        solver: it holds when the KKT residual (:func:`kkt_residual`, kept
        as ``kkt_residual_``) is at most ``KKT_TOLERANCE * max(1,
        |kappa|_inf)``, the weights satisfy the slab and the iteration cap
        was not hit.  ``qp_iterations_`` counts active-set iterations.
        """
        n_tr = problem.n_train
        n_te = problem.n_test

        with span("kmm.fit", n_train=n_tr, n_test=n_te) as fit_span:
            # The pooled squared distances serve the median-heuristic gamma,
            # the train Gram matrix and the train-test cross kernel.
            gamma = self.gamma
            if gamma is None:
                gamma = problem.median_gamma()
            pooled_kernel = problem.kernel(gamma)

            K = pooled_kernel[:n_tr, :n_tr]
            test_kernel_sum = float(pooled_kernel[n_tr:, n_tr:].sum())
            # Regularize the Gram diagonal slightly: keeps the QP strictly convex.
            K = K + 1e-8 * np.eye(n_tr)
            kappa = (n_tr / n_te) * pooled_kernel[:n_tr, n_tr:].sum(axis=1)

            eps = self.eps
            if eps is None:
                eps = (np.sqrt(n_tr) - 1.0) / np.sqrt(n_tr)
            # | mean(beta) - 1 | <= eps  as bounds on sum(beta).
            lower, upper = n_tr * (1.0 - eps), n_tr * (1.0 + eps)

            beta, nu, iterations, optimal = solve_kmm_qp(
                K, kappa, self.B, lower, upper
            )
            self.weights_ = beta
            self.qp_iterations_ = iterations
            self.kkt_residual_ = kkt_residual(K, kappa, beta, nu, self.B,
                                              lower, upper)
            slab_ok = abs(beta.mean() - 1.0) <= eps + 1e-12
            self.converged_ = bool(
                optimal and slab_ok and self.kkt_residual_
                <= KKT_TOLERANCE * max(1.0, float(np.abs(kappa).max()))
            )
            self.effective_gamma_ = float(gamma)
            # The achieved RKHS mean discrepancy (the quantity KMM minimizes):
            # ||(1/n_tr) sum beta_i phi(x_i) - (1/n_te) sum phi(x_j)||.  The QP
            # objective is 0.5 b'Kb - kappa'b, so the residual reconstructs as
            # sqrt(2*objective/n_tr^2 + sum K_test / n_te^2).
            objective = 0.5 * beta @ K @ beta - kappa @ beta
            residual_sq = 2.0 * objective / n_tr**2 + test_kernel_sum / n_te**2
            self.rkhs_residual_ = float(np.sqrt(max(0.0, residual_sq)))
            fit_span.set(converged=self.converged_, gamma=self.effective_gamma_,
                         residual=self.rkhs_residual_,
                         kkt_residual=self.kkt_residual_,
                         qp_iterations=self.qp_iterations_)
        if not self.converged_:
            _log.warning(
                "KMM solution not optimal: KKT residual %.3g after %d "
                "iterations", self.kkt_residual_, self.qp_iterations_,
            )
        obs_metrics.gauge("kmm.converged").set(1.0 if self.converged_ else 0.0)
        obs_metrics.histogram("kmm.rkhs_residual").observe(self.rkhs_residual_)
        obs_metrics.histogram("kmm.kkt_residual").observe(self.kkt_residual_)
        obs_metrics.histogram("kmm.effective_sample_size").observe(
            self.effective_sample_size()
        )
        return self

    @property
    def weights(self) -> np.ndarray:
        """The fitted importance weights (one per training sample)."""
        if self.weights_ is None:
            raise RuntimeError("KernelMeanMatcher must be fitted before reading weights")
        return self.weights_

    def effective_sample_size(self) -> float:
        """Kish effective sample size of the weights — degeneracy diagnostic."""
        w = self.weights
        total = w.sum()
        if total <= 0:
            return 0.0
        return float(total**2 / np.sum(w**2))


def importance_resample(samples, weights, size: int, rng: SeedLike = None) -> np.ndarray:
    """Resample ``size`` rows of ``samples`` with probability ∝ ``weights``.

    Used to turn KMM importance weights into an unweighted population (the
    paper's "kernel mean shifted" PCM set ``m''_p``) that downstream code —
    regression prediction, KDE — can treat uniformly.
    """
    samples = check_2d(samples, "samples")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (samples.shape[0],):
        raise ValueError(
            f"weights shape {weights.shape} must match sample count {samples.shape[0]}"
        )
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    total = weights.sum()
    if total <= 0:
        raise ValueError("weights sum to zero; nothing to resample")
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    gen = as_generator(rng)
    idx = gen.choice(samples.shape[0], size=size, replace=True, p=weights / total)
    return samples[idx]
