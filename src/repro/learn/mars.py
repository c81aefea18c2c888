"""Multivariate Adaptive Regression Splines (Friedman 1991).

The paper trains one MARS model per side-channel fingerprint to learn the
non-linear map ``g_j : m_p -> m_j`` from PCM measurements to fingerprints on
Monte Carlo simulation data.

The implementation follows the classic two-pass scheme:

* **forward pass** — greedily add mirrored hinge pairs
  ``(max(0, x_v - t), max(0, t - x_v))`` (optionally multiplied into an
  existing basis function for interactions) that most reduce the residual
  sum of squares;
* **backward pass** — prune basis functions one at a time, keeping the
  subset with the best Generalized Cross-Validation score
  ``GCV = (SSE / n) / (1 - C(M)/n)^2`` with effective parameter count
  ``C(M) = M + penalty * (M - 1) / 2``.

Hinge functions extrapolate linearly outside the training range — essential
here, because the regression is applied to silicon PCM values that sit in
the tail (or beyond) of the simulated training distribution.

Candidates in the forward pass are scored through incremental normal
equations rather than one least-squares solve each: the current design's
Gram matrix is eigendecomposed once per forward step (its range space
stands in for the rank-deficient design — revisiting a variable makes the
mirrored pair linearly dependent on the earlier one), every candidate hinge
pair's cross products are obtained from prefix/suffix sums over knot-sorted
data in O(n m) per (parent, variable), and each knot is scored through a
rank-adaptive 2x2 Schur complement.  The mirrored hinges have disjoint
supports, so their exact inner product is zero by construction.  The
winning candidate is re-scored with ``np.linalg.lstsq`` before acceptance,
so the accepted SSE — and everything downstream of it — is bitwise what a
search solving every candidate by ``lstsq`` accepts whenever both select
the same knot (they rank candidates identically up to last-ulp ties; the
test suite keeps that per-candidate search as its oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.utils.validation import check_1d, check_2d, check_matching_rows

#: Relative rank cutoff of the forward search: Gram eigenvalues and Schur
#: complements below this fraction of their natural scale are treated as
#: exact zeros (directions already inside the current column span).  Sits
#: far above accumulated rounding (~1e-13) and far below any genuinely
#: informative direction.
_SCHUR_RTOL = 1e-10


@dataclass(frozen=True)
class HingeTerm:
    """One hinge factor: ``max(0, sign * (x[variable] - knot))``."""

    variable: int
    knot: float
    sign: int  # +1 -> max(0, x - t);  -1 -> max(0, t - x)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        value = self.sign * (x[:, self.variable] - self.knot)
        return np.maximum(0.0, value)


@dataclass(frozen=True)
class BasisFunction:
    """A product of hinge factors (the constant basis has no factors)."""

    terms: Tuple[HingeTerm, ...] = ()

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        out = np.ones(x.shape[0])
        for term in self.terms:
            out = out * term.evaluate(x)
        return out

    def degree(self) -> int:
        return len(self.terms)

    def uses_variable(self, variable: int) -> bool:
        return any(term.variable == variable for term in self.terms)


def _gcv(sse: float, n: int, n_basis: int, penalty: float) -> float:
    effective = n_basis + penalty * (n_basis - 1) / 2.0
    denom = 1.0 - effective / n
    if denom <= 0:
        return np.inf
    return (sse / n) / denom**2


def _prefix_sums(values: np.ndarray) -> np.ndarray:
    """``P`` with ``P[k] = sum(values[:k])`` (leading zero row included)."""
    out = np.zeros((values.shape[0] + 1,) + values.shape[1:])
    np.cumsum(values, axis=0, out=out[1:])
    return out


class MarsRegression:
    """MARS regressor for one scalar target.

    Parameters
    ----------
    max_terms:
        Cap on basis functions (including the constant) after the forward
        pass.
    max_degree:
        Maximum interaction degree (1 = additive model, the paper's setting
        for its 1-dimensional PCM input).
    penalty:
        GCV penalty per knot (Friedman recommends 2-3; 3 for interactions).
    n_knot_candidates:
        Number of candidate knots per variable (quantiles of the training
        data).
    """

    #: Constructor parameters earlier versions persisted that no longer
    #: exist (the forward-pass engine switch); :meth:`from_state` drops them.
    _RETIRED_PARAMS = frozenset({"forward"})

    def __init__(self, max_terms: int = 21, max_degree: int = 1,
                 penalty: float = 3.0, n_knot_candidates: int = 20):
        if max_terms < 1:
            raise ValueError(f"max_terms must be >= 1, got {max_terms}")
        if max_degree < 1:
            raise ValueError(f"max_degree must be >= 1, got {max_degree}")
        if penalty < 0:
            raise ValueError(f"penalty must be non-negative, got {penalty}")
        if n_knot_candidates < 1:
            raise ValueError(f"n_knot_candidates must be >= 1, got {n_knot_candidates}")
        self.max_terms = int(max_terms)
        self.max_degree = int(max_degree)
        self.penalty = float(penalty)
        self.n_knot_candidates = int(n_knot_candidates)
        self.basis_: Optional[List[BasisFunction]] = None
        self.coef_: Optional[np.ndarray] = None
        self.gcv_: Optional[float] = None

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------

    def fit(self, x, y) -> "MarsRegression":
        """Fit the spline model on ``(n, d)`` inputs and ``(n,)`` targets."""
        x = check_2d(x, "x")
        y = check_1d(y, "y")
        check_matching_rows(x, y[:, None], "x", "y")
        n, d = x.shape

        with span("mars.fit", n=n, d=d) as fit_span:
            basis, design, _ = self._forward_pass(x, y)

            # ---------------- backward pass ----------------
            best_basis, best_coef, best_gcv = self._prune(design, y, basis)
            self.basis_ = best_basis
            self.coef_ = best_coef
            self.gcv_ = best_gcv
            fit_span.set(forward_terms=len(basis), retained_terms=len(best_basis),
                         gcv=float(best_gcv))
        obs_metrics.histogram("mars.basis_functions").observe(len(self.basis_))
        obs_metrics.histogram("mars.gcv").observe(float(self.gcv_))
        return self

    def _forward_pass(self, x, y) -> Tuple[List[BasisFunction], np.ndarray, float]:
        """Greedy hinge-pair growth; returns (basis, design, final SSE)."""
        n = x.shape[0]
        knots = self._candidate_knots(x)
        orders = [np.argsort(x[:, v], kind="stable") for v in range(x.shape[1])]
        basis: List[BasisFunction] = [BasisFunction()]
        design = np.ones((n, 1))

        current_sse = self._fit_sse(design, y)[1]
        while len(basis) + 2 <= self.max_terms:
            best = self._best_forward_pair(x, y, basis, design, knots,
                                           current_sse, orders)
            if best is None:
                break
            pair, columns, sse = best
            basis.extend(pair)
            design = np.hstack([design, columns])
            current_sse = sse
        return basis, design, current_sse

    def _candidate_knots(self, x: np.ndarray) -> List[np.ndarray]:
        knots = []
        for v in range(x.shape[1]):
            values = np.unique(x[:, v])
            if values.size <= self.n_knot_candidates:
                # Interior values only: a knot at the extremes creates a
                # zero/duplicate column.
                candidates = values[1:-1] if values.size > 2 else values
            else:
                quantiles = np.linspace(0.05, 0.95, self.n_knot_candidates)
                candidates = np.quantile(values, quantiles)
            knots.append(np.unique(candidates))
        return knots

    @staticmethod
    def _fit_sse(design: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, float]:
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        residual = y - design @ coef
        return coef, float(residual @ residual)

    def _best_forward_pair(self, x, y, basis, design, knots, current_sse,
                           orders):
        """Best (parent basis, variable, knot) hinge pair, or ``None``.

        One Gram eigendecomposition per call, then per-knot Schur scores.

        For a fixed (parent ``z``, variable ``v``), every candidate knot's
        cross products with the design, the target and itself are affine in
        ``t`` with coefficients given by prefix/suffix sums over the data
        sorted by ``x_v`` — e.g. ``design' u_t = S_dzx(t) - t S_dz(t)`` with
        ``S(t)`` a suffix sum over ``x_i > t``.  One pass of cumulative sums
        therefore scores all knots of the pair at once; each knot then costs
        two small matrix-vector products and a 2x2 system instead of a
        fresh SVD.
        """
        threshold = current_sse - 1e-12 * max(1.0, abs(current_sse))
        # The design is rank-deficient by construction once a variable is
        # revisited: for mirrored pairs ``u_t - d_t = z * (x_v - t)``, which
        # an earlier pair on the same (parent, variable) already spans.  A
        # per-candidate lstsq absorbs that through SVD truncation; here the
        # Gram matrix is eigendecomposed once per forward step and the
        # projection uses its numerical range space (a pseudo-inverse).
        # Column 0 is the constant basis, so the top eigenvalue is positive
        # and ``keep`` is never empty.
        eigvals, eigvecs = np.linalg.eigh(design.T @ design)
        top = max(float(eigvals[-1]), 0.0)
        keep = eigvals > _SCHUR_RTOL * max(top, 1e-300)
        whiten = eigvecs[:, keep] / np.sqrt(eigvals[keep])  # (m, r)
        p = whiten.T @ (design.T @ y)
        q0 = float(y @ y) - float(p @ p)

        best = None
        best_sse = threshold
        for parent_idx, parent in enumerate(basis):
            if parent.degree() + 1 > self.max_degree:
                continue
            z = design[:, parent_idx]
            for v in range(x.shape[1]):
                if parent.uses_variable(v):
                    continue
                tvals = knots[v]
                if tvals.size == 0:
                    continue
                idx = orders[v]
                xs = x[idx, v]
                zs = z[idx]
                ds = design[idx]
                ys = y[idx]

                weighted = ds * zs[:, None]
                zz = zs * zs
                zy = zs * ys
                p_dz = _prefix_sums(weighted)
                p_dzx = _prefix_sums(weighted * xs[:, None])
                p_zz = _prefix_sums(zz)
                p_zzx = _prefix_sums(zz * xs)
                p_zzxx = _prefix_sums(zz * xs * xs)
                p_zy = _prefix_sums(zy)
                p_zyx = _prefix_sums(zy * xs)
                p_nz = _prefix_sums((zs != 0.0).astype(float))

                # Strict supports: up lives on x > t, down on x < t.
                hi = np.searchsorted(xs, tvals, side="right")
                lo = np.searchsorted(xs, tvals, side="left")

                a_all = (p_dzx[-1] - p_dzx[hi]) - tvals[:, None] * (p_dz[-1] - p_dz[hi])
                uu = ((p_zzxx[-1] - p_zzxx[hi])
                      - 2.0 * tvals * (p_zzx[-1] - p_zzx[hi])
                      + tvals**2 * (p_zz[-1] - p_zz[hi]))
                uy = (p_zyx[-1] - p_zyx[hi]) - tvals * (p_zy[-1] - p_zy[hi])

                b_all = tvals[:, None] * p_dz[lo] - p_dzx[lo]
                dd = (tvals**2 * p_zz[lo]
                      - 2.0 * tvals * p_zzx[lo]
                      + p_zzxx[lo])
                dy = tvals * p_zy[lo] - p_zyx[lo]

                valid = ((p_nz[-1] - p_nz[hi]) > 0) & (p_nz[lo] > 0)
                if not valid.any():
                    continue

                au = whiten.T @ a_all.T  # (r, K)
                ad = whiten.T @ b_all.T
                s00 = uu - np.einsum("ij,ij->j", au, au)
                s11 = dd - np.einsum("ij,ij->j", ad, ad)
                s01 = -np.einsum("ij,ij->j", au, ad)  # u'd = 0 exactly
                r0 = uy - au.T @ p
                r1 = dy - ad.T @ p

                # How many dimensions does the pair truly add?  A revisited
                # variable contributes exactly one (the second hinge is a
                # linear combination of the first plus existing columns);
                # duplicated knots contribute none.  Score each candidate by
                # the rank its Schur complement actually supports.
                u_new = s00 > _SCHUR_RTOL * np.maximum(uu, 1e-300)
                d_new = s11 > _SCHUR_RTOL * np.maximum(dd, 1e-300)
                improvement = np.zeros_like(tvals)
                only_u = valid & u_new & ~d_new
                only_d = valid & d_new & ~u_new
                both = valid & u_new & d_new
                improvement[only_u] = r0[only_u] ** 2 / s00[only_u]
                improvement[only_d] = r1[only_d] ** 2 / s11[only_d]
                if both.any():
                    ratio = s01[both] / s00[both]
                    schur2 = s11[both] - s01[both] * ratio
                    rank1_u = r0[both] ** 2 / s00[both]
                    rank2 = rank1_u + (r1[both] - ratio * r0[both]) ** 2 \
                        / np.maximum(schur2, 1e-300)
                    deep = schur2 > _SCHUR_RTOL * np.maximum(dd[both], 1e-300)
                    rank1_d = r1[both] ** 2 / s11[both]
                    improvement[both] = np.where(
                        deep, rank2, np.maximum(rank1_u, rank1_d)
                    )
                sse = np.where(valid, q0 - improvement, np.inf)

                k = int(np.argmin(sse))
                if sse[k] < best_sse:
                    best_sse = float(sse[k])
                    best = (parent_idx, parent, v, float(tvals[k]), z)

        if best is None:
            return None
        parent_idx, parent, v, t, z = best
        up = np.maximum(0.0, x[:, v] - t) * z
        down = np.maximum(0.0, t - x[:, v]) * z
        candidate = np.hstack([design, up[:, None], down[:, None]])
        # Re-score the winner with lstsq: the accepted SSE (and every
        # quantity derived from it) is then identical to a per-candidate
        # lstsq search's, not merely close.
        _, sse = self._fit_sse(candidate, y)
        if sse >= threshold:
            return None
        pair = (
            BasisFunction(parent.terms + (HingeTerm(v, t, +1),)),
            BasisFunction(parent.terms + (HingeTerm(v, t, -1),)),
        )
        return pair, np.column_stack([up, down]), sse

    def _prune(self, design, y, basis):
        """Backward deletion keeping the GCV-best subset (constant stays)."""
        n = design.shape[0]
        active = list(range(len(basis)))
        coef, sse = self._fit_sse(design[:, active], y)
        best_gcv = _gcv(sse, n, len(active), self.penalty)
        best_state = (list(active), coef)

        while len(active) > 1:
            trial_best = None
            for position in range(1, len(active)):  # never drop the constant
                trial = active[:position] + active[position + 1:]
                coef_t, sse_t = self._fit_sse(design[:, trial], y)
                gcv_t = _gcv(sse_t, n, len(trial), self.penalty)
                if trial_best is None or gcv_t < trial_best[0]:
                    trial_best = (gcv_t, trial, coef_t)
            gcv_t, trial, coef_t = trial_best
            active = trial
            if gcv_t < best_gcv:
                best_gcv = gcv_t
                best_state = (list(active), coef_t)

        indices, coef = best_state
        return [basis[i] for i in indices], coef, best_gcv

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------

    def _check_fitted(self):
        if self.basis_ is None:
            raise RuntimeError("MarsRegression must be fitted before use")

    def predict(self, x) -> np.ndarray:
        """Predict targets for ``(n, d)`` inputs."""
        self._check_fitted()
        x = check_2d(x, "x")
        design = np.column_stack([b.evaluate(x) for b in self.basis_])
        return design @ self.coef_

    # ------------------------------------------------------------------
    # artifact-cache state
    # ------------------------------------------------------------------

    def to_state(self) -> dict:
        """Codec state of a fitted model (see :mod:`repro.cache.codec`)."""
        self._check_fitted()
        return {
            "params": {
                "max_terms": self.max_terms,
                "max_degree": self.max_degree,
                "penalty": self.penalty,
                "n_knot_candidates": self.n_knot_candidates,
            },
            "basis": [
                [(term.variable, term.knot, term.sign) for term in b.terms]
                for b in self.basis_
            ],
            "coef": self.coef_,
            "gcv": float(self.gcv_),
        }

    @classmethod
    def from_state(cls, state: dict) -> "MarsRegression":
        """Rebuild a fitted model from :meth:`to_state` output."""
        params = {key: value for key, value in state["params"].items()
                  if key not in cls._RETIRED_PARAMS}
        model = cls(**params)
        model.basis_ = [
            BasisFunction(tuple(
                HingeTerm(int(v), float(knot), int(sign))
                for v, knot, sign in terms
            ))
            for terms in state["basis"]
        ]
        model.coef_ = np.asarray(state["coef"], dtype=float)
        model.gcv_ = float(state["gcv"])
        return model


class MultiOutputMars:
    """Convenience wrapper: one independent MARS model per output column.

    Mirrors the paper's ``nm`` regression functions ``g_j``, one per
    side-channel fingerprint.
    """

    def __init__(self, **mars_kwargs):
        self.mars_kwargs = mars_kwargs
        self.models_: Optional[List[MarsRegression]] = None

    def fit(self, x, y) -> "MultiOutputMars":
        """Fit on ``(n, d)`` inputs and ``(n, m)`` targets."""
        x = check_2d(x, "x")
        y = check_2d(y, "y")
        check_matching_rows(x, y, "x", "y")
        self.models_ = []
        for j in range(y.shape[1]):
            model = MarsRegression(**self.mars_kwargs)
            model.fit(x, y[:, j])
            self.models_.append(model)
        return self

    def predict(self, x) -> np.ndarray:
        """Predict an ``(n, m)`` target matrix."""
        if self.models_ is None:
            raise RuntimeError("MultiOutputMars must be fitted before use")
        x = check_2d(x, "x")
        return np.column_stack([model.predict(x) for model in self.models_])

    def to_state(self) -> dict:
        """Codec state of the fitted per-output models."""
        if self.models_ is None:
            raise RuntimeError("MultiOutputMars must be fitted before use")
        return {"mars_kwargs": dict(self.mars_kwargs), "models": list(self.models_)}

    @classmethod
    def from_state(cls, state: dict) -> "MultiOutputMars":
        """Rebuild a fitted wrapper from :meth:`to_state` output."""
        wrapper = cls(**state["mars_kwargs"])
        wrapper.models_ = list(state["models"])
        return wrapper
