"""Reference implementations the production engines are tested against.

The library has one production path per stage: the population engine
measures and simulates whole device populations as array programs, and the
MARS forward pass scores every candidate knot through incremental normal
equations.  Both are exact — bitwise what the obvious, slow formulation
computes — and the oracles here *are* that formulation:

* :func:`measure_population_loop` measures one die at a time through the
  scalar chain :meth:`FingerprintCampaign.measure_device`, with per-device
  instruments built from each device's spawned ``(power, delay)`` streams;
* :func:`monte_carlo_loop` draws every :class:`SimulatedDie` with
  :meth:`SpiceDeck.sample_die` from its own spawned stream, measures it the
  same way, then applies the numerical noise;
* :class:`LstsqForwardMars` solves every forward-pass candidate with a full
  ``np.linalg.lstsq``;
* :class:`DenseMvpOneClassSvm` solves the one-class SVM dual on the dense
  n x n Gram matrix with maximal-violating-pair working-set selection.
  Unlike the other oracles it is not bitwise equal to production (the
  second-order selection takes a different path to the optimum); the two
  agree to the solver tolerance;
* :func:`median_heuristic_gamma_reference` takes the median-heuristic
  gamma with ``np.median`` over the row-sliced strict upper triangle;
  production selects the same order statistics by partition and must
  equal it exactly;
* :func:`dense_decision_function` scores a batch with one dense kernel
  pass over every device and support vector, with no row blocks and no
  underflow cut;
* :func:`epanechnikov_kernel_value` evaluates the paper's closed-form
  Epanechnikov kernel, Eq. (6), that the KDE's density and sampler
  implement.

The loop oracles mirror the production signatures, so a test can
monkeypatch them over ``FingerprintCampaign.measure_population`` and
``MonteCarloEngine.run`` and rerun a whole experiment through them.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.circuits.montecarlo import MonteCarloResult, SimulatedDie
from repro.learn.mars import BasisFunction, HingeTerm, MarsRegression
from repro.learn.ocsvm import OneClassSvm
from repro.process.parameters import parameters_at
from repro.process.population import DiePopulation, sample_structure_params
from repro.silicon.instruments import DelayAnalyzer, PowerMeter
from repro.stats.kde import unit_ball_volume
from repro.stats.kernels import pairwise_sq_dists, rbf_from_sq_dists
from repro.utils.rng import as_generator, spawn_seed_sequences


@dataclasses.dataclass
class PopulationDie:
    """Die ``index`` of a :class:`DiePopulation` as a scalar die.

    Its structures are drawn by the scalar reference
    :func:`sample_structure_params`, one die at a time.
    """

    population: DiePopulation
    index: int

    def structure_params(self, structure):
        population = self.population
        return sample_structure_params(
            population.variation,
            parameters_at(population.die_params, self.index),
            int(population.mismatch_seeds[self.index]),
            structure,
            analog_model_error=population.analog_model_error,
        )

    def label(self):
        return self.population.label(self.index)


def measure_population_loop(campaign, dies, trojan=None, version="TF"):
    """``campaign.measure_population`` computed one die at a time.

    A :class:`DiePopulation` is measured die by die as :class:`PopulationDie`
    objects.
    """
    if isinstance(dies, DiePopulation):
        dies = [PopulationDie(dies, i) for i in range(len(dies))]
    dies = list(dies)
    if campaign.power_meter is None and campaign.delay_analyzer is None:
        return [campaign.measure_device(die, trojan=trojan, version=version)
                for die in dies]
    if campaign.instrument_root is None:
        raise ValueError("a bench with instruments needs an instrument_root")
    devices = []
    for die, seed in zip(dies, campaign.instrument_root.spawn(len(dies))):
        power_seq, delay_seq = seed.spawn(2)
        local = dataclasses.replace(
            campaign,
            power_meter=(
                PowerMeter(seed=power_seq, gain_sigma=campaign.power_meter.gain_sigma)
                if campaign.power_meter is not None
                else None
            ),
            delay_analyzer=(
                DelayAnalyzer(seed=delay_seq,
                              gain_sigma=campaign.delay_analyzer.gain_sigma)
                if campaign.delay_analyzer is not None
                else None
            ),
            instrument_root=None,
        )
        devices.append(local.measure_device(die, trojan=trojan, version=version))
    return devices


def monte_carlo_loop(engine, n, seed=None):
    """``engine.run(n, seed)`` computed one simulated die at a time."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    device_root, noise_root = spawn_seed_sequences(seed, 2)
    pcms, fingerprints = [], []
    for index, device_seed in enumerate(device_root.spawn(n)):
        rng = np.random.default_rng(device_seed)
        die = SimulatedDie(
            index=index,
            die_params=engine.deck.sample_die(rng),
            deck=engine.deck,
            mismatch_seed=int(rng.integers(0, 2**63 - 1)),
        )
        device = engine.campaign.measure_device(die)
        pcms.append(device.pcms)
        fingerprints.append(device.fingerprint)
    pcms = np.stack(pcms)
    fingerprints = np.stack(fingerprints)
    if engine.numerical_noise > 0:
        noise_rng = np.random.default_rng(noise_root)
        pcms = pcms * (
            1.0 + engine.numerical_noise * noise_rng.standard_normal(pcms.shape)
        )
        fingerprints = fingerprints * (
            1.0 + engine.numerical_noise * noise_rng.standard_normal(fingerprints.shape)
        )
    return MonteCarloResult(pcms=pcms, fingerprints=fingerprints)


class LstsqForwardMars(MarsRegression):
    """MARS whose forward pass solves one full ``lstsq`` per candidate."""

    def _best_forward_pair(self, x, y, basis, design, knots, current_sse,
                           orders):
        best = None
        best_sse = current_sse - 1e-12 * max(1.0, abs(current_sse))
        for parent_idx, parent in enumerate(basis):
            if parent.degree() + 1 > self.max_degree:
                continue
            parent_column = design[:, parent_idx]
            for v in range(x.shape[1]):
                if parent.uses_variable(v):
                    continue
                for t in knots[v]:
                    up = np.maximum(0.0, x[:, v] - t) * parent_column
                    down = np.maximum(0.0, t - x[:, v]) * parent_column
                    if not up.any() or not down.any():
                        continue
                    candidate = np.hstack([design, up[:, None], down[:, None]])
                    _, sse = self._fit_sse(candidate, y)
                    if sse < best_sse:
                        best_sse = sse
                        pair = (
                            BasisFunction(parent.terms + (HingeTerm(v, float(t), +1),)),
                            BasisFunction(parent.terms + (HingeTerm(v, float(t), -1),)),
                        )
                        best = (pair, np.column_stack([up, down]), sse)
        return best


def median_heuristic_gamma_reference(sq, max_samples=1000):
    """``median_heuristic_gamma_from_sq`` computed with ``np.median``."""
    n = sq.shape[0]
    if n < 2:
        return 1.0
    if n > max_samples:
        idx = np.arange(0, n, -(-n // max_samples))
        sq = sq[np.ix_(idx, idx)]
        n = sq.shape[0]
    upper = np.concatenate([sq[i, i + 1:] for i in range(n - 1)])
    median_sq = float(np.median(upper))
    if median_sq <= 0.0:
        return 1.0
    return 1.0 / (2.0 * median_sq)


class DenseMvpOneClassSvm(OneClassSvm):
    """One-class SVM solved by maximal-violating-pair SMO on the dense Gram."""

    def _fit(self, data):
        if data.shape[0] > self.max_training_samples:
            rng = as_generator(self.seed)
            idx = rng.choice(data.shape[0], size=self.max_training_samples, replace=False)
            data = data[idx]
        n = data.shape[0]

        sq = pairwise_sq_dists(data, data)
        gamma = self.gamma if self.gamma is not None else median_heuristic_gamma_reference(sq)
        kernel = rbf_from_sq_dists(sq, gamma)

        c_bound = 1.0 / (self.nu * n)
        full = min(n, int(self.nu * n))
        if full == 0:
            alpha = np.full(n, 1.0 / n)
        else:
            alpha = np.zeros(n)
            alpha[:full] = c_bound
            alpha[full:full + 1] = max(0.0, 1.0 - full * c_bound)
        gradient = kernel @ alpha

        up_penalty = np.where(alpha >= c_bound - 1e-15, np.inf, 0.0)
        down_penalty = np.where(alpha <= 1e-15, -np.inf, 0.0)
        work = np.empty(n)
        col = np.empty(n)

        capped = False
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            np.add(gradient, up_penalty, out=work)
            i = int(work.argmin())
            if work[i] == np.inf:
                break
            np.add(gradient, down_penalty, out=work)
            j = int(work.argmax())
            if work[j] == -np.inf:
                break
            violation = gradient[j] - gradient[i]
            if violation < self.tol:
                break
            curvature = kernel[i, i] + kernel[j, j] - 2.0 * kernel[i, j]
            if curvature <= 1e-15:
                step = min(c_bound - alpha[i], alpha[j])
            else:
                step = min(violation / curvature, c_bound - alpha[i], alpha[j])
            if step <= 0.0:
                break
            alpha[i] += step
            alpha[j] -= step
            np.subtract(kernel[i], kernel[j], out=col)
            col *= step
            gradient += col
            up_penalty[i] = np.inf if alpha[i] >= c_bound - 1e-15 else 0.0
            down_penalty[i] = -np.inf if alpha[i] <= 1e-15 else 0.0
            up_penalty[j] = np.inf if alpha[j] >= c_bound - 1e-15 else 0.0
            down_penalty[j] = -np.inf if alpha[j] <= 1e-15 else 0.0
        else:
            capped = True
        self._store_solution(data, alpha, gradient, gamma, c_bound, iterations, capped)


def dense_decision_function(svm, points):
    """``svm.decision_function(points)`` as one dense kernel pass.

    Every kernel entry goes through ``np.exp``, underflow tail included,
    and the whole ``(n, m)`` kernel meets the dual coefficients in one
    product.
    """
    sq = pairwise_sq_dists(np.asarray(points, dtype=float), svm.support_vectors_)
    return rbf_from_sq_dists(sq, svm.effective_gamma_) @ svm.dual_coefs_ - svm.rho_


def epanechnikov_kernel_value(t):
    """Multivariate Epanechnikov kernel Ke(t), Eq. (6), rows of ``t``.

    Ke(t) = (1/2) c_d^-1 (d + 2)(1 - t't)  for t't < 1, else 0.
    """
    t = np.atleast_2d(np.asarray(t, dtype=float))
    d = t.shape[1]
    sq = np.sum(t**2, axis=1)
    value = 0.5 * (d + 2.0) / unit_ball_volume(d) * (1.0 - sq)
    return np.where(sq < 1.0, value, 0.0)
