"""Cross-cutting property tests (hypothesis) on pipeline invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.boundaries import TrustedRegion
from repro.core.metrics import evaluate_detection
from repro.crypto.aes import AES128
from repro.crypto.bits import bytes_to_bits
from repro.process.parameters import nominal_350nm
from repro.rf.receiver import BandPassReceiver
from repro.rf.uwb import UwbTransmitter
from repro.stats.kde import AdaptiveKde
from repro.stats.pca import PrincipalComponentAnalysis
from repro.testbed.chip import WirelessCryptoChip
from repro.trojans.amplitude import AmplitudeModulationTrojan


class _StubDie:
    def structure_params(self, structure):
        return nominal_350nm()

    def label(self):
        return "stub"


@settings(max_examples=20, deadline=None)
@given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
def test_transmitted_ciphertext_is_decryptable(key, plaintext):
    """Channel-level invariant: the transmitted bits decrypt to the input."""
    chip = WirelessCryptoChip(die=_StubDie(), key=key)
    ciphertext = chip.encrypt(plaintext)
    train = chip.transmit_ciphertext(ciphertext)
    # OOK: the transmitted bit positions are exactly the '1' ciphertext bits.
    bits = bytes_to_bits(ciphertext)
    np.testing.assert_array_equal(np.flatnonzero(bits == 1), train.bit_indices)
    assert AES128(key).decrypt_block(ciphertext) == plaintext


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_trojan_never_reduces_amplitude(seed):
    """Paper encoding: key '0' increases, key '1' leaves untouched."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, 128)
    key_bits = rng.integers(0, 2, 128)
    tx = UwbTransmitter(pa_params=nominal_350nm())
    clean = tx.transmit(bits)
    dirty = tx.transmit(bits, trojan=AmplitudeModulationTrojan(depth=0.1),
                        key_bits=key_bits)
    assert np.all(dirty.amplitudes >= clean.amplitudes - 1e-12)


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=0.5, max_value=2.0))
def test_receiver_power_scale_invariance(gain):
    """Scaling all amplitudes by g scales block power by exactly g^2."""
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, 64)
    tx = UwbTransmitter(pa_params=nominal_350nm())
    train = tx.transmit(bits)
    receiver = BandPassReceiver()
    base = receiver.block_power(train)
    train.amplitudes = train.amplitudes * gain
    assert receiver.block_power(train) == pytest.approx(gain**2 * base, rel=1e-9)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_metrics_partition_devices(seed):
    """FP + FN + correct counts always partition the population."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 50))
    predicted = rng.random(n) < 0.5
    infested = rng.random(n) < 0.5
    metrics = evaluate_detection(predicted, infested)
    caught = int(np.sum(~predicted & infested))
    passed_clean = int(np.sum(predicted & ~infested))
    assert metrics.fp_count + metrics.fn_count + caught + passed_clean == n


@settings(max_examples=10, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=-5.0, max_value=5.0),
)
def test_trusted_region_invariant_to_feature_scaling(scale, offset):
    """Whitening makes decisions invariant to affine feature re-scaling.

    Checked on probes far from the decision boundary: points *on* the
    boundary can legitimately flip under floating-point re-parametrization.
    """
    rng = np.random.default_rng(0)
    population = rng.standard_normal((150, 3))
    center = population.mean(axis=0, keepdims=True)
    far = center + 8.0
    probes = np.vstack([center, far])

    plain = TrustedRegion(nu=0.1, noise_floor_rel=0.0, seed=0).fit(population)
    scaled = TrustedRegion(nu=0.1, noise_floor_rel=0.0, seed=0).fit(
        population * scale + offset
    )
    expected = plain.predict_trojan_free(probes)
    assert expected.tolist() == [True, False]
    np.testing.assert_array_equal(
        expected, scaled.predict_trojan_free(probes * scale + offset)
    )


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=1000))
def test_kde_samples_stay_in_plausible_region(seed):
    """KDE-enhanced samples never stray absurdly far from the data."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((60, 2))
    kde = AdaptiveKde(alpha=0.5).fit(data)
    samples = kde.sample(2000, rng=seed)
    data_reach = np.abs(data).max()
    assert np.abs(samples).max() < data_reach + 10.0


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=1000))
def test_pca_preserves_total_variance(seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((40, 4)) * rng.uniform(0.1, 3.0, size=4)
    pca = PrincipalComponentAnalysis().fit(data)
    total = data.var(axis=0, ddof=1).sum()
    assert pca.explained_variance_.sum() == pytest.approx(total, rel=1e-9)
