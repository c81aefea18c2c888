"""Calibration deep-dive: watching KMM close the simulation-silicon gap.

Before trusting a golden chip-free boundary, a deployment should verify that
the calibrated simulation population actually matches the silicon PCM
distribution.  This example uses maximum mean discrepancy (MMD) — the
quantity KMM minimizes — as that acceptance check:

1. measure the raw simulation-vs-silicon PCM discrepancy (MMD + permutation
   test p-value);
2. calibrate with KMM, importance-resample, and re-measure;
3. compare against a plain mean shift;
4. show how the effective sample size warns when the drift approaches the
   edge of the simulated support.

Run:  python examples/distribution_calibration.py
"""

from dataclasses import replace

from repro import PlatformConfig, generate_experiment_data
from repro.stats.kmm import KernelMeanMatcher, importance_resample
from repro.stats.mmd import mmd_permutation_test, mmd_squared


def describe(label, sim, silicon):
    mmd2, p = mmd_permutation_test(sim, silicon, n_permutations=200, rng=0)
    verdict = "distinguishable" if p < 0.05 else "indistinguishable"
    print(f"  {label:<28s} MMD^2 = {mmd2:+.4f}   p = {p:.3f}  ({verdict})")
    return mmd2


def main() -> None:
    data = generate_experiment_data(PlatformConfig())
    sim, silicon = data.sim_pcms, data.dutt_pcms

    print("PCM distribution match, before and after calibration:")
    raw = describe("raw simulation", sim, silicon)

    shifted = sim + (silicon.mean(axis=0) - sim.mean(axis=0))
    describe("plain mean shift", shifted, silicon)

    matcher = KernelMeanMatcher().fit(sim, silicon)
    resampled = importance_resample(sim, matcher.weights, 200, rng=0)
    kmm = describe("KMM importance resample", resampled, silicon)
    print(f"\n  KMM effective sample size: {matcher.effective_sample_size():.1f} "
          f"of {sim.shape[0]} simulated devices")
    print(f"  discrepancy reduced by {1 - kmm / raw:.0%}")
    print(
        "\n  (A plain mean shift looks even better here because this platform's "
        "drift is almost a\n  pure translation — but it invents PCM values no "
        "simulation ever produced, while KMM\n  only re-weights real simulated "
        "devices, which is what the regression stage requires.)"
    )

    print("\nEffective sample size vs drift (degeneracy warning):")
    for drift in (0.2, 0.45, 0.8, 1.2):
        d = generate_experiment_data(replace(PlatformConfig(), drift_scale=drift))
        m = KernelMeanMatcher().fit(d.sim_pcms, d.dutt_pcms)
        ess = m.effective_sample_size()
        note = "ok" if ess >= 7 else "DEGENERATE: silicon near the edge of the simulated support"
        print(f"  drift {drift:4.2f}: ESS = {ess:5.1f}   [{note}]")

    print(
        "\nWhen the effective sample size collapses, importance weighting can no "
        "longer move the\nsimulated population onto the silicon operating point — "
        "the regime where boundary B4\nstops improving on B3 (see the drift "
        "ablation)."
    )


if __name__ == "__main__":
    main()
