"""Reconstruction tests: inversion round trips, subtraction, bootstrap."""

import numpy as np
import pytest

from dephasekit.noise_models import ArmaModel, autocovariance, design_bandpass, design_lorentzian
from dephasekit.predictor import WHITE_ONLY, _ModelMatrix
from dephasekit.qns_recon import (
    RankDeficientError,
    bootstrap_spectrum,
    decay_from_survival,
    reconstruct_spectrum,
    subtract_native,
)
from dephasekit.qubit_sim import ExperimentRecord, GateMode, analytic_survival, run_experiment
from dephasekit.sequences import filter_function, make_fttps

T_G = 100e-9
N = 128
K = 64


def noiseless_records(model, seqs, stderr=1e-5, native=None):
    """Records carrying the exact analytic survival, with a token stderr."""
    out = []
    for seq in seqs:
        p = analytic_survival(seq, model, native)
        out.append(
            ExperimentRecord(
                label=seq.label,
                n_pulses=seq.n_pulses,
                survival_mean=p,
                survival_stderr=stderr,
                shots=1,
                trajectories=1,
                seed=0,
            )
        )
    return out


@pytest.fixture(scope="module")
def seqs():
    return make_fttps(K, N, T_G)


@pytest.fixture(scope="module")
def filters(seqs):
    return [filter_function(s) for s in seqs]


# ---------------------------------------------------------------------------
# decay_from_survival
# ---------------------------------------------------------------------------


def test_decay_no_noise():
    d = decay_from_survival(1.0)
    assert d.chi == 0.0 and not d.saturated


def test_decay_analytic_inversion():
    p = (1.0 + np.exp(-1.0)) / 2.0
    d = decay_from_survival(p)
    assert d.chi == pytest.approx(1.0, rel=1e-12)


def test_decay_saturated():
    d = decay_from_survival(0.5)
    assert d.saturated
    assert d.chi == pytest.approx(-np.log(2 * 0.02), rel=1e-12)
    assert decay_from_survival(0.52, floor=0.02).saturated
    assert not decay_from_survival(0.5201, floor=0.02).saturated


def test_decay_validation():
    with pytest.raises(ValueError):
        decay_from_survival(1.2)
    with pytest.raises(ValueError):
        decay_from_survival(0.9, floor=0.7)


# ---------------------------------------------------------------------------
# reconstruct_spectrum
# ---------------------------------------------------------------------------


def test_bandpass_round_trip(seqs, filters):
    model = design_bandpass(1.0e6, 0.2e6, 1.1e-3, T_G)
    records = noiseless_records(model, seqs)
    estimate = reconstruct_spectrum(records, filters)
    target_bin = estimate.bin_containing(1.0e6)
    assert abs(estimate.peak_bin() - target_bin) <= 1
    r0 = autocovariance(model, 0)[0]
    assert estimate.integrated_power() == pytest.approx(r0, rel=0.05)


def test_white_round_trip_flat(seqs, filters):
    model = ArmaModel(ar=(), ma=(0.08,), drive_std=1.0, sample_period=T_G)
    records = noiseless_records(model, seqs)
    estimate = reconstruct_spectrum(records, filters)
    level = 2 * T_G * 0.08**2
    inner = estimate.values[1:-1]  # edge bins integrate truncated filters
    assert np.all(np.abs(inner - level) <= 0.02 * level)


def test_zero_noise_zero_spectrum(seqs, filters):
    silent = ArmaModel(ar=(), ma=(1.0,), drive_std=0.0, sample_period=T_G)
    records = noiseless_records(silent, seqs)
    estimate = reconstruct_spectrum(records, filters)
    assert np.all(estimate.values == 0.0)


def test_reconstruction_nonnegative_under_noise(seqs, filters):
    model = design_bandpass(1.2e6, 0.3e6, 8e-4, T_G)
    records = run_experiment(
        seqs, model, mode=GateMode(trajectories=60, shots_per_trajectory=100), seed=3
    )
    estimate = reconstruct_spectrum(records, filters)
    assert np.all(estimate.values >= 0.0)


def test_linearity_in_chi(seqs, filters):
    # scaling all chi by c scales the lambda=0 solution by exactly c
    model = design_bandpass(0.9e6, 0.25e6, 6e-4, T_G)
    records = noiseless_records(model, seqs)
    base = reconstruct_spectrum(records, filters)
    scale = 1.75
    scaled_records = []
    for r in records:
        chi = decay_from_survival(r.survival_mean).chi * scale
        p = 0.5 + 0.5 * np.exp(-chi)
        scaled_records.append(
            ExperimentRecord(
                label=r.label, n_pulses=r.n_pulses, survival_mean=p,
                survival_stderr=r.survival_stderr, shots=1, trajectories=1, seed=0,
            )
        )
    rescaled = reconstruct_spectrum(scaled_records, filters, bins_like=base)
    weights_ok = base.values > 1e-12 * base.values.max()
    assert np.allclose(rescaled.values[weights_ok], scale * base.values[weights_ok], rtol=5e-3)


def test_saturated_records_excluded(seqs, filters):
    # a strong model saturates the matched sequences; they drop out and the
    # estimate still inverts on the survivors
    model = design_bandpass(1.0e6, 0.2e6, 0.12, T_G)
    records = noiseless_records(model, seqs)
    saturated = [
        r.label for r in records if decay_from_survival(r.survival_mean).saturated
    ]
    assert saturated, "test premise: some sequences saturate"
    estimate = reconstruct_spectrum(records, filters)
    assert len(estimate.values) == K - len(saturated)
    assert set(estimate.labels) == set(range(K)) - set(saturated)


def test_exclusion_matches_zero_weight(seqs, filters):
    # dropping a sequence equals giving it (numerically) zero weight
    model = design_bandpass(1.0e6, 0.3e6, 9e-4, T_G)
    records = noiseless_records(model, seqs)
    dropped = [r for r in records if r.label != 20]
    est_drop = reconstruct_spectrum(dropped, filters)
    boosted = [
        r if r.label != 20 else ExperimentRecord(
            label=r.label, n_pulses=r.n_pulses, survival_mean=r.survival_mean,
            survival_stderr=1e3, shots=1, trajectories=1, seed=0,
        )
        for r in records
    ]
    est_zero = reconstruct_spectrum(boosted, filters, bins_like=est_drop, check_rank=False)
    assert np.allclose(est_zero.values, est_drop.values, rtol=1e-6, atol=1e-12)


def test_rank_deficiency_names_bins(seqs, filters):
    # only low-k records: high-frequency bins of the full grid get no weight
    model = ArmaModel(ar=(), ma=(0.05,), drive_std=1.0, sample_period=T_G)
    records = noiseless_records(model, seqs)
    some = records[:8]
    full = reconstruct_spectrum(records, filters)
    with pytest.raises(RankDeficientError) as err:
        reconstruct_spectrum(some, filters, bins_like=full)
    assert len(err.value.bins) > 0


def test_uniform_bins_option(seqs, filters):
    model = design_bandpass(1.0e6, 0.4e6, 1e-3, T_G)
    records = noiseless_records(model, seqs)
    estimate = reconstruct_spectrum(records, filters, bins=16)
    assert len(estimate.values) == 16
    peak_center = estimate.freqs[estimate.peak_bin()]
    assert abs(peak_center - 1.0e6) <= np.diff(estimate.bin_edges)[0]


def test_ridge_shrinks_solution(seqs, filters):
    model = design_bandpass(1.0e6, 0.2e6, 1e-3, T_G)
    records = noiseless_records(model, seqs)
    plain = reconstruct_spectrum(records, filters)
    assert plain.values.sum() > 0
    # PSD values are ~1e-9 rad^2/Hz while weighted chi entries are O(1e8),
    # so the binding ridge scale is very large
    for ridge in (1e6, 1e14, 1e22, 1e26, 1e30):
        ridged = reconstruct_spectrum(records, filters, ridge=ridge, bins_like=plain)
        assert ridged.values.sum() <= plain.values.sum() * (1 + 1e-9)
        if ridged.values.sum() < 0.5 * plain.values.sum():
            return
    pytest.fail("no ridge value produced meaningful shrinkage")


def _model_matrix(records, filters):
    return _ModelMatrix(records, filters, None, WHITE_ONLY)


@pytest.mark.parametrize(
    "invert", [reconstruct_spectrum, _model_matrix], ids=["reconstruct", "fit"]
)
def test_filter_set_checks(seqs, filters, invert):
    # reconstruction and fit validate the filter set with the same messages
    records = [ExperimentRecord(s.label, s.n_pulses, 0.9, 0.01, 100, 1, 0) for s in seqs[:8]]
    with pytest.raises(ValueError, match=r"no filter function for sequence labels \[7\]"):
        invert(records, filters[:7])
    coarse = filter_function(seqs[0], grid_size=33)
    with pytest.raises(ValueError, match="all filter functions must share one frequency grid"):
        invert(records, [coarse] + filters[1:8])


# ---------------------------------------------------------------------------
# subtract_native
# ---------------------------------------------------------------------------


def test_subtract_identical_is_zero(seqs, filters):
    model = design_bandpass(1.0e6, 0.2e6, 1e-3, T_G)
    records = noiseless_records(model, seqs)
    estimate = reconstruct_spectrum(records, filters)
    result = subtract_native(estimate, estimate)
    assert np.all(result.spectrum.values == 0.0)
    assert not result.was_clipped or result.clipped_power == 0.0


def test_subtract_recovers_injection_over_background(seqs, filters):
    # native PSD level ~1e-9 rad^2/Hz keeps chi of order one (the filters
    # integrate to ~N / (4 t_G) ~ 3e8 Hz)
    native = design_lorentzian(1.5e-9, 2 * np.pi * 0.3e6, 5e-11, T_G)
    injected = design_bandpass(1.3e6, 0.2e6, 9e-4, T_G)
    rec_native = noiseless_records(native, seqs)
    rec_both = noiseless_records(injected, seqs, native=native)
    est_native = reconstruct_spectrum(rec_native, filters)
    est_both = reconstruct_spectrum(rec_both, filters, bins_like=est_native)
    delta = subtract_native(est_both, est_native).spectrum
    target_bin = est_native.bin_containing(1.3e6)
    assert abs(int(np.argmax(delta.values)) - target_bin) <= 1


def test_subtract_clipping_flag(seqs, filters):
    native = design_bandpass(1.0e6, 0.4e6, 2e-3, T_G)
    weak = design_bandpass(1.0e6, 0.4e6, 1e-3, T_G)
    est_native = reconstruct_spectrum(noiseless_records(native, seqs), filters)
    est_weak = reconstruct_spectrum(
        noiseless_records(weak, seqs), filters, bins_like=est_native
    )
    result = subtract_native(est_weak, est_native)
    assert result.was_clipped
    assert result.clipped_power > 0.0


def test_subtract_grid_mismatch(seqs, filters):
    model = design_bandpass(1.0e6, 0.2e6, 1e-3, T_G)
    a = reconstruct_spectrum(noiseless_records(model, seqs), filters)
    b = reconstruct_spectrum(noiseless_records(model, seqs[:32]), filters[:32])
    with pytest.raises(ValueError, match="grid"):
        subtract_native(a, b)


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mc_run(seqs, filters):
    model = design_bandpass(1.0e6, 0.25e6, 9e-4, T_G)
    records = run_experiment(
        seqs, model, mode=GateMode(trajectories=80, shots_per_trajectory=200),
        seed=42, keep_raw=True,
    )
    return model, records


def test_bootstrap_zero_variance_zero_width(seqs, filters):
    silent = ArmaModel(ar=(), ma=(1.0,), drive_std=0.0, sample_period=T_G)
    records = run_experiment(
        seqs[:16], silent, mode=GateMode(trajectories=10, shots_per_trajectory=5),
        seed=2, keep_raw=True,
    )
    result = bootstrap_spectrum(records, filters[:16], resamples=25, seed=1)
    assert np.all(result.upper - result.lower == 0.0)


def test_bootstrap_single_resample_is_point(mc_run, filters):
    _, records = mc_run
    result = bootstrap_spectrum(records, filters, resamples=1, seed=5)
    assert np.array_equal(result.lower, result.upper)
    assert np.array_equal(result.median.values, result.lower)


def test_bootstrap_band_covers_noiseless_truth(mc_run, seqs, filters):
    model, records = mc_run
    result = bootstrap_spectrum(records, filters, resamples=120, seed=6)
    truth = reconstruct_spectrum(
        noiseless_records(model, seqs), filters, bins_like=result.median
    )
    slack = 1e-12 * truth.values.max()
    covered = (result.lower - slack <= truth.values) & (truth.values <= result.upper + slack)
    assert covered.mean() >= 0.90


def test_bootstrap_requires_raw(seqs, filters):
    model = design_bandpass(1.0e6, 0.25e6, 9e-4, T_G)
    records = run_experiment(
        seqs[:16], model, mode=GateMode(trajectories=5, shots_per_trajectory=10), seed=3
    )
    with pytest.raises(ValueError, match="keep_raw"):
        bootstrap_spectrum(records, filters[:16], resamples=10)


def test_bootstrap_deterministic(mc_run, filters):
    _, records = mc_run
    a = bootstrap_spectrum(records, filters, resamples=20, seed=9)
    b = bootstrap_spectrum(records, filters, resamples=20, seed=9)
    assert np.array_equal(a.lower, b.lower)
    assert np.array_equal(a.upper, b.upper)
