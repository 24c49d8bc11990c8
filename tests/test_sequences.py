"""Sequence, switching-function and filter-function tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dephasekit.noise_models import (
    ArmaModel,
    autocovariance,
    design_bandpass,
    design_lorentzian,
    psd,
)
from dephasekit.sequences import (
    PulseSequence,
    chi_time_domain,
    filter_function,
    make_fttps,
    make_rfttps,
    switching_function,
)

T_G = 100e-9
N = 128
K = 64


def brute_force_switching(seq):
    # independent oracle: literal parity count of pulses at slots strictly
    # below each slot index
    return np.array(
        [(-1.0) ** sum(1 for s in seq.pulse_slots if s < j) for j in range(1, seq.n_slots + 1)]
    )


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def test_fttps_total_time_fixed():
    seqs = make_fttps(K, N, T_G)
    assert len(seqs) == K
    for k, seq in enumerate(seqs):
        assert seq.total_time == pytest.approx(12.8e-6)
        assert seq.n_pulses == k
        assert seq.pulse_signs == (1,) * k
        assert seq.label == k


def test_fttps_k0_is_free_evolution():
    seq = make_fttps(1, N, T_G)[0]
    assert seq.pulse_slots == ()


def test_fttps_k1_single_centered_pulse():
    seq = make_fttps(2, N, T_G)[1]
    assert seq.pulse_slots == (64,)


def test_rfttps_signs_alternate():
    seqs = make_rfttps(4, N, T_G)
    assert seqs[2].pulse_signs == (1, -1)
    assert seqs[3].pulse_signs == (1, -1, 1)
    assert seqs[0].pulse_slots == make_fttps(4, N, T_G)[0].pulse_slots
    assert seqs[0].pulse_signs == ()


def test_rfttps_slots_match_fttps():
    f = make_fttps(16, N, T_G)
    r = make_rfttps(16, N, T_G)
    for a, b in zip(f, r):
        assert a.pulse_slots == b.pulse_slots
        assert np.array_equal(switching_function(a), switching_function(b))


def test_family_validation():
    with pytest.raises(ValueError):
        make_fttps(10, 8, T_G)  # K > N
    # round-half-up placement keeps slots distinct all the way to K = N
    dense = make_fttps(128, 128, T_G)
    assert len(set(dense[-1].pulse_slots)) == 127


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(sizes=st.integers(1, 1024).flatmap(lambda n_slots: st.tuples(st.integers(1, n_slots),
                                                                     st.just(n_slots))))
@example(sizes=(1024, 1024))
@example(sizes=(1, 1))
def test_fttps_builds_distinct_slots(sizes):
    n, n_slots = sizes
    for k, seq in enumerate(make_fttps(n, n_slots, T_G)):
        assert len(set(seq.pulse_slots)) == k
        assert all(1 <= s <= n_slots for s in seq.pulse_slots)


def test_sequence_validation():
    with pytest.raises(ValueError):
        PulseSequence(n_slots=4, pulse_slots=(3, 2), pulse_signs=(1, 1), gate_period=T_G)
    with pytest.raises(ValueError):
        PulseSequence(n_slots=4, pulse_slots=(5,), pulse_signs=(1,), gate_period=T_G)
    with pytest.raises(ValueError):
        PulseSequence(n_slots=4, pulse_slots=(2,), pulse_signs=(2,), gate_period=T_G)
    with pytest.raises(ValueError):
        PulseSequence(n_slots=4, pulse_slots=(2,), pulse_signs=(1, 1), gate_period=T_G)


# ---------------------------------------------------------------------------
# switching function
# ---------------------------------------------------------------------------


def test_switching_no_pulses():
    seq = PulseSequence(n_slots=4, pulse_slots=(), pulse_signs=(), gate_period=T_G)
    assert np.array_equal(switching_function(seq), [1, 1, 1, 1])


def test_switching_single_pulse():
    seq = PulseSequence(n_slots=4, pulse_slots=(2,), pulse_signs=(1,), gate_period=T_G)
    assert np.array_equal(switching_function(seq), [1, 1, -1, -1])


def test_switching_two_pulses():
    seq = PulseSequence(n_slots=4, pulse_slots=(1, 3), pulse_signs=(1, 1), gate_period=T_G)
    assert np.array_equal(switching_function(seq), [1, -1, -1, 1])


@pytest.mark.parametrize("k", range(K))
def test_switching_matches_parity_oracle(k):
    seq = make_fttps(K, N, T_G)[k]
    assert np.array_equal(switching_function(seq), brute_force_switching(seq))


@pytest.mark.parametrize("k", range(1, K))
def test_dc_rejection(k):
    # sum_j y_j = Y(0) stays in {0, +-1} for every pulsed sequence
    y = switching_function(make_fttps(K, N, T_G)[k])
    assert abs(int(y.sum())) <= 1


# ---------------------------------------------------------------------------
# filter function
# ---------------------------------------------------------------------------


def test_filter_k32_peak_frequency():
    seq = make_fttps(64, N, T_G)[32]
    ff = filter_function(seq)
    assert ff.peak_freq == pytest.approx(1.25e6, rel=0.02)


@pytest.mark.parametrize("k", range(2, K // 2 + 1))
def test_filter_peak_rule(k):
    # peak within one sequence-resolution bin (the spacing between adjacent
    # sequences' peaks, 1/(2 N t_G)) of n_k / (2 N t_G) for 2 <= k <= K/2
    seq = make_fttps(K, N, T_G)[k]
    ff = filter_function(seq, grid_size=4097)
    spacing = 1.0 / (2 * N * T_G)
    assert abs(ff.peak_freq - k * spacing) <= spacing


def test_filter_weights_nonnegative():
    for k in (0, 1, 17, 63):
        ff = filter_function(make_fttps(K, N, T_G)[k])
        assert np.all(ff.weights >= 0)


def test_filter_k0_concentrated_at_dc():
    ff = filter_function(make_fttps(1, N, T_G)[0])
    cut = ff.freqs <= 0.05 * ff.freqs[-1]
    assert ff.weights[cut].sum() >= 0.80 * ff.weights.sum()
    assert ff.peak_freq == 0.0


def test_filter_white_spectrum_chi():
    # flat spectrum: chi_k = r(0) * N / 2 for every k
    sigma = 0.1
    model = ArmaModel(ar=(), ma=(sigma,), drive_std=1.0, sample_period=T_G)
    spec = psd(model)
    for k in (0, 1, 13, 40, 63):
        ff = filter_function(make_fttps(K, N, T_G)[k])
        assert ff.chi(spec) == pytest.approx(sigma**2 * N / 2, rel=1e-9)


def test_filter_k0_rejects_dc_free_bandpass():
    model = design_bandpass(1.25e6, 0.2e6, 1e-3, T_G)
    spec = psd(model)
    seqs = make_fttps(K, N, T_G)
    chi0 = filter_function(seqs[0]).chi(spec)
    chi_matched = filter_function(seqs[32]).chi(spec)
    assert chi0 <= 0.02 * chi_matched


def test_filter_grid_mismatch_rejected():
    ff = filter_function(make_fttps(2, N, T_G)[1], grid_size=129)
    spec = psd(ArmaModel(ar=(), ma=(1.0,), drive_std=1.0, sample_period=T_G), 257)
    with pytest.raises(ValueError, match="grid"):
        ff.chi(spec)


def test_filters_and_psds_share_one_read_only_grid():
    # one array per (grid_size, period) serves every filter function and PSD on it
    seqs = make_fttps(3, N, T_G)
    grid = filter_function(seqs[1], grid_size=257).freqs
    assert filter_function(seqs[2], grid_size=257).freqs is grid
    assert psd(ArmaModel(ar=(), ma=(1.0,), drive_std=1.0, sample_period=T_G), 257).freqs is grid
    assert not grid.flags.writeable
    other = filter_function(seqs[1], grid_size=129).freqs
    assert other is not grid
    expected = np.pi * np.arange(129) / 128 / (2.0 * np.pi * T_G)
    assert other.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# chi
# ---------------------------------------------------------------------------


def test_chi_white_closed_form():
    sigma = 0.1
    model = ArmaModel(ar=(), ma=(sigma,), drive_std=1.0, sample_period=T_G)
    r = autocovariance(model, N - 1)
    for k in (0, 5, 63):
        seq = make_fttps(K, N, T_G)[k]
        assert chi_time_domain(seq, r) == pytest.approx(0.64, rel=1e-12)


def test_chi_zero_noise():
    model = ArmaModel(ar=(), ma=(1.0,), drive_std=0.0, sample_period=T_G)
    r = autocovariance(model, N - 1)
    seq = make_fttps(2, N, T_G)[1]
    assert chi_time_domain(seq, r) == 0.0


def test_chi_needs_enough_lags():
    seq = make_fttps(2, N, T_G)[1]
    with pytest.raises(ValueError, match="lag"):
        chi_time_domain(seq, np.ones(10))


def test_chi_ar1_domain_equivalence():
    model = ArmaModel(ar=(0.5,), ma=(0.05,), drive_std=1.0, sample_period=T_G)
    r = autocovariance(model, N - 1)
    spec = psd(model, 4097)
    for k in (0, 1, 7, 32, 63):
        seq = make_fttps(K, N, T_G)[k]
        time = chi_time_domain(seq, r)
        freq = filter_function(seq, 4097).chi(spec)
        assert freq == pytest.approx(time, rel=1e-6)


def test_chi_designed_models_domain_equivalence():
    models = [
        design_bandpass(1.0e6, 0.2e6, 1e-3, T_G),
        design_lorentzian(2e-6, 2 * np.pi * 0.5e6, 1e-7, T_G),
    ]
    seqs = make_fttps(K, N, T_G)
    for model in models:
        r = autocovariance(model, N - 1)
        spec = psd(model, 4097)
        for seq in seqs[::7]:
            time = chi_time_domain(seq, r)
            freq = filter_function(seq, 4097).chi(spec)
            assert freq == pytest.approx(time, rel=1e-6, abs=1e-18)


# ---------------------------------------------------------------------------
# properties of the shared grid and rFFT evaluator
# ---------------------------------------------------------------------------

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)
UNIT_FLOATS = st.floats(min_value=-1.0, max_value=1.0)


@st.composite
def pulse_sequences(draw, max_slots=300):
    n_slots = draw(st.integers(min_value=1, max_value=max_slots))
    slots = sorted(draw(st.sets(st.integers(min_value=1, max_value=n_slots), max_size=40)))
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=len(slots), max_size=len(slots)))
    period = draw(st.floats(min_value=1e-9, max_value=1e-5))
    return PulseSequence(n_slots, tuple(slots), tuple(signs), period)


def dense_filter(seq, grid_size):
    # reference: Y(theta_m) = sum_j y_j e^{-i theta_m j} as a direct dense sum
    theta = np.pi * np.arange(grid_size) / (grid_size - 1)
    phases = np.outer(theta, np.arange(1, seq.n_slots + 1))
    response = np.exp(-1j * phases) @ brute_force_switching(seq)
    df = 1.0 / (2.0 * seq.gate_period * (grid_size - 1))
    trapz = np.full(grid_size, df)
    trapz[[0, -1]] *= 0.5
    return theta / (2.0 * np.pi * seq.gate_period), np.abs(response) ** 2 / 2.0 * trapz


@PROPERTY
@given(seq=pulse_sequences(), grid_size=st.integers(min_value=2, max_value=1100))
@example(seq=make_fttps(K, N, T_G)[1], grid_size=17)  # 128 slots folded onto 32 points
@example(seq=make_rfttps(K, N, 70e-9)[45], grid_size=4097)
@example(seq=PulseSequence(257, (3, 100, 250), (1, 1, 1), T_G), grid_size=2)
def test_filter_weights_equal_dense_sum(seq, grid_size):
    freqs, weights = dense_filter(seq, grid_size)
    ff = filter_function(seq, grid_size)
    assert np.array_equal(ff.freqs, freqs)
    scale = seq.n_slots**2 / 2.0 / (2.0 * seq.gate_period * (grid_size - 1))  # largest weight
    np.testing.assert_allclose(ff.weights, weights, rtol=0, atol=1e-12 * scale)


@PROPERTY
@given(
    ma=st.lists(UNIT_FLOATS, min_size=1, max_size=60).filter(any),
    seq=pulse_sequences(max_slots=200),
    extra_points=st.integers(min_value=0, max_value=200),
)
@example(ma=[0.3, -0.2, 0.1], seq=make_rfttps(K, N, T_G)[7], extra_points=0)
def test_chi_time_domain_equals_filter_times_psd(ma, seq, extra_points):
    # the trapezoidal rule is exact once 2 (grid_size-1) exceeds the highest
    # harmonic q + N - 1 of S |Y|^2
    model = ArmaModel(ar=(), ma=tuple(ma), drive_std=1.0, sample_period=seq.gate_period)
    grid_size = (len(ma) + seq.n_slots) // 2 + 2 + extra_points
    r = autocovariance(model, seq.n_slots - 1)
    time = chi_time_domain(seq, r)
    freq = filter_function(seq, grid_size).chi(psd(model, grid_size))
    assert freq == pytest.approx(time, rel=1e-9, abs=1e-12 * r[0] * seq.n_slots**2)
