"""Noise-model tests: closed-form oracles, designer contracts, invariants."""

import numpy as np
import pytest
from scipy.signal import welch

from dephasekit.noise_models import (
    ArmaModel,
    UnstableModelError,
    autocovariance,
    design_bandpass,
    design_lorentzian,
    design_multiband,
    design_power_law,
    generate_trajectory,
    psd,
)

T_S = 100e-9
NYQUIST = 0.5 / T_S


def white(sigma=1.0, t_s=T_S):
    return ArmaModel(ar=(), ma=(sigma,), drive_std=1.0, sample_period=t_s)


def ar1(a=0.5, t_s=T_S):
    return ArmaModel(ar=(a,), ma=(1.0,), drive_std=1.0, sample_period=t_s)


# ---------------------------------------------------------------------------
# construction and stability
# ---------------------------------------------------------------------------


def test_model_validation():
    with pytest.raises(ValueError):
        ArmaModel(ar=(), ma=(), drive_std=1.0, sample_period=T_S)
    with pytest.raises(ValueError):
        ArmaModel(ar=(), ma=(1.0,), drive_std=-1.0, sample_period=T_S)
    with pytest.raises(ValueError):
        ArmaModel(ar=(), ma=(1.0,), drive_std=1.0, sample_period=0.0)
    with pytest.raises(ValueError):
        ArmaModel(ar=(), ma=(0.0, 0.0), drive_std=1.0, sample_period=T_S)
    # zero taps allowed when the drive is off
    ArmaModel(ar=(), ma=(0.0,), drive_std=0.0, sample_period=T_S)


@pytest.mark.parametrize("a", [0.5, 0.9, -0.7, 0.99, 0.99999])
def test_stable_ar_is_stable(a):
    assert ar1(a).is_stable()


@pytest.mark.parametrize("a", [1.0, 1.01, -1.2])
def test_unit_root_and_explosive_are_unstable(a):
    model = ar1(a)
    assert not model.is_stable()
    with pytest.raises(UnstableModelError, match="root"):
        generate_trajectory(model, 16, seed=0)
    with pytest.raises(UnstableModelError):
        autocovariance(model, 4)


def test_stability_proxy_impulse_decay():
    # stable: the response decays below 1e-9 of its peak once propagated far
    # enough past the MA horizon; unstable: it never does
    model = ar1(0.5)
    h = np.abs(model.impulse_response(200))
    assert h[-1] < 1e-9 * h.max()
    bad = ar1(1.0)
    h_bad = np.abs(bad.impulse_response(2000))
    assert h_bad[-1] > 1e-3 * h_bad.max()


# ---------------------------------------------------------------------------
# generate_trajectory
# ---------------------------------------------------------------------------


def test_zero_drive_gives_zero_trajectory():
    model = ArmaModel(ar=(), ma=(1.0,), drive_std=0.0, sample_period=T_S)
    traj = generate_trajectory(model, 8, seed=3)
    assert np.array_equal(traj.phases, np.zeros(8))


def test_white_noise_sample_variance():
    model = ArmaModel(ar=(), ma=(1.0,), drive_std=1.0, sample_period=T_S)
    traj = generate_trajectory(model, 10**5, seed=11)
    assert np.var(traj.phases) == pytest.approx(1.0, abs=0.02)


def test_ar1_lag1_autocorrelation():
    traj = generate_trajectory(ar1(0.5), 10**5, seed=12)
    x = traj.phases
    rho = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert rho == pytest.approx(0.5, abs=0.02)


def test_trajectory_determinism():
    model = ar1(0.3)
    a = generate_trajectory(model, 1000, seed=77)
    b = generate_trajectory(model, 1000, seed=77)
    assert np.array_equal(a.phases, b.phases)
    c = generate_trajectory(model, 1000, seed=78)
    assert not np.array_equal(a.phases, c.phases)


def test_trajectory_length_validation():
    with pytest.raises(ValueError):
        generate_trajectory(white(), 0, seed=0)


# ---------------------------------------------------------------------------
# psd
# ---------------------------------------------------------------------------


def test_white_psd_is_flat():
    spec = psd(white(), 64)
    assert np.allclose(spec.values, 2.0 * T_S)
    assert spec.freqs[0] == 0.0
    assert spec.freqs[-1] == pytest.approx(NYQUIST)


def test_ma1_psd_endpoints():
    # S(theta) = |1 + 0.5 e^{-i theta}|^2 = 1.25 + cos(theta)
    model = ArmaModel(ar=(), ma=(1.0, 0.5), drive_std=1.0, sample_period=T_S)
    spec = psd(model, 33)
    discrete = spec.values / (2.0 * T_S)
    assert discrete[0] == pytest.approx(2.25, rel=1e-12)
    assert discrete[-1] == pytest.approx(0.25, rel=1e-12)
    theta = np.pi * np.arange(33) / 32
    assert np.allclose(discrete, 1.25 + np.cos(theta), rtol=1e-12)


def test_ar1_psd_endpoints():
    spec = psd(ar1(0.5), 17)
    discrete = spec.values / (2.0 * T_S)
    assert discrete[0] == pytest.approx(4.0, rel=1e-12)
    assert discrete[-1] == pytest.approx(4.0 / 9.0, rel=1e-12)


def test_psd_grid_validation():
    with pytest.raises(ValueError):
        psd(white(), 1)


# ---------------------------------------------------------------------------
# autocovariance
# ---------------------------------------------------------------------------


def test_white_autocovariance():
    model = ArmaModel(ar=(), ma=(0.3,), drive_std=1.0, sample_period=T_S)
    r = autocovariance(model, 3)
    assert r[0] == pytest.approx(0.09, rel=1e-12)
    assert np.allclose(r[1:], 0.0)


def test_ma1_autocovariance():
    model = ArmaModel(ar=(), ma=(1.0, 0.5), drive_std=1.0, sample_period=T_S)
    r = autocovariance(model, 2)
    assert r[0] == pytest.approx(1.25, rel=1e-12)
    assert r[1] == pytest.approx(0.5, rel=1e-12)
    assert r[2] == 0.0


def test_ar1_autocovariance():
    r = autocovariance(ar1(0.5), 1)
    assert r[0] == pytest.approx(4.0 / 3.0, rel=1e-9)
    assert r[1] == pytest.approx(2.0 / 3.0, rel=1e-9)


# ---------------------------------------------------------------------------
# designers
# ---------------------------------------------------------------------------


def half_power_band_center(spectrum):
    above = np.nonzero(spectrum.values >= spectrum.values.max() / 2)[0]
    return 0.5 * (spectrum.freqs[above[0]] + spectrum.freqs[above[-1]])


def in_band_power(spectrum, lo, hi):
    inside = (spectrum.freqs >= lo) & (spectrum.freqs <= hi)
    return np.trapezoid(np.where(inside, spectrum.values, 0.0), spectrum.freqs)


def test_bandpass_paper_band_center():
    # 1.43 MHz center at the 70 ns gate period
    model = design_bandpass(1.43e6, 0.54e6, 2e-3, 70e-9)
    spec = psd(model)
    assert abs(half_power_band_center(spec) - 1.43e6) <= 0.02 * 1.43e6
    assert np.dot(model.ma, model.ma) == pytest.approx(2e-3, rel=1e-12)


@pytest.mark.parametrize("taps", [201, 257])
def test_bandpass_power_concentration(taps):
    # narrowest studied band; >= 90% of r(0) inside the target band
    model = design_bandpass(1.43e6, 0.18e6, 1.0, 70e-9, taps=taps)
    spec = psd(model)
    assert in_band_power(spec, 1.43e6 - 0.09e6, 1.43e6 + 0.09e6) >= 0.90


def test_bandpass_out_of_band_suppression():
    model = design_bandpass(1.0e6, 0.2e6, 1.0, T_S)
    spec = psd(model)
    transition = 2.0 / (257 * T_S)
    outside = np.abs(spec.freqs - 1.0e6) > 0.1e6 + transition
    assert spec.values[outside].max() <= 0.01 * spec.values.max()


def test_bandpass_zero_power():
    model = design_bandpass(1.0e6, 0.2e6, 0.0, T_S)
    assert model.drive_std == 0.0
    traj = generate_trajectory(model, 64, seed=0)
    assert np.array_equal(traj.phases, np.zeros(64))


def test_bandpass_band_validation():
    with pytest.raises(ValueError):
        design_bandpass(NYQUIST, 0.5e6, 1.0, T_S)
    with pytest.raises(ValueError):
        design_bandpass(0.05e6, 0.2e6, 1.0, T_S)


def test_multiband_two_peaks():
    model = design_multiband(
        [(1.07e6, 0.18e6, 1e-3), (1.79e6, 0.18e6, 1e-3)], 70e-9
    )
    spec = psd(model)
    for center in (1.07e6, 1.79e6):
        window = np.abs(spec.freqs - center) <= 0.12e6
        local_peak = spec.freqs[window][np.argmax(spec.values[window])]
        assert abs(local_peak - center) <= 0.02 * center
    assert np.dot(model.ma, model.ma) == pytest.approx(2e-3, rel=1e-12)


def test_multiband_overlapping_bands_merge():
    # skirts overlap; the summed target still carries the full power
    model = design_multiband([(0.5e6, 0.5e6, 1.0), (1.0e6, 0.5e6, 1.0)], T_S)
    r0 = autocovariance(model, 0)[0]
    assert r0 == pytest.approx(2.0, rel=1e-12)
    assert psd(model).total_power() == pytest.approx(r0, rel=1e-6)


def test_multiband_single_band_matches_bandpass():
    a = design_multiband([(1.0e6, 0.3e6, 0.5)], T_S)
    b = design_bandpass(1.0e6, 0.3e6, 0.5, T_S)
    assert np.allclose(psd(a).values, psd(b).values, atol=1e-12)


def fit_loglog_slope(spectrum, lo, hi):
    sel = (spectrum.freqs >= lo) & (spectrum.freqs <= hi) & (spectrum.values > 0)
    return np.polyfit(np.log10(spectrum.freqs[sel]), np.log10(spectrum.values[sel]), 1)[0]


@pytest.mark.parametrize("alpha", [-2.0, -1.0, 1.0, 2.0])
def test_power_law_slope(alpha):
    model = design_power_law(alpha, (0.5e6, 1e-6), (0.1e6, 2.0e6), T_S)
    spec = psd(model)
    assert fit_loglog_slope(spec, 0.1e6, 2.0e6) == pytest.approx(-alpha, abs=0.1)
    # anchored
    assert np.interp(0.5e6, spec.freqs, spec.values) == pytest.approx(1e-6, rel=1e-6)


def test_power_law_alpha_zero_matches_flat_bandpass():
    # the two designers normalize differently (anchor vs exact total power),
    # so match the anchor to the bandpass's realized plateau and compare
    # shapes inside the shared passband, clear of the transition skirts
    f_lo, f_hi = 0.5e6, 2.0e6
    level = 1e-6
    bp = psd(design_bandpass((f_lo + f_hi) / 2, f_hi - f_lo, level * (f_hi - f_lo), T_S))
    margin = 2.0 / (257 * T_S)
    sel = (bp.freqs >= f_lo + margin) & (bp.freqs <= f_hi - margin)
    plateau = float(np.median(bp.values[sel]))
    pl = psd(design_power_law(0.0, (1.0e6, plateau), (f_lo, f_hi), T_S))
    assert np.max(np.abs(pl.values[sel] - bp.values[sel]) / plateau) < 0.01


def test_lorentzian_pointwise_match():
    amplitude, cutoff, floor = 2e-6, 2 * np.pi * 0.5e6, 1e-7
    model = design_lorentzian(amplitude, cutoff, floor, T_S)
    spec = psd(model)
    target = amplitude / (1 + (2 * np.pi * spec.freqs) ** 2 / cutoff**2) + floor
    sel = spec.freqs <= NYQUIST / 2
    rel = np.abs(spec.values[sel] - target[sel]) / target[sel]
    assert rel.max() < 0.03


def test_lorentzian_half_power_point():
    amplitude, cutoff = 4e-6, 2 * np.pi * 0.8e6
    model = design_lorentzian(amplitude, cutoff, 0.0, T_S)
    spec = psd(model)
    at_cutoff = np.interp(cutoff / (2 * np.pi), spec.freqs, spec.values)
    assert at_cutoff == pytest.approx(amplitude / 2, rel=0.03)


def test_lorentzian_floor_only_is_white():
    floor = 3e-7
    model = design_lorentzian(0.0, 1.0e6, floor, T_S)
    r0 = autocovariance(model, 0)[0]
    assert r0 == pytest.approx(floor * NYQUIST, rel=1e-9)
    flat = psd(design_power_law(0.0, (1.0e6, floor), (0.05e6, NYQUIST), T_S))
    lor = psd(model)
    sel = lor.freqs >= 0.05e6
    assert np.max(np.abs(lor.values[sel] - flat.values[sel]) / floor) < 0.03


def test_designer_rejects_even_taps():
    with pytest.raises(ValueError, match="odd"):
        design_bandpass(1.0e6, 0.2e6, 1.0, T_S, taps=256)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def designed_models():
    return [
        design_bandpass(1.0e6, 0.2e6, 1e-3, T_S),
        design_multiband([(1.07e6, 0.18e6, 1e-3), (1.79e6, 0.18e6, 2e-3)], 70e-9),
        design_power_law(1.0, (0.5e6, 1e-6), (0.1e6, 2.0e6), T_S),
        design_lorentzian(2e-6, 2 * np.pi * 0.5e6, 1e-7, T_S),
    ]


@pytest.mark.parametrize("model_idx", range(4))
def test_parseval(model_idx):
    model = designed_models()[model_idx]
    r0 = autocovariance(model, 0)[0]
    assert psd(model).total_power() == pytest.approx(r0, rel=1e-6)


def test_parseval_arma():
    model = ArmaModel(ar=(0.4, -0.2), ma=(1.0, 0.3), drive_std=0.7, sample_period=T_S)
    r0 = autocovariance(model, 0)[0]
    assert psd(model, 8193).total_power() == pytest.approx(r0, rel=1e-6)


def test_linearity_in_drive_std():
    base = ArmaModel(ar=(0.5,), ma=(1.0, 0.2), drive_std=1.0, sample_period=T_S)
    scaled = ArmaModel(ar=(0.5,), ma=(1.0, 0.2), drive_std=3.0, sample_period=T_S)
    assert np.allclose(psd(scaled, 65).values, 9.0 * psd(base, 65).values, rtol=1e-12)
    assert np.allclose(autocovariance(scaled, 5), 9.0 * autocovariance(base, 5), rtol=1e-12)


@pytest.mark.parametrize(
    "model_fn",
    [white, ar1, lambda: design_bandpass(1.0e6, 0.3e6, 1e-2, T_S)],
    ids=["white", "ar1", "bandpass"],
)
def test_sample_path_matches_psd(model_fn):
    # Welch-averaged periodogram of a long trajectory vs the analytic PSD,
    # band-averaged over decades with at least 10 grid points
    model = model_fn()
    traj = generate_trajectory(model, 2**20, seed=5)
    f_w, p_w = welch(traj.phases, fs=1.0 / model.sample_period, nperseg=8192)
    spec = psd(model, 1 << 14 | 1)
    model_on_welch = np.interp(f_w, spec.freqs, spec.values)
    edges = NYQUIST * np.array([1e-3, 1e-2, 1e-1, 1.0])
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (f_w >= lo) & (f_w < hi)
        if sel.sum() < 10:
            continue
        measured = p_w[sel].mean()
        expected = model_on_welch[sel].mean()
        assert measured == pytest.approx(expected, rel=0.05)
