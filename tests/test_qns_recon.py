"""Reconstruction tests: inversion round trips, subtraction, bootstrap."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls as scipy_nnls

from dephasekit import qns_recon
from dephasekit.noise_models import ArmaModel, autocovariance, design_bandpass, design_lorentzian
from dephasekit.predictor import WHITE_ONLY, _ModelMatrix
from dephasekit.qns_recon import (
    DEFAULT_SATURATION_FLOOR,
    Decay,
    RankDeficientError,
    _binned_filter_matrix,
    _decays,
    bootstrap_spectrum,
    decay_from_survival,
    nnls,
    reconstruct_spectrum,
    subtract_native,
)
from dephasekit.qubit_sim import (
    ExperimentRecord,
    GateMode,
    _survival_stats,
    analytic_survival,
    run_experiment,
)
from dephasekit.seeds import SeedLineage
from dephasekit.sequences import filter_function, make_fttps
from dephasekit.serialize import write_spectrum_estimate_csv

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


def test_decay_rule_matches_scalar_reference():
    # the array rule against per-record scalar arithmetic, bit for bit, at and around
    # the floor and the ends of [0, 1]
    rng = np.random.default_rng(3)
    means = np.concatenate([[0.0, 0.5, 0.52, 0.5201, 1.0], rng.uniform(0.0, 1.0, 500)])
    stderrs = np.concatenate([np.zeros(5), rng.uniform(0.0, 0.1, 500)])
    usable, chi, weights = _decays(means, stderrs, DEFAULT_SATURATION_FLOOR)
    for p, se, u, c, w in zip(means.tolist(), stderrs.tolist(), usable, chi, weights):
        assert u == (p > 0.52)
        if u:
            q = 2.0 * se / (2.0 * p - 1.0)
            assert c == float(-np.log(2.0 * p - 1.0))
            assert w == 1.0 / np.sqrt(max(q * q, 1e-24))
        else:
            assert c == float(-np.log(0.04)) and w == 0.0
        assert decay_from_survival(p) == Decay(chi=c, saturated=not u)
    for bad in (1.2, -0.1, np.nan):
        with pytest.raises(ValueError, match=r"survival probability must lie in \[0, 1\]"):
            _decays(np.array([0.9, bad]), np.zeros(2), DEFAULT_SATURATION_FLOOR)
    with pytest.raises(ValueError, match=r"floor must lie in \(0, 0.5\), got 0.7"):
        _decays(means, stderrs, 0.7)


# ---------------------------------------------------------------------------
# nnls
# ---------------------------------------------------------------------------


def _nnls_kkt_violation(a, b, x):
    """The largest breach of the NNLS optimality conditions on columns scaled to unit
    norm, relative to ||b||: the gradient is 0 on the positive entries, <= 0 elsewhere."""
    norms = np.linalg.norm(a, axis=0)
    gradient = (a / np.where(norms > 0, norms, 1.0)).T @ (b - a @ x)
    worst = max(np.abs(gradient[x > 0]).max(initial=0.0), gradient[x == 0].max(initial=0.0))
    return worst / max(np.linalg.norm(b), 1e-300)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(n=st.integers(1, 30), extra=st.integers(1, 30), spread=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(n=24, extra=8, spread=True, seed=0)
def test_nnls_matches_scipy(n, extra, spread, seed):
    # an overdetermined Gaussian system has one solution, so both solvers must find it;
    # ``spread`` scales the column norms over 12 decades (the reconstruction's span ~3)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n + extra, n))
    if spread:
        a *= np.logspace(-6.0, 6.0, n)[rng.permutation(n)]
    b = rng.standard_normal(n + extra)
    x, rnorm = nnls(a, b)
    ref, ref_rnorm = scipy_nnls(a, b)
    assert np.array_equal(x > 0, ref > 0)
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
    assert rnorm == pytest.approx(ref_rnorm, rel=1e-12)
    assert _nnls_kkt_violation(a, b, x) <= 1e-12


@pytest.mark.parametrize(
    "case", ["b-zero", "zero-column", "duplicated-columns", "rank-deficient-64",
             "near-collinear"],
)
def test_nnls_degenerate_systems(case, monkeypatch):
    # each stops within the 3n cap on inner solves with a finite x >= 0 that meets the
    # optimality conditions; the near-collinear pair (distance 1e-6 apart) needs the
    # lstsq fallback, as the Gram solve loses the split between them
    rng = np.random.default_rng(4)
    a = rng.standard_normal((20, 6))
    b = rng.standard_normal(20)
    if case == "b-zero":
        b = np.zeros(20)
    elif case == "zero-column":
        a[:, 2] = 0.0
    elif case == "duplicated-columns":
        a = np.column_stack([a, a[:, ::-1]])
    elif case == "rank-deficient-64":
        a = rng.standard_normal((64, 32)) @ rng.standard_normal((32, 64))
        b = rng.standard_normal(64)
    elif case == "near-collinear":
        a[:, 1] = a[:, 0] + 1e-6 * rng.standard_normal(20)
        b = a[:, :3] @ np.array([1.0, 2.0, 0.5])
    solves = []
    solve = qns_recon._passive_solve
    monkeypatch.setattr(qns_recon, "_passive_solve",
                        lambda *args: solves.append(1) or solve(*args))
    x, rnorm = nnls(a, b)
    assert np.all(np.isfinite(x)) and np.all(x >= 0.0)
    assert len(solves) <= 3 * a.shape[1]
    assert rnorm == pytest.approx(np.linalg.norm(a @ x - b), rel=1e-12, abs=1e-300)
    assert _nnls_kkt_violation(a, b, x) <= 1e-12
    if case == "near-collinear":
        assert np.abs(x - [1.0, 2.0, 0.5, 0.0, 0.0, 0.0]).max() <= 1e-9


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
    est_zero = reconstruct_spectrum(boosted, filters, bins_like=est_drop)
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


def test_bins_equal_to_usable_count_is_uniform():
    # asking for as many bins as usable records still gives the uniform grid
    seqs16 = make_fttps(16, N, T_G)
    records = noiseless_records(design_bandpass(1.0e6, 0.4e6, 1e-3, T_G), seqs16)
    estimate = reconstruct_spectrum(records, [filter_function(s) for s in seqs16], bins=16)
    assert len(estimate.labels) == 16, "test premise: every record is usable"
    np.testing.assert_allclose(estimate.bin_widths, estimate.bin_edges[-1] / 16, rtol=1e-12)


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


def test_stderr_is_gauss_newton_on_nnls_support(seqs, filters):
    # free bins: sqrt(diag(pinv(A^T A))) of the weighted free columns; a bin m at 0: the
    # same on the free columns plus column m
    model = design_bandpass(1.0e6, 0.3e6, 9e-4, T_G)
    records = noiseless_records(model, seqs)
    estimate = reconstruct_spectrum(records, filters)
    assert estimate.labels == tuple(range(K)), "test premise: no record saturates"
    free = estimate.values > 0
    assert free.any() and not free.all(), "test premise: the NNLS pins some bins at 0"
    means = np.array([r.survival_mean for r in records])
    stderrs = np.array([r.survival_stderr for r in records])
    weights = (2.0 * means - 1.0) / (2.0 * stderrs)
    design = _binned_filter_matrix(records, {f.label: f for f in filters}, estimate.bin_edges)
    sub = (design * weights[:, None])[:, free]
    expected = np.sqrt(np.diag(np.linalg.pinv(sub.T @ sub)))
    np.testing.assert_allclose(estimate.stderr[free], expected, rtol=1e-10, atol=0.0)
    for m in np.flatnonzero(~free):
        sub = (design * weights[:, None])[:, np.append(np.flatnonzero(free), m)]
        expected = np.sqrt(np.linalg.pinv(sub.T @ sub)[-1, -1])
        np.testing.assert_allclose(estimate.stderr[m], expected, rtol=1e-10, atol=0.0)


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


def test_bootstrap_equals_per_resample_design(seqs, filters):
    # three records straddle the saturation floor, so resamples drop some of them; the
    # shared design matrix must give what a per-resample matrix gives, bit for bit
    rng = np.random.default_rng(17)
    records = []
    for seq in seqs[:16]:
        centre = 0.53 if seq.label in (3, 8, 12) else 0.8
        raw = np.clip(centre + 0.05 * rng.standard_normal(30), 0.0, 1.0)
        mean, stderr = _survival_stats(raw, 100)
        records.append(ExperimentRecord(
            label=seq.label, n_pulses=seq.n_pulses, survival_mean=mean, survival_stderr=stderr,
            shots=100, trajectories=raw.size, seed=0, trajectory_survivals=raw,
        ))
    filters = filters[:16]
    resamples, seed = 60, 4
    result = bootstrap_spectrum(records, filters, resamples=resamples, seed=seed)

    by_label = {f.label: f for f in filters}
    edges = result.median.bin_edges
    values = np.zeros((resamples, edges.size - 1))
    dropped = set()
    for b in range(resamples):
        draw_rng = SeedLineage(seed).child(b).generator()
        resampled = []
        for rec in records:
            raw = rec.trajectory_survivals
            mean, stderr = _survival_stats(raw[draw_rng.integers(0, raw.size, raw.size)],
                                           rec.shots)
            resampled.append(ExperimentRecord(
                label=rec.label, n_pulses=rec.n_pulses, survival_mean=mean,
                survival_stderr=stderr, shots=rec.shots, trajectories=rec.trajectories,
                seed=rec.seed,
            ))
        usable = [r for r in resampled
                  if not decay_from_survival(r.survival_mean, DEFAULT_SATURATION_FLOOR).saturated]
        dropped.add(len(records) - len(usable))
        chi = np.array([decay_from_survival(r.survival_mean).chi for r in usable])
        # 1/sqrt(max((2 se / (2p - 1))**2, 1e-24)), squared by multiplication: Python's
        # float ** goes through libm pow, which need not round correctly
        ratio = [2.0 * r.survival_stderr / (2.0 * r.survival_mean - 1.0) for r in usable]
        weights = np.array([1.0 / np.sqrt(max(q * q, 1e-24)) for q in ratio])
        design = _binned_filter_matrix(usable, by_label, edges)
        values[b], _ = nnls(design * weights[:, None], chi * weights)
    assert len(dropped) > 1 and 0 in dropped
    assert np.array_equal(result.median.values, np.median(values, axis=0))
    assert np.array_equal(result.lower, np.quantile(values, 0.025, axis=0))
    assert np.array_equal(result.upper, np.quantile(values, 0.975, axis=0))


@pytest.mark.parametrize(
    "case, power, recon_kwargs, digest",
    [
        # sequences 7, 8, 14 and 15 sit at or below the saturation floor, and
        # resamples move their neighbours across it
        ("straddle", 0.2, {},
         "0650e79f4613b72d6dac2e7fe07e2a52c82bf32639c984c875f92afc4765ca63"),
        ("ridge", 0.01, {"ridge": 1e16},
         "683b8fc29b25148c3b1f1892516172d547ea2e8032ad80e47c7b39b500bb180b"),
    ],
)
def test_bootstrap_golden_digest(tmp_path, case, power, recon_kwargs, digest):
    # pins the point estimate, the bootstrap draws and the band arithmetic
    seqs = make_fttps(16, 64, T_G)
    filters = [filter_function(s, 1025) for s in seqs]
    model = design_bandpass(1.5e6, 1.0e6, power, T_G, taps=101)
    records = run_experiment(
        seqs, model, mode=GateMode(trajectories=20, shots_per_trajectory=50), seed=5,
        keep_raw=True,
    )
    point = reconstruct_spectrum(records, filters, **recon_kwargs)
    band = bootstrap_spectrum(records, filters, resamples=40, seed=3, **recon_kwargs)
    path = tmp_path / "spectrum.csv"
    write_spectrum_estimate_csv(path, point, band)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# each keyword moves the point estimate; a floor of 0.15 saturates the record at p = 0.641
@pytest.mark.parametrize(
    "keyword", [{"bins": 16}, {"ridge": 1e6}, {"saturation_floor": 0.15}],
    ids=["bins", "ridge", "saturation_floor"],
)
def test_bootstrap_returns_point_estimate(mc_run, filters, keyword):
    # the bootstrap's point estimate is reconstruct_spectrum's, with the same keyword
    _, records = mc_run
    band = bootstrap_spectrum(records, filters, resamples=2, seed=1, **keyword)
    point = reconstruct_spectrum(records, filters, **keyword)
    for name in ("freqs", "values", "bin_edges", "stderr", "labels"):
        assert np.array_equal(getattr(band.point, name), getattr(point, name))
