"""Survival-model and fitting tests."""

import hashlib

import numpy as np
import pytest

from dephasekit.noise_models import design_bandpass, design_lorentzian, psd
from dephasekit import predictor
from dephasekit.predictor import (
    LORENTZIAN_PLUS_WHITE,
    WHITE_ONLY,
    FitConvergenceWarning,
    FitParams,
    _ModelMatrix,
    fit,
    predict_survival,
)
from dephasekit.qubit_sim import ExperimentRecord, GateMode, PulseErrorModel, run_experiment
from dephasekit.sequences import filter_function, make_fttps

T_G, N, K = 1e-7, 128, 64


@pytest.fixture(scope="module")
def seqs():
    return make_fttps(K, N, T_G)


@pytest.fixture(scope="module")
def filters(seqs):
    return [filter_function(s) for s in seqs]


@pytest.fixture(scope="module")
def injected():
    return psd(design_bandpass(1.0e6, 0.2e6, 8e-4, T_G))


TRUE = FitParams(
    amplitude=2.2e-9, cutoff=2 * np.pi * 0.25e6, white_floor=6e-10, c1=2e-3, c2=5e-5
)


def model_records(params, seqs, filters, injected, stderr=1e-3):
    out = []
    for seq, f in zip(seqs, filters):
        p = predict_survival(params, f, seq.n_pulses, injected)
        out.append(
            ExperimentRecord(
                label=seq.label, n_pulses=seq.n_pulses, survival_mean=p,
                survival_stderr=stderr, shots=1000, trajectories=200, seed=0,
            )
        )
    return out


def shot_sampled(records, total_shots, seed):
    rng = np.random.default_rng(seed)
    out = []
    for r in records:
        m = rng.binomial(total_shots, r.survival_mean) / total_shots
        se = max(float(np.sqrt(m * (1 - m) / total_shots)), 1e-6)
        out.append(
            ExperimentRecord(
                label=r.label, n_pulses=r.n_pulses, survival_mean=m,
                survival_stderr=se, shots=1000, trajectories=200, seed=seed,
            )
        )
    return out


# ---------------------------------------------------------------------------
# predict_survival
# ---------------------------------------------------------------------------


def test_predict_all_zero_params(seqs, filters):
    params = FitParams(amplitude=0.0, cutoff=1.0, white_floor=0.0, c1=0.0, c2=0.0)
    for seq, f in zip(seqs[:8], filters[:8]):
        assert predict_survival(params, f, seq.n_pulses, None) == 1.0


def test_predict_white_only_flat(seqs, filters):
    params = FitParams(white_floor=4e-10, kind=WHITE_ONLY)
    values = [
        predict_survival(params, f, s.n_pulses, None) for s, f in zip(seqs, filters)
    ]
    assert np.ptp(values) < 1e-12
    assert 0.5 < values[0] < 1.0


def test_predict_c2_exactly_quadratic(seqs, filters):
    params = FitParams(white_floor=0.0, c2=3e-5, kind=WHITE_ONLY)
    for seq, f in zip(seqs, filters):
        p = predict_survival(params, f, seq.n_pulses, None)
        assert np.log(2 * p - 1) == pytest.approx(-3e-5 * seq.n_pulses**2, abs=1e-12)


def test_predict_in_half_open_interval(seqs, filters):
    params = FitParams(amplitude=2e-9, cutoff=1e6, white_floor=1e-10, c1=0.005, c2=2e-4)
    for f, seq in zip(filters, seqs):
        p = predict_survival(params, f, seq.n_pulses, None)
        assert 0.5 < p <= 1.0


def test_fitparams_validation():
    with pytest.raises(ValueError):
        FitParams(amplitude=-1.0)
    with pytest.raises(ValueError):
        FitParams(cutoff=0.0)
    with pytest.raises(ValueError):
        FitParams(kind="nope")


# ---------------------------------------------------------------------------
# fit: recovery
# ---------------------------------------------------------------------------


def test_fit_exact_recovery(seqs, filters, injected):
    records = model_records(TRUE, seqs, filters, injected)
    result = fit(records, filters, injected)
    assert result.converged
    assert result.params.amplitude == pytest.approx(TRUE.amplitude, rel=1e-6)
    assert result.params.cutoff == pytest.approx(TRUE.cutoff, rel=1e-6)
    assert result.params.white_floor == pytest.approx(TRUE.white_floor, rel=1e-6)
    assert result.params.c1 == pytest.approx(TRUE.c1, rel=1e-6)
    assert result.params.c2 == pytest.approx(TRUE.c2, rel=1e-6)
    assert result.loss < 1e-20


def test_fit_recovery_under_shot_noise(seqs, filters, injected):
    # forward-generated survivals with known coefficients, binomially sampled
    # at the 200 x 1000 shot budget
    records = shot_sampled(model_records(TRUE, seqs, filters, injected), 200 * 1000, seed=0)
    result = fit(records, filters, injected)
    assert result.params.white_floor == pytest.approx(TRUE.white_floor, rel=0.2)
    assert result.params.c1 == pytest.approx(TRUE.c1, rel=0.2)
    assert result.params.c2 == pytest.approx(TRUE.c2, rel=0.2)
    rms = float(np.sqrt(np.mean(result.residuals**2)))
    shot_floor = float(np.mean([r.survival_stderr for r in records]))
    assert rms <= 2 * shot_floor


def test_fit_unitary_simulation_pulse_errors(seqs, filters):
    """Unitary-simulated pulse errors: the model reaches the noise floor and
    the total pulse-error decay is identified.

    Per-pulse jitter of std sigma_p and coherent over-rotation eps induce
    chi contributions (sigma_p^2/2) n and -ln cos(n eps); their split into
    c1 n + c2 n^2 is degenerate at this trajectory budget, but their sum at
    the highest pulse count is pinned.
    """
    eps, sigma_p = 0.012, 0.05
    inj_model = design_bandpass(1.0e6, 0.2e6, 2e-4, T_G)
    s_inj = psd(inj_model)
    native = design_lorentzian(4e-10, 2 * np.pi * 0.25e6, 1.5e-10, T_G)
    records = run_experiment(
        seqs, inj_model, native_model=native,
        pulse_errors=PulseErrorModel(over_rotation=eps, jitter_std=sigma_p),
        mode=GateMode(trajectories=200, shots_per_trajectory=1000), seed=77,
    )
    result = fit(records, filters, s_inj)
    rms = float(np.sqrt(np.mean(result.residuals**2)))
    floor = float(np.mean([r.survival_stderr for r in records]))
    assert rms <= 2 * floor
    n_top = K - 1
    fitted_decay = result.params.c1 * n_top + result.params.c2 * n_top**2
    expected_decay = sigma_p**2 / 2 * n_top - np.log(np.cos(n_top * eps))
    assert fitted_decay == pytest.approx(expected_decay, rel=0.25)


def test_fit_masking_isolated_resonances(seqs, filters, injected):
    # two sequences carry extra narrowband native power; masking them leaves
    # the ancillary estimates where the clean data puts them
    clean = shot_sampled(model_records(TRUE, seqs, filters, injected), 10**6, seed=4)
    resonant = []
    for r in clean:
        if r.label in (5, 9):
            chi_extra = 0.5
            p = 0.5 + (r.survival_mean - 0.5) * np.exp(-chi_extra)
            r = ExperimentRecord(
                label=r.label, n_pulses=r.n_pulses, survival_mean=p,
                survival_stderr=r.survival_stderr, shots=r.shots,
                trajectories=r.trajectories, seed=r.seed,
            )
        resonant.append(r)
    ref = fit(clean, filters, injected)
    masked = fit(resonant, filters, injected, mask=(5, 9))
    for i, (a, b) in enumerate(zip(masked.params.to_vector(), ref.params.to_vector())):
        sigma = max(masked.param_stderr[i], ref.param_stderr[i], 1e-30)
        assert abs(a - b) <= max(1.0 * sigma, 0.02 * abs(b) + 1e-30)
    assert masked.params.mask == frozenset({5, 9})


def test_fit_white_only_kind(seqs, filters):
    true = FitParams(white_floor=5e-10, c1=1e-3, c2=2e-5, kind=WHITE_ONLY)
    records = model_records(true, seqs, filters, None)
    result = fit(records, filters, None, kind=WHITE_ONLY)
    assert result.params.kind == WHITE_ONLY
    assert result.params.amplitude == 0.0
    assert result.params.white_floor == pytest.approx(5e-10, rel=1e-6)
    assert result.params.c1 == pytest.approx(1e-3, rel=1e-6)
    assert result.params.c2 == pytest.approx(2e-5, rel=1e-6)


def test_fit_flags_unresolved_parameters(seqs, filters, injected):
    # exact records pin every parameter down; records without native Lorentzian
    # power leave that Lorentzian's amplitude and cutoff free
    exact = fit(model_records(TRUE, seqs, filters, injected), filters, injected)
    assert exact.unresolved == ()
    white = FitParams(white_floor=6e-10, c1=2e-3, c2=5e-5, kind=WHITE_ONLY)
    result = fit(model_records(white, seqs, filters, injected), filters, injected)
    assert {"amplitude", "cutoff_sq"} <= set(result.unresolved)
    names = predictor._PARAM_NAMES[LORENTZIAN_PLUS_WHITE]
    assert result.unresolved == tuple(
        n for n, v, err in zip(names, result.params.to_vector(), result.param_stderr)
        if not np.isfinite(err) or err > abs(v)
    )


def test_fit_requires_enough_records(seqs, filters, injected):
    records = model_records(TRUE, seqs, filters, injected)[:4]
    with pytest.raises(ValueError, match="unmasked"):
        fit(records, filters, injected)


def test_fit_rejects_unknown_kind(seqs, filters, injected):
    records = model_records(TRUE, seqs, filters, injected)
    with pytest.raises(ValueError, match="kind"):
        fit(records, filters, injected, kind="pink")


# ---------------------------------------------------------------------------
# fit: structure
# ---------------------------------------------------------------------------


def test_nesting_white_loss_bounds_lorentzian_loss(seqs, filters, injected):
    records = shot_sampled(model_records(TRUE, seqs, filters, injected), 50000, seed=8)
    white = fit(records, filters, injected, kind=WHITE_ONLY)
    lorentzian = fit(records, filters, injected, kind=LORENTZIAN_PLUS_WHITE)
    assert lorentzian.loss <= white.loss + 1e-15


def test_injected_spectrum_is_exogenous(seqs, filters, injected):
    records = shot_sampled(model_records(TRUE, seqs, filters, injected), 10**5, seed=3)
    before = injected.values.copy()
    result = fit(records, filters, injected)
    assert np.array_equal(injected.values, before)
    # perturbing the injected spectrum moves only the ancillary estimates;
    # the result object carries no spectral degrees of freedom
    bumped = psd(design_bandpass(1.0e6, 0.2e6, 9e-4, T_G))
    result_b = fit(records, filters, bumped)
    assert result_b.params.to_vector().shape == result.params.to_vector().shape
    assert not np.allclose(result_b.params.to_vector(), result.params.to_vector())


def test_jacobian_matches_finite_differences(seqs, filters, injected):
    # analytic model Jacobian vs central differences at random feasible points
    records = model_records(TRUE, seqs, filters, injected)
    matrix = _ModelMatrix(records, filters, injected, LORENTZIAN_PLUS_WHITE)
    rng = np.random.default_rng(123)
    scale = TRUE.to_vector()
    for _ in range(100):
        x = scale * np.exp(rng.uniform(-1.5, 1.5, size=5))
        analytic = matrix.jacobian(x)
        fd = np.empty_like(analytic)
        for i in range(5):
            h = 1e-6 * x[i]
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd[:, i] = (matrix.residuals(xp) - matrix.residuals(xm)) / (2 * h)
        err = np.abs(analytic - fd).max() / np.abs(fd).max()
        assert err < 1e-4


def test_fit_reports_jacobian_check(seqs, filters, injected):
    records = model_records(TRUE, seqs, filters, injected)
    result = fit(records, filters, injected)
    assert result.jacobian_rel_err < 1e-4


def test_residual_orthogonality_at_interior_solution(seqs, filters, injected):
    records = shot_sampled(model_records(TRUE, seqs, filters, injected), 200 * 1000, seed=0)
    result = fit(records, filters, injected)
    matrix = _ModelMatrix(
        [r for r in records], filters, injected, LORENTZIAN_PLUS_WHITE
    )
    x = result.params.to_vector()
    jac = matrix.jacobian(x)
    residuals = matrix.residuals(x)
    # unit-normalize columns: the raw parameter units span ~18 decades
    norms = np.linalg.norm(jac, axis=0)
    grad = np.abs(jac.T @ residuals) / np.where(norms > 0, norms, 1.0)
    interior = x > 1e-12
    assert np.all(grad[interior] < 1e-6 * np.linalg.norm(residuals))


def test_fit_deterministic(seqs, filters, injected):
    records = shot_sampled(model_records(TRUE, seqs, filters, injected), 50000, seed=5)
    a = fit(records, filters, injected)
    b = fit(records, filters, injected)
    assert np.array_equal(a.params.to_vector(), b.params.to_vector())
    assert a.loss == b.loss


def test_fit_least_squares_budget(seqs, filters, monkeypatch):
    # the README pipeline's records at seed 1: the Lorentzian fit refines its grid cutoff
    # with one least-squares solve within the budget; white_only is one NNLS solve alone
    model = design_bandpass(1.0e6, 0.2e6, 1e-3, T_G)
    records = run_experiment(
        seqs, model, mode=GateMode(trajectories=200, shots_per_trajectory=1000), seed=1
    )
    nfev = []
    solve = predictor.least_squares

    def spy(*args, **kwargs):
        sol = solve(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol

    monkeypatch.setattr(predictor, "least_squares", spy)
    result = fit(records, filters, injected=psd(model))
    assert len(nfev) == 1
    assert nfev[0] < predictor._MAX_NFEV
    assert result.converged
    white = fit(records, filters, injected=psd(model), kind=WHITE_ONLY)
    assert len(nfev) == 1
    assert white.converged


@pytest.fixture(scope="module")
def readme_records(seqs):
    """The README pipeline's records at seed 1, with its injected spectrum."""
    model = design_bandpass(1.0e6, 0.2e6, 1e-3, T_G)
    records = run_experiment(
        seqs, model, mode=GateMode(trajectories=200, shots_per_trajectory=1000), seed=1
    )
    return records, psd(model)


@pytest.mark.parametrize("case", ["readme-seed-1", "criterion-6-seed-0",
                                  "criterion-6-seed-1", "criterion-6-seed-2"])
def test_cutoff_refinement_matches_scipy_least_squares(case, seqs, filters, injected,
                                                       readme_records, monkeypatch):
    # the Gauss-Newton refinement finds the log cutoff_sq that a bounded trust-region
    # least_squares over the whole band finds from the same grid point
    from scipy.optimize import least_squares as scipy_least_squares

    if case == "readme-seed-1":
        records, spectrum = readme_records
    else:
        seed = int(case.rsplit("-", 1)[1])
        records, spectrum = shot_sampled(model_records(TRUE, seqs, filters, injected),
                                         200 * 1000, seed=seed), injected
    ours = fit(records, filters, spectrum)
    band = tuple(np.log((2.0 * np.pi * filters[0].freqs[[1, -1]]) ** 2))

    def trust_region(fun, x0, jac, bounds, max_nfev):
        return scipy_least_squares(fun, x0, jac=jac, bounds=band, method="trf", ftol=1e-14,
                                   xtol=1e-14, gtol=1e-14, max_nfev=max_nfev)

    monkeypatch.setattr(predictor, "least_squares", trust_region)
    theirs = fit(records, filters, spectrum)
    assert ours.converged and theirs.converged
    t_ours, t_theirs = np.log(ours.params.cutoff**2), np.log(theirs.params.cutoff**2)
    assert abs(t_ours - t_theirs) <= 1e-10 * abs(t_theirs)


@pytest.mark.parametrize("cutoff_hz, end", [(100.0, 0), (20e6, -1)], ids=["below", "above"])
def test_cutoff_past_band_end_is_bounds_active(cutoff_hz, end, seqs, filters, injected):
    # a native cutoff outside the filters' band: the refinement stops at the band's end
    # with its gradient pointing out, and cutoff_sq is listed as at its bound
    params = FitParams(amplitude=2.2e-9, cutoff=2 * np.pi * cutoff_hz, white_floor=6e-10,
                       c1=2e-3, c2=5e-5)
    result = fit(model_records(params, seqs, filters, injected), filters, injected)
    band = (2.0 * np.pi * filters[0].freqs[[1, -1]]) ** 2
    assert result.converged
    assert result.params.cutoff**2 == pytest.approx(band[end], rel=1e-12)
    assert "cutoff_sq" in result.bounds_active


def test_fit_warns_when_refinement_budget_is_spent(seqs, filters, injected, monkeypatch):
    # one evaluation, the grid point's own, leaves the interior optimum unrefined
    monkeypatch.setattr(predictor, "_MAX_NFEV", 1)
    records = model_records(TRUE, seqs, filters, injected)
    with pytest.warns(FitConvergenceWarning, match="within 1 evaluations"):
        result = fit(records, filters, injected)
    assert not result.converged


def _fit_digest(result):
    h = hashlib.sha256()
    for values in (result.params.to_vector(), result.param_stderr, result.residuals):
        h.update(np.ascontiguousarray(values, dtype="<f8").tobytes())
    h.update(repr((float(result.loss), result.bounds_active, result.unresolved)).encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "kind, digest",
    [
        (LORENTZIAN_PLUS_WHITE,
         "792848762dca951883e88886d8674e11e26f5b888ffacd32e5563978670df34d"),
        (WHITE_ONLY, "ff52313a42f397ac0fa434cbbd056920e9408050b2847d82700f0ae4efcbf369"),
    ],
)
def test_fit_golden_digest(seqs, filters, injected, kind, digest):
    # pins the fitted vector, its stderr, the residuals, the loss and both flag lists:
    # a change to the model evaluation, the cutoff grid or the solver settings shows here
    records = shot_sampled(model_records(TRUE, seqs, filters, injected), 50000, seed=8)
    if kind == LORENTZIAN_PLUS_WHITE:
        result = fit(records, filters, injected)
    else:
        result = fit(records, filters, None, kind=WHITE_ONLY, mask=(5, 9))
    assert _fit_digest(result) == digest


def test_zero_jacobian_column_is_unresolved(seqs, filters):
    # the README pipeline's records at seed 7 carry no native Lorentzian: the NNLS puts the
    # amplitude at exactly 0, which zeroes the cutoff_sq column, so no stderr can be had
    model = design_bandpass(1.0e6, 0.2e6, 1e-3, T_G)
    records = run_experiment(
        seqs, model, mode=GateMode(trajectories=200, shots_per_trajectory=1000), seed=7
    )
    result = fit(records, filters, injected=psd(model))
    assert result.params.amplitude == 0.0
    assert result.param_stderr[1] == np.inf
    assert "cutoff_sq" in result.unresolved


def test_saturated_records_weigh_nothing(seqs, filters, injected):
    # a record within the saturation floor of p = 1/2 is listed and left out of the loss
    records = model_records(TRUE, seqs, filters, injected)
    records[40] = ExperimentRecord(label=40, n_pulses=40, survival_mean=0.51,
                                   survival_stderr=1e-3, shots=1000, trajectories=200, seed=0)
    result = fit(records, filters, injected)
    masked = fit(records, filters, injected, mask=(40,))
    assert result.saturated == (40,)
    assert masked.saturated == ()
    assert np.allclose(result.params.to_vector(), masked.params.to_vector(), rtol=1e-9, atol=0)
    assert result.chi2_per_dof == result.loss / (63 - 5)
