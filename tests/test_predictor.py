"""Survival-model and fitting tests."""

import hashlib

import numpy as np
import pytest

from dephasekit.noise_models import design_bandpass, design_lorentzian, psd
from dephasekit import predictor
from dephasekit.predictor import (
    LORENTZIAN_PLUS_WHITE,
    WHITE_ONLY,
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
         "dff781de6ff67f5bb3a2718203843add4c45028e3955132a19c936c8c49f12cf"),
        (WHITE_ONLY, "48e5264d1d816ccb43f99d3de436cff97d3d49e5475b1921b4a9f7195d85d5e2"),
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
