"""Survival-probability model and bounded least-squares fitting.

The model for sequence k with n_k pulses and filter g_k is

    p_k = 1/2 + 1/2 * exp[-g_k . (S_native + S_injected) - c1 n_k - c2 n_k^2]

where S_native is either a Lorentzian plus a white floor,
A / (1 + omega^2 / omega_c^2) + sigma2, or a white floor alone, and c1, c2
absorb stochastic and coherent pulse errors.  The injected spectrum is fixed
data; fitting adjusts only the ancillary native-noise and pulse-error terms.
The loss is taken on probabilities, which avoids the log-transform
singularity near p = 1/2.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import least_squares

from .noise_models import Spectrum
from .qubit_sim import ExperimentRecord
from .seeds import as_lineage
from .sequences import FilterFunction, _filters_by_label

LORENTZIAN_PLUS_WHITE = "lorentzian_plus_white"
WHITE_ONLY = "white_only"
_PARAM_NAMES = {
    LORENTZIAN_PLUS_WHITE: ("amplitude", "cutoff_sq", "white_floor", "c1", "c2"),
    WHITE_ONLY: ("white_floor", "c1", "c2"),
}


class FitConvergenceWarning(UserWarning):
    pass


@dataclass(frozen=True)
class FitParams:
    """Native-noise parameters plus per-pulse error coefficients.

    ``amplitude`` (rad^2/Hz) and ``cutoff`` (rad/s) describe the Lorentzian,
    ``white_floor`` (rad^2/Hz) the flat background; ``c1`` and ``c2`` are the
    per-pulse and per-pulse-squared decay rates.
    """

    amplitude: float = 0.0
    cutoff: float = 1.0
    white_floor: float = 0.0
    c1: float = 0.0
    c2: float = 0.0
    kind: str = LORENTZIAN_PLUS_WHITE
    mask: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.kind not in _PARAM_NAMES:
            raise ValueError(f"unknown model kind {self.kind!r}")
        for name in ("amplitude", "cutoff", "white_floor", "c1", "c2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.cutoff == 0:
            raise ValueError("cutoff must be > 0")
        object.__setattr__(self, "mask", frozenset(int(k) for k in self.mask))

    def to_vector(self) -> np.ndarray:
        if self.kind == WHITE_ONLY:
            return np.array([self.white_floor, self.c1, self.c2])
        return np.array([self.amplitude, self.cutoff**2, self.white_floor, self.c1, self.c2])

    @classmethod
    def from_vector(cls, x: np.ndarray, kind: str, mask: frozenset) -> "FitParams":
        if kind == WHITE_ONLY:
            s2, c1, c2 = x
            return cls(amplitude=0.0, cutoff=1.0, white_floor=s2, c1=c1, c2=c2,
                       kind=kind, mask=mask)
        a, wc2, s2, c1, c2 = x
        return cls(amplitude=a, cutoff=float(np.sqrt(wc2)), white_floor=s2,
                   c1=c1, c2=c2, kind=kind, mask=mask)


def predict_survival(
    params: FitParams,
    filt: FilterFunction,
    n_pulses: int,
    injected: Optional[Spectrum] = None,
) -> float:
    """Model survival probability for one sequence, evaluated as in the fit; in (1/2, 1]."""
    record = ExperimentRecord(label=filt.label, n_pulses=n_pulses, survival_mean=1.0,
                              survival_stderr=0.0, shots=1, trajectories=1, seed=0)
    matrix = _ModelMatrix([record], [filt], injected, params.kind)
    return float(matrix.model(params.to_vector())[0])


@dataclass(frozen=True)
class FitResult:
    params: FitParams
    loss: float  # sum of squared probability residuals
    residuals: np.ndarray  # measured - model, per unmasked sequence
    labels: tuple[int, ...]
    covariance: np.ndarray
    param_stderr: np.ndarray
    bounds_active: tuple[str, ...]
    converged: bool
    message: str
    jacobian_rel_err: float
    n_starts: int


class _ModelMatrix:
    """Precomputed per-sequence quantities for the vectorized model."""

    def __init__(self, records, filters, injected, kind):
        by_label = _filters_by_label(records, filters)
        grid = next(iter(by_label.values())).freqs
        if injected is not None and not np.array_equal(injected.freqs, grid):
            raise ValueError("injected spectrum grid does not match the filters")
        self.kind = kind
        self.labels = tuple(r.label for r in records)
        self.measured = np.array([r.survival_mean for r in records])
        self.n_pulses = np.array([r.n_pulses for r in records], dtype=float)
        gmat = np.vstack([by_label[r.label].weights for r in records])
        self.g_total = gmat.sum(axis=1)  # sum_m g[m]: white-floor response
        self.gmat = gmat
        self.omega_sq = (2.0 * np.pi * grid) ** 2
        if injected is None:
            self.chi_injected = np.zeros(len(records))
        else:
            self.chi_injected = gmat @ injected.values

    def exponent(self, x: np.ndarray) -> np.ndarray:
        if self.kind == WHITE_ONLY:
            s2, c1, c2 = x
            chi_nat = s2 * self.g_total
        else:
            a, wc2, s2, c1, c2 = x
            lor = wc2 / (wc2 + self.omega_sq)
            chi_nat = a * (self.gmat @ lor) + s2 * self.g_total
        return chi_nat + self.chi_injected + c1 * self.n_pulses + c2 * self.n_pulses**2

    def model(self, x: np.ndarray) -> np.ndarray:
        return 0.5 + 0.5 * np.exp(-self.exponent(x))

    def residuals(self, x: np.ndarray) -> np.ndarray:
        return self.model(x) - self.measured

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """Analytic d residual / d x."""
        decay = -0.5 * np.exp(-self.exponent(x))  # dp/dE
        if self.kind == WHITE_ONLY:
            de = np.column_stack([self.g_total, self.n_pulses, self.n_pulses**2])
        else:
            a, wc2, _, _, _ = x
            lor = wc2 / (wc2 + self.omega_sq)
            d_wc2 = self.omega_sq / (wc2 + self.omega_sq) ** 2
            de = np.column_stack(
                [
                    self.gmat @ lor,
                    a * (self.gmat @ d_wc2),
                    self.g_total,
                    self.n_pulses,
                    self.n_pulses**2,
                ]
            )
        return decay[:, None] * de


def _default_init(matrix: _ModelMatrix, kind: str) -> np.ndarray:
    """Heuristic start: white floor from the high-pulse-count tail, small c's."""
    with np.errstate(invalid="ignore", divide="ignore"):
        chi_meas = -np.log(np.clip(2.0 * matrix.measured - 1.0, 1e-12, None))
    chi_excess = np.clip(chi_meas - matrix.chi_injected, 0.0, None)
    order = np.argsort(matrix.n_pulses)
    tail = order[-max(len(order) // 4, 2):]
    s2 = float(np.median(chi_excess[tail] / matrix.g_total[tail]))
    s2 = max(s2, 1e-12)
    if kind == WHITE_ONLY:
        return np.array([s2, 1e-4, 1e-4])
    # Lorentzian scale from the lowest-pulse-count residuals
    low = order[:2]
    resid = np.clip(chi_excess[low] - s2 * matrix.g_total[low], 0.0, None)
    grid_max = np.sqrt(matrix.omega_sq[-1])
    wc = grid_max / 50.0
    lor_response = matrix.gmat[low] @ (wc**2 / (wc**2 + matrix.omega_sq))
    denom = float(np.dot(lor_response, lor_response))
    amp = float(np.dot(resid, lor_response) / denom) if denom > 0 else 0.0
    return np.array([max(amp, 1e-12), wc**2, s2, 1e-4, 1e-4])


def _spread_starts(x0: np.ndarray, n_starts: int, seed: int) -> "list[np.ndarray]":
    starts = [x0]
    rng = as_lineage(seed).child(0).generator()
    for _ in range(max(n_starts - 1, 0)):
        factors = np.exp(rng.uniform(-2.0, 2.0, size=x0.size))
        starts.append(np.clip(x0 * factors, 1e-15, None))
    return starts


def _fd_jacobian(matrix: _ModelMatrix, x: np.ndarray) -> np.ndarray:
    jac = np.empty((matrix.measured.size, x.size))
    for i in range(x.size):
        h = 1e-6 * max(abs(x[i]), 1e-9)
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] = max(xm[i] - h, 0.0)
        jac[:, i] = (matrix.residuals(xp) - matrix.residuals(xm)) / (xp[i] - xm[i])
    return jac


def fit(
    records: Sequence[ExperimentRecord],
    filters: Sequence[FilterFunction],
    injected: Optional[Spectrum] = None,
    kind: str = LORENTZIAN_PLUS_WHITE,
    mask: Sequence[int] = (),
    init: Optional[FitParams] = None,
    n_starts: int = 8,
    seed: int = 0,
    max_nfev: int = 2000,
) -> FitResult:
    """Bounded trust-region least squares for the ancillary model parameters.

    ``mask`` lists sequence labels excluded from the loss (e.g. isolated
    native resonances).  Runs ``n_starts`` deterministic multi-starts (plus a
    white-only warm start for the nested model) and keeps the lowest loss,
    ties broken by start index.
    """
    if kind not in _PARAM_NAMES:
        raise ValueError(f"unknown model kind {kind!r}")
    mask_set = frozenset(int(k) for k in mask)
    used = [r for r in records if r.label not in mask_set]
    n_free = len(_PARAM_NAMES[kind])
    if len(used) < n_free + 1:
        raise ValueError(
            f"need at least {n_free + 1} unmasked records to fit {n_free} parameters, "
            f"got {len(used)}"
        )
    matrix = _ModelMatrix(used, filters, injected, kind)
    x0 = init.to_vector() if init is not None else _default_init(matrix, kind)
    x0 = np.clip(x0, 1e-15, None)
    starts = _spread_starts(x0, n_starts, seed)
    if kind == LORENTZIAN_PLUS_WHITE:
        # warm start at the nested white-only solution so the richer model
        # can never end up with a larger loss
        white = fit(records, filters, injected, kind=WHITE_ONLY, mask=mask,
                    n_starts=max(n_starts // 2, 1), seed=seed, max_nfev=max_nfev)
        wvec = white.params.to_vector()
        starts.append(np.array([1e-15, x0[1], wvec[0], wvec[1], wvec[2]]))
    best = None
    for start in starts:
        # parameter magnitudes span many decades (PSD levels vs squared
        # angular cutoffs), so scale each variable by its start value
        sol = least_squares(
            matrix.residuals,
            start,
            jac=matrix.jacobian,
            bounds=(0.0, np.inf),
            method="trf",
            x_scale=np.maximum(np.abs(start), 1e-12),
            ftol=1e-14,
            xtol=1e-14,
            gtol=1e-14,
            max_nfev=max_nfev,
        )
        if best is None or sol.cost < best.cost:
            best = sol
    converged = best.status > 0
    if not converged:
        warnings.warn(
            f"fit did not converge within {max_nfev} evaluations: {best.message}; "
            f"returning best iterate",
            FitConvergenceWarning,
        )
    jac_analytic = matrix.jacobian(best.x)
    jac_fd = _fd_jacobian(matrix, best.x)
    scale = max(np.abs(jac_fd).max(), 1e-300)
    jac_rel_err = float(np.abs(jac_analytic - jac_fd).max() / scale)
    covariance, stderr = _gauss_newton_covariance(jac_analytic, best.fun, kind)
    params = FitParams.from_vector(best.x, kind, mask_set)
    names = _PARAM_NAMES[kind]
    active = tuple(n for n, v in zip(names, best.x) if v <= 1e-12)
    return FitResult(
        params=params,
        loss=float(np.dot(best.fun, best.fun)),
        residuals=-best.fun,  # measured - model
        labels=matrix.labels,
        covariance=covariance,
        param_stderr=stderr,
        bounds_active=active,
        converged=converged,
        message=str(best.message),
        jacobian_rel_err=jac_rel_err,
        n_starts=len(starts),
    )


def _gauss_newton_covariance(jac: np.ndarray, residuals: np.ndarray, kind: str):
    m, n = jac.shape
    dof = max(m - n, 1)
    sigma_sq = float(np.dot(residuals, residuals)) / dof
    # column-normalize before judging identifiability: raw columns differ by
    # many decades purely from parameter units
    norms = np.linalg.norm(jac, axis=0)
    scale = np.where(norms > 0, norms, 1.0)
    unit = jac / scale
    singular = np.linalg.svd(unit, compute_uv=False)
    if norms.min() == 0.0 or singular[-1] < 1e-7 * singular[0]:
        _, _, vt = np.linalg.svd(unit)
        flat = np.abs(vt[-1])
        names = _PARAM_NAMES[kind]
        worst = [names[i] for i in np.argsort(flat)[::-1][:2]]
        warnings.warn(
            f"Jacobian nearly singular; parameters {worst} are poorly identified",
            FitConvergenceWarning,
        )
    covariance = (np.linalg.pinv(unit.T @ unit) / np.outer(scale, scale)) * sigma_sq
    stderr = np.sqrt(np.clip(np.diag(covariance), 0.0, None))
    return covariance, stderr
