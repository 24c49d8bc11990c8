"""Survival-probability model and its variable-projection fit.

The model for sequence k with n_k pulses and filter g_k is

    p_k = 1/2 + 1/2 * exp[-g_k . (S_native + S_injected) - c1 n_k - c2 n_k^2]

where S_native is either a Lorentzian plus a white floor,
A / (1 + omega^2 / omega_c^2) + sigma2, or a white floor alone, and c1, c2
absorb stochastic and coherent pulse errors.  The injected spectrum is fixed
data; fitting adjusts only the ancillary native-noise and pulse-error terms.
The loss is the weighted chi^2 of the decay exponents chi = -ln(2p - 1), with
the reconstruction's weights (``qns_recon._decays``): saturated records weigh 0.
For a fixed omega_c^2 the exponent is linear and non-negative in
(A, sigma2, c1, c2), so those come from one weighted NNLS and only omega_c^2
is searched (variable projection, Golub & Pereyra 1973).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .noise_models import Spectrum
from .qns_recon import DEFAULT_SATURATION_FLOOR, _decays, _weighted_inversion
from .qubit_sim import ExperimentRecord
from .sequences import FilterFunction, _filters_by_label

LORENTZIAN_PLUS_WHITE = "lorentzian_plus_white"
WHITE_ONLY = "white_only"
# both kinds evaluate one vector (amplitude, cutoff_sq, white_floor, c1, c2); a kind fits
# a slice of it, and the entries it leaves out keep their _PINNED values
_VECTOR_NAMES = ("amplitude", "cutoff_sq", "white_floor", "c1", "c2")
_PINNED = (0.0, 1.0, 0.0, 0.0, 0.0)
_FREE = {LORENTZIAN_PLUS_WHITE: slice(0, 5), WHITE_ONLY: slice(2, 5)}
_PARAM_NAMES = {kind: _VECTOR_NAMES[free] for kind, free in _FREE.items()}
# the entries the NNLS solves for at a fixed cutoff_sq
_LINEAR = {LORENTZIAN_PLUS_WHITE: [0, 2, 3, 4], WHITE_ONLY: [2, 3, 4]}
_GRID_POINTS = 64  # log-spaced cutoff_sq values over the filters' band
_MAX_NFEV = 100  # evaluation budget of the cutoff_sq refinement


class FitConvergenceWarning(UserWarning):
    pass


def least_squares(*args, **kwargs):
    """``scipy.optimize.least_squares``; lazy: ~0.5 s to import, only ``fit`` needs it."""
    from scipy.optimize import least_squares as solve

    return solve(*args, **kwargs)


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
        full = np.array([self.amplitude, self.cutoff**2, self.white_floor, self.c1, self.c2])
        return full[_FREE[self.kind]]

    @classmethod
    def from_vector(cls, x: np.ndarray, kind: str, mask: frozenset) -> "FitParams":
        a, wc2, s2, c1, c2 = _full_vector(x, kind)
        return cls(amplitude=a, cutoff=float(np.sqrt(wc2)), white_floor=s2,
                   c1=c1, c2=c2, kind=kind, mask=mask)


def _full_vector(x: np.ndarray, kind: str) -> np.ndarray:
    """The five-entry model vector: ``x`` in the kind's slice, pinned values elsewhere."""
    full = np.array(_PINNED)
    full[_FREE[kind]] = x
    return full


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
    loss: float  # weighted chi^2 of the decay exponents
    chi2_per_dof: float  # loss / (usable records - free parameters)
    residuals: np.ndarray  # measured - model survival, per unmasked sequence
    labels: tuple[int, ...]
    saturated: tuple[int, ...]  # unmasked labels the loss weighs 0
    covariance: np.ndarray
    param_stderr: np.ndarray
    bounds_active: tuple[str, ...]
    unresolved: tuple[str, ...]  # stderr non-finite or larger than the value
    converged: bool
    message: str
    jacobian_rel_err: float


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
        stderrs = np.array([r.survival_stderr for r in records])
        usable, self.chi, self.weights = _decays(self.measured, stderrs, DEFAULT_SATURATION_FLOOR)
        self.saturated = tuple(k for k, u in zip(self.labels, usable) if not u)
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
        a, wc2, s2, c1, c2 = _full_vector(x, self.kind)
        lor = wc2 / (wc2 + self.omega_sq)
        chi_nat = a * (self.gmat @ lor) + s2 * self.g_total
        return chi_nat + self.chi_injected + c1 * self.n_pulses + c2 * self.n_pulses**2

    def model(self, x: np.ndarray) -> np.ndarray:
        return 0.5 + 0.5 * np.exp(-self.exponent(x))

    def residuals(self, x: np.ndarray) -> np.ndarray:
        """Weighted decay-exponent residuals, model minus measured; 0 where saturated."""
        return self.weights * (self.exponent(x) - self.chi)

    def _columns(self, a: float, wc2: float) -> np.ndarray:
        """d exponent / d (amplitude, cutoff_sq, white_floor, c1, c2)."""
        lor = wc2 / (wc2 + self.omega_sq)
        d_wc2 = self.omega_sq / (wc2 + self.omega_sq) ** 2
        return np.column_stack(
            [self.gmat @ lor, a * (self.gmat @ d_wc2), self.g_total, self.n_pulses,
             self.n_pulses**2]
        )

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """Analytic d residual / d x."""
        a, wc2 = _full_vector(x, self.kind)[:2]
        return self.weights[:, None] * self._columns(a, wc2)[:, _FREE[self.kind]]

    def project(self, wc2: float) -> np.ndarray:
        """The kind's vector at cutoff_sq ``wc2`` with the loss-minimising linear entries:
        one weighted NNLS of chi minus the injected exponent."""
        full = np.array(_PINNED)
        full[1] = wc2
        linear = _LINEAR[self.kind]
        columns = self._columns(1.0, wc2)[:, linear]
        # unit weighted columns: their raw scales span ~10 decades
        norms = np.linalg.norm(self.weights[:, None] * columns, axis=0)
        norms[norms == 0.0] = 1.0
        _, unit = _weighted_inversion(columns / norms, self.chi - self.chi_injected,
                                      self.weights, 0.0, check_rank=False)
        full[linear] = unit / norms
        return full[_FREE[self.kind]]


def _profiled_cutoff(matrix: _ModelMatrix):
    """Variable projection over log cutoff_sq: the best point of a log grid over the
    filters' band, refined by one bounded least-squares solve.  Returns the model vector
    and the solver's result."""
    band = np.log(matrix.omega_sq[[1, -1]])
    solved = {}

    def project(t) -> np.ndarray:
        t = float(np.ravel(t)[0])
        if t not in solved:
            solved[t] = matrix.project(np.exp(t))
        return solved[t]

    def residuals(t) -> np.ndarray:
        return matrix.residuals(project(t))

    def jacobian(t) -> np.ndarray:
        # Kaufman's variable-projection Jacobian: the cutoff column at fixed linear
        # entries, less its projection onto the columns of the NNLS's positive entries
        x = project(t)
        jac = matrix.jacobian(x)
        column = jac[:, 1] * x[1]  # d / d log cutoff_sq
        q, _ = np.linalg.qr(jac[:, [0, 2, 3, 4]][:, x[[0, 2, 3, 4]] > 0])
        return (column - q @ (q.T @ column))[:, None]

    grid = np.linspace(band[0], band[1], _GRID_POINTS)
    start = min(grid, key=lambda t: np.sum(residuals(t) ** 2))
    sol = least_squares(
        residuals, [start], jac=jacobian, bounds=tuple(band),
        method="trf", ftol=1e-14, xtol=1e-14, gtol=1e-14, max_nfev=_MAX_NFEV,
    )
    return project(sol.x), sol


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
) -> FitResult:
    """Variable-projection fit of the ancillary model parameters.

    ``mask`` lists sequence labels excluded from the loss (e.g. isolated
    native resonances).  At a fixed cutoff_sq the other entries come from one
    weighted NNLS (``qns_recon._weighted_inversion``), so ``white_only`` is a
    single solve.  ``lorentzian_plus_white`` takes the best cutoff_sq of a
    fixed log grid over the filters' band and refines it with one bounded
    ``least_squares`` on log cutoff_sq.  Its NNLS admits amplitude 0, the
    white-only model, so its loss never exceeds the white-only loss.
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
    names = _PARAM_NAMES[kind]
    if kind == WHITE_ONLY:
        x = matrix.project(_PINNED[1])
        converged, message, at_bound = True, "one NNLS solve", x <= 1e-12
    else:
        x, sol = _profiled_cutoff(matrix)
        converged, message, at_bound = sol.status > 0, str(sol.message), x <= 1e-12
        at_bound[1] = sol.active_mask[0] != 0  # cutoff_sq at an end of the band
        if not converged:
            warnings.warn(
                f"fit did not converge within {_MAX_NFEV} evaluations: {message}; "
                f"returning best iterate",
                FitConvergenceWarning,
            )
    residuals = matrix.residuals(x)
    loss = float(np.dot(residuals, residuals))
    chi2_per_dof = loss / max(len(used) - len(matrix.saturated) - n_free, 1)
    jac_analytic = matrix.jacobian(x)
    jac_fd = _fd_jacobian(matrix, x)
    scale = max(np.abs(jac_fd).max(), 1e-300)
    jac_rel_err = float(np.abs(jac_analytic - jac_fd).max() / scale)
    covariance, stderr = _gauss_newton_covariance(jac_analytic, chi2_per_dof)
    params = FitParams.from_vector(x, kind, mask_set)
    # a parameter the records cannot pin down: its stderr is non-finite or exceeds its size
    unresolved = tuple(n for n, v, err in zip(names, params.to_vector(), stderr)
                       if not np.isfinite(err) or err > abs(v))
    return FitResult(
        params=params,
        loss=loss,
        chi2_per_dof=chi2_per_dof,
        residuals=matrix.measured - matrix.model(x),
        labels=matrix.labels,
        saturated=matrix.saturated,
        covariance=covariance,
        param_stderr=stderr,
        bounds_active=tuple(n for n, b in zip(names, at_bound) if b),
        unresolved=unresolved,
        converged=converged,
        message=message,
        jacobian_rel_err=jac_rel_err,
    )


def _gauss_newton_covariance(jac: np.ndarray, sigma_sq: float):
    """Covariance scaled by the fit's chi^2 per degree of freedom; a parameter whose
    column is exactly zero (cutoff_sq at amplitude 0) gets an infinite variance."""
    # column-normalize before inverting: raw columns differ by many decades
    # purely from parameter units
    norms = np.linalg.norm(jac, axis=0)
    scale = np.where(norms > 0, norms, 1.0)
    unit = jac / scale
    covariance = (np.linalg.pinv(unit.T @ unit) / np.outer(scale, scale)) * sigma_sq
    covariance[norms == 0.0, norms == 0.0] = np.inf
    return covariance, np.sqrt(np.clip(np.diag(covariance), 0.0, None))
