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
from .qns_recon import (
    DEFAULT_SATURATION_FLOOR,
    _decays,
    _gauss_newton_covariance,
    _weighted_inversion,
)
from .qubit_sim import ExperimentRecord
from .sequences import FilterFunction, _filters_by_label

LORENTZIAN_PLUS_WHITE = "lorentzian_plus_white"
WHITE_ONLY = "white_only"
# both kinds evaluate one vector (amplitude, cutoff_sq, white_floor, c1, c2); a kind fits
# a slice of it, and the entries it leaves out keep their _PINNED values.  Slices, not
# index lists: an index list makes the Jacobian column-major, and param_stderr then
# rounds differently (test_fit_golden_digest pins its bits)
_VECTOR_NAMES = ("amplitude", "cutoff_sq", "white_floor", "c1", "c2")
_PINNED = (0.0, 1.0, 0.0, 0.0, 0.0)
_FREE = {LORENTZIAN_PLUS_WHITE: slice(0, 5), WHITE_ONLY: slice(2, 5)}
_PARAM_NAMES = {kind: _VECTOR_NAMES[free] for kind, free in _FREE.items()}
_GRID_POINTS = 64  # log-spaced cutoff_sq values over the filters' band
_MAX_NFEV = 100  # evaluation budget of the cutoff_sq refinement


class FitConvergenceWarning(UserWarning):
    pass


@dataclass(frozen=True)
class Refinement:
    """The cutoff_sq refinement's result, with the fields of a ``least_squares`` result
    that ``fit`` reads."""

    x: np.ndarray  # (log cutoff_sq,)
    status: int  # 0: budget used up; 1: gradient out of the bracket or zero; 2: step test
    message: str
    active_mask: np.ndarray  # (-1,) or (1,) at the bracket's lower or upper end, else (0,)
    nfev: int


def least_squares(fun, x0, jac, bounds, max_nfev) -> Refinement:
    """Minimise ||fun(t)||^2 over t in ``bounds``, a bracket of a local minimum that holds
    ``x0``, by safeguarded Gauss-Newton steps with the one-column Jacobian ``jac``.

    The gradient J^T r at each iterate moves the bracket end on its downhill side to the
    iterate; a step that leaves the bracket is replaced by bisection towards its far end.
    It stops when the gradient is zero or points out of the bracket at an end, when a
    step falls below 1e-14 relative, or after ``max_nfev`` evaluations of ``fun``.
    """
    lo, hi = bounds
    t = float(np.ravel(x0)[0])
    nfev, status, message = 1, 0, "the evaluation budget is used up"
    while True:
        r, j = fun(t), jac(t)[:, 0]
        gradient, curvature = float(j @ r), float(j @ j)
        if gradient > 0.0:
            hi = t
        elif gradient < 0.0:
            lo = t
        if gradient == 0.0 or curvature == 0.0 or lo == hi:
            status, message = 1, "the gradient is zero or points out of the bracket"
            break
        trial = t - gradient / curvature
        if not lo < trial < hi:
            trial = 0.5 * (t + (lo if trial < t else hi))
        if abs(trial - t) <= 1e-14 * max(abs(t), 1.0):
            status, message = 2, "the step is below 1e-14 relative"
            break
        if nfev == max_nfev:
            break
        t, nfev = trial, nfev + 1
    active = -1 if t == bounds[0] else 1 if t == bounds[1] else 0
    return Refinement(np.array([t]), status, message, np.array([active]), nfev)


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
        """The kind's fitted entries of :meth:`full_vector`."""
        return self.full_vector()[_FREE[self.kind]]

    def full_vector(self) -> np.ndarray:
        """The five-entry model vector: the kind's entries, ``_PINNED`` values elsewhere."""
        free = _FREE[self.kind]
        full = np.array(_PINNED)
        full[free] = [self.amplitude, self.cutoff**2, self.white_floor, self.c1, self.c2][free]
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
    return float(matrix.model(params.full_vector())[0])


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
    """Precomputed per-sequence quantities for the vectorized model.  Every method works on
    the five-entry vector; ``jacobian`` gives the columns of the kind's slice."""

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
        a, wc2, s2, c1, c2 = x
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
        """Analytic d residual / d (the kind's entries of x)."""
        a, wc2 = x[:2]
        return self.weights[:, None] * self._columns(a, wc2)[:, _FREE[self.kind]]

    def project(self, wc2: float) -> np.ndarray:
        """The vector at cutoff_sq ``wc2`` with the kind's loss-minimising linear entries:
        one weighted NNLS of chi minus the injected exponent."""
        full = np.array(_PINNED)
        full[1] = wc2
        linear = [i for i in range(5)[_FREE[self.kind]] if i != 1]
        _, full[linear] = _weighted_inversion(self._columns(1.0, wc2)[:, linear],
                                              self.chi - self.chi_injected, self.weights, 0.0)
        return full


def _profiled_cutoff(matrix: _ModelMatrix):
    """Variable projection over log cutoff_sq: the best point of a log grid over the
    filters' band, refined between its grid neighbours by ``least_squares``.  Returns the
    model vector and the refinement's result."""
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
    best = min(range(_GRID_POINTS), key=lambda i: np.sum(residuals(grid[i]) ** 2))
    # the grid neighbours bracket a local minimum: neither is better than the best point
    bracket = (grid[max(best - 1, 0)], grid[min(best + 1, _GRID_POINTS - 1)])
    sol = least_squares(residuals, [grid[best]], jac=jacobian, bounds=bracket,
                        max_nfev=_MAX_NFEV)
    return project(sol.x), sol


def _fd_jacobian(matrix: _ModelMatrix, x: np.ndarray) -> np.ndarray:
    free = range(5)[_FREE[matrix.kind]]
    jac = np.empty((matrix.measured.size, len(free)))
    for j, i in enumerate(free):
        h = 1e-6 * max(abs(x[i]), 1e-9)
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] = max(xm[i] - h, 0.0)
        jac[:, j] = (matrix.residuals(xp) - matrix.residuals(xm)) / (xp[i] - xm[i])
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
    fixed log grid over the filters' band and refines it with safeguarded
    Gauss-Newton steps on log cutoff_sq (``least_squares``), bracketed by the
    best point's grid neighbours.  Its NNLS admits amplitude 0, the white-only
    model, so its loss never exceeds the white-only loss.
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
        # a bracket end the iterate can stop at is an end of the band
        at_bound[1] = sol.active_mask[0] != 0
        if not converged:
            warnings.warn(
                f"fit did not converge within {_MAX_NFEV} evaluations: {message}; "
                f"returning the last iterate",
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
    a, wc2, s2, c1, c2 = x
    params = FitParams(amplitude=a, cutoff=float(np.sqrt(wc2)), white_floor=s2, c1=c1, c2=c2,
                       kind=kind, mask=mask_set)
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
        bounds_active=tuple(n for n, b in zip(names, at_bound[_FREE[kind]]) if b),
        unresolved=unresolved,
        converged=converged,
        message=message,
        jacobian_rel_err=jac_rel_err,
    )

