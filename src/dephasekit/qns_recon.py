"""Noise-spectrum reconstruction from sequence-resolved survival decays.

Survival probabilities convert to decay exponents chi = -ln(2p - 1); the chi
vector is inverted against the sequences' filter functions by weighted
non-negative least squares on coarse frequency bins (one bin per usable
sequence by default, centered on each filter's peak).  Records too close to
p = 1/2 carry no spectral information beyond a lower bound and are flagged as
saturated and excluded.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .noise_models import _read_only
from .qubit_sim import ExperimentRecord, _survival_stats
from .seeds import as_lineage
from .sequences import FilterFunction, _filters_by_label

DEFAULT_SATURATION_FLOOR = 0.02
_MIN_CHI_VARIANCE = 1e-24


def nnls(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """min ||a x - b|| subject to x >= 0: (x, residual norm).

    Lawson & Hanson's active-set method (*Solving Least Squares Problems*, 1974,
    ch. 23) on the columns of ``a`` scaled to unit norm: unscaled, columns whose norms
    span decades make the active set cycle.  Its passive-set solves, outer and inner
    steps together, stop at 3n, as ``scipy.optimize.nnls``'s iterations do; the iterate
    is feasible throughout, and at the cap it is returned as it stands.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = a.shape
    norms = np.linalg.norm(a, axis=0)
    scale = np.where(norms > 0.0, norms, 1.0)
    unit = a / scale
    gram = unit.T @ unit
    target = unit.T @ b
    # a column enters only on a gradient above rounding; a unit column's is at most ||b||
    tol = 10.0 * np.finfo(float).eps * max(m, n) * np.linalg.norm(b)
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    steps = 0
    while steps < 3 * n:
        gradient = np.where(passive, -np.inf, target - gram @ x)
        j = int(np.argmax(gradient))
        if not gradient[j] > tol:
            break
        passive[j] = True
        while steps < 3 * n:
            steps += 1
            z = np.zeros(n)
            z[passive] = _passive_solve(unit, gram, target, b, passive)
            if np.all(z[passive] > 0.0):
                x = z
                break
            # step from x towards z until the first passive entry reaches 0; it leaves
            neg = np.flatnonzero(passive & (z <= 0.0))
            ratios = x[neg] / (x[neg] - z[neg])
            k = int(np.argmin(ratios))
            x = x + ratios[k] * (z - x)
            x[neg[k]] = 0.0
            passive &= x > 0.0
            x[~passive] = 0.0
    x = x / scale
    return x, float(np.linalg.norm(a @ x - b))


def _passive_solve(unit, gram, target, b, passive) -> np.ndarray:
    """Least squares of ``b`` on the unit columns ``passive``: a solve of their Gram
    submatrix, or ``lstsq`` on the columns where that submatrix is ill-conditioned."""
    sub = gram[passive][:, passive]
    try:
        # a Cholesky pivot of a unit-diagonal Gram matrix is its column's distance from
        # the span of the columns before it; below 1e-2 the columns' condition number
        # exceeds 100, and the normal equations would lose two more digits than a QR solve
        well_posed = np.diagonal(np.linalg.cholesky(sub)).min() > 1e-2
    except np.linalg.LinAlgError:  # not positive definite: dependent columns
        well_posed = False
    if well_posed:
        return np.linalg.solve(sub, target[passive])
    return np.linalg.lstsq(unit[:, passive], b, rcond=None)[0]


class RankDeficientError(ValueError):
    """Raised when the binned inversion leaves bins unconstrained."""

    def __init__(self, message: str, bins: "list[int]"):
        super().__init__(message)
        self.bins = bins


@dataclass(frozen=True)
class Decay:
    """Decay exponent, or a saturation marker carrying the floor bound."""

    chi: float
    saturated: bool


def _decays(
    means: np.ndarray, stderrs: np.ndarray, floor: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The survival-to-decay rule: (usable mask, chi, weights) per survival mean.

    A mean p > 1/2 + floor is usable, with chi = -ln(2p - 1) and weight the
    inverse of chi's propagated stderr, 2 * stderr / (2p - 1) (its square
    floored at 1e-24).  A saturated mean carries chi_max = -ln(2 * floor), the
    largest decay the floor can resolve, and weight 0.
    """
    outside = ~((means >= 0.0) & (means <= 1.0))  # also catches nan
    if outside.any():
        raise ValueError(f"survival probability must lie in [0, 1], got {means[outside][0]}")
    if not 0.0 < floor < 0.5:
        raise ValueError(f"floor must lie in (0, 0.5), got {floor}")
    usable = means > 0.5 + floor
    contrast = np.where(usable, 2.0 * means - 1.0, 2.0 * floor)
    variance = np.maximum((2.0 * stderrs / contrast) ** 2, _MIN_CHI_VARIANCE)
    return usable, -np.log(contrast), np.where(usable, 1.0 / np.sqrt(variance), 0.0)


def decay_from_survival(p: float, floor: float = DEFAULT_SATURATION_FLOOR) -> Decay:
    """chi = -ln(2p - 1) for p > 1/2 + floor, else a saturated marker carrying
    chi_max = -ln(2 * floor)."""
    usable, chi, _ = _decays(np.array([p], dtype=float), np.zeros(1), floor)
    return Decay(chi=float(chi[0]), saturated=not usable[0])


@dataclass(frozen=True)
class SpectrumEstimate:
    """Binned PSD estimate with bin geometry and per-bin standard errors."""

    freqs: np.ndarray  # bin centers, Hz
    values: np.ndarray  # rad^2/Hz
    bin_edges: np.ndarray
    stderr: np.ndarray
    labels: tuple[int, ...]  # usable sequence labels, aligned with bins

    def __post_init__(self):
        for name in ("freqs", "values", "bin_edges", "stderr"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))

    @property
    def bin_widths(self) -> np.ndarray:
        return np.diff(self.bin_edges)

    def integrated_power(self) -> float:
        """Piecewise-constant integral of the estimate, in rad^2."""
        return float(np.dot(self.values, self.bin_widths))

    def peak_bin(self) -> int:
        return int(np.argmax(self.values))

    def bin_containing(self, freq: float) -> int:
        idx = int(np.searchsorted(self.bin_edges, freq, side="right") - 1)
        return min(max(idx, 0), self.values.size - 1)


def _bin_edges_from_filters(
    usable: Sequence[ExperimentRecord],
    filters: "dict[int, FilterFunction]",
    bins: Optional[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Bin centers and edges: per-sequence peak bins, or a uniform grid of ``bins``."""
    grid_max = float(next(iter(filters.values())).freqs[-1])
    if bins is not None:
        if bins < 1:
            raise ValueError("bins must be >= 1")
        edges = np.linspace(0.0, grid_max, bins + 1)
        centers = 0.5 * (edges[:-1] + edges[1:])
        return centers, edges
    peaks = np.array([filters[r.label].peak_freq for r in usable])
    order = np.argsort(peaks, kind="stable")
    centers = peaks[order]
    if np.any(np.diff(centers) <= 0):
        raise ValueError("filter peak frequencies must be distinct for default binning")
    edges = np.empty(centers.size + 1)
    edges[0] = 0.0
    edges[-1] = grid_max
    edges[1:-1] = 0.5 * (centers[:-1] + centers[1:])
    return centers, edges


def _binned_filter_matrix(
    usable: Sequence[ExperimentRecord],
    filters: "dict[int, FilterFunction]",
    edges: np.ndarray,
) -> np.ndarray:
    n_bins = edges.size - 1
    grid = next(iter(filters.values())).freqs
    idx = np.clip(np.searchsorted(edges, grid, side="right") - 1, 0, n_bins - 1)
    design = np.empty((len(usable), n_bins))
    for i, rec in enumerate(usable):
        design[i] = np.bincount(idx, weights=filters[rec.label].weights, minlength=n_bins)
    return design


def reconstruct_spectrum(
    records: Sequence[ExperimentRecord],
    filters: Iterable[FilterFunction],
    bins: Optional[int] = None,
    ridge: float = 0.0,
    saturation_floor: float = DEFAULT_SATURATION_FLOOR,
    bins_like: Optional[SpectrumEstimate] = None,
) -> SpectrumEstimate:
    """Weighted non-negative least-squares inversion onto coarse bins.

    Minimizes ||G S - chi||^2_W + ridge * ||S||^2 subject to S >= 0, with W
    the inverse chi variances propagated from the survival standard errors.
    ``bins_like`` reuses the bin geometry of an existing estimate so two runs
    can be compared or subtracted bin by bin.
    """
    if ridge < 0:
        raise ValueError("ridge must be >= 0")
    by_label = _filters_by_label(records, filters)
    means = np.array([r.survival_mean for r in records], dtype=float)
    stderrs = np.array([r.survival_stderr for r in records], dtype=float)
    keep, chi, weights = _decays(means, stderrs, saturation_floor)
    usable = [r for r, k in zip(records, keep) if k]
    if not usable:
        raise ValueError("all records are saturated; nothing to invert")
    if bins_like is not None:
        centers, edges = bins_like.freqs, bins_like.bin_edges
    else:
        centers, edges = _bin_edges_from_filters(usable, by_label, bins)
    design = _binned_filter_matrix(usable, by_label, edges)
    chi, weights = chi[keep], weights[keep]
    weighted = design * weights[:, None]
    col_norms = np.abs(weighted).sum(axis=0)
    dead = [int(m) for m in np.nonzero(col_norms <= 1e-15 * max(col_norms.max(), 1.0))[0]]
    if dead:
        raise RankDeficientError(
            f"bins {dead} receive no filter weight from the usable sequences", dead
        )
    if ridge == 0.0 and np.linalg.matrix_rank(weighted) < weighted.shape[1]:
        _, _, vt = np.linalg.svd(weighted)
        null = np.abs(vt[-1])
        worst = [int(m) for m in np.argsort(null)[::-1][:3]]
        raise RankDeficientError(
            f"design matrix is rank deficient after exclusions; "
            f"least-constrained bins {worst}", worst
        )
    a, solution = _weighted_inversion(design, chi, weights, ridge)
    # Gauss-Newton standard errors on the support of the NNLS solution; a bin pinned at 0
    # gets its standard error were it free alongside the support
    free = solution > 0
    stderr = np.empty(solution.size)
    stderr[free] = _gauss_newton_covariance(a[:, free], 1.0)[1]
    support = np.flatnonzero(free)
    for m in np.flatnonzero(~free):
        stderr[m] = _gauss_newton_covariance(a[:, np.append(support, m)], 1.0)[1][-1]
    return SpectrumEstimate(
        freqs=centers,
        values=solution,
        bin_edges=edges,
        stderr=stderr,
        labels=tuple(r.label for r in usable),
    )


def _weighted_inversion(
    design: np.ndarray, chi: np.ndarray, weights: np.ndarray, ridge: float
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted NNLS plus ridge of ``chi`` on the binned ``design`` (rows aligned with
    ``chi`` and ``weights``): (augmented matrix, solution)."""
    a = design * weights[:, None]
    b = chi * weights
    if ridge > 0.0:
        n_bins = design.shape[1]
        a = np.vstack([a, np.sqrt(ridge) * np.eye(n_bins)])
        b = np.concatenate([b, np.zeros(n_bins)])
    solution, _ = nnls(a, b)
    return a, solution


def _gauss_newton_covariance(jac: np.ndarray, sigma_sq: float):
    """Covariance and standard errors of a weighted least-squares solution with
    Jacobian ``jac``, scaled by ``sigma_sq``; a parameter whose column is exactly zero
    (the fit's cutoff_sq at amplitude 0) gets an infinite variance."""
    # column-normalize before inverting: raw columns differ by many decades
    # purely from parameter units
    norms = np.linalg.norm(jac, axis=0)
    scale = np.where(norms > 0, norms, 1.0)
    unit = jac / scale
    covariance = (np.linalg.pinv(unit.T @ unit) / np.outer(scale, scale)) * sigma_sq
    covariance[norms == 0.0, norms == 0.0] = np.inf
    return covariance, np.sqrt(np.clip(np.diag(covariance), 0.0, None))


@dataclass(frozen=True)
class SubtractionResult:
    """Pointwise difference of two estimates, clipped at zero."""

    spectrum: SpectrumEstimate
    clipped_power: float
    clipped_bins: np.ndarray

    @property
    def was_clipped(self) -> bool:
        return bool(self.clipped_bins.any())


def subtract_native(injected_run: SpectrumEstimate, native_run: SpectrumEstimate) -> SubtractionResult:
    """Delta S = S_injected - S_native on identical bin grids, clipped at 0."""
    if not (
        np.array_equal(injected_run.freqs, native_run.freqs)
        and np.array_equal(injected_run.bin_edges, native_run.bin_edges)
    ):
        raise ValueError("spectra must share the same bin grid")
    raw = injected_run.values - native_run.values
    clipped = raw < 0
    clipped_power = float(np.dot(np.where(clipped, -raw, 0.0), injected_run.bin_widths))
    delta = replace(
        injected_run,
        values=np.where(clipped, 0.0, raw),
        stderr=np.sqrt(injected_run.stderr**2 + native_run.stderr**2),
    )
    return SubtractionResult(spectrum=delta, clipped_power=clipped_power, clipped_bins=clipped)


@dataclass(frozen=True)
class BootstrapSpectrum:
    """Point estimate of a reconstruction, with its per-bin bootstrap median and
    quantile band."""

    point: SpectrumEstimate
    median: SpectrumEstimate
    lower: np.ndarray
    upper: np.ndarray
    resamples: int
    quantiles: tuple[float, float]


def bootstrap_spectrum(
    records: Sequence[ExperimentRecord],
    filters: Iterable[FilterFunction],
    resamples: int,
    quantiles: tuple[float, float] = (0.025, 0.975),
    seed: int = 0,
    bins: Optional[int] = None,
    ridge: float = 0.0,
    saturation_floor: float = DEFAULT_SATURATION_FLOOR,
) -> BootstrapSpectrum:
    """Trajectory-level bootstrap of the reconstruction.

    Per resample, each sequence's retained per-trajectory survivals are
    resampled with replacement (one draw call for all records, in record order, and the
    resamples in order from the seed's one generator),
    their means and stderrs recomputed by one call per trajectory count, and the
    inversion re-run on the bin grid of the point estimate.  The binned filter
    matrix is built once for all records; a resample keeps the rows of its
    unsaturated records.  The bootstrap keeps its own list of the filters and drops it
    once they are binned, so filters that nothing else holds (handed in as a generator,
    say) are freed before the first resample.
    """
    if resamples < 1:
        raise ValueError("resamples must be >= 1")
    if any(r.trajectory_survivals is None for r in records):
        raise ValueError("records lack per-trajectory survivals (run with keep_raw=True)")
    filters = list(filters)
    point = reconstruct_spectrum(records, filters, bins, ridge, saturation_floor)
    design = _binned_filter_matrix(records, _filters_by_label(records, filters), point.bin_edges)
    del filters  # the resamples read only the binned design
    rng = as_lineage(seed).generator()
    survivals = np.concatenate([r.trajectory_survivals for r in records])
    sizes = np.array([r.trajectory_survivals.size for r in records])
    starts = np.cumsum(sizes) - sizes
    # one call draws every record's indices: the same as one integers(0, n, n) per record
    bounds, offsets = np.repeat(sizes, sizes), np.repeat(starts, sizes)
    shots = np.array([r.shots for r in records])
    groups = []  # (records, their (k, n) positions in survivals) per trajectory count n
    for n in set(sizes.tolist()):
        idx = np.flatnonzero(sizes == n)
        groups.append((idx, starts[idx, None] + np.arange(n)))
    means = np.empty(len(records))
    stderrs = np.empty(len(records))
    values = np.zeros((resamples, point.values.size))
    for b in range(resamples):
        drawn = survivals[offsets + rng.integers(0, bounds)]
        for idx, at in groups:
            means[idx], stderrs[idx] = _survival_stats(drawn[at], shots[idx])
        keep, chi, weights = _decays(means, stderrs, saturation_floor)
        if keep.any():  # an all-saturated resample contributes zeros
            _, values[b] = _weighted_inversion(design[keep], chi[keep], weights[keep], ridge)
    lo_q, hi_q = quantiles
    return BootstrapSpectrum(
        point=point,
        median=replace(point, values=np.median(values, axis=0)),
        lower=np.quantile(values, lo_q, axis=0),
        upper=np.quantile(values, hi_q, axis=0),
        resamples=resamples,
        quantiles=(lo_q, hi_q),
    )
