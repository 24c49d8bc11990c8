"""Noise-spectrum reconstruction from sequence-resolved survival decays.

Survival probabilities convert to decay exponents chi = -ln(2p - 1); the chi
vector is inverted against the sequences' filter functions by weighted
non-negative least squares on coarse frequency bins (one bin per usable
sequence by default, centered on each filter's peak).  Records too close to
p = 1/2 carry no spectral information beyond a lower bound and are flagged as
saturated and excluded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import nnls

from .qubit_sim import ExperimentRecord, _survival_stats
from .seeds import as_lineage
from .sequences import FilterFunction, _filters_by_label

DEFAULT_SATURATION_FLOOR = 0.02
_MIN_CHI_VARIANCE = 1e-24


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


def decay_from_survival(p: float, floor: float = DEFAULT_SATURATION_FLOOR) -> Decay:
    """chi = -ln(2p - 1) for p > 1/2 + floor, else a saturated marker.

    Saturated markers carry chi_max = -ln(2 * floor), the largest decay the
    floor can resolve.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"survival probability must lie in [0, 1], got {p}")
    if not 0.0 < floor < 0.5:
        raise ValueError(f"floor must lie in (0, 0.5), got {floor}")
    if p > 0.5 + floor:
        return Decay(chi=float(-np.log(2.0 * p - 1.0)), saturated=False)
    return Decay(chi=float(-np.log(2.0 * floor)), saturated=True)


def chi_variance(record: ExperimentRecord) -> float:
    """Propagated variance of chi: (2 * stderr / (2p - 1))^2."""
    denom = 2.0 * record.survival_mean - 1.0
    var = (2.0 * record.survival_stderr / denom) ** 2
    return float(max(var, _MIN_CHI_VARIANCE))


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
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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


def _usable_records(
    records: Sequence[ExperimentRecord], floor: float
) -> "list[ExperimentRecord]":
    return [r for r in records if not decay_from_survival(r.survival_mean, floor).saturated]


def _bin_edges_from_filters(
    usable: Sequence[ExperimentRecord],
    filters: "dict[int, FilterFunction]",
    bins: "int | np.ndarray | None",
) -> tuple[np.ndarray, np.ndarray]:
    """Bin centers and edges: per-sequence peak bins, a uniform grid, or
    explicit edges (geometric centers, suited to log-log analysis)."""
    grid_max = float(next(iter(filters.values())).freqs[-1])
    if isinstance(bins, (list, tuple, np.ndarray)):
        edges = np.asarray(bins, dtype=float)
        if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
            raise ValueError("explicit bin edges must be ascending with >= 2 entries")
        lo = np.where(edges[:-1] > 0, edges[:-1], edges[1:] / 4.0)
        centers = np.sqrt(lo * edges[1:])
        return centers, edges
    if bins is not None and bins != len(usable):
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
    filters: Sequence[FilterFunction],
    bins: Optional[int] = None,
    ridge: float = 0.0,
    saturation_floor: float = DEFAULT_SATURATION_FLOOR,
    check_rank: bool = True,
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
    usable = _usable_records(records, saturation_floor)
    if not usable:
        raise ValueError("all records are saturated; nothing to invert")
    if bins_like is not None:
        centers, edges = bins_like.freqs, bins_like.bin_edges
    else:
        centers, edges = _bin_edges_from_filters(usable, by_label, bins)
    a, solution = _weighted_inversion(usable, by_label, edges, saturation_floor, ridge, check_rank)
    stderr = _active_set_stderr(a, solution)
    return SpectrumEstimate(
        freqs=centers,
        values=solution,
        bin_edges=edges,
        stderr=stderr,
        labels=tuple(r.label for r in usable),
    )


def _weighted_inversion(
    usable: Sequence[ExperimentRecord],
    by_label: "dict[int, FilterFunction]",
    edges: np.ndarray,
    floor: float,
    ridge: float,
    check_rank: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-stderr weighted NNLS plus ridge on fixed bins: (augmented matrix, solution)."""
    design = _binned_filter_matrix(usable, by_label, edges)
    chi = np.array([decay_from_survival(r.survival_mean, floor).chi for r in usable])
    weights = np.array([1.0 / np.sqrt(chi_variance(r)) for r in usable])
    a = design * weights[:, None]
    b = chi * weights
    n_bins = edges.size - 1
    if check_rank:
        col_norms = np.abs(a).sum(axis=0)
        dead = [int(m) for m in np.nonzero(col_norms <= 1e-15 * max(col_norms.max(), 1.0))[0]]
        if dead:
            raise RankDeficientError(
                f"bins {dead} receive no filter weight from the usable sequences", dead
            )
        if ridge == 0.0 and np.linalg.matrix_rank(a) < n_bins:
            _, _, vt = np.linalg.svd(a)
            null = np.abs(vt[-1])
            worst = [int(m) for m in np.argsort(null)[::-1][:3]]
            raise RankDeficientError(
                f"design matrix is rank deficient after exclusions; "
                f"least-constrained bins {worst}", worst
            )
    if ridge > 0.0:
        a = np.vstack([a, np.sqrt(ridge) * np.eye(n_bins)])
        b = np.concatenate([b, np.zeros(n_bins)])
    solution, _ = nnls(a, b)
    return a, solution


def _active_set_stderr(a: np.ndarray, solution: np.ndarray) -> np.ndarray:
    """Gauss-Newton standard errors on the support of the NNLS solution."""
    stderr = np.zeros(solution.size)
    free = solution > 0
    if not np.any(free):
        return stderr
    sub = a[:, free]
    try:
        cov = np.linalg.pinv(sub.T @ sub)
        stderr[free] = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    except np.linalg.LinAlgError:
        pass
    return stderr


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
    delta = SpectrumEstimate(
        freqs=injected_run.freqs,
        values=np.where(clipped, 0.0, raw),
        bin_edges=injected_run.bin_edges,
        stderr=np.sqrt(injected_run.stderr**2 + native_run.stderr**2),
        labels=injected_run.labels,
    )
    return SubtractionResult(spectrum=delta, clipped_power=clipped_power, clipped_bins=clipped)


@dataclass(frozen=True)
class BootstrapSpectrum:
    """Per-bin bootstrap median and quantile band of a reconstruction."""

    median: SpectrumEstimate
    lower: np.ndarray
    upper: np.ndarray
    resamples: int
    quantiles: tuple[float, float]


def bootstrap_spectrum(
    records: Sequence[ExperimentRecord],
    filters: Sequence[FilterFunction],
    resamples: int,
    quantiles: tuple[float, float] = (0.025, 0.975),
    seed: int = 0,
    **recon_kwargs,
) -> BootstrapSpectrum:
    """Trajectory-level bootstrap of the reconstruction.

    Per resample, each sequence's retained per-trajectory survivals are
    resampled with replacement, records are rebuilt, and the reconstruction
    re-run on the bin grid of the point estimate.
    """
    if resamples < 1:
        raise ValueError("resamples must be >= 1")
    if any(r.trajectory_survivals is None for r in records):
        raise ValueError("records lack per-trajectory survivals (run with keep_raw=True)")
    point = reconstruct_spectrum(records, filters, **recon_kwargs)
    root = as_lineage(seed)
    floor = recon_kwargs.get("saturation_floor", DEFAULT_SATURATION_FLOOR)
    ridge = recon_kwargs.get("ridge", 0.0)
    by_label = _filters_by_label(records, filters)
    values = np.zeros((resamples, point.values.size))
    for b in range(resamples):
        rng = root.child(b).generator()
        resampled = []
        for rec in records:
            raw = rec.trajectory_survivals
            draw = raw[rng.integers(0, raw.size, raw.size)]
            mean, stderr = _survival_stats(draw, rec.shots)
            resampled.append(
                ExperimentRecord(
                    label=rec.label,
                    n_pulses=rec.n_pulses,
                    survival_mean=mean,
                    survival_stderr=stderr,
                    shots=rec.shots,
                    trajectories=rec.trajectories,
                    seed=rec.seed,
                )
            )
        usable = _usable_records(resampled, floor)
        if usable:  # an all-saturated resample contributes zeros
            _, values[b] = _weighted_inversion(
                usable, by_label, point.bin_edges, floor, ridge, check_rank=False
            )
    lo_q, hi_q = quantiles
    return BootstrapSpectrum(
        median=SpectrumEstimate(
            freqs=point.freqs,
            values=np.median(values, axis=0),
            bin_edges=point.bin_edges,
            stderr=point.stderr,
            labels=point.labels,
        ),
        lower=np.quantile(values, lo_q, axis=0),
        upper=np.quantile(values, hi_q, axis=0),
        resamples=resamples,
        quantiles=(lo_q, hi_q),
    )
