"""ARMA dephasing-noise models: spectra, autocovariance, trajectory synthesis.

An :class:`ArmaModel` generates per-step phase increments

    phi_t = sum_i ar[i] * phi_{t-1-i} + sum_j ma[j] * w_{t-j},

with ``w`` i.i.d. Gaussian of standard deviation ``drive_std``.  The model's
discrete-time power spectral density is

    S(theta) = drive_std**2 * |B(e^{-i theta})|**2 / |A(e^{-i theta})|**2,

with A(z) = 1 - sum_i ar[i] z^{-(i+1)} and B(z) = sum_j ma[j] z^{-j}.  Physical
one-sided spectra use S_f(f) = 2 * t_s * S(2 pi f t_s) on [0, 1/(2 t_s)] so
that the trapezoidal integral of S_f over frequency equals the process
variance r(0).

The ``design_*`` functions build MA-only (FIR) models whose spectra
approximate bandpass, multiband, power-law and Lorentzian targets via
frequency sampling on the PSD square root with a raised-cosine window.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import islice

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .seeds import SeedLineage, as_lineage

DEFAULT_GRID_SIZE = 4097
DEFAULT_TAPS = 257
_STABILITY_MAX_STEPS = 500_000
# most normals one standard_normal call of the draw rule draws, unless one row is wider
_NORMALS_PER_CALL = 2**16
# np.convolve's correlate sums kernels of up to this many taps left to right from 0 in its
# own small-kernel loop (numpy's small_correlate); longer kernels go through one ddot per output
_SMALL_KERNEL_TAPS = 11


class UnstableModelError(ValueError):
    """Raised when an operation requires a stable ARMA model."""


def _read_only(values) -> np.ndarray:
    """``values`` as a float array that refuses writes: the one rule for an artifact's arrays."""
    arr = np.asarray(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ArmaModel:
    """AR/MA coefficients, driving-noise scale and sample period.

    Parameters
    ----------
    ar : tuple of float
        AR coefficients a_1..a_p (may be empty).
    ma : tuple of float
        MA coefficients b_0..b_q (non-empty).
    drive_std : float
        Standard deviation of the i.i.d. Gaussian drive, in radians.
    sample_period : float
        Sample period t_s in seconds.
    """

    ar: tuple[float, ...]
    ma: tuple[float, ...]
    drive_std: float
    sample_period: float

    def __post_init__(self):
        object.__setattr__(self, "ar", tuple(float(a) for a in self.ar))
        object.__setattr__(self, "ma", tuple(float(b) for b in self.ma))
        if len(self.ma) == 0:
            raise ValueError("ma must contain at least one coefficient")
        coeffs = self.ar + self.ma
        if not all(np.isfinite(c) for c in coeffs):
            raise ValueError("ARMA coefficients must be finite")
        if self.drive_std < 0:
            raise ValueError(f"drive_std must be >= 0, got {self.drive_std}")
        if self.sample_period <= 0:
            raise ValueError(f"sample_period must be > 0, got {self.sample_period}")
        if self.drive_std > 0 and not any(b != 0.0 for b in self.ma):
            raise ValueError("at least one MA coefficient must be nonzero when drive_std > 0")

    @property
    def burn_in(self) -> int:
        """Normals drawn before a row's first step: 10(p+q+1), or len(taps()) - 1 if longer."""
        return max(10 * (len(self.ar) + len(self.ma)), len(self.taps()) - 1)

    def ar_poly(self) -> np.ndarray:
        """Denominator [1, -a_1, ..., -a_p] in lfilter convention."""
        return np.concatenate([[1.0], -np.asarray(self.ar, dtype=float)])

    def _impulse(self):
        """Yield h_0, h_1, ... of B(z)/A(z) by the transposed-direct-form-II recursion that
        ``scipy.signal.lfilter`` runs, over Python floats, so each value is bit-identical.
        A causal filter's first n outputs do not depend on the run's length."""
        n = max(len(self.ar) + 1, len(self.ma), 2)
        b = list(self.ma) + [0.0] * (n - len(self.ma))
        a = [1.0] + [-c for c in self.ar] + [0.0] * (n - 1 - len(self.ar))
        z, x = [0.0] * (n - 1), 1.0
        while True:
            y = z[0] + b[0] * x
            for i in range(n - 2):
                z[i] = z[i + 1] + x * b[i + 1] - y * a[i + 1]
            z[-1] = x * b[-1] - y * a[-1]
            yield y
            x = 0.0

    def impulse_response(self, length: int) -> np.ndarray:
        return np.fromiter(islice(self._impulse(), length), float)

    def taps(self) -> np.ndarray:
        """Impulse response h, ``ma`` for a pure-MA model; else doubled from (q+1) + 10(p+q+1)
        until |h[-1]| <= 1e-12 max|h|, in one pass of :meth:`_impulse`.  A response that has
        not decayed that far at ``_STABILITY_MAX_STEPS`` taps raises ``ValueError``.  The one
        filter, computed once per model and read-only."""
        h = self.__dict__.get("_taps")
        if h is None:
            h, n, impulse = [], len(self.ma) + 10 * (len(self.ar) + len(self.ma)), self._impulse()
            while self.ar:
                h += islice(impulse, n - len(h))
                peak = max(map(abs, h))
                if abs(h[-1]) <= 1e-12 * peak:
                    break
                if n >= _STABILITY_MAX_STEPS:
                    raise ValueError(
                        f"model with ar={list(self.ar)} has memory past the {n}-tap cap: largest "
                        f"AR root modulus {self._ar_root_radius():.6g}, last tap "
                        f"{abs(h[-1]) / peak:.2g} of the peak (need <= 1e-12)")
                n = min(2 * n, _STABILITY_MAX_STEPS)
            h = _read_only(h if self.ar else self.ma)
            object.__setattr__(self, "_taps", h)
        return h

    def _ar_root_radius(self) -> float:
        roots = np.roots(self.ar_poly())
        return float(np.abs(roots).max()) if roots.size else 0.0

    def is_stable(self) -> bool:
        """True when every root of ``ar_poly()`` lies strictly inside the unit circle.

        Pure-MA models have no AR roots and are always stable.
        """
        return self._ar_root_radius() < 1.0

    def check_stable(self) -> None:
        """Raise :class:`UnstableModelError`, naming the largest AR root modulus, unless stable."""
        if not self.is_stable():
            raise UnstableModelError(
                f"model with ar={list(self.ar)} is unstable: "
                f"largest AR root modulus {self._ar_root_radius():.6g} (need < 1)"
            )


@dataclass(frozen=True)
class Spectrum:
    """One-sided physical PSD on an ascending grid, ``freqs`` in Hz and ``values`` in rad^2/Hz,
    both read-only.  A model's grid ends at its Nyquist frequency, ``freqs[-1] = 1/(2 t_s)``."""

    freqs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if freqs.ndim != 1 or freqs.shape != values.shape:
            raise ValueError("freqs and values must be 1-d arrays of equal length")
        if freqs.size >= 2 and not np.all(np.diff(freqs) > 0):
            raise ValueError("freqs must be strictly ascending")
        if np.any(values < 0):
            raise ValueError("PSD values must be non-negative")
        object.__setattr__(self, "freqs", _read_only(freqs))
        object.__setattr__(self, "values", _read_only(values))

    def total_power(self) -> float:
        """Trapezoidal integral of the PSD over the grid, in rad^2."""
        return float(np.trapezoid(self.values, self.freqs))


@dataclass(frozen=True)
class Trajectory:
    """A realization of correlated per-step phase increments."""

    phases: np.ndarray
    sample_period: float
    seed_lineage: SeedLineage

    def __post_init__(self):
        object.__setattr__(self, "phases", _read_only(self.phases))

    def __len__(self) -> int:
        return self.phases.size


def generate_trajectory(model: ArmaModel, length: int, seed: "int | SeedLineage") -> Trajectory:
    """Draw one stationary trajectory of ``length`` phase increments.

    It is the one row of :func:`_model_phases` drawn at the seed's lineage, so it equals row 0
    of any SDR block drawn there; the output is deterministic per (model, length, seed).
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    model.check_stable()
    lineage = as_lineage(seed)
    phases = _model_phases(model, lineage.generator(), 1, length)[0]
    return Trajectory(phases=phases, sample_period=model.sample_period, seed_lineage=lineage)


def _unit_normals(generator, shape: "tuple[int, int]", keep: "int | None" = None) -> np.ndarray:
    """The last ``keep`` (default all) columns of the next (rows, cols) normals of ``generator``.

    The one draw rule: the rows asked are drawn row-major, whole rows of at most
    ``_NORMALS_PER_CALL`` normals (or one wider row) per ``standard_normal`` call, and each
    call's last ``keep`` columns are copied into the result, so a call's leading columns are
    freed before the next call draws.  A stream drawn block by block from one generator
    therefore equals its whole-stream draw.
    """
    rows, cols = shape
    keep = cols if keep is None else keep
    out = np.empty((rows, keep))
    chunk = max(1, _NORMALS_PER_CALL // max(cols, 1))
    for r in range(0, rows, chunk):
        out[r:r + chunk] = generator.standard_normal((min(chunk, rows - r), cols))[:, cols - keep:]
    return out


def _kept_normals(model: ArmaModel, generator, rows: int, steps: int) -> np.ndarray:
    """(rows, len(taps) - 1 + steps) unit normals, those that ``steps`` phases of ``model``
    read: each of the next ``rows`` rows of ``generator`` draws ``burn_in + steps`` by
    :func:`_unit_normals` and keeps the last.  The one place that sets the kept width."""
    return _unit_normals(generator, (rows, model.burn_in + steps), len(model.taps()) - 1 + steps)


def _model_phases(model: "ArmaModel | None", generator, rows: int, steps: int) -> np.ndarray:
    """(rows, steps) phases of ``model``, each row filtered from :func:`_kept_normals` of the
    next ``rows`` rows of ``generator``.

    The one synthesizer.  A silent or absent model gives zeros and draws nothing.
    """
    if model is None or model.drive_std == 0.0:
        return np.zeros((rows, steps))
    return _synthesize_phases(model, _kept_normals(model, generator, rows, steps), steps)


def _phase_sum_kernel(model: ArmaModel, weights: np.ndarray) -> np.ndarray:
    """drive_std * np.convolve(weights, taps[::-1]): the kept normals of ``len(weights)``
    phases of ``model`` times this vector is the phases' sum weighted by ``weights``, since a
    phase is the "valid" convolution of the kept normals with the taps."""
    return model.drive_std * np.convolve(weights, model.taps()[::-1])


def _synthesize_phases(model: ArmaModel, normals: np.ndarray, steps: int) -> np.ndarray:
    """Scale unit normals by ``drive_std`` in place, filter the last axis, keep ``steps``.

    The one filter kernel of every phase row: output t reads inputs t-len(taps)+1..t with
    ``model.taps()``, so it starts stationary, and every output is bit for bit the "valid"
    ``np.convolve`` of its row.  All rows of a block are filtered in one call, with the GIL
    released: ``np.dot`` of the (rows, steps, len(taps)) windows with the reversed taps runs
    the one ddot per output that ``np.convolve`` runs.  The windows stay 3-D, because a 2-D
    operand takes gemv, which rounds differently.  The one branch: a kernel of at most
    ``_SMALL_KERNEL_TAPS`` taps, which np.convolve sums left to right from 0 in its own
    loop, is summed that way here, one whole-block product per tap.  For a pure-MA model
    this is the kernel ``lfilter``'s FIR path runs, so every output equals a whole-row
    filter's.  A perfect-pulse gate stream forms no phase rows: the simulator multiplies
    its kept normals by :func:`_phase_sum_kernel`.
    """
    normals *= model.drive_std
    taps = model.taps()
    width = len(taps) - 1 + steps
    windows = sliding_window_view(normals[..., -width:].reshape(-1, width), len(taps), axis=-1)
    kernel = taps[::-1].copy()
    if len(kernel) <= _SMALL_KERNEL_TAPS:
        phases = np.zeros(windows.shape[:-1])
        for k, tap in enumerate(kernel):
            phases += windows[..., k] * tap
    else:
        phases = np.dot(windows, kernel)
    return phases.reshape(normals.shape[:-1] + (steps,))


@functools.lru_cache(maxsize=8)
def _grid_freqs(grid_size: int, period: float) -> np.ndarray:
    """The one spectral grid f_m = m / (2 t (grid_size-1)); PSDs and filters compare it exactly.

    One read-only array per (grid_size, period), which every PSD and filter function on it
    holds.  A command uses one or two grids; the cache keeps the last eight, so a caller that
    sweeps periods or sizes does not keep every grid alive.
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")
    theta = np.pi * np.arange(grid_size) / (grid_size - 1)
    return _read_only(theta / (2.0 * np.pi * period))


def _dtft_power(coeffs, grid_size: int) -> np.ndarray:
    """|sum_j c_j e^{-i theta_m j}|^2 on theta_m = pi m / (grid_size-1), from one rFFT.

    e^{-i theta_m j} has period n = 2 (grid_size-1) in j, so folding j modulo n is exact.
    """
    n = 2 * (grid_size - 1)
    folded = np.bincount(np.arange(len(coeffs)) % n, weights=coeffs, minlength=n)
    return np.abs(np.fft.rfft(folded)) ** 2


def psd(model: ArmaModel, grid_size: int = DEFAULT_GRID_SIZE) -> Spectrum:
    """One-sided physical PSD 2 t_s drive_std^2 |B|^2 / |A|^2 on f_m = m / (2 t_s (grid_size-1)).

    The grid must be fine enough for downstream quadrature; with the default
    size the trapezoidal integral reproduces r(0) to better than 1e-6 relative
    for every model produced by the designers.
    """
    freqs = _grid_freqs(grid_size, model.sample_period)
    ratio = _dtft_power(model.ma, grid_size) / _dtft_power(model.ar_poly(), grid_size)
    values = 2.0 * model.sample_period * (model.drive_std**2 * ratio)
    return Spectrum(freqs=freqs, values=values)


def autocovariance(model: ArmaModel, max_lag: int) -> np.ndarray:
    """r(0..max_lag) of the stationary process.

    Computed from the taps h as r(k) = drive_std^2 * sum_t h_t h_{t+k}; their cut at 1e-12
    of the peak keeps the truncation error below 1e-9 relative.
    """
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    model.check_stable()
    h = model.taps()
    r = np.zeros(max_lag + 1)
    for k in range(min(max_lag + 1, h.size)):
        r[k] = np.dot(h[: h.size - k], h[k:])
    return model.drive_std**2 * r


# ---------------------------------------------------------------------------
# Spectrum designers: windowed frequency sampling on sqrt(PSD).
# ---------------------------------------------------------------------------


def _raised_cosine_window(taps: int) -> np.ndarray:
    # Hamming coefficients of the raised-cosine family: the pure Hann member
    # leaves ~10.7% of a narrow band's power outside the target band at 201
    # taps, just missing the 90% concentration contract; 0.54/0.46 meets it
    # and suppresses far sidelobes further.
    n = np.arange(taps)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * n / (taps - 1))


def _design_ma(target_psd, sample_period: float, taps: int, total_power: "float | None") -> ArmaModel:
    """FIR taps whose PSD approximates ``target_psd`` (a callable f -> rad^2/Hz); the silent
    model when ``total_power`` or the taps' power is 0."""
    if taps < 3:
        raise ValueError("taps must be >= 3")
    if taps % 2 == 0:
        raise ValueError("taps must be odd (type-I linear-phase design)")
    nfft = 1 << max(14, int(np.ceil(np.log2(8 * taps))))
    m = nfft // 2 + 1
    freqs = np.linspace(0.0, 0.5 / sample_period, m)
    with np.errstate(over="ignore", invalid="ignore"):
        target = np.asarray(target_psd(freqs), dtype=float)
    if not np.isfinite(target).all():
        raise ValueError("target PSD is not finite on [0, Nyquist]")
    target = np.clip(target, 0.0, None)
    amplitude = np.sqrt(target / (2.0 * sample_period))
    phase = np.exp(-1j * np.pi * np.arange(m) * (taps - 1) / nfft)
    half = amplitude * phase
    spectrum = np.concatenate([half, np.conj(half[-2:0:-1])])
    taps_raw = np.fft.ifft(spectrum).real[:taps]
    b = taps_raw * _raised_cosine_window(taps)
    raw_power = float(np.dot(b, b))
    if total_power == 0.0 or raw_power == 0.0:
        return ArmaModel(ar=(), ma=(1.0,), drive_std=0.0, sample_period=sample_period)
    if total_power is not None:
        b = b * np.sqrt(total_power / raw_power)
    return ArmaModel(ar=(), ma=tuple(b), drive_std=1.0, sample_period=sample_period)


def design_bandpass(
    center_hz: float,
    bandwidth_hz: float,
    total_power: float,
    sample_period: float,
    taps: int = DEFAULT_TAPS,
) -> ArmaModel:
    """MA model approximating a rectangular band with r(0) = total_power.

    The band must lie strictly inside (0, Nyquist).  The realized half-power
    band center lands within 2% of the target and, for taps >= 201, at least
    90% of r(0) falls inside the target band.
    """
    return design_multiband(
        [(center_hz, bandwidth_hz, total_power)], sample_period, taps=taps
    )


def design_multiband(
    bands: "list[tuple[float, float, float]]",
    sample_period: float,
    taps: int = DEFAULT_TAPS,
) -> ArmaModel:
    """Sum-of-rectangles generalization of :func:`design_bandpass`."""
    if not bands:
        raise ValueError("at least one band is required")
    nyquist = 0.5 / sample_period
    for center, width, power in bands:
        if width <= 0:
            raise ValueError(f"band width must be > 0, got {width}")
        if power < 0:
            raise ValueError(f"band power must be >= 0, got {power}")
        if center - width / 2 <= 0 or center + width / 2 >= nyquist:
            raise ValueError(
                f"band {center:.6g} +- {width / 2:.6g} Hz exceeds (0, {nyquist:.6g}) Hz"
            )

    def target(f: np.ndarray) -> np.ndarray:
        v = np.zeros_like(f)
        for center, width, power in bands:
            inside = (f >= center - width / 2) & (f <= center + width / 2)
            v[inside] += power / width
        return v

    total = float(sum(power for _, _, power in bands))
    return _design_ma(target, sample_period, taps, total_power=total)


def design_power_law(
    alpha: float,
    anchor: "tuple[float, float]",
    band: "tuple[float, float]",
    sample_period: float,
    taps: int = DEFAULT_TAPS,
) -> ArmaModel:
    """MA model with S(f) proportional to 1/f^alpha on [f_lo, f_hi].

    The PSD passes through ``anchor`` = (f_anchor, psd_value), is held
    constant below f_lo (finite-power regularization of the f -> 0 divergence
    for alpha > 0) and rolled off with a half-cosine amplitude taper above
    f_hi.  The realized log-log slope over [f_lo, f_hi] is within 0.1 of
    -alpha.  The anchor must lie where the target is positive: at most
    Nyquist, and below it when the taper ends there at 0.
    """
    f_lo, f_hi = band
    nyquist = 0.5 / sample_period
    if not (0.0 < f_lo < f_hi <= nyquist):
        raise ValueError(f"band must satisfy 0 < f_lo < f_hi <= {nyquist:.6g} Hz")
    f_anchor, s_anchor = anchor
    if f_anchor <= 0 or s_anchor < 0:
        raise ValueError("anchor must have positive frequency and non-negative PSD")
    if f_anchor > nyquist or (f_anchor == nyquist and f_hi < nyquist):
        raise ValueError(f"anchor {f_anchor:.6g} Hz must lie below Nyquist {nyquist:.6g} Hz, "
                         "or at it when the band reaches it")
    if s_anchor == 0.0:
        return ArmaModel(ar=(), ma=(1.0,), drive_std=0.0, sample_period=sample_period)

    def target(f: np.ndarray) -> np.ndarray:
        clipped = np.clip(f, f_lo, None)
        v = s_anchor * (clipped / f_anchor) ** (-alpha)
        if f_hi < nyquist:
            t = np.clip((f - f_hi) / (nyquist - f_hi), 0.0, 1.0)
            v = v * (0.5 + 0.5 * np.cos(np.pi * t)) ** 2
        return v

    model = _design_ma(target, sample_period, taps, total_power=None)
    # Rescale so the realized PSD passes through the anchor exactly.
    realized = psd(model, DEFAULT_GRID_SIZE)
    at_anchor = float(np.interp(f_anchor, realized.freqs, realized.values))
    if at_anchor <= 0:
        raise ValueError("designed PSD vanished at the anchor frequency")
    scale = np.sqrt(s_anchor / at_anchor)
    return ArmaModel(
        ar=(), ma=tuple(np.asarray(model.ma) * scale), drive_std=1.0, sample_period=sample_period
    )


def design_lorentzian(
    amplitude: float,
    cutoff: float,
    white_floor: float,
    sample_period: float,
    taps: int = DEFAULT_TAPS,
) -> ArmaModel:
    """MA model matching amplitude/(1 + omega^2/cutoff^2) + white_floor.

    ``cutoff`` is angular (rad/s); ``amplitude`` and ``white_floor`` are
    one-sided PSD values in rad^2/Hz.  The realized PSD matches the target
    within 3% relative on [0, Nyquist/2].
    """
    if amplitude < 0 or white_floor < 0:
        raise ValueError("amplitude and white_floor must be >= 0")
    if cutoff <= 0:
        raise ValueError(f"cutoff must be > 0, got {cutoff}")

    def target(f: np.ndarray) -> np.ndarray:
        omega = 2.0 * np.pi * f
        return amplitude / (1.0 + omega**2 / cutoff**2) + white_floor

    return _design_ma(target, sample_period, taps, total_power=None)
