"""Fixed-total-time probe sequences, switching and filter functions.

A probe sequence occupies N gate-period slots; pi-pulses replace the identity
at selected slots.  Sequence k of a family carries k pulses at CPMG-style
equally spaced positions, so all sequences span the same total time N * t_G
while their filter functions sweep monotonically across the probed band with
peaks near n_k / (2 N t_G).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise_models import DEFAULT_GRID_SIZE, Spectrum


@dataclass(frozen=True)
class PulseSequence:
    """N slots, pi-pulse positions/signs, and the gate period t_G."""

    n_slots: int
    pulse_slots: tuple[int, ...]
    pulse_signs: tuple[int, ...]
    gate_period: float
    label: int = 0

    def __post_init__(self):
        object.__setattr__(self, "pulse_slots", tuple(int(s) for s in self.pulse_slots))
        object.__setattr__(self, "pulse_signs", tuple(int(s) for s in self.pulse_signs))
        if self.n_slots < 1:
            raise ValueError("n_slots must be >= 1")
        if self.gate_period <= 0:
            raise ValueError("gate_period must be > 0")
        if len(self.pulse_signs) != len(self.pulse_slots):
            raise ValueError("pulse_signs and pulse_slots must have equal length")
        if any(s not in (-1, 1) for s in self.pulse_signs):
            raise ValueError("pulse signs must be +1 or -1")
        slots = self.pulse_slots
        if any(not 1 <= s <= self.n_slots for s in slots):
            raise ValueError(f"pulse slots must lie in [1, {self.n_slots}]")
        if any(b <= a for a, b in zip(slots, slots[1:])):
            raise ValueError(f"pulse slots must be strictly ascending, got {slots}")

    @property
    def n_pulses(self) -> int:
        return len(self.pulse_slots)

    @property
    def total_time(self) -> float:
        return self.n_slots * self.gate_period

    def closing_sign(self, target_state: int) -> float:
        """Sign of the closing R_x(+-pi/2): a noiseless, perfect-pulse run ends in the target."""
        if target_state not in (0, 1):
            raise ValueError("target_state must be 0 or 1")
        return 1.0 if (self.n_pulses + target_state) % 2 == 1 else -1.0


@dataclass(frozen=True)
class FilterFunction:
    """Non-negative weights g on a Spectrum grid with chi = sum_m g[m] * S[m]."""

    freqs: np.ndarray
    weights: np.ndarray
    peak_freq: float
    label: int = 0
    n_pulses: int = 0

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if freqs.shape != weights.shape or freqs.ndim != 1:
            raise ValueError("freqs and weights must be 1-d arrays of equal length")
        freqs.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "weights", weights)

    def chi(self, spectrum: Spectrum) -> float:
        """Contract the filter with a PSD sampled on the same grid."""
        if not np.array_equal(self.freqs, spectrum.freqs):
            raise ValueError("spectrum grid does not match filter grid")
        return float(np.dot(self.weights, spectrum.values))


def _filters_by_label(records, filters) -> "dict[int, FilterFunction]":
    """Filters keyed by label, checked to cover every record's label on one shared grid."""
    by_label = {f.label: f for f in filters}
    missing = [r.label for r in records if r.label not in by_label]
    if missing:
        raise ValueError(f"no filter function for sequence labels {missing}")
    grid = next(iter(by_label.values())).freqs
    if any(not np.array_equal(f.freqs, grid) for f in by_label.values()):
        raise ValueError("all filter functions must share one frequency grid")
    return by_label


def _cpmg_slots(n_pulses: int, n_slots: int) -> tuple[int, ...]:
    if n_pulses == 0:
        return ()
    j = np.arange(1, n_pulses + 1)
    # round-half-up keeps placements symmetric under slot reversal
    slots = np.floor((j - 0.5) * n_slots / n_pulses + 0.5).astype(int)
    return tuple(int(s) for s in slots)


def _make_family(n_sequences: int, n_slots: int, gate_period: float, alternating: bool):
    if n_sequences < 1:
        raise ValueError("n_sequences must be >= 1")
    if n_sequences > n_slots:
        raise ValueError(f"need n_sequences <= n_slots, got {n_sequences} > {n_slots}")
    sequences = []
    for k in range(n_sequences):
        slots = _cpmg_slots(k, n_slots)
        if len(set(slots)) != len(slots):
            raise ValueError(
                f"sequence {k}: pulse placement collides after rounding "
                f"(n_sequences too close to n_slots)"
            )
        if alternating:
            signs = tuple(1 if j % 2 == 0 else -1 for j in range(k))
        else:
            signs = (1,) * k
        sequences.append(
            PulseSequence(
                n_slots=n_slots,
                pulse_slots=slots,
                pulse_signs=signs,
                gate_period=gate_period,
                label=k,
            )
        )
    return sequences


def make_fttps(n_sequences: int, n_slots: int, gate_period: float) -> "list[PulseSequence]":
    """Fixed total-time family: sequence k has k pulses, all signs +1."""
    return _make_family(n_sequences, n_slots, gate_period, alternating=False)


def make_rfttps(n_sequences: int, n_slots: int, gate_period: float) -> "list[PulseSequence]":
    """Pulse-error-compensating family: same slots, alternating +1/-1 signs."""
    return _make_family(n_sequences, n_slots, gate_period, alternating=True)


def switching_function(seq: PulseSequence) -> np.ndarray:
    """Toggling-frame signs y_j = (-1)^(number of pulses at slots < j).

    A pulse at slot s flips the sign of every later slot's phase
    contribution; y_1 is always +1.  This parity makes the accumulated phase
    of a constant trajectory cancel exactly for the centered single-pulse
    sequence, and keeps sum_j y_j in {0, +-1} for every pulsed sequence.
    """
    y = np.ones(seq.n_slots)
    for s in seq.pulse_slots:
        y[s:] = -y[s:]
    return y


def filter_function(seq: PulseSequence, grid_size: int = DEFAULT_GRID_SIZE) -> FilterFunction:
    """Frequency-domain weights of the sequence on the Spectrum grid for t_s = t_G.

    With Y(theta) = sum_j y_j e^{-i theta j}, the weights satisfy

        sum_m g[m] * S_f[m] ~= (1/2pi) * integral_0^pi S(theta) |Y(theta)|^2 dtheta,

    the trapezoidal rule being exact for MA spectra once
    2*(grid_size-1) exceeds the highest harmonic of S * |Y|^2.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    y = switching_function(seq)
    n = seq.n_slots
    theta = np.pi * np.arange(grid_size) / (grid_size - 1)
    response = np.exp(-1j * np.outer(theta, np.arange(1, n + 1))) @ y
    density = np.abs(response) ** 2 / 2.0
    df = 1.0 / (2.0 * seq.gate_period * (grid_size - 1))
    trapz = np.full(grid_size, df)
    trapz[0] *= 0.5
    trapz[-1] *= 0.5
    freqs = theta / (2.0 * np.pi * seq.gate_period)
    return FilterFunction(
        freqs=freqs,
        weights=density * trapz,
        peak_freq=float(freqs[np.argmax(density)]),
        label=seq.label,
        n_pulses=seq.n_pulses,
    )


def chi_time_domain(seq: PulseSequence, autocov: np.ndarray) -> float:
    """Exact Gaussian decay exponent chi = 1/2 sum_{j,l} y_j y_l r(|j-l|)."""
    r = np.asarray(autocov, dtype=float)
    n = seq.n_slots
    if r.size < n:
        raise ValueError(f"autocovariance must reach lag {n - 1}, got {r.size - 1}")
    y = switching_function(seq)
    y_acf = np.correlate(y, y, mode="full")[n - 1 :]
    return float(0.5 * (r[0] * y_acf[0] + 2.0 * np.dot(r[1:n], y_acf[1:n])))
