"""Monte-Carlo single-qubit simulation of probe sequences under phase noise.

Each shot propagates an exact 2x2 unitary: prepare an equal superposition
with R_x(pi/2); for every slot apply the dephasing error R_z(phi_j +
native_j) followed by the slot's gate (identity, or R_x(+-(pi + eps +
delta_j)) for pulse slots); close with the R_x(+-pi/2) gate that returns a
noiseless qubit to the target state; measure.

Two injection styles are supported: GATE mode shares one trajectory across a
block of shots (fresh trajectory per repetition), while SDR mode gives every
shot its own trajectory at an independent update period, resampled onto gate
slots by accumulating phase increments over each slot window, optionally with
a random start offset to emulate a noise source running asynchronously with
the pulses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .noise_models import ArmaModel, Trajectory, UnstableModelError, autocovariance
from .noise_models import _synthesize_phases
from .seeds import (
    STREAM_INJECTED,
    STREAM_MEASUREMENT,
    STREAM_NATIVE,
    STREAM_PULSE_JITTER,
    SeedLineage,
    as_lineage,
)
from .sequences import PulseSequence, chi_time_domain

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class PulseErrorModel:
    """Coherent over-rotation and per-pulse Gaussian angle jitter, in radians."""

    over_rotation: float = 0.0
    jitter_std: float = 0.0

    def __post_init__(self):
        if self.jitter_std < 0:
            raise ValueError("jitter_std must be >= 0")

    @property
    def is_perfect(self) -> bool:
        return self.over_rotation == 0.0 and self.jitter_std == 0.0


@dataclass(frozen=True)
class GateMode:
    """Gate-based injection: R trajectories, a block of shots per trajectory."""

    trajectories: int
    shots_per_trajectory: int

    def __post_init__(self):
        if self.trajectories < 1 or self.shots_per_trajectory < 1:
            raise ValueError("GateMode counts must be >= 1")


@dataclass(frozen=True)
class SdrMode:
    """Continuous-injection emulation: every shot gets its own trajectory.

    ``phase_update_period`` is the noise sample period and need not equal the
    gate period; ``random_time_offset`` draws a uniform start offset in
    [0, t_s) per shot.
    """

    shots: int
    phase_update_period: float
    random_time_offset: bool = True

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("SdrMode shots must be >= 1")
        if self.phase_update_period <= 0:
            raise ValueError("phase_update_period must be > 0")


@dataclass(frozen=True)
class ExperimentRecord:
    """Survival statistics for one probe sequence."""

    label: int
    n_pulses: int
    survival_mean: float
    survival_stderr: float
    shots: int
    trajectories: int
    seed: int
    trajectory_survivals: Optional[np.ndarray] = field(default=None, compare=False)

    @property
    def total_shots(self) -> int:
        return self.shots * self.trajectories


def _propagate(
    phases: np.ndarray,
    seq: PulseSequence,
    over_rotation: float,
    jitter: np.ndarray,
    target_state: int,
) -> np.ndarray:
    """Survival probabilities for a batch of trajectories (rows of ``phases``)."""
    n_traj, n_slots = phases.shape
    if n_slots != seq.n_slots:
        raise ValueError("phase array does not match sequence slot count")
    psi0 = np.full(n_traj, _INV_SQRT2, dtype=complex)
    psi1 = np.full(n_traj, -1j * _INV_SQRT2, dtype=complex)
    ez = np.exp(-0.5j * phases)
    pulse_at = dict(zip(seq.pulse_slots, range(seq.n_pulses)))
    signs = seq.pulse_signs
    for j in range(1, n_slots + 1):
        rot = ez[:, j - 1]
        psi0 = psi0 * rot
        psi1 = psi1 * np.conj(rot)
        idx = pulse_at.get(j)
        if idx is not None:
            angle = signs[idx] * (np.pi + over_rotation + jitter[:, idx])
            c = np.cos(0.5 * angle)
            s = np.sin(0.5 * angle)
            # a perfect pi rotation is exactly -+iX; cos(pi/2) in floats is
            # ~6e-17, so snap it to keep ideal pulses exact
            exact = np.abs(angle) == np.pi
            if exact.any():
                c = np.where(exact, 0.0, c)
            psi0, psi1 = c * psi0 - 1j * s * psi1, -1j * s * psi0 + c * psi1
    half = seq.closing_sign(target_state) * np.pi / 4.0
    c, s = np.cos(half), np.sin(half)
    psi0, psi1 = c * psi0 - 1j * s * psi1, -1j * s * psi0 + c * psi1
    amp = psi1 if target_state == 1 else psi0
    # |amp|^2 can overshoot 1 by an ulp or so; clipping leaves in-range values unchanged
    return np.clip(np.abs(amp) ** 2, 0.0, 1.0)


def run_shot(
    seq: PulseSequence,
    trajectory: Trajectory,
    native: Optional[Trajectory] = None,
    pulse_errors: Optional[PulseErrorModel] = None,
    seed: "int | SeedLineage" = 0,
    target_state: int = 1,
) -> float:
    """Exact survival probability for one trajectory (and one jitter draw).

    With perfect pulses this equals (1 + cos Phi) / 2 where Phi is the
    switching-function-weighted sum of the slot phases, to 1e-12 absolute.
    """
    n = seq.n_slots
    if len(trajectory) < n:
        raise ValueError(f"trajectory has {len(trajectory)} steps, sequence needs {n}")
    phases = trajectory.phases[:n].copy()
    if native is not None:
        if len(native) < n:
            raise ValueError(f"native trajectory has {len(native)} steps, sequence needs {n}")
        phases = phases + native.phases[:n]
    perr = pulse_errors or PulseErrorModel()
    rng = as_lineage(seed).generator()
    jitter = perr.jitter_std * rng.standard_normal((1, seq.n_pulses))
    p = _propagate(phases[None, :], seq, perr.over_rotation, jitter, target_state)
    return float(p[0])


def _check_gate_aligned(model: Optional[ArmaModel], gate_period: float, role: str) -> None:
    if model is None:
        return
    if not np.isclose(model.sample_period, gate_period, rtol=1e-9, atol=0.0):
        raise ValueError(
            f"{role} model sample_period {model.sample_period!r} must equal "
            f"the gate period {gate_period!r} in this mode"
        )


def _stationary_check(model: Optional[ArmaModel]) -> None:
    if model is not None and not model.is_stable():
        raise UnstableModelError(model.stability_diagnostic())


def _survival_stats(fractions: np.ndarray, shots_each: int) -> tuple[float, float]:
    """Mean and standard error of the mean across trajectory blocks.

    The standard error combines trajectory-to-trajectory scatter with a
    floored binomial term so that downstream inverse-variance weights stay
    finite even for all-success records.
    """
    n_traj = fractions.size
    total = n_traj * shots_each
    mean = float(fractions.mean())
    scatter = float(fractions.std(ddof=1) / np.sqrt(n_traj)) if n_traj > 1 else 0.0
    successes = mean * total
    p_tilde = (successes + 0.5) / (total + 1.0)
    binomial = float(np.sqrt(p_tilde * (1.0 - p_tilde) / total))
    return mean, max(scatter, binomial)


def _gate_phase_block(
    model: Optional[ArmaModel],
    n_traj: int,
    n_slots: int,
    root: SeedLineage,
    label: int,
    stream: int,
) -> np.ndarray:
    """(n_traj, n_slots) gate-aligned phase increments, one row per trajectory."""
    if model is None or model.drive_std == 0.0:
        return np.zeros((n_traj, n_slots))
    normals = np.empty((n_traj, model.burn_in + n_slots))
    for r in range(n_traj):
        rng = root.child(label, r, stream).generator()
        normals[r] = rng.standard_normal(normals.shape[1])
    return _synthesize_phases(model, normals)


def _sdr_slot_phases(
    model: ArmaModel,
    n_shots: int,
    seq_time: float,
    n_slots: int,
    gate_period: float,
    offsets: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-shot trajectories at the model's own period, accumulated onto slots."""
    t_s = model.sample_period
    n_steps = int(np.ceil(seq_time / t_s)) + 2
    if model.drive_std == 0.0:
        return np.zeros((n_shots, n_slots))
    phases = _synthesize_phases(model, rng.standard_normal((n_shots, model.burn_in + n_steps)))
    cum = np.concatenate([np.zeros((n_shots, 1)), np.cumsum(phases, axis=1)], axis=1)
    # piecewise-linear cumulative phase, sampled at slot boundaries
    bounds = offsets[:, None] + gate_period * np.arange(n_slots + 1)[None, :]
    x = bounds / t_s
    i = np.clip(np.floor(x).astype(int), 0, n_steps - 1)
    frac = x - i
    rows = np.arange(n_shots)[:, None]
    cum_at = cum[rows, i] + frac * (cum[rows, i + 1] - cum[rows, i])
    return np.diff(cum_at, axis=1)


def run_experiment(
    sequences: "list[PulseSequence]",
    model: ArmaModel,
    native_model: Optional[ArmaModel] = None,
    pulse_errors: Optional[PulseErrorModel] = None,
    mode: "GateMode | SdrMode" = GateMode(trajectories=50, shots_per_trajectory=1000),
    seed: int = 0,
    target_state: int = 1,
    keep_raw: bool = False,
) -> "list[ExperimentRecord]":
    """Simulate every sequence and return survival records, deterministic per seed."""
    if not sequences:
        raise ValueError("at least one sequence is required")
    perr = pulse_errors or PulseErrorModel()
    root = as_lineage(seed)
    _stationary_check(model)
    _stationary_check(native_model)
    gate_period = sequences[0].gate_period
    if any(not np.isclose(s.gate_period, gate_period, rtol=1e-12) for s in sequences):
        raise ValueError("all sequences must share one gate period")
    _check_gate_aligned(native_model, gate_period, "native")
    if isinstance(mode, GateMode):
        _check_gate_aligned(model, gate_period, "injected")
        return [
            _run_gate_sequence(s, model, native_model, perr, mode, root, target_state, keep_raw)
            for s in sequences
        ]
    if isinstance(mode, SdrMode):
        return [
            _run_sdr_sequence(s, model, native_model, perr, mode, root, target_state, keep_raw)
            for s in sequences
        ]
    raise ValueError(f"unsupported mode {mode!r}")


def _run_gate_sequence(
    seq: PulseSequence,
    model: ArmaModel,
    native_model: Optional[ArmaModel],
    perr: PulseErrorModel,
    mode: GateMode,
    root: SeedLineage,
    target_state: int,
    keep_raw: bool,
) -> ExperimentRecord:
    n_traj = mode.trajectories
    k = seq.label
    phases = _gate_phase_block(model, n_traj, seq.n_slots, root, k, STREAM_INJECTED)
    if native_model is not None:
        phases = phases + _gate_phase_block(
            native_model, n_traj, seq.n_slots, root, k, STREAM_NATIVE
        )
    jitter = np.zeros((n_traj, seq.n_pulses))
    for r in range(n_traj):
        rng = root.child(k, r, STREAM_PULSE_JITTER).generator()
        jitter[r] = perr.jitter_std * rng.standard_normal(seq.n_pulses)
    p_traj = _propagate(phases, seq, perr.over_rotation, jitter, target_state)
    fractions = np.empty(n_traj)
    for r in range(n_traj):
        rng = root.child(k, r, STREAM_MEASUREMENT).generator()
        fractions[r] = rng.binomial(mode.shots_per_trajectory, p_traj[r]) / mode.shots_per_trajectory
    mean, stderr = _survival_stats(fractions, mode.shots_per_trajectory)
    return ExperimentRecord(
        label=k,
        n_pulses=seq.n_pulses,
        survival_mean=mean,
        survival_stderr=stderr,
        shots=mode.shots_per_trajectory,
        trajectories=n_traj,
        seed=root.root,
        trajectory_survivals=fractions if keep_raw else None,
    )


def _run_sdr_sequence(
    seq: PulseSequence,
    model: ArmaModel,
    native_model: Optional[ArmaModel],
    perr: PulseErrorModel,
    mode: SdrMode,
    root: SeedLineage,
    target_state: int,
    keep_raw: bool,
) -> ExperimentRecord:
    k = seq.label
    n_shots = mode.shots
    if not np.isclose(model.sample_period, mode.phase_update_period, rtol=1e-9, atol=0.0):
        raise ValueError(
            f"injected model sample_period {model.sample_period!r} must equal the "
            f"SDR phase_update_period {mode.phase_update_period!r}"
        )
    rng_meas = root.child(k, 0, STREAM_MEASUREMENT).generator()
    if mode.random_time_offset:
        offsets = rng_meas.uniform(0.0, mode.phase_update_period, size=n_shots)
    else:
        offsets = np.zeros(n_shots)
    rng_noise = root.child(k, 0, STREAM_INJECTED).generator()
    phases = _sdr_slot_phases(
        model, n_shots, seq.total_time + mode.phase_update_period,
        seq.n_slots, seq.gate_period, offsets, rng_noise,
    )
    if native_model is not None and native_model.drive_std > 0:
        rng_nat = root.child(k, 0, STREAM_NATIVE).generator()
        normals = rng_nat.standard_normal((n_shots, native_model.burn_in + seq.n_slots))
        phases += _synthesize_phases(native_model, normals)
    rng_jit = root.child(k, 0, STREAM_PULSE_JITTER).generator()
    jitter = perr.jitter_std * rng_jit.standard_normal((n_shots, seq.n_pulses))
    p_shot = _propagate(phases, seq, perr.over_rotation, jitter, target_state)
    outcomes = (rng_meas.random(n_shots) < p_shot).astype(float)
    mean, stderr = _survival_stats(outcomes, 1)
    return ExperimentRecord(
        label=k,
        n_pulses=seq.n_pulses,
        survival_mean=mean,
        survival_stderr=stderr,
        shots=1,
        trajectories=n_shots,
        seed=root.root,
        trajectory_survivals=outcomes if keep_raw else None,
    )


def analytic_survival(
    seq: PulseSequence,
    model: Optional[ArmaModel],
    native_model: Optional[ArmaModel] = None,
) -> float:
    """Closed-form survival 1/2 + 1/2 exp(-chi) for Gaussian stationary noise."""
    chi = 0.0
    for m in (model, native_model):
        if m is None or m.drive_std == 0.0:
            continue
        _check_gate_aligned(m, seq.gate_period, "analytic")
        chi += chi_time_domain(seq, autocovariance(m, seq.n_slots - 1))
    return 0.5 + 0.5 * np.exp(-chi)
