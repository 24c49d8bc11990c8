"""Monte-Carlo single-qubit simulation of probe sequences under phase noise.

Each shot prepares an equal superposition with R_x(pi/2); for every slot it applies
the dephasing error R_z(phi_j + native_j) followed by the slot's gate (identity, or
R_x(+-(pi + eps + delta_j)) for pulse slots); it closes with the R_x(+-pi/2) gate that
returns a noiseless qubit to the target state, and measures.  With perfect pulses
(eps = delta = 0) the survival is the closed form (1 + cos Phi) / 2, Phi = sum_j y_j phi_j
weighted by the switching function; imperfect pulses propagate the exact 2x2 unitary.
Phi is linear in the normals a stream keeps, so a perfect-pulse gate run takes it from them,
one row block at a time, and forms no phase rows; SDR mode, imperfect pulses and ``run_shot``
form the phases.

Two injection styles are supported: GATE mode shares one trajectory across a
block of shots (fresh trajectory per repetition), while SDR mode gives every
shot its own trajectory at an independent update period, resampled onto gate
slots by accumulating phase increments over each slot window, optionally with
a random start offset to emulate a noise source running asynchronously with
the pulses.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .noise_models import (
    ArmaModel,
    Trajectory,
    _kept_normals,
    _model_phases,
    _phase_sum_kernel,
    _unit_normals,
    autocovariance,
)
from .seeds import (
    STREAM_INJECTED,
    STREAM_MEASUREMENT,
    STREAM_NATIVE,
    STREAM_PULSE_JITTER,
    SeedLineage,
    as_lineage,
)
from .sequences import PulseSequence, chi_time_domain, switching_function

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
# most normals one stream of one sequence may keep, rows x (len(taps) - 1 + steps): a run
# holds one row block of them at a time, an export holds them all
_MAX_STREAM_NORMALS = 2**24
# normals of the widest drawn row per row block of _run_sequence, one budget per kind of run.
# A run that forms phase rows (SDR mode, imperfect pulses) takes _DRAW_BLOCK: a block bounds
# the phase rows a worker holds and amortizes _propagate's per-pulse loop, and its draws keep
# _NORMALS_PER_CALL, since each call pays a GIL hand-off between Python steps.  A perfect-pulse
# gate run takes _PHI_BLOCK, one draw call per stream: it forms no rows and runs only a
# matrix-vector product per stream between draws, so small blocks cost it little
_DRAW_BLOCK = 2**17
_PHI_BLOCK = 2**14


@dataclass(frozen=True)
class PulseErrorModel:
    """Coherent over-rotation and per-pulse Gaussian angle jitter, in radians."""

    over_rotation: float = 0.0
    jitter_std: float = 0.0

    def __post_init__(self):
        if self.jitter_std < 0:
            raise ValueError("jitter_std must be >= 0")


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


def _ideal_survival(phi: np.ndarray) -> np.ndarray:
    """Survival (1 + cos Phi) / 2 of perfect pulses, for either target state."""
    return 0.5 + 0.5 * np.cos(phi)


def _propagate(
    phases: np.ndarray,
    seq: PulseSequence,
    over_rotation: float,
    jitter: np.ndarray,
    target_state: int,
) -> np.ndarray:
    """Survival probabilities for a batch of trajectories (rows of ``phases``): (1 + cos Phi) / 2
    for perfect pulses and either target state, else the 2x2 unitary, one segment at a time."""
    n_traj, n_slots = phases.shape
    if n_slots != seq.n_slots:
        raise ValueError("phase array does not match sequence slot count")
    if over_rotation == 0.0 and not jitter.any():
        return _ideal_survival(phases @ switching_function(seq))
    psi0 = np.full(n_traj, _INV_SQRT2, dtype=complex)
    psi1 = np.full(n_traj, -1j * _INV_SQRT2, dtype=complex)
    # z-rotations commute, so each inter-pulse segment is one rotation by its summed
    # phase; the zero column closes the last segment when a pulse sits in the last slot
    padded = np.concatenate([phases, np.zeros((n_traj, 1))], axis=1)
    # one row per segment (ez) and per pulse (c, s) for all trajectories, computed before the
    # loop, which then only multiplies, so a block of rows pays little per pulse
    ez = np.exp(np.multiply(-0.5j, np.add.reduceat(padded, (0,) + seq.pulse_slots, axis=1).T,
                            order="C"))
    ez_conj = np.conj(ez)
    signs = np.array(seq.pulse_signs, dtype=float)[:, None]
    half = 0.5 * np.multiply(signs, np.pi + over_rotation + jitter.T, order="C")
    c, s = np.cos(half), np.sin(half)
    js, njs = 1j * s, -1j * s
    for idx in range(seq.n_pulses):
        psi0 = psi0 * ez[idx]
        psi1 = psi1 * ez_conj[idx]
        psi0, psi1 = c[idx] * psi0 - js[idx] * psi1, njs[idx] * psi0 + c[idx] * psi1
    psi0 = psi0 * ez[-1]
    psi1 = psi1 * ez_conj[-1]
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
    """Exact survival probability for one trajectory (and one jitter draw if ``jitter_std > 0``).

    With perfect pulses it is (1 + cos Phi) / 2, where Phi is the switching-function-weighted
    sum of the slot phases, as :func:`_propagate` computes it.  Both trajectories must be
    sampled at the gate period and cover every slot.
    """
    n = seq.n_slots
    for traj, role in ((trajectory, "trajectory"), (native, "native trajectory")):
        if traj is not None:
            _check_gate_aligned(traj, seq.gate_period, role)
            if len(traj) < n:
                raise ValueError(f"{role} has {len(traj)} steps, sequence needs {n}")
    phases = trajectory.phases[:n]
    if native is not None:
        phases = phases + native.phases[:n]
    perr = pulse_errors or PulseErrorModel()
    jitter = np.zeros((1, seq.n_pulses))
    if perr.jitter_std > 0:
        jitter = perr.jitter_std * _unit_normals(as_lineage(seed).generator(), jitter.shape)
    p = _propagate(phases[None, :], seq, perr.over_rotation, jitter, target_state)
    return float(p[0])


def _check_gate_aligned(sampled: "ArmaModel | Trajectory", period: float, role: str,
                        period_name: str = "the gate period") -> None:
    """Reject a model or trajectory not sampled at ``period`` (the gate period by default)."""
    if not np.isclose(sampled.sample_period, period, rtol=1e-9, atol=0.0):
        raise ValueError(
            f"{role} sample_period {sampled.sample_period!r} must equal "
            f"{period_name} {period!r}"
        )


def _binomial_stderr(mean, total):
    """Floored binomial standard error sqrt(p~ (1-p~) / n), p~ = (s + 1/2) / (n + 1), elementwise.

    Unlike sqrt(p (1-p) / n) it stays positive for all-success and all-failure
    records, so downstream inverse-variance weights stay finite.
    """
    p_tilde = (mean * total + 0.5) / (total + 1.0)
    return np.sqrt(p_tilde * (1.0 - p_tilde) / total)


def _survival_stats(fractions: np.ndarray, shots_each) -> tuple[np.ndarray, np.ndarray]:
    """Means and standard errors of the mean across trajectory blocks, along the last axis.

    The standard error is the larger of the trajectory-to-trajectory scatter
    and :func:`_binomial_stderr`; ``shots_each`` broadcasts against the means.
    """
    n_traj = fractions.shape[-1]
    mean = fractions.mean(axis=-1)
    scatter = fractions.std(axis=-1, ddof=1) / np.sqrt(n_traj) if n_traj > 1 else 0.0
    return mean, np.maximum(scatter, _binomial_stderr(mean, n_traj * shots_each))


def _injected_gate_phases(
    seq: PulseSequence, model: ArmaModel, trajectories: int, seed: "int | SeedLineage"
) -> np.ndarray:
    """(trajectories, n_slots) gate-mode injected phases of ``seq``, as simulated and exported.

    Row r is row r of the injected stream a gate run of ``seq`` draws, from its
    :func:`_stream_source`.  The stream must pass :func:`_check_stream` at the gate period.
    """
    _check_stream(model, seq.gate_period, trajectories, seq.n_slots, "injected model",
                  "the gate period")
    generator = _stream_source(as_lineage(seed), seq, STREAM_INJECTED)
    return _model_phases(model, generator, trajectories, seq.n_slots)


def _stream_source(root: SeedLineage, seq: PulseSequence, stream: int) -> np.random.Generator:
    """The one generator of one stream of ``seq``, at (seq.label, 0, stream), whose rows are
    the gate trajectories or SDR shots in order.  The one statement of where a simulator
    stream draws."""
    return root.child(seq.label, 0, stream).generator()


def _check_stream(model: Optional[ArmaModel], period: float, rows: int, steps: int, role: str,
                  period_name: str) -> None:
    """Refuse a stream of ``rows`` x ``steps`` phases before any draw: an unstable model, one not
    sampled at ``period``, or one whose rows keep rows x (len(taps) - 1 + steps) >
    _MAX_STREAM_NORMALS normals in all."""
    if model is None:
        return
    model.check_stable()
    _check_gate_aligned(model, period, role, period_name)
    held = rows * (len(model.taps()) - 1 + steps) if model.drive_std else 0
    if held > _MAX_STREAM_NORMALS:
        raise ValueError(f"a model with {len(model.taps())} taps holds {held} normals in one "
                         f"stream of {rows} rows, above {_MAX_STREAM_NORMALS} ({role} at "
                         f"{period_name})")


def _sdr_steps(seq: PulseSequence, model: ArmaModel, mode: SdrMode) -> int:
    """Update steps of one SDR shot: the sequence, one update period of offset and two spare."""
    return int(np.ceil((seq.total_time + mode.phase_update_period) / model.sample_period)) + 2


def _sdr_slot_phases(
    phases: np.ndarray, t_s: float, n_slots: int, gate_period: float, offsets: np.ndarray
) -> np.ndarray:
    """Per-shot phases at update period ``t_s`` (rows of ``phases``), accumulated onto slots."""
    n_shots, n_steps = phases.shape
    cum = np.zeros((n_shots, n_steps + 1))
    np.cumsum(phases, axis=1, out=cum[:, 1:])
    # piecewise-linear cumulative phase at slot boundaries, lo + rise * frac
    x = np.add.outer(offsets, gate_period * np.arange(n_slots + 1)) / t_s
    i = np.clip(np.floor(x).astype(int), 0, n_steps - 1)
    lo = np.take_along_axis(cum, i, axis=1)
    rise = np.take_along_axis(cum, i + 1, axis=1) - lo
    frac = x - i
    del cum, x, i  # freed before the three temporaries below, or a block's peak memory grows
    return np.diff(lo + rise * frac, axis=1)


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
    """Simulate every sequence and return survival records, deterministic per seed.

    ``target_state`` and both streams' :func:`_check_stream` are checked here, before any
    sequence runs.  Sequences then run one per available CPU at a time; each draws only its
    own streams, so the records do not depend on the worker count.
    """
    if not sequences:
        raise ValueError("at least one sequence is required")
    if target_state not in (0, 1):
        raise ValueError(f"target_state must be 0 or 1, got {target_state!r}")
    perr = pulse_errors or PulseErrorModel()
    root = as_lineage(seed)
    gate_period = sequences[0].gate_period
    if any(not np.isclose(s.gate_period, gate_period, rtol=1e-12) for s in sequences):
        raise ValueError("all sequences must share one gate period")
    n_slots = max(s.n_slots for s in sequences)
    if isinstance(mode, GateMode):
        rows, steps, period, name = mode.trajectories, n_slots, gate_period, "the gate period"
    elif isinstance(mode, SdrMode):
        rows, period, name = mode.shots, mode.phase_update_period, "the SDR phase_update_period"
        steps = max(_sdr_steps(s, model, mode) for s in sequences)
    else:
        raise ValueError(f"unsupported mode {mode!r}")
    _check_stream(model, period, rows, steps, "injected model", name)
    _check_stream(native_model, gate_period, rows, n_slots, "native model", "the gate period")
    # lazy: concurrent.futures pulls in logging, about 25 ms of every CLI command's start-up
    from concurrent.futures import ThreadPoolExecutor

    args = (model, native_model, perr, mode, root, target_state, keep_raw)
    with ThreadPoolExecutor(min(len(sequences), _cpu_count())) as pool:
        return list(pool.map(lambda seq: _run_sequence(seq, *args), sequences))


def _cpu_count() -> int:
    """CPUs this process may run on: ``run_experiment`` runs that many sequences at once."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_sequence(
    seq: PulseSequence,
    model: ArmaModel,
    native_model: Optional[ArmaModel],
    perr: PulseErrorModel,
    mode: "GateMode | SdrMode",
    root: SeedLineage,
    target_state: int,
    keep_raw: bool,
) -> ExperimentRecord:
    """The record of ``seq``: gate rows are trajectories of a shot block, SDR rows are shots.

    Each used stream's :func:`_stream_source` is opened once, and the rows run one block at a
    time: about ``_PHI_BLOCK`` normals of the widest drawn row for perfect gate pulses, else
    ``_DRAW_BLOCK``.  Perfect gate pulses read only Phi: a block adds each stream's kept normals
    times its :func:`_phase_sum_kernel` into Phi, and one :func:`_ideal_survival` call after the
    last block turns it into survivals.  Any other block draws its rows of every stream,
    filters them, resamples them onto slots in SDR mode and propagates them before the next
    block draws.  Either way a worker's memory does not grow with rows beyond a few numbers a
    row.  The SDR offsets are drawn before the first row and the outcomes, SDR uniforms or gate
    binomials, in one call after the last, from the one measurement generator.
    """
    sdr = isinstance(mode, SdrMode)
    rows = mode.shots if sdr else mode.trajectories
    steps = _sdr_steps(seq, model, mode) if sdr else seq.n_slots

    def draws(m: Optional[ArmaModel]) -> bool:
        return m is not None and m.drive_std != 0.0

    # an unused stream draws nothing and opens nothing
    injected, native, jitter_source = (
        _stream_source(root, seq, stream) if used else None
        for stream, used in ((STREAM_INJECTED, draws(model)), (STREAM_NATIVE, draws(native_model)),
                             (STREAM_PULSE_JITTER, perr.jitter_std > 0)))
    measurement = _stream_source(root, seq, STREAM_MEASUREMENT)
    if sdr:
        offsets = (measurement.uniform(0.0, mode.phase_update_period, size=rows)
                   if mode.random_time_offset else np.zeros(rows))
    perfect = not sdr and perr.over_rotation == 0.0 and perr.jitter_std == 0.0
    if perfect:
        # Phi is linear in each stream's kept normals; a silent run keeps Phi = 0, survival 1.0
        y = switching_function(seq)
        kernels = [(m, source, _phase_sum_kernel(m, y)) for m, source in
                   ((model, injected), (native_model, native)) if draws(m)]
        phi = np.zeros(rows)
    p = np.empty(rows)
    widest = max([seq.n_pulses] + [m.burn_in + s for m, s in
                                   ((model, steps), (native_model, seq.n_slots)) if draws(m)])
    block = max(1, (_PHI_BLOCK if perfect else _DRAW_BLOCK) // max(widest, 1))
    for r in range(0, rows, block):
        n = min(block, rows - r)
        if perfect:
            for m, source, kernel in kernels:
                phi[r:r + n] += _kept_normals(m, source, n, seq.n_slots) @ kernel
            continue
        phases = _model_phases(model, injected, n, steps)
        if sdr:
            phases = _sdr_slot_phases(phases, model.sample_period, seq.n_slots,
                                      seq.gate_period, offsets[r:r + n])
        phases += _model_phases(native_model, native, n, seq.n_slots)
        jitter = np.zeros((n, seq.n_pulses))
        if jitter_source is not None:
            jitter = perr.jitter_std * _unit_normals(jitter_source, jitter.shape)
        p[r:r + n] = _propagate(phases, seq, perr.over_rotation, jitter, target_state)
    if perfect:
        p = _ideal_survival(phi)
    if sdr:
        shots, fractions = 1, (measurement.random(rows) < p).astype(float)
    else:
        shots = mode.shots_per_trajectory
        fractions = measurement.binomial(shots, p) / shots
    mean, stderr = map(float, _survival_stats(fractions, shots))
    return ExperimentRecord(
        label=seq.label,
        n_pulses=seq.n_pulses,
        survival_mean=mean,
        survival_stderr=stderr,
        shots=shots,
        trajectories=rows,
        seed=root.root,
        trajectory_survivals=fractions if keep_raw else None,
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
        _check_gate_aligned(m, seq.gate_period, "analytic model")
        chi += chi_time_domain(seq, autocovariance(m, seq.n_slots - 1))
    return 0.5 + 0.5 * np.exp(-chi)
