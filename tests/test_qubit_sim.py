"""Simulator tests: unitary-propagation oracles, mode equivalence, seeding."""

import functools
import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dephasekit import noise_models, qubit_sim
from dephasekit.noise_models import (
    ArmaModel,
    Trajectory,
    _model_phases,
    _synthesize_phases,
    _unit_normals,
    design_bandpass,
    design_lorentzian,
    design_power_law,
    generate_trajectory,
)
from dephasekit.qubit_sim import (
    _DRAW_BLOCK,
    GateMode,
    PulseErrorModel,
    SdrMode,
    _propagate,
    _sdr_slot_phases,
    analytic_survival,
    run_experiment,
    run_shot,
)
from dephasekit.seeds import (
    STREAM_INJECTED,
    STREAM_MEASUREMENT,
    STREAM_NATIVE,
    STREAM_PULSE_JITTER,
    SeedLineage,
)
from dephasekit.sequences import PulseSequence, make_fttps, make_rfttps, switching_function
from dephasekit.serialize import records_to_csv_text

T_G = 100e-9
N = 128
WHITE_01 = ArmaModel(ar=(), ma=(0.1,), drive_std=1.0, sample_period=T_G)
# closed form for white sigma=0.1, N=128: p = (1 + exp(-N sigma^2 / 2)) / 2
P_WHITE = 0.5 + 0.5 * np.exp(-0.64)


def constant_trajectory(value, length=N):
    return Trajectory(np.full(length, value), T_G, SeedLineage(0))


# ---------------------------------------------------------------------------
# run_shot
# ---------------------------------------------------------------------------


def test_zero_noise_perfect_pulses_survival_one():
    traj = constant_trajectory(0.0)
    for k in (0, 1, 2, 7):
        seq = make_fttps(8, N, T_G)[k]
        assert run_shot(seq, traj) == pytest.approx(1.0, abs=1e-12)
        assert run_shot(seq, traj, target_state=0) == pytest.approx(1.0, abs=1e-12)


def test_constant_phase_free_evolution():
    # k=0 with phi_j = pi/N accumulates Phi = pi: survival (1 + cos pi)/2 = 0
    seq = make_fttps(1, N, T_G)[0]
    assert run_shot(seq, constant_trajectory(np.pi / N)) == pytest.approx(0.0, abs=1e-12)


def test_echo_cancels_constant_phase():
    # single centered pulse refocuses any constant trajectory exactly
    seq = make_fttps(2, N, T_G)[1]
    for value in (np.pi / N, 0.3, -1.7):
        assert run_shot(seq, constant_trajectory(value)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("k", [0, 1, 5, 31])
def test_perfect_pulse_closed_form(k):
    # exact unitary propagation must reproduce (1 + cos Phi)/2 to 1e-12
    seq = make_fttps(32, N, T_G)[k]
    rng = np.random.default_rng(17 + k)
    phases = rng.normal(0.0, 0.4, N)
    traj = Trajectory(phases, T_G, SeedLineage(0))
    phi = float(switching_function(seq) @ phases)
    expected = 0.5 * (1.0 + np.cos(phi))
    assert run_shot(seq, traj) == pytest.approx(expected, abs=1e-12)


def test_run_shot_native_addition():
    seq = make_fttps(4, N, T_G)[3]
    rng = np.random.default_rng(3)
    a = rng.normal(0, 0.2, N)
    b = rng.normal(0, 0.1, N)
    combined = run_shot(seq, Trajectory(a + b, T_G, SeedLineage(0)))
    split = run_shot(
        seq, Trajectory(a, T_G, SeedLineage(0)), native=Trajectory(b, T_G, SeedLineage(0))
    )
    assert split == pytest.approx(combined, abs=1e-12)


def _slot_by_slot_propagate(phases, seq, over_rotation, jitter, target_state):
    """Reference propagation: one z-rotation per slot, then that slot's pulse, if any."""
    psi0 = np.full(phases.shape[0], 1 / np.sqrt(2), dtype=complex)
    psi1 = -1j * psi0
    pulse_at = dict(zip(seq.pulse_slots, range(seq.n_pulses)))
    for j in range(1, seq.n_slots + 1):
        rot = np.exp(-0.5j * phases[:, j - 1])
        psi0, psi1 = psi0 * rot, psi1 * np.conj(rot)
        if j in pulse_at:
            idx = pulse_at[j]
            half = 0.5 * seq.pulse_signs[idx] * (np.pi + over_rotation + jitter[:, idx])
            c, s = np.cos(half), np.sin(half)
            psi0, psi1 = c * psi0 - 1j * s * psi1, -1j * s * psi0 + c * psi1
    half = seq.closing_sign(target_state) * np.pi / 4.0
    c, s = np.cos(half), np.sin(half)
    psi0, psi1 = c * psi0 - 1j * s * psi1, -1j * s * psi0 + c * psi1
    return np.abs(psi1 if target_state == 1 else psi0) ** 2


@st.composite
def propagation_case(draw):
    n_slots = draw(st.integers(min_value=1, max_value=40))
    slots = sorted(draw(st.sets(st.integers(min_value=1, max_value=n_slots), max_size=n_slots)))
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=len(slots), max_size=len(slots)))
    rows = draw(st.integers(min_value=1, max_value=4))
    angles = st.floats(min_value=-4.0, max_value=4.0)
    phases = np.array(draw(st.lists(angles, min_size=rows * n_slots, max_size=rows * n_slots)))
    jitter = np.array(draw(st.lists(angles, min_size=rows * len(slots),
                                    max_size=rows * len(slots))))
    seq = PulseSequence(n_slots, tuple(slots), tuple(signs), T_G)
    return (phases.reshape(rows, n_slots), seq, draw(st.sampled_from([0.0, 0.05, -0.3])),
            0.1 * jitter.reshape(rows, len(slots)), draw(st.sampled_from([0, 1])))


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(case=propagation_case())
@example(case=(np.full((2, 3), 0.4), PulseSequence(3, (1, 3), (1, -1), T_G), 0.05,
               np.zeros((2, 2)), 1))  # pulses in the first and the last slot
@example(case=(np.full((1, 4), 0.7), PulseSequence(4, (), (), T_G), 0.0, np.zeros((1, 0)), 0))
# perfect pulses take the closed form: no pulse, and a pulse in the last slot, at both targets
@example(case=(np.full((2, 4), 0.7), PulseSequence(4, (), (), T_G), 0.0, np.zeros((2, 0)), 1))
@example(case=(np.linspace(-3.0, 3.0, 10).reshape(2, 5), PulseSequence(5, (2, 5), (1, -1), T_G),
               0.0, np.zeros((2, 2)), 0))
@example(case=(np.linspace(-3.0, 3.0, 10).reshape(2, 5), PulseSequence(5, (2, 5), (1, -1), T_G),
               0.0, np.zeros((2, 2)), 1))
@example(case=(np.array([[0.3, -1.2, 2.5]]), PulseSequence(3, (1,), (-1,), T_G), 0.0,
               np.zeros((1, 1)), 0))
def test_segment_propagation_matches_slot_by_slot(case):
    # z-rotations commute: summing each inter-pulse segment's phases changes no survival,
    # and perfect pulses' closed form (1 + cos Phi) / 2 is the slot-by-slot unitary
    phases, seq, over_rotation, jitter, target_state = case
    got = _propagate(phases, seq, over_rotation, jitter, target_state)
    want = _slot_by_slot_propagate(phases, seq, over_rotation, jitter, target_state)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)


def test_run_shot_with_perfect_pulses_draws_no_jitter(monkeypatch):
    # a zero jitter_std draws no jitter stream; the value is the one a zero-scaled draw gave
    seq = make_fttps(4, N, T_G)[3]
    traj = generate_trajectory(WHITE_01, N, seed=8)
    zero_scaled = 0.0 * _unit_normals(SeedLineage(7).generator(), (1, seq.n_pulses))
    before = float(_propagate(traj.phases[None, :], seq, 0.0, zero_scaled, 1)[0])
    built = []
    generator = SeedLineage.generator

    def counted(self):
        built.append(self.path)
        return generator(self)

    monkeypatch.setattr(SeedLineage, "generator", counted)
    assert run_shot(seq, traj, seed=7) == before
    assert built == []


def test_run_shot_rejects_short_trajectory():
    seq = make_fttps(1, N, T_G)[0]
    with pytest.raises(ValueError, match="trajectory"):
        run_shot(seq, constant_trajectory(0.0, length=N - 1))


def test_fttps_rfttps_identical_with_perfect_pulses():
    traj = generate_trajectory(WHITE_01, N, seed=5)
    f = make_fttps(8, N, T_G)
    r = make_rfttps(8, N, T_G)
    for a, b in zip(f, r):
        assert run_shot(a, traj) == run_shot(b, traj)


# ---------------------------------------------------------------------------
# run_experiment, GATE mode
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def white_gate_records():
    seqs = make_fttps(16, N, T_G)
    return run_experiment(
        seqs, WHITE_01, mode=GateMode(trajectories=200, shots_per_trajectory=500), seed=21
    )


def test_gate_white_matches_closed_form(white_gate_records):
    for rec in white_gate_records:
        assert abs(rec.survival_mean - P_WHITE) < 3 * rec.survival_stderr


def test_gate_white_matches_analytic(white_gate_records):
    seqs = make_fttps(16, N, T_G)
    for rec, seq in zip(white_gate_records, seqs):
        expected = analytic_survival(seq, WHITE_01)
        assert abs(rec.survival_mean - expected) < 5 * rec.survival_stderr


def test_gate_stderr_floors(white_gate_records):
    for rec in white_gate_records:
        p = rec.survival_mean
        binomial = np.sqrt(p * (1 - p) / rec.total_shots)
        assert rec.survival_stderr >= binomial / 3


def test_zero_drive_all_records_exactly_one():
    silent = ArmaModel(ar=(), ma=(1.0,), drive_std=0.0, sample_period=T_G)
    records = run_experiment(
        make_fttps(4, N, T_G), silent, mode=GateMode(trajectories=3, shots_per_trajectory=10),
        seed=1,
    )
    for rec in records:
        assert rec.survival_mean == 1.0
        assert rec.survival_stderr > 0  # floored, keeps downstream weights finite


TARGET_ZERO_MODES = [
    GateMode(trajectories=200, shots_per_trajectory=500),
    SdrMode(shots=4000, phase_update_period=T_G),
]


@pytest.mark.parametrize("mode", TARGET_ZERO_MODES, ids=["gate", "sdr"])
def test_target_state_zero_silent_model_survival_exactly_one(mode):
    # perfect pulses and no noise end exactly in |0> when |0> is the target
    silent = ArmaModel(ar=(), ma=(1.0,), drive_std=0.0, sample_period=T_G)
    records = run_experiment(make_fttps(6, N, T_G), silent, mode=mode, seed=2, target_state=0)
    assert [rec.survival_mean for rec in records] == [1.0] * 6


@pytest.mark.parametrize("mode", TARGET_ZERO_MODES, ids=["gate", "sdr"])
def test_target_state_zero_white_matches_analytic(mode):
    seqs = make_fttps(6, N, T_G)
    records = run_experiment(seqs, WHITE_01, mode=mode, seed=23, target_state=0)
    for rec, seq in zip(records, seqs):
        assert abs(rec.survival_mean - analytic_survival(seq, WHITE_01)) < 5 * rec.survival_stderr


def test_run_experiment_rejects_bad_target_state():
    with pytest.raises(ValueError, match="target_state"):
        run_experiment(make_fttps(2, N, T_G), WHITE_01, mode=GateMode(2, 2), target_state=2)


def test_records_deterministic():
    seqs = make_fttps(4, N, T_G)
    mode = GateMode(trajectories=5, shots_per_trajectory=20)
    a = run_experiment(seqs, WHITE_01, mode=mode, seed=9)
    b = run_experiment(seqs, WHITE_01, mode=mode, seed=9)
    assert a == b
    c = run_experiment(seqs, WHITE_01, mode=mode, seed=10)
    assert any(x.survival_mean != y.survival_mean for x, y in zip(a, c))


def test_gate_mode_matches_run_shot(monkeypatch):
    # the batched experiment path must agree with single-shot propagation on the same
    # trajectories, rows of the injected stream, and the same jitter rows: each run_shot
    # draws the next row of the jitter stream's one generator
    seqs = make_fttps(3, N, T_G)[2:]
    seq = seqs[0]
    perr = PulseErrorModel(over_rotation=0.05, jitter_std=0.02)
    records = run_experiment(
        [seq], WHITE_01, pulse_errors=perr,
        mode=GateMode(trajectories=4, shots_per_trajectory=1000000), seed=33, keep_raw=True,
    )
    root = SeedLineage(33)
    injected = _model_phases(WHITE_01, _source(root, seq.label, STREAM_INJECTED), 4, N)
    jitter = _source(root, seq.label, STREAM_PULSE_JITTER)
    monkeypatch.setattr(SeedLineage, "generator", lambda self: jitter)
    for r in range(4):
        p = run_shot(seq, Trajectory(injected[r], T_G, root), pulse_errors=perr)
        # binomial fraction at 1e6 shots pins the per-trajectory probability
        assert records[0].trajectory_survivals[r] == pytest.approx(p, abs=5e-3)


@pytest.mark.parametrize(
    "model",
    [
        design_power_law(1.0, (0.5e6, 1e-9), (0.1e6, 2.0e6), T_G),
        ArmaModel(ar=(0.5, -0.2), ma=(0.05, 0.02), drive_std=1.0, sample_period=T_G),
    ],
    ids=["power-law-257-taps", "ar2"],
)
def test_gate_mode_stream_contract(model):
    # trajectory r of a gate run is run_shot on row r of its sequence's injected stream,
    # sampled by one binomial call on its measurement stream: the same binomial outcomes,
    # with the gate run's survival probability agreeing with run_shot's to rounding
    seqs = make_fttps(4, N, T_G)
    mode = GateMode(trajectories=20, shots_per_trajectory=50)
    records = run_experiment(seqs, model, mode=mode, seed=19, keep_raw=True)
    root = SeedLineage(19)
    for seq, rec in zip(seqs, records):
        injected = _source(root, seq.label, STREAM_INJECTED)
        rows = _model_phases(model, injected, mode.trajectories, seq.n_slots)
        p = [run_shot(seq, Trajectory(row, T_G, root)) for row in rows]
        outcomes = _source(root, seq.label, STREAM_MEASUREMENT).binomial(50, p) / 50
        assert np.array_equal(rec.trajectory_survivals, outcomes)


# a 257-tap MA model, AR(2), AR(1) near its unit root (5,376 taps) and a silent model
PHASE_SUM_MODELS = [
    design_power_law(1.0, (0.5e6, 1e-9), (0.1e6, 2.0e6), T_G),
    ArmaModel(ar=(0.5, -0.2), ma=(0.05, 0.02), drive_std=1.0, sample_period=T_G),
    ArmaModel(ar=(0.99,), ma=(1.0,), drive_std=0.005, sample_period=T_G),
    ArmaModel(ar=(), ma=(1.0,), drive_std=0.0, sample_period=T_G),
]


@st.composite
def probe_sequence(draw):
    n_slots = draw(st.integers(min_value=1, max_value=160))
    k = draw(st.integers(min_value=0, max_value=n_slots - 1))
    return draw(st.sampled_from([make_fttps, make_rfttps]))(k + 1, n_slots, T_G)[k]


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(seq=probe_sequence(), model=st.sampled_from(PHASE_SUM_MODELS),
       native=st.sampled_from([None] + PHASE_SUM_MODELS), target_state=st.sampled_from([0, 1]),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_perfect_pulse_gate_survival_is_propagated_phases(seq, model, native, target_state,
                                                          seed):
    # a perfect-pulse gate run takes Phi as one product per stream of its kept normals; on
    # the same rows, its (1 + cos Phi) / 2 is _propagate's on the synthesized phases
    rows, survivals = 6, []
    ideal_survival = qubit_sim._ideal_survival
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qubit_sim, "_ideal_survival",
                      lambda phi: survivals.append(ideal_survival(phi)) or survivals[-1])
        run_experiment([seq], model, native_model=native, mode=GateMode(rows, 1), seed=seed,
                       target_state=target_state)
    root = SeedLineage(seed)
    phases = sum(_model_phases(m, _source(root, seq.label, stream), rows, seq.n_slots)
                 for m, stream in ((model, STREAM_INJECTED), (native, STREAM_NATIVE)))
    want = _propagate(phases, seq, 0.0, np.zeros((rows, seq.n_pulses)), target_state)
    assert len(survivals) == 1
    assert np.max(np.abs(survivals[0] - want)) <= 1e-12


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(family=st.sampled_from([make_fttps, make_rfttps]),
       native=st.sampled_from(PHASE_SUM_MODELS[1:3]), target_state=st.sampled_from([0, 1]),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_perfect_pulse_gate_rows_span_draw_calls(family, native, target_state, seed):
    # 50 rows of the 257-tap model span nine row blocks of at most 2^14 normals, and 25 with
    # a native AR(1) at 0.99, whose rows are wider: each sequence still makes one
    # _ideal_survival call, whose survivals are _propagate's on the whole-stream phases
    model, rows, seqs = PHASE_SUM_MODELS[0], 50, family(3, N, T_G)
    assert rows > qubit_sim._PHI_BLOCK // (model.burn_in + N)
    root = SeedLineage(seed)
    wants = []
    for seq in seqs:
        phases = sum(_model_phases(m, _source(root, seq.label, stream), rows, N)
                     for m, stream in ((model, STREAM_INJECTED), (native, STREAM_NATIVE)))
        wants.append(_propagate(phases, seq, 0.0, np.zeros((rows, seq.n_pulses)), target_state))
    survivals, ideal_survival = [], qubit_sim._ideal_survival
    with pytest.MonkeyPatch.context() as patch:
        # one worker runs the sequences in order, so the calls come in sequence order
        patch.setattr(qubit_sim, "_cpu_count", lambda: 1)
        patch.setattr(qubit_sim, "_ideal_survival",
                      lambda phi: survivals.append(ideal_survival(phi)) or survivals[-1])
        run_experiment(seqs, model, native_model=native, mode=GateMode(rows, 1), seed=seed,
                       target_state=target_state)
    assert len(survivals) == len(seqs)
    for got, want in zip(survivals, wants):
        assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("over_rotation", [0.0, 0.01])
def test_only_imperfect_gate_pulses_form_phase_rows(over_rotation, monkeypatch):
    # perfect gate pulses read only Phi, taken from the kept normals; an over-rotation needs
    # every slot's phase, so that run synthesizes an injected and a native block per sequence
    synthesize, synthesized = noise_models._synthesize_phases, []

    def guarded(model, normals, steps):
        if over_rotation == 0.0:
            pytest.fail("a perfect-pulse gate run synthesized phase rows")
        synthesized.append(model)
        return synthesize(model, normals, steps)

    monkeypatch.setattr(noise_models, "_synthesize_phases", guarded)
    native = ArmaModel(ar=(0.5,), ma=(0.02,), drive_std=1.0, sample_period=T_G)
    run_experiment(make_fttps(3, N, T_G), design_bandpass(2.0e6, 0.5e6, 1e-3, T_G, taps=101),
                   native_model=native, pulse_errors=PulseErrorModel(over_rotation=over_rotation),
                   mode=GateMode(trajectories=5, shots_per_trajectory=10), seed=3)
    assert len(synthesized) == (0 if over_rotation == 0.0 else 6)


def _golden_run(case):
    if case == "gate-power-law-257-taps":
        model = design_power_law(1.0, (0.5e6, 1e-9), (0.1e6, 2.0e6), T_G)
        mode = GateMode(trajectories=20, shots_per_trajectory=50)
        return run_experiment(make_fttps(8, N, T_G), model, mode=mode, seed=21)
    if case == "gate-perfect-native":
        # the native AR(1) rows are narrower than the injected ones, so its Phi products
        # are grouped by the injected stream's row blocks
        model = design_power_law(1.0, (0.5e6, 1e-9), (0.1e6, 2.0e6), T_G)
        native = ArmaModel(ar=(0.9,), ma=(0.02,), drive_std=1.0, sample_period=T_G)
        mode = GateMode(trajectories=20, shots_per_trajectory=50)
        return run_experiment(make_fttps(8, N, T_G), model, native_model=native, mode=mode,
                              seed=21)
    if case == "gate-ar2-jitter":
        model = ArmaModel(ar=(0.5, -0.2), ma=(0.05, 0.02), drive_std=1.0, sample_period=T_G)
        return run_experiment(
            make_fttps(8, N, T_G), model,
            pulse_errors=PulseErrorModel(over_rotation=0.01, jitter_std=0.02),
            mode=GateMode(trajectories=20, shots_per_trajectory=50), seed=21,
        )
    return run_experiment(
        make_rfttps(6, N, T_G),
        design_bandpass(2.0e6, 0.5e6, 1e-3, 70e-9, taps=101),
        native_model=design_lorentzian(2e-9, 2 * np.pi * 0.4e6, 1e-10, T_G, taps=101),
        pulse_errors=PulseErrorModel(over_rotation=0.02, jitter_std=0.02),
        mode=SdrMode(shots=200, phase_update_period=70e-9),
        seed=23,
    )


@pytest.mark.parametrize(
    "case, digest",
    [
        ("gate-power-law-257-taps",
         "6ced6bc84c5755d5a29f5012b9c190e3d23bc7a68f0f2022b4de491ba2210a96"),
        ("gate-perfect-native",
         "5f75b555e0f4f1c6c011257ab25fd463e6ad96472ebe95c4bbf2d07ce24596bb"),
        ("gate-ar2-jitter", "358b7a54a7041323046bd4a0017d750649e0552014e8394f36d792fc15fca66e"),
        ("sdr-native-jitter", "6890a2bf124387b3a80c3033f647b7de575aafc970f1654d3c4e100e842d33ef"),
    ],
)
def test_records_golden_digest(case, digest):
    # pins every random stream and the synthesis arithmetic: a change to either must
    # update these digests and declare itself as a stream-version bump
    text = records_to_csv_text(_golden_run(case))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "mode",
    [
        GateMode(trajectories=10, shots_per_trajectory=40),
        SdrMode(shots=60, phase_update_period=70e-9),
    ],
    ids=["gate", "sdr"],
)
def test_record_independent_of_other_sequences_and_order(mode):
    # an SDR model is sampled at the update period, a gate model at the gate period
    period = getattr(mode, "phase_update_period", T_G)
    model = design_bandpass(2.0e6, 0.5e6, 1e-3, period, taps=101)
    native = ArmaModel(ar=(0.5,), ma=(0.02,), drive_std=1.0, sample_period=T_G)
    perr = PulseErrorModel(over_rotation=0.01, jitter_std=0.02)
    seqs = make_fttps(12, N, T_G)
    kwargs = dict(native_model=native, pulse_errors=perr, mode=mode, seed=31, keep_raw=True)
    full = {r.label: r for r in run_experiment(seqs, model, **kwargs)}
    subset = [seqs[i] for i in np.random.default_rng(2).permutation(len(seqs))[:5]]
    for rec in run_experiment(subset, model, **kwargs):
        assert rec == full[rec.label]
        assert np.array_equal(rec.trajectory_survivals, full[rec.label].trajectory_survivals)


def test_gate_run_builds_no_per_trajectory_generator(monkeypatch):
    # the injected, native, jitter and measurement streams each open one generator per
    # sequence, whose rows are the trajectories, as in SDR mode
    built = []
    generator = SeedLineage.generator

    def counted(self):
        built.append(self.path)
        return generator(self)

    monkeypatch.setattr(SeedLineage, "generator", counted)
    native = ArmaModel(ar=(0.5,), ma=(0.02,), drive_std=1.0, sample_period=T_G)
    run_experiment(
        make_fttps(4, N, T_G), design_bandpass(2.0e6, 0.5e6, 1e-3, T_G, taps=101),
        native_model=native, pulse_errors=PulseErrorModel(over_rotation=0.01, jitter_std=0.02),
        mode=GateMode(trajectories=10, shots_per_trajectory=40), seed=31,
    )
    streams = (STREAM_INJECTED, STREAM_NATIVE, STREAM_PULSE_JITTER, STREAM_MEASUREMENT)
    assert sorted(built) == [(k, 0, stream) for k in range(4) for stream in streams]


def test_sdr_run_builds_no_generator_for_silent_model(monkeypatch):
    # a silent injected model draws nothing, so SDR mode builds only each sequence's
    # measurement generator
    built = []
    generator = SeedLineage.generator

    def counted(self):
        built.append(self.path)
        return generator(self)

    monkeypatch.setattr(SeedLineage, "generator", counted)
    silent = ArmaModel(ar=(), ma=(1.0,), drive_std=0.0, sample_period=T_G)
    run_experiment(make_fttps(4, N, T_G), silent,
                   mode=SdrMode(shots=20, phase_update_period=T_G), seed=5)
    assert sorted(built) == [(k, 0, STREAM_MEASUREMENT) for k in range(4)]


# ---------------------------------------------------------------------------
# the lean draw and the sequence pool
# ---------------------------------------------------------------------------


def _source(root, label, stream):
    """The one generator a run of either mode draws one sequence's stream from, row by row."""
    return root.child(label, 0, stream).generator()


@pytest.mark.parametrize(
    "shape, keep",
    [
        ((5, 300), 40),
        # the draw takes at most 2^16 normals a call, here 300 rows and then two draw
        # blocks' worth of normals over several calls; the run's draw blocks are checked by
        # the block-boundary test below
        ((300, 1000), 228),
        ((2 * _DRAW_BLOCK // 1000, 1000), 1),
        # rows wider than a draw block, which a run draws one row per block and the draw
        # one row per call
        ((3, _DRAW_BLOCK + 5), 17),
        ((300, 1000), None),
        # a sequence without pulses has a zero-width jitter block
        ((600, 0), None),
        ((600, 0), 0),
    ],
)
def test_lean_draw_equals_trailing_columns_of_full_draw(shape, keep):
    root = SeedLineage(41)
    full = _source(root, 5, STREAM_NATIVE).standard_normal(shape)
    got = _unit_normals(_source(root, 5, STREAM_NATIVE), shape, keep)
    kept = shape[1] if keep is None else keep
    assert got.shape == (shape[0], kept)
    assert np.array_equal(got, full[:, shape[1] - kept:])


@pytest.mark.parametrize("sdr", [False, True], ids=["gate", "sdr"])
@pytest.mark.parametrize(
    "model",
    [
        design_bandpass(2.0e6, 0.5e6, 1e-3, T_G, taps=101),
        ArmaModel(ar=(0.5, -0.2), ma=(0.05, 0.02), drive_std=1.0, sample_period=T_G),
    ],
    ids=["ma-101-taps", "ar2"],
)
def test_model_phases_equal_full_width_synthesis(model, sdr):
    # every model holds only the columns its filter reads, len(taps) - 1 + steps, at the
    # steps of a gate row or of an SDR shot; the phases are those of synthesizing the
    # full-width draw
    steps = qubit_sim._sdr_steps(make_fttps(1, N, T_G)[0], model, SdrMode(1, T_G)) if sdr else N
    root = SeedLineage(43)
    shape = (150, model.burn_in + steps)
    full = _source(root, 2, STREAM_INJECTED).standard_normal(shape)
    expected = _synthesize_phases(model, full, steps)
    got = _model_phases(model, _source(root, 2, STREAM_INJECTED), shape[0], steps)
    assert np.array_equal(got, expected)


@pytest.mark.parametrize(
    "model",
    [
        design_bandpass(2.0e6, 0.5e6, 1e-3, T_G, taps=101),
        ArmaModel(ar=(0.5, -0.2), ma=(0.05, 0.02), drive_std=1.0, sample_period=T_G),
    ],
    ids=["ma-101-taps", "ar2"],
)
def test_sdr_block_row_zero_is_generate_trajectory(model):
    # one draw rule and one synthesizer: the first shot of an SDR block is the trajectory
    # generate_trajectory draws at the block's lineage
    lineage = SeedLineage(43).child(2, 0, STREAM_INJECTED)
    block = _model_phases(model, lineage.generator(), 150, N)
    assert np.array_equal(block[0], generate_trajectory(model, N, lineage).phases)


@pytest.mark.parametrize(
    "mode",
    [
        GateMode(trajectories=12, shots_per_trajectory=40),
        SdrMode(shots=90, phase_update_period=70e-9),
    ],
    ids=["gate", "sdr"],
)
def test_worker_count_does_not_change_records(mode, monkeypatch):
    period = getattr(mode, "phase_update_period", T_G)
    model = design_bandpass(2.0e6, 0.5e6, 1e-3, period, taps=101)
    native = ArmaModel(ar=(0.5,), ma=(0.02,), drive_std=1.0, sample_period=T_G)
    perr = PulseErrorModel(over_rotation=0.01, jitter_std=0.02)
    seqs = make_rfttps(7, N, T_G)
    runs = []
    for workers in (1, 3):
        monkeypatch.setattr(qubit_sim, "_cpu_count", lambda workers=workers: workers)
        runs.append(run_experiment(seqs, model, native_model=native, pulse_errors=perr,
                                   mode=mode, seed=37, keep_raw=True))
    serial, pooled = runs
    assert [r.label for r in pooled] == [s.label for s in seqs]
    assert serial == pooled
    for a, b in zip(serial, pooled):
        assert np.array_equal(a.trajectory_survivals, b.trajectory_survivals)


def test_worker_error_reaches_caller_unchanged(monkeypatch):
    # every sequence ends in _survival_stats; the third call, in whichever worker, raises
    raised = ValueError("phase array does not match sequence slot count")
    survival_stats, calls = qubit_sim._survival_stats, itertools.count()

    def failing(fractions, shots):
        if next(calls) == 2:
            raise raised
        return survival_stats(fractions, shots)

    monkeypatch.setattr(qubit_sim, "_survival_stats", failing)
    monkeypatch.setattr(qubit_sim, "_cpu_count", lambda: 3)
    with pytest.raises(ValueError) as info:
        run_experiment(make_fttps(5, N, T_G), WHITE_01, mode=GateMode(3, 10), seed=1)
    assert info.value is raised


def test_gate_run_holds_only_filtered_columns():
    # the 257-tap model warms up over 2570 columns and filters only the last 256 + 128: a
    # run, and an export of the same 300 rows, must each peak below the full-width block of
    # 300 x (2570 + 128) float64 normals; the export holds every row's kept columns, so its
    # draw must free each call's warm-up columns before the next call
    model = design_power_law(1.0, (0.5e6, 1e-9), (0.1e6, 2.0e6), T_G)
    seq = make_fttps(8, N, T_G)[3]
    mode = GateMode(trajectories=300, shots_per_trajectory=100)
    full_width = 300 * (model.burn_in + N) * 8
    assert model.burn_in == 2570 and full_width == 6_475_200
    draws = {"run": lambda: run_experiment([seq], model, mode=mode, seed=3),
             "export": lambda: qubit_sim._injected_gate_phases(seq, model, 300, 3)}
    for name, draw in draws.items():
        draw()
        tracemalloc.start()
        try:
            draw()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < full_width, name


def test_perfect_pulse_gate_run_holds_one_small_draw():
    # a perfect-pulse gate run forms no phase rows and draws its 300 trajectories in calls of
    # at most 2^14 normals (128 KB), each reduced to Phi before the next: no draw block of
    # 2^17 normals, and no 2^16-normal call, is ever held
    model = design_power_law(1.0, (0.5e6, 1e-9), (0.1e6, 2.0e6), T_G)
    seq = make_fttps(8, N, T_G)[3]

    def run():
        run_experiment([seq], model, mode=GateMode(trajectories=300, shots_per_trajectory=100),
                       seed=3)

    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_sdr_run_memory_does_not_grow_with_shots():
    # a sequence runs one draw block of about 2^17 normals at a time, so 3000 shots with
    # native noise and imperfect pulses peak below the full-width block of just 600 shots,
    # 600 x (1010 + 186) float64 normals; only offsets, survivals and outcomes grow with shots
    update = 70e-9
    model = design_bandpass(2.0e6, 0.5e6, 1e-3, update, taps=101)
    native = ArmaModel(ar=(0.5,), ma=(0.02,), drive_std=1.0, sample_period=T_G)
    seq = make_rfttps(8, N, T_G)[5]
    kwargs = dict(native_model=native, pulse_errors=PulseErrorModel(0.02, 0.02), seed=3)
    steps = qubit_sim._sdr_steps(seq, model, SdrMode(1, update))
    run_experiment([seq], model, mode=SdrMode(3000, update), **kwargs)
    full_width = 600 * (model.burn_in + steps) * 8
    tracemalloc.start()
    try:
        run_experiment([seq], model, mode=SdrMode(3000, update), **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (model.burn_in, steps, full_width) == (1010, 186, 5_740_800)
    assert peak < full_width


def _whole_stream_survivals(seq, model, native, perr, mode, seed):
    """A run's propagated survivals and outcomes, every stream drawn whole: whole-stream
    ``_model_phases``, then ``_sdr_slot_phases`` in SDR mode, then one ``_propagate``."""
    k, sdr = seq.label, isinstance(mode, SdrMode)
    rows = mode.shots if sdr else mode.trajectories
    source = functools.partial(_source, SeedLineage(seed), k)
    measurement = source(STREAM_MEASUREMENT)
    if sdr:
        offsets = measurement.uniform(0.0, mode.phase_update_period, size=rows)
        steps = qubit_sim._sdr_steps(seq, model, mode)
        phases = _sdr_slot_phases(_model_phases(model, source(STREAM_INJECTED), rows, steps),
                                  model.sample_period, seq.n_slots, T_G, offsets)
    else:
        phases = _model_phases(model, source(STREAM_INJECTED), rows, seq.n_slots)
    phases = phases + _model_phases(native, source(STREAM_NATIVE), rows, seq.n_slots)
    jitter = perr.jitter_std * _unit_normals(source(STREAM_PULSE_JITTER), (rows, seq.n_pulses))
    p = _propagate(phases, seq, perr.over_rotation, jitter, 1)
    if sdr:
        return p, (measurement.random(rows) < p).astype(float)
    shots = mode.shots_per_trajectory
    return p, measurement.binomial(shots, p) / shots


@pytest.mark.parametrize("blocks, extra", [(1, 0), (1, 1), (2, 1)],
                         ids=["one-block", "one-block-plus-one", "two-blocks-plus-one"])
@pytest.mark.parametrize("sdr", [False, True], ids=["gate", "sdr"])
def test_block_boundaries_leave_every_row_unchanged(sdr, blocks, extra, monkeypatch):
    # rows run one draw block at a time, 2^17 // (burn_in + steps) rows of the widest stream
    # (115 gate rows, 109 SDR shots); every row equals the whole-stream draw's, bit for bit
    period = 70e-9 if sdr else T_G
    model = design_bandpass(2.0e6, 0.5e6, 1e-3, period, taps=101)
    native = ArmaModel(ar=(0.5,), ma=(0.02,), drive_std=1.0, sample_period=T_G)
    perr = PulseErrorModel(over_rotation=0.01, jitter_std=0.02)
    seq = make_rfttps(8, N, T_G)[5]
    steps = qubit_sim._sdr_steps(seq, model, SdrMode(1, period)) if sdr else N
    block = _DRAW_BLOCK // (model.burn_in + steps)
    rows = blocks * block + extra
    mode = SdrMode(rows, period) if sdr else GateMode(rows, 20)
    propagated, propagate = [], qubit_sim._propagate
    monkeypatch.setattr(qubit_sim, "_propagate",
                        lambda *args: propagated.append(propagate(*args)) or propagated[-1])
    (rec,) = run_experiment([seq], model, native_model=native, pulse_errors=perr, mode=mode,
                            seed=11, keep_raw=True)
    p, fractions = _whole_stream_survivals(seq, model, native, perr, mode, 11)
    assert block == (109 if sdr else 115)
    assert [len(q) for q in propagated] == [block] * blocks + [extra] * (extra > 0)
    assert np.array_equal(np.concatenate(propagated), p)
    assert np.array_equal(rec.trajectory_survivals, fractions)


NEAR_UNIT_ROOT = ArmaModel(ar=(0.9999,), ma=(1.0,), drive_std=1.0, sample_period=T_G)


@pytest.mark.parametrize("case", ["gate-injected", "gate-native", "sdr-native", "sdr-injected",
                                  "export"])
def test_long_memory_stream_refused_before_any_draw(case, monkeypatch):
    # the warm-up spans a near-unit-root model's 344,064 taps: a stream of 300 rows would hold
    # about 1.0e8 normals, so the precondition pass refuses it before any sequence draws
    monkeypatch.setattr(qubit_sim, "_model_phases", lambda *args: pytest.fail("drew phases"))
    monkeypatch.setattr(noise_models, "_unit_normals", lambda *args: pytest.fail("drew normals"))
    seqs = make_fttps(4, N, T_G)
    gate, sdr = GateMode(300, 1), SdrMode(300, T_G)
    calls = {
        "gate-injected": lambda: run_experiment(seqs, NEAR_UNIT_ROOT, mode=gate),
        "gate-native": lambda: run_experiment(seqs, WHITE_01, NEAR_UNIT_ROOT, mode=gate),
        "sdr-native": lambda: run_experiment(seqs, WHITE_01, NEAR_UNIT_ROOT, mode=sdr),
        "sdr-injected": lambda: run_experiment(seqs, NEAR_UNIT_ROOT, mode=sdr),
        "export": lambda: qubit_sim._injected_gate_phases(seqs[0], NEAR_UNIT_ROOT, 300, 0),
    }
    with pytest.raises(ValueError, match="a model with 344064 taps holds"):
        calls[case]()


def test_sdr_injected_stream_bounded_by_held_normals(monkeypatch):
    # a 257-tap SDR row of 4 update steps draws 2570 + 4 normals and holds 256 + 4: 6,600
    # shots draw 17.0 M normals, above 2^24, but hold 1.7 M, so the run is accepted; the
    # refusal starts one shot past 2^24 / 260 held normals and names the update period
    monkeypatch.setattr(qubit_sim, "_run_sequence", lambda seq, *args: seq.label)
    model, seqs = design_bandpass(1.0e6, 0.2e6, 1.0e-3, T_G), [PulseSequence(1, (), (), T_G)]
    assert (model.burn_in, qubit_sim._sdr_steps(seqs[0], model, SdrMode(1, T_G))) == (2570, 4)
    assert 6600 * 2574 > 2**24 > 6600 * 260
    assert run_experiment(seqs, model, mode=SdrMode(6600, T_G)) == [0]
    assert run_experiment(seqs, model, mode=SdrMode(2**24 // 260, T_G)) == [0]
    with pytest.raises(ValueError, match=r"holds 16777280 normals in one stream of 64528 rows, "
                                         r"above 16777216 \(injected model at the SDR "
                                         r"phase_update_period\)"):
        run_experiment(seqs, model, mode=SdrMode(2**24 // 260 + 1, T_G))


def test_gate_mode_survival_clipped_to_unit_interval():
    # propagated through the unitary, this sequence's survival overshoots 1 by about 1e-15
    # on one trajectory, which Generator.binomial rejects unclipped; its pulses are perfect,
    # so it takes the closed form, which stays in [0, 1], and the clip guards imperfect pulses
    seq = make_fttps(64, 128, 1e-7)[53]
    model = design_bandpass(1.0e6, 0.2e6, 1.0e-3, 1e-7)
    (rec,) = run_experiment([seq], model, mode=GateMode(200, 1000), seed=14)
    assert 0.0 <= rec.survival_mean <= 1.0


def test_gate_mode_requires_matching_sample_period():
    bad = ArmaModel(ar=(), ma=(0.1,), drive_std=1.0, sample_period=2 * T_G)
    with pytest.raises(ValueError, match="sample_period"):
        run_experiment(make_fttps(2, N, T_G), bad, mode=GateMode(2, 2), seed=0)


def test_mode_count_validation():
    with pytest.raises(ValueError):
        GateMode(trajectories=0, shots_per_trajectory=5)
    with pytest.raises(ValueError):
        SdrMode(shots=0, phase_update_period=T_G)
    with pytest.raises(ValueError):
        SdrMode(shots=5, phase_update_period=0.0)


def test_sdr_requires_consistent_update_period():
    # the model's taps are designed at its own sample period; a differing
    # update period would silently reshape the injected spectrum
    with pytest.raises(ValueError, match="phase_update_period"):
        run_experiment(
            make_fttps(2, N, T_G),
            WHITE_01,
            mode=SdrMode(shots=10, phase_update_period=T_G / 2),
            seed=0,
        )


# ---------------------------------------------------------------------------
# SDR mode
# ---------------------------------------------------------------------------


def test_sdr_resampling_identity_when_aligned():
    # t_s = t_G with zero offset: slot accumulation returns the raw steps
    rng = np.random.default_rng(8)
    model = ArmaModel(ar=(), ma=(0.3,), drive_std=1.0, sample_period=T_G)
    block = _synthesize_phases(model, rng.standard_normal((6, model.burn_in + N + 3)), N + 3)
    got = _sdr_slot_phases(block, T_G, N, T_G, np.zeros(6))
    rng2 = np.random.default_rng(8)
    burn = model.burn_in
    from scipy.signal import lfilter

    drive = 0.3 * rng2.standard_normal((6, burn + N + 3))
    raw = lfilter([1.0], [1.0], drive, axis=1)[:, burn:]
    assert np.allclose(got, raw[:, :N], atol=1e-9)


def test_sdr_matches_gate_white():
    seqs = make_fttps(6, N, T_G)
    gate = run_experiment(
        seqs, WHITE_01, mode=GateMode(trajectories=300, shots_per_trajectory=30), seed=4
    )
    sdr = run_experiment(
        seqs,
        WHITE_01,
        mode=SdrMode(shots=6000, phase_update_period=T_G, random_time_offset=False),
        seed=5,
    )
    for g, s in zip(gate, sdr):
        combined = np.hypot(g.survival_stderr, s.survival_stderr)
        assert abs(g.survival_mean - s.survival_mean) < 3 * combined
        assert s.shots == 1 and s.trajectories == 6000


def test_sdr_offset_and_finer_period_still_match_analytic():
    # trajectory resampled from a 4x finer update grid, asynchronous offsets
    fine = ArmaModel(ar=(), ma=(0.05,), drive_std=1.0, sample_period=T_G / 4)
    seqs = make_fttps(6, N, T_G)
    records = run_experiment(
        seqs,
        fine,
        mode=SdrMode(shots=4000, phase_update_period=T_G / 4, random_time_offset=True),
        seed=6,
    )
    # accumulating 4 independent steps of std 0.05 gives slot phases of
    # variance 4 * 0.05^2 = 0.1^2: same closed form as WHITE_01
    for rec in records:
        assert abs(rec.survival_mean - P_WHITE) < 4 * rec.survival_stderr


# ---------------------------------------------------------------------------
# pulse errors
# ---------------------------------------------------------------------------


def test_pulse_error_validation():
    with pytest.raises(ValueError):
        PulseErrorModel(jitter_std=-0.1)


def test_overrotation_artifact_direction():
    # coherent over-rotation decays FTTPS faster than RFTTPS at high pulse
    # count on identical noise and seeds
    seqs_f = make_fttps(32, N, T_G)
    seqs_r = make_rfttps(32, N, T_G)
    perr = PulseErrorModel(over_rotation=0.05, jitter_std=0.0)
    mode = GateMode(trajectories=40, shots_per_trajectory=200)
    rec_f = run_experiment(seqs_f, WHITE_01, pulse_errors=perr, mode=mode, seed=12)
    rec_r = run_experiment(seqs_r, WHITE_01, pulse_errors=perr, mode=mode, seed=12)
    top = slice(24, 32)
    mean_f = np.mean([r.survival_mean for r in rec_f[top]])
    mean_r = np.mean([r.survival_mean for r in rec_r[top]])
    assert mean_f < mean_r


def test_jitter_decays_survival():
    silent = ArmaModel(ar=(), ma=(1.0,), drive_std=0.0, sample_period=T_G)
    seqs = make_fttps(32, N, T_G)
    perr = PulseErrorModel(over_rotation=0.0, jitter_std=0.05)
    records = run_experiment(
        seqs, silent, pulse_errors=perr, mode=GateMode(trajectories=50, shots_per_trajectory=100),
        seed=13,
    )
    assert records[31].survival_mean < records[1].survival_mean < records[0].survival_mean + 1e-9


# ---------------------------------------------------------------------------
# analytic_survival
# ---------------------------------------------------------------------------


def test_analytic_zero_noise():
    silent = ArmaModel(ar=(), ma=(1.0,), drive_std=0.0, sample_period=T_G)
    seq = make_fttps(1, N, T_G)[0]
    assert analytic_survival(seq, silent) == 1.0
    assert analytic_survival(seq, None) == 1.0


def test_analytic_white_closed_form():
    for k in (0, 3, 15):
        seq = make_fttps(16, N, T_G)[k]
        assert analytic_survival(seq, WHITE_01) == pytest.approx(P_WHITE, rel=1e-12)


def test_analytic_native_combines():
    seq = make_fttps(4, N, T_G)[2]
    a = ArmaModel(ar=(), ma=(0.08,), drive_std=1.0, sample_period=T_G)
    b = ArmaModel(ar=(), ma=(0.06,), drive_std=1.0, sample_period=T_G)
    both = analytic_survival(seq, a, b)
    # independent Gaussian contributions: chi adds, so 2p-1 multiplies
    pa, pb = analytic_survival(seq, a), analytic_survival(seq, b)
    assert 2 * both - 1 == pytest.approx((2 * pa - 1) * (2 * pb - 1), rel=1e-12)


def test_analytic_agrees_with_bandpass_mc():
    model = design_bandpass(1.0e6, 0.3e6, 1.2e-3, T_G)
    seqs = make_fttps(16, N, T_G)
    records = run_experiment(
        seqs, model, mode=GateMode(trajectories=150, shots_per_trajectory=300), seed=14
    )
    for rec, seq in zip(records, seqs):
        expected = analytic_survival(seq, model)
        assert abs(rec.survival_mean - expected) < 5 * rec.survival_stderr
