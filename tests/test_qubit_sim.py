"""Simulator tests: unitary-propagation oracles, mode equivalence, seeding."""

import numpy as np
import pytest

from dephasekit.noise_models import (
    ArmaModel,
    Trajectory,
    design_bandpass,
    design_power_law,
    generate_trajectory,
)
from dephasekit.qubit_sim import (
    GateMode,
    PulseErrorModel,
    SdrMode,
    _sdr_slot_phases,
    analytic_survival,
    run_experiment,
    run_shot,
)
from dephasekit.seeds import STREAM_INJECTED, STREAM_MEASUREMENT, SeedLineage
from dephasekit.sequences import make_fttps, make_rfttps, switching_function

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


def test_records_deterministic():
    seqs = make_fttps(4, N, T_G)
    mode = GateMode(trajectories=5, shots_per_trajectory=20)
    a = run_experiment(seqs, WHITE_01, mode=mode, seed=9)
    b = run_experiment(seqs, WHITE_01, mode=mode, seed=9)
    assert a == b
    c = run_experiment(seqs, WHITE_01, mode=mode, seed=10)
    assert any(x.survival_mean != y.survival_mean for x, y in zip(a, c))


def test_gate_mode_matches_run_shot():
    # the batched experiment path must agree with single-shot propagation on
    # the same derived trajectory and jitter streams
    seqs = make_fttps(3, N, T_G)[2:]
    seq = seqs[0]
    perr = PulseErrorModel(over_rotation=0.05, jitter_std=0.02)
    records = run_experiment(
        [seq], WHITE_01, pulse_errors=perr,
        mode=GateMode(trajectories=4, shots_per_trajectory=1000000), seed=33, keep_raw=True,
    )
    root = SeedLineage(33)
    for r in range(4):
        traj = generate_trajectory(WHITE_01, N, root.child(seq.label, r, STREAM_INJECTED))
        p = run_shot(seq, traj, pulse_errors=perr, seed=root.child(seq.label, r, 2))
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
    # every (sequence, trajectory) of a gate run is exactly run_shot on the
    # generate_trajectory phases of its injected stream, sampled from its
    # measurement stream: the batched and single-trajectory synthesis agree
    # bit for bit
    seqs = make_fttps(4, N, T_G)
    mode = GateMode(trajectories=20, shots_per_trajectory=50)
    records = run_experiment(seqs, model, mode=mode, seed=19, keep_raw=True)
    root = SeedLineage(19)
    for seq, rec in zip(seqs, records):
        for r in range(mode.trajectories):
            lineage = root.child(seq.label, r, STREAM_INJECTED)
            p = run_shot(seq, generate_trajectory(model, seq.n_slots, lineage))
            rng = root.child(seq.label, r, STREAM_MEASUREMENT).generator()
            assert rec.trajectory_survivals[r] == rng.binomial(50, p) / 50


def test_gate_mode_survival_clipped_to_unit_interval():
    # this sequence's propagated survival overshoots 1 by about 1e-15 on one
    # trajectory; unclipped, Generator.binomial rejects it
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
    got = _sdr_slot_phases(model, 6, N * T_G + T_G, N, T_G, np.zeros(6), rng)
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
