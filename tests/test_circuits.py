"""OpenQASM export and re-ingestion tests."""

import numpy as np
import pytest

from dephasekit.circuits import (
    CircuitParseError,
    emit_circuit,
    parse_circuit,
    verify_roundtrip,
)
from dephasekit.noise_models import ArmaModel, generate_trajectory
from dephasekit.sequences import make_fttps, make_rfttps

T_G = 70e-9
N = 32


def test_k0_zero_noise_has_no_nonzero_phase_gate():
    seq = make_fttps(1, N, T_G)[0]
    text = emit_circuit(seq, np.zeros(N))
    parsed = parse_circuit(text)
    assert parsed.n_x_type == 0
    assert not np.any(parsed.slot_phases != 0.0)


def test_k2_gate_counts():
    seq = make_fttps(3, N, T_G)[2]
    model = ArmaModel(ar=(), ma=(0.1,), drive_std=1.0, sample_period=T_G)
    traj = generate_trajectory(model, N, seed=1)
    text = emit_circuit(seq, traj.phases)
    parsed = parse_circuit(text)
    assert parsed.n_x_type == 2
    assert parsed.n_phase_gates == N
    assert parsed.pulse_signs == (1, 1)


def test_roundtrip_angles_exact():
    seq = make_fttps(6, N, T_G)[5]
    rng = np.random.default_rng(3)
    phases = rng.normal(0.0, 0.7, N)
    text = emit_circuit(seq, phases)
    parsed = parse_circuit(text)
    assert np.array_equal(parsed.slot_phases, phases)
    assert parsed.pulse_slots == seq.pulse_slots
    verify_roundtrip(text, seq, phases)


def test_rfttps_signs_roundtrip():
    seq = make_rfttps(4, N, T_G)[3]
    phases = np.linspace(-0.2, 0.2, N)
    text = emit_circuit(seq, phases)
    parsed = parse_circuit(text)
    assert parsed.pulse_signs == (1, -1, 1)
    assert "u3(3.141592653589793,1.5707963267948966,-1.5707963267948966)" in text
    verify_roundtrip(text, seq, phases)


def test_header_and_measurement_present():
    seq = make_fttps(1, 4, T_G)[0]
    text = emit_circuit(seq, np.zeros(4))
    lines = text.strip().splitlines()
    assert lines[0] == "OPENQASM 2.0;"
    assert 'include "qelib1.inc";' in lines
    assert "qreg q[1];" in lines and "creg c[1];" in lines
    assert lines[-1] == "measure q[0] -> c[0];"


def test_closing_gate_parity():
    even = emit_circuit(make_fttps(3, N, T_G)[2], np.zeros(N), target_state=1)
    odd = emit_circuit(make_fttps(2, N, T_G)[1], np.zeros(N), target_state=1)
    half_pi = repr(np.pi / 2)
    assert even.strip().splitlines()[-2].startswith(f"u3({half_pi},")
    assert odd.strip().splitlines()[-2].startswith(f"u3(-{half_pi},")


def test_emit_rejects_invalid_target_state():
    seq = make_fttps(2, N, T_G)[1]
    with pytest.raises(ValueError, match="target_state"):
        emit_circuit(seq, np.zeros(N), target_state=2)


def test_emit_requires_enough_phases():
    seq = make_fttps(1, N, T_G)[0]
    with pytest.raises(ValueError, match="slot phases"):
        emit_circuit(seq, np.zeros(N - 1))


def test_verify_detects_mutation():
    seq = make_fttps(3, N, T_G)[2]
    phases = np.full(N, 0.25)
    text = emit_circuit(seq, phases)
    tampered = text.replace("x q[0];", "", 1)
    with pytest.raises(CircuitParseError, match="x-type"):
        verify_roundtrip(tampered, seq, phases)
    with pytest.raises(CircuitParseError, match="phase"):
        verify_roundtrip(text, seq, phases + 1e-9)


def test_parse_rejects_garbage():
    with pytest.raises(CircuitParseError):
        parse_circuit("OPENQASM 2.0;\nqreg q[1];\nh q[0];\nmeasure q[0] -> c[0];\n")


FTTPS_K3 = make_fttps(4, N, T_G)[3]


@pytest.mark.parametrize(
    "edit, against, match",
    [
        (lambda t: t.replace("x q[0];", "h q[0];", 1), FTTPS_K3, "unrecognized gate line"),
        (lambda t: t.replace(t.splitlines()[4] + "\n", "", 1), FTTPS_K3, "open and close with u3"),
        (lambda t: t.replace("q[0];\n", "q[0];\nx q[0];\n", 1), FTTPS_K3,
         "pulse gate before any slot phase"),
        (lambda t: t.replace("x q[0];", "u3(1.0,0.0,0.0) q[0];", 1), FTTPS_K3,
         "unexpected in-body u3 parameters"),
        (lambda t: t, make_fttps(4, 2 * N, T_G)[3], f"expected {2 * N} phase gates, parsed {N}"),
        (lambda t: t, make_rfttps(4, N, T_G)[3], "pulse placement mismatch"),
    ],
    ids=["unknown-gate", "no-opening-u3", "pulse-before-phase", "in-body-u3-parameters",
         "phase-gate-count", "pulse-placement"],
)
def test_parse_and_verify_reject_malformed_circuits(edit, against, match):
    phases = np.full(N, 0.25)
    text = edit(emit_circuit(FTTPS_K3, phases))
    with pytest.raises(CircuitParseError, match=match):
        verify_roundtrip(text, against, phases)
