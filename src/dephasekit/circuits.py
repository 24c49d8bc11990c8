"""OpenQASM 2.0 export of probe circuits, plus a parser for round-trip checks.

Circuits use the restricted gate vocabulary of cloud backends: u1 phase
gates carry the per-slot dephasing angles, x implements R_x(pi), and
u3(pi, pi/2, -pi/2) implements R_x(-pi) for sign-alternating sequences
(equal to i*X, a global phase away from the rotation).  Every slot emits
exactly one u1, zero angles included, so a parsed file maps back onto slots
without ambiguity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .noise_models import _read_only
from .sequences import PulseSequence

_HALF_PI = repr(np.pi / 2)
_PI = repr(np.pi)
_PREP = f"u3({_HALF_PI},-{_HALF_PI},{_HALF_PI}) q[0];"
_X_NEG = f"u3({_PI},{_HALF_PI},-{_HALF_PI}) q[0];"
_GATE_RE = re.compile(r"^(u1|u3|x)\s*(?:\(([^)]*)\))?\s+q\[0\];$")


class CircuitParseError(ValueError):
    pass


def emit_circuit(seq: PulseSequence, slot_phases: np.ndarray, target_state: int = 1) -> str:
    """One probe circuit as OpenQASM 2.0 text.

    Layout: preparation u3, then per slot one u1(phase) followed by the
    slot's pulse gate if any, then the closing u3 and measurement.
    """
    phases = np.asarray(slot_phases, dtype=float)
    if phases.size < seq.n_slots:
        raise ValueError(
            f"need {seq.n_slots} slot phases, got {phases.size}"
        )
    closing = _HALF_PI if seq.closing_sign(target_state) > 0 else f"-{_HALF_PI}"
    pulse_sign = dict(zip(seq.pulse_slots, seq.pulse_signs))
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        "qreg q[1];",
        "creg c[1];",
        _PREP,
    ]
    for j in range(1, seq.n_slots + 1):
        lines.append(f"u1({repr(float(phases[j - 1]))}) q[0];")
        sign = pulse_sign.get(j)
        if sign == 1:
            lines.append("x q[0];")
        elif sign == -1:
            lines.append(_X_NEG)
    lines.append(f"u3({closing},-{_HALF_PI},{_HALF_PI}) q[0];")
    lines.append("measure q[0] -> c[0];")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ParsedCircuit:
    """Slot-aligned content recovered from emitted QASM text."""

    slot_phases: np.ndarray
    pulse_slots: tuple[int, ...]
    pulse_signs: tuple[int, ...]
    n_x_type: int
    n_phase_gates: int

    def __post_init__(self):
        object.__setattr__(self, "slot_phases", _read_only(self.slot_phases))


def parse_circuit(text: str) -> ParsedCircuit:
    """Recover slot phases and pulse positions from emitted QASM text."""
    body = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith(("OPENQASM", "include", "qreg", "creg", "measure")):
            continue
        body.append(line)
    if len(body) < 2:
        raise CircuitParseError("circuit has no gate body")
    gates = []
    for line in body:
        match = _GATE_RE.match(line)
        if match is None:
            raise CircuitParseError(f"unrecognized gate line: {line!r}")
        name, args = match.group(1), match.group(2)
        params = tuple(float(a) for a in args.split(",")) if args else ()
        gates.append((name, params))
    if gates[0][0] != "u3" or gates[-1][0] != "u3":
        raise CircuitParseError("circuit must open and close with u3 mapping gates")
    gates = gates[1:-1]
    phases: "list[float]" = []
    pulse_slots: "list[int]" = []
    pulse_signs: "list[int]" = []
    n_x_type = 0
    for name, params in gates:
        if name == "u1":
            phases.append(params[0])
        elif name in ("x", "u3"):
            if not phases:
                raise CircuitParseError("pulse gate before any slot phase")
            if name == "u3" and params != (np.pi, np.pi / 2, -np.pi / 2):
                raise CircuitParseError(f"unexpected in-body u3 parameters {params}")
            n_x_type += 1
            pulse_slots.append(len(phases))
            pulse_signs.append(1 if name == "x" else -1)
    return ParsedCircuit(
        slot_phases=np.array(phases),
        pulse_slots=tuple(pulse_slots),
        pulse_signs=tuple(pulse_signs),
        n_x_type=n_x_type,
        n_phase_gates=len(phases),
    )


def verify_roundtrip(text: str, seq: PulseSequence, slot_phases: np.ndarray) -> None:
    """Re-ingestion check: gate counts and per-slot phases must match exactly."""
    parsed = parse_circuit(text)
    if parsed.n_phase_gates != seq.n_slots:
        raise CircuitParseError(
            f"expected {seq.n_slots} phase gates, parsed {parsed.n_phase_gates}"
        )
    if parsed.n_x_type != seq.n_pulses:
        raise CircuitParseError(
            f"expected {seq.n_pulses} x-type gates, parsed {parsed.n_x_type}"
        )
    if parsed.pulse_slots != seq.pulse_slots or parsed.pulse_signs != seq.pulse_signs:
        raise CircuitParseError("pulse placement mismatch after parsing")
    expected = np.asarray(slot_phases, dtype=float)[: seq.n_slots]
    if not np.array_equal(parsed.slot_phases, expected):
        worst = int(np.argmax(np.abs(parsed.slot_phases - expected)))
        raise CircuitParseError(
            f"slot {worst + 1} phase mismatch: {parsed.slot_phases[worst]!r} "
            f"!= {expected[worst]!r}"
        )
