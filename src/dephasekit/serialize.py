"""File formats: CSV for tabular artifacts, JSON documents for structures.

Every artifact goes through one CSV writer, one CSV row reader with one cell
parser, and one JSON reader/writer; every spectrum CSV, a design's PSD or a
reconstruction, through one reader.  The CSV reader yields rows one at a time,
as they are read, so a reader holds only what it parses out of each row; the
writer writes each line as it formats it.  Floats are written with ``repr`` so
a value survives a write/read cycle bit-exactly and identical runs produce
identical bytes.  Readers accept finite numbers only and name the file (and,
for CSV, the line and column) of the first bad value.  One rule, ``field``,
types and bounds every JSON key, in configs and in documents alike.
"""

from __future__ import annotations

import collections
import csv
import dataclasses
import json
import math
import operator
from typing import Iterable, Iterator, Sequence

import numpy as np

from .noise_models import ArmaModel, Spectrum
from .qns_recon import BootstrapSpectrum, SpectrumEstimate
from .qubit_sim import ExperimentRecord, _binomial_stderr
from .sequences import FilterFunction, PulseSequence

RECORD_FIELDS = (
    "seq_index",
    "n_pulses",
    "survival_mean",
    "survival_stderr",
    "shots",
    "trajectories",
    "seed",
)
SPECTRUM_FIELDS = ("freq_hz", "psd_rad2_per_hz")
RAW_SURVIVAL_FIELDS = ("seq_index", "trajectory", "survival")


class SchemaError(ValueError):
    """A file violates its documented schema."""


# -- the codec ------------------------------------------------------------------

def _cell_text(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(x)
    return repr(float(x))


def _csv_lines(header: Sequence[str], rows: Iterable[Sequence]) -> Iterator[str]:
    """CSV lines, one at a time: ints as decimals, other numbers as ``repr(float(x))``,
    each ending ``\\n``."""
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(map(_cell_text, row)) + "\n"


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        fh.writelines(_csv_lines(header, rows))


def _csv_rows(path, required: Sequence[str]) -> Iterator["tuple[int, dict]"]:
    """(line number, row) for each data row as it is read, after checking the required
    columns once; a file with no data row is refused after its last line."""
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise SchemaError(f"{path}: empty file")
            missing = [c for c in required if c not in reader.fieldnames]
            if missing:
                raise SchemaError(f"{path}: missing columns {missing}")
            empty = True
            for row in reader:
                empty = False
                yield reader.line_num, row
            if empty:
                raise SchemaError(f"{path}: no data rows")
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _cell(path, line: int, row: dict, column: str, kind=float, lo=-math.inf, hi=math.inf):
    """One cell as an int or a finite float in [lo, hi]."""
    text = row[column]
    try:
        value = kind(text)
    except (TypeError, ValueError):
        raise SchemaError(f"{path}: line {line}: {column}: not {kind.__name__}: {text!r}") from None
    if not (lo <= value <= hi and abs(value) < math.inf):  # also rejects nan and +-inf
        raise SchemaError(f"{path}: line {line}: {column}: {text} not finite in [{lo}, {hi}]")
    return value


def write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_json(path):
    """Parse a JSON document holding finite numbers only."""

    def finite(token: str) -> float:
        value = float(token)
        if not math.isfinite(value):
            raise SchemaError(f"{path}: number not finite: {token[:32]}")
        return value

    def integer(token: str) -> int:
        finite(token)  # an integer beyond the float range cannot be used as a number
        return int(token)

    try:
        with open(path) as fh:
            return json.load(fh, parse_float=finite, parse_int=integer, parse_constant=finite)
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: line {exc.lineno}: {exc.msg}") from exc


_MISSING = object()
_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt}


def field(doc: dict, key: str, kind, default=_MISSING, *,
          above=None, at_least=None, below=None, choices=None):
    """``doc[key]`` as ``kind``, inside its domain: bounds or allowed values.

    A key that has a default gives it when missing or null.
    """
    if not isinstance(doc, dict):
        raise SchemaError(f"key '{key}': expected a JSON object holding it, got {doc!r}")
    if doc.get(key) is None and default is not _MISSING:
        return default
    if key not in doc:
        raise SchemaError(f"key '{key}': required but missing")
    value = doc[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
        raise SchemaError(f"key '{key}': expected {kind.__name__}, got {value!r}")
    bounds = [(op, bound) for op, bound in ((">", above), (">=", at_least), ("<", below))
              if bound is not None]
    if not all(_COMPARE[op](value, bound) for op, bound in bounds):
        domain = " and ".join(f"{op} {bound}" for op, bound in bounds)
        raise SchemaError(f"key '{key}': expected a number {domain}, got {value!r}")
    if choices is not None and value not in choices:
        *others, last = map(str, choices)
        allowed = f"{', '.join(others)} or {last}" if others else last
        raise SchemaError(f"key '{key}': expected {allowed}, got {value!r}")
    return value


def number_list(doc: dict, key: str, default=_MISSING) -> "list[float]":
    """``doc[key]`` as a list of JSON numbers, each as a float."""
    values = field(doc, key, list, default)
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        raise SchemaError(f"key '{key}': expected a list of numbers, got {values!r}")
    return [float(v) for v in values]


# -- spectra ----------------------------------------------------------------

def write_spectrum_csv(path, spectrum: "Spectrum | SpectrumEstimate") -> None:
    write_csv(path, SPECTRUM_FIELDS, zip(spectrum.freqs, spectrum.values))


def read_spectrum_csv(path) -> Spectrum:
    """The :class:`Spectrum` of any spectrum CSV, a design's PSD or a reconstruction: its
    ``freq_hz`` and ``psd_rad2_per_hz`` columns; other columns are not read."""
    freqs, values = [], []
    for i, row in _csv_rows(path, SPECTRUM_FIELDS):
        freqs.append(_cell(path, i, row, "freq_hz"))
        values.append(_cell(path, i, row, "psd_rad2_per_hz"))
    try:
        return Spectrum(freqs=freqs, values=values)
    except ValueError as exc:
        raise SchemaError(f"{path}: invalid spectrum: {exc}") from exc


def write_spectrum_estimate_csv(
    path, estimate: SpectrumEstimate, band: "BootstrapSpectrum | None" = None
) -> None:
    """Reconstruction CSV with confidence columns (stderr-based if no bootstrap)."""
    lo = band.lower if band is not None else np.clip(estimate.values - 2 * estimate.stderr, 0, None)
    hi = band.upper if band is not None else estimate.values + 2 * estimate.stderr
    rows = zip(estimate.freqs, estimate.values, lo, hi)
    write_csv(path, SPECTRUM_FIELDS + ("ci_lo", "ci_hi"), rows)


# -- models ------------------------------------------------------------------

def write_model_json(path, model: ArmaModel) -> None:
    write_json(path, {
        "ar": list(model.ar),
        "ma": list(model.ma),
        "drive_std": model.drive_std,
        "sample_period_s": model.sample_period,
    })


def read_model_json(path) -> ArmaModel:
    doc = read_json(path)
    try:
        return ArmaModel(
            ar=number_list(doc, "ar"),
            ma=number_list(doc, "ma"),
            drive_std=field(doc, "drive_std", float),
            sample_period=field(doc, "sample_period_s", float),
        )
    except ValueError as exc:
        raise SchemaError(f"{path}: invalid model document: {exc}") from exc


# -- sequences ----------------------------------------------------------------

def write_sequences_json(path, sequences: Sequence[PulseSequence]) -> None:
    write_json(path, [
        {
            "label": seq.label,
            "n_slots": seq.n_slots,
            "gate_period_s": seq.gate_period,
            "pulses": [
                {"slot": slot, "sign": sign}
                for slot, sign in zip(seq.pulse_slots, seq.pulse_signs)
            ],
        }
        for seq in sequences
    ])


def read_sequences_json(path) -> "list[PulseSequence]":
    docs = read_json(path)
    if not isinstance(docs, list) or not docs:
        raise SchemaError(f"{path}: expected a non-empty list of sequence documents")
    out = {}
    for doc in docs:
        try:
            pulses = field(doc, "pulses", list)
            seq = PulseSequence(
                n_slots=field(doc, "n_slots", int),
                pulse_slots=tuple(field(p, "slot", int) for p in pulses),
                pulse_signs=tuple(field(p, "sign", int) for p in pulses),
                gate_period=field(doc, "gate_period_s", float),
                label=field(doc, "label", int, 0),
            )
        except ValueError as exc:
            raise SchemaError(f"{path}: invalid sequence document: {exc}") from exc
        if seq.label in out:
            raise SchemaError(f"{path}: label {seq.label}: repeated sequence document")
        out[seq.label] = seq
    return list(out.values())


# -- filter functions ----------------------------------------------------------

def write_filter_csv(path, filt: FilterFunction) -> None:
    write_csv(path, ("freq_hz", "weight"), zip(filt.freqs, filt.weights))


# -- experiment records ---------------------------------------------------------

def record_row(r: ExperimentRecord) -> tuple:
    """One records-CSV row, in ``RECORD_FIELDS`` order."""
    return (r.label, r.n_pulses, float(r.survival_mean), float(r.survival_stderr),
            r.shots, r.trajectories, r.seed)


def records_to_csv_text(records: Sequence[ExperimentRecord]) -> str:
    return "".join(_csv_lines(RECORD_FIELDS, map(record_row, records)))


def write_records_csv(path, records: Sequence[ExperimentRecord]) -> None:
    write_csv(path, RECORD_FIELDS, map(record_row, records))


def write_raw_survivals_csv(path, records: Sequence[ExperimentRecord]) -> None:
    """Per-trajectory survival fractions, one row per (sequence, trajectory)."""
    for r in records:
        if r.trajectory_survivals is None:
            raise ValueError(f"record {r.label} has no per-trajectory data (keep_raw was off)")
    write_csv(path, RAW_SURVIVAL_FIELDS, (
        (r.label, t, value) for r in records for t, value in enumerate(r.trajectory_survivals)
    ))


def read_raw_survivals_csv(
    path, records: Sequence[ExperimentRecord]
) -> "list[ExperimentRecord]":
    """Attach per-trajectory survivals from a sidecar file to matching records.

    Each survival is written to its ``trajectory`` index as its row is read, so the rows may
    come in any order and the reader keeps only a count per sequence.  A row it cannot place
    (no matching record, a trajectory out of range or repeated) is reported after the count
    checks, as the first such row of the file.
    """
    raw, placed, unallocated = {}, {}, {}
    for r in records:
        try:  # zero-filled, so only the pages that rows write to take memory
            raw[r.label], placed[r.label] = np.zeros(r.trajectories), np.zeros(r.trajectories, bool)
        except (MemoryError, ValueError) as exc:  # a size no file matches: its count check fails
            unallocated[r.label] = exc
    counts = collections.Counter()
    fault = None
    for i, row in _csv_rows(path, RAW_SURVIVAL_FIELDS):
        label = _cell(path, i, row, "seq_index", int)
        t = _cell(path, i, row, "trajectory", int)
        survival = _cell(path, i, row, "survival", lo=0.0, hi=1.0)
        counts[label] += 1
        if fault is not None or label in unallocated:
            continue
        values = raw.get(label)
        if values is None:
            fault = f"line {i}: seq_index {label}: no matching record"
        elif not 0 <= t < values.size:
            fault = f"line {i}: trajectory {t} outside [0, {values.size})"
        elif placed[label][t]:
            fault = f"line {i}: trajectory {t} of sequence {label} repeated"
        else:
            values[t] = survival
            placed[label][t] = True
    for r in records:
        if not counts[r.label]:
            raise SchemaError(f"{path}: no rows for sequence {r.label}")
        if counts[r.label] != r.trajectories:
            raise SchemaError(f"{path}: sequence {r.label} has {counts[r.label]} rows, "
                              f"record expects {r.trajectories}")
    for exc in unallocated.values():  # a file with that many rows: the array is needed now
        raise exc
    if fault is not None:
        raise SchemaError(f"{path}: {fault}")
    return [dataclasses.replace(r, trajectory_survivals=raw[r.label]) for r in records]


def check_records_match_sequences(
    path, records: Sequence[ExperimentRecord], sequences: Sequence[PulseSequence]
) -> None:
    """Reject records (read from ``path``) with an unknown or repeated seq_index, or an
    n_pulses that contradicts the sequence document."""
    n_pulses = {s.label: s.n_pulses for s in sequences}
    seen = set()
    for r in records:
        expected = n_pulses.get(r.label)
        if r.label in seen or expected != r.n_pulses:
            fault = ("duplicate record" if r.label in seen
                     else "no matching sequence document" if expected is None
                     else f"n_pulses {r.n_pulses} contradicts the sequence document ({expected})")
            raise SchemaError(f"{path}: seq_index {r.label}: {fault}")
        seen.add(r.label)


def read_records_csv(path) -> "list[ExperimentRecord]":
    """Read records; a missing or blank stderr is filled in with the simulator's
    floored binomial estimate (``_binomial_stderr``)."""
    records = []
    for i, row in _csv_rows(path, [f for f in RECORD_FIELDS if f != "survival_stderr"]):
        mean = _cell(path, i, row, "survival_mean", lo=0.0, hi=1.0)
        shots = _cell(path, i, row, "shots", int, lo=1)
        trajectories = _cell(path, i, row, "trajectories", int, lo=1)
        if row.get("survival_stderr") not in ("", None):
            stderr = _cell(path, i, row, "survival_stderr", lo=0.0)
        else:
            stderr = float(_binomial_stderr(mean, shots * trajectories))
        records.append(
            ExperimentRecord(
                label=_cell(path, i, row, "seq_index", int),
                n_pulses=_cell(path, i, row, "n_pulses", int),
                survival_mean=mean,
                survival_stderr=stderr,
                shots=shots,
                trajectories=trajectories,
                seed=_cell(path, i, row, "seed", int),
            )
        )
    return records
