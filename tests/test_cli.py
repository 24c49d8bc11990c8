"""CLI and serialization tests: full pipelines on disk, schema errors, determinism."""

import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dephasekit import qns_recon, sequences
from dephasekit.circuits import parse_circuit
from dephasekit.cli import main
from dephasekit.noise_models import ArmaModel, Spectrum, _model_phases, design_bandpass, psd
from dephasekit.qubit_sim import ExperimentRecord, GateMode, run_experiment
from dephasekit.seeds import STREAM_INJECTED, STREAM_VERSION, SeedLineage
from dephasekit.sequences import PulseSequence, filter_function, make_fttps, make_rfttps
from dephasekit.serialize import (
    SchemaError,
    read_model_json,
    read_raw_survivals_csv,
    read_records_csv,
    read_sequences_json,
    read_spectrum_csv,
    write_filter_csv,
    write_model_json,
    write_raw_survivals_csv,
    write_records_csv,
    write_sequences_json,
    write_spectrum_csv,
)

T_G = 1e-7


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


# ---------------------------------------------------------------------------
# serialization round trips
# ---------------------------------------------------------------------------


def test_model_roundtrip(tmp_path):
    model = design_bandpass(1.0e6, 0.2e6, 1e-3, T_G, taps=41)
    path = tmp_path / "model.json"
    write_model_json(path, model)
    back = read_model_json(path)
    assert back == model


def test_spectrum_roundtrip(tmp_path):
    spec = psd(design_bandpass(1.0e6, 0.2e6, 1e-3, T_G, taps=41), 129)
    path = tmp_path / "spec.csv"
    write_spectrum_csv(path, spec)
    back = read_spectrum_csv(path)
    assert np.array_equal(back.freqs, spec.freqs)
    assert np.array_equal(back.values, spec.values)
    assert path.read_text().splitlines()[0] == "freq_hz,psd_rad2_per_hz"


def test_sequences_roundtrip(tmp_path):
    seqs = make_fttps(8, 32, T_G)
    path = tmp_path / "seqs.json"
    write_sequences_json(path, seqs)
    assert read_sequences_json(path) == seqs


def test_records_roundtrip(tmp_path):
    model = ArmaModel(ar=(), ma=(0.1,), drive_std=1.0, sample_period=T_G)
    records = run_experiment(
        make_fttps(4, 32, T_G), model, mode=GateMode(trajectories=3, shots_per_trajectory=10),
        seed=3,
    )
    path = tmp_path / "records.csv"
    write_records_csv(path, records)
    back = read_records_csv(path)
    assert back == records


def test_filter_csv_export(tmp_path):
    filt = filter_function(make_fttps(4, 32, T_G)[3], grid_size=65)
    path = tmp_path / "filter.csv"
    write_filter_csv(path, filt)
    lines = path.read_text().splitlines()
    assert lines[0] == "freq_hz,weight"
    assert len(lines) == 66
    freqs = np.array([float(l.split(",")[0]) for l in lines[1:]])
    assert np.array_equal(freqs, filt.freqs)


def test_records_stderr_imputation(tmp_path):
    path = tmp_path / "hw.csv"
    path.write_text(
        "seq_index,n_pulses,survival_mean,survival_stderr,shots,trajectories,seed\n"
        "0,0,0.9,,1000,1,7\n"
    )
    rec = read_records_csv(path)[0]
    p_tilde = (900 + 0.5) / (1000 + 1)  # the simulator's floored binomial rule
    assert rec.survival_stderr == pytest.approx(np.sqrt(p_tilde * (1 - p_tilde) / 1000))


def test_records_stderr_imputation_all_success(tmp_path):
    # sqrt(p (1-p) / n) is 0 at p = 1, which would give the row an unbounded NNLS weight
    path = tmp_path / "hw.csv"
    path.write_text(RECORD_HEADER + "0,0,1.0,,100,10,7\n1,1,0.999,0.001,100,10,7\n")
    rec = read_records_csv(path)[0]
    p_tilde = (1000 + 0.5) / (1000 + 1)
    assert rec.survival_stderr == np.sqrt(p_tilde * (1 - p_tilde) / 1000) > 0
    # the same rule as the simulator's for a noiseless (all-success) record
    quiet = ArmaModel(ar=(), ma=(1.0,), drive_std=0.0, sample_period=T_G)
    simulated = run_experiment(make_fttps(1, 16, T_G), quiet, mode=GateMode(10, 100))[0]
    assert simulated.survival_mean == 1.0
    assert rec.survival_stderr == simulated.survival_stderr


def test_records_schema_errors(tmp_path):
    bad_p = tmp_path / "bad_p.csv"
    bad_p.write_text(
        "seq_index,n_pulses,survival_mean,survival_stderr,shots,trajectories,seed\n"
        "0,0,1.2,0.01,10,1,7\n"
    )
    with pytest.raises(SchemaError, match="line 2"):
        read_records_csv(bad_p)
    missing = tmp_path / "missing.csv"
    missing.write_text("seq_index,survival_mean\n0,0.9\n")
    with pytest.raises(SchemaError, match="missing columns"):
        read_records_csv(missing)


RECORD_HEADER = "seq_index,n_pulses,survival_mean,survival_stderr,shots,trajectories,seed\n"


@pytest.mark.parametrize(
    "name, text, read, match",
    [
        ("records.csv", RECORD_HEADER + "0,0,0.9,0.01,10,1,7\n1,1,0.8,nan,10,1,7\n",
         read_records_csv, "line 3: survival_stderr"),
        ("records.csv", RECORD_HEADER + "0,0,0.9,inf,10,1,7\n",
         read_records_csv, "line 2: survival_stderr"),
        ("spectrum.csv", "freq_hz,psd_rad2_per_hz\n0.0,1.0\n5.0,nan\n",
         lambda p: read_spectrum_csv(p), "line 3: psd_rad2_per_hz"),
        ("raw.csv", "seq_index,trajectory,survival\n0,0,nan\n",
         lambda p: read_raw_survivals_csv(p, []), "line 2: survival"),
        ("raw.csv", "seq_index,trajectory,survival\n0,0,0.5\n0,1,1.5\n",
         lambda p: read_raw_survivals_csv(p, []), "line 3: survival"),
        ("model.json", '{"ar": [], "ma": [1.0], "drive_std": NaN, "sample_period_s": 1e-7}',
         read_model_json, "NaN"),
        ("model.json", '{"ar": [], "ma": [1.0], "drive_std": 1.0, "sample_period_s": 1e999}',
         read_model_json, "1e999"),
        ("model.json", '{"ar": [], "ma": [1.0], "drive_std": 1' + "0" * 400 + "}",
         read_model_json, "not finite"),
        ("seqs.json", '[{"label": 0, "n_slots": 4, "gate_period_s": Infinity, "pulses": []}]',
         read_sequences_json, "Infinity"),
        ("records.csv", RECORD_HEADER + "0,0,0.9,0.01,ten,1,7\n",
         read_records_csv, "line 2: shots: not int: 'ten'"),
    ],
    ids=["records-stderr-nan", "records-stderr-inf", "spectrum-nan", "raw-nan", "raw-above-1",
         "model-nan", "model-1e999", "model-huge-int", "sequences-infinity",
         "records-unparsable"],
)
def test_readers_reject_non_finite_and_out_of_range(tmp_path, name, text, read, match):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(SchemaError, match=match) as info:
        read(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize(
    "text, match",
    [("", "empty file"), ("{header}", "no data rows"), ("{header}\n\n", "no data rows")],
    ids=["empty-file", "header-only", "header-and-blank-lines"],
)
@pytest.mark.parametrize(
    "name, header, read",
    [("records.csv", RECORD_HEADER, read_records_csv),
     ("spectrum.csv", "freq_hz,psd_rad2_per_hz\n", lambda p: read_spectrum_csv(p)),
     ("raw.csv", "seq_index,trajectory,survival\n", lambda p: read_raw_survivals_csv(p, []))],
    ids=["records", "spectrum", "raw"],
)
def test_csv_readers_refuse_files_without_data_rows(tmp_path, name, header, read, text, match):
    # the row reader yields rows as it reads them, so "no data rows" comes after its last line
    path = tmp_path / name
    path.write_text(text.format(header=header))
    with pytest.raises(SchemaError, match=match) as info:
        read(path)
    assert str(path) in str(info.value)


def test_csv_codec_memory_per_row(tmp_path):
    # the writer holds one line at a time and the reader places each survival as it reads
    # its row, keeping no per-row data beyond the survival itself:
    # 40 records x 1,000 trajectories is 40,000 rows of records_raw.csv
    rng = np.random.default_rng(0)
    records = [ExperimentRecord(k, k, 0.9, 0.01, 10, 1000, 7, rng.random(1000))
               for k in range(40)]
    bare = [ExperimentRecord(*dataclasses.astuple(r)[:7]) for r in records]
    path, rows = tmp_path / "records_raw.csv", 40 * 1000
    tracemalloc.start()
    try:
        write_raw_survivals_csv(path, records)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        back = read_raw_survivals_csv(path, bare)
        read_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert all(_bits(b.trajectory_survivals) == _bits(r.trajectory_survivals)
               for r, b in zip(records, back))
    assert write_peak / rows < 20
    assert read_peak / rows < 40


# write -> read is bit-exact for every format, down to the smallest subnormal
FINITE = st.floats(allow_nan=False, allow_infinity=False)
NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
UNIT = st.floats(min_value=0.0, max_value=1.0)
INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
ROUND_TRIP = settings(
    derandomize=True, max_examples=40, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@st.composite
def records_strategy(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    return [
        ExperimentRecord(
            label=label,
            n_pulses=draw(INT64),
            survival_mean=draw(UNIT),
            survival_stderr=draw(NON_NEGATIVE),
            shots=draw(st.integers(min_value=1, max_value=2**62)),
            trajectories=len(raw),
            seed=draw(INT64),
            trajectory_survivals=np.array(raw),
        )
        for label in range(n)
        for raw in [draw(st.lists(UNIT, min_size=1, max_size=6))]
    ]


@ROUND_TRIP
@given(
    freqs=st.lists(FINITE, unique=True, min_size=1, max_size=20).map(sorted),  # empty: exit 2
    values=st.lists(NON_NEGATIVE, min_size=20, max_size=20),
)
@example(freqs=[0.0, 5e-324, 1e-310, 1.7976931348623157e308], values=[5e-324, 0.0, 1e-310, 1.0])
def test_spectrum_csv_roundtrip_bit_exact(tmp_path, freqs, values):
    spec = Spectrum(freqs=np.array(freqs), values=np.array(values[: len(freqs)]))
    path = tmp_path / "spec.csv"
    write_spectrum_csv(path, spec)
    back = read_spectrum_csv(path)
    assert _bits(back.freqs) == _bits(spec.freqs)
    assert _bits(back.values) == _bits(spec.values)


@ROUND_TRIP
@given(records=records_strategy())
@example(records=[ExperimentRecord(0, 0, 5e-324, 5e-324, 1, 2, 0, np.array([5e-324, 1e-310]))])
def test_records_and_raw_survivals_csv_roundtrip_bit_exact(tmp_path, records):
    records_path, raw_path = tmp_path / "records.csv", tmp_path / "raw.csv"
    write_records_csv(records_path, records)
    write_raw_survivals_csv(raw_path, records)
    back = read_raw_survivals_csv(raw_path, read_records_csv(records_path))
    assert back == records
    for r, b in zip(records, back):
        assert _bits([r.survival_mean, r.survival_stderr]) == _bits(
            [b.survival_mean, b.survival_stderr]
        )
        assert _bits(r.trajectory_survivals) == _bits(b.trajectory_survivals)


@pytest.mark.parametrize("trajectories", [10**20, -1])
def test_raw_survivals_count_check_reports_an_unallocatable_record(tmp_path, trajectories):
    # the reader sizes each record's array before the rows; a record no array can hold, or
    # one with a negative count, still fails its count check, with its message
    path = tmp_path / "raw.csv"
    path.write_text("seq_index,trajectory,survival\n0,0,0.9\n0,5,0.8\n")
    record = ExperimentRecord(0, 0, 0.9, 0.01, 10, trajectories, 7)
    with pytest.raises(SchemaError, match=f"has 2 rows, record expects {trajectories}$"):
        read_raw_survivals_csv(path, [record])


def test_raw_survivals_read_back_in_any_row_order(tmp_path):
    # each survival is placed by its trajectory column, not by its row's position in the file
    records = [ExperimentRecord(k, k, 0.9, 0.01, 10, 40, 7, np.random.default_rng(k).random(40))
               for k in range(8)]
    write_raw_survivals_csv(tmp_path / "raw.csv", records)
    header, *lines = (tmp_path / "raw.csv").read_text().splitlines()
    shuffled = [lines[i] for i in np.random.default_rng(0).permutation(len(lines))]
    (tmp_path / "shuffled.csv").write_text("\n".join([header] + shuffled) + "\n")
    bare = [ExperimentRecord(*dataclasses.astuple(r)[:7]) for r in records]
    back = read_raw_survivals_csv(tmp_path / "shuffled.csv", bare)
    for r, b in zip(records, back):
        assert _bits(b.trajectory_survivals) == _bits(r.trajectory_survivals)


@ROUND_TRIP
@given(
    ar=st.lists(FINITE, max_size=4),
    ma=st.lists(FINITE, min_size=1, max_size=4).filter(any),  # a driven model needs a nonzero tap
    drive_std=NON_NEGATIVE,
    sample_period=st.floats(min_value=5e-324, allow_infinity=False),
)
@example(ar=[-5e-324], ma=[5e-324, -0.0], drive_std=5e-324, sample_period=5e-324)
def test_model_json_roundtrip_bit_exact(tmp_path, ar, ma, drive_std, sample_period):
    model = ArmaModel(ar=tuple(ar), ma=tuple(ma), drive_std=drive_std, sample_period=sample_period)
    path = tmp_path / "model.json"
    write_model_json(path, model)
    back = read_model_json(path)
    assert back == model
    assert _bits(back.ar + back.ma + (back.drive_std, back.sample_period)) == _bits(
        model.ar + model.ma + (model.drive_std, model.sample_period)
    )


@st.composite
def sequences_strategy(draw):
    out = []
    for label in range(draw(st.integers(min_value=1, max_value=4))):  # empty: exit 2
        n_slots = draw(st.integers(min_value=1, max_value=40))
        slots = sorted(draw(st.sets(st.integers(min_value=1, max_value=n_slots), max_size=8)))
        signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=len(slots), max_size=len(slots)))
        period = draw(st.floats(min_value=5e-324, allow_infinity=False))
        out.append(PulseSequence(n_slots, tuple(slots), tuple(signs), period, label))
    return out


@ROUND_TRIP
@given(seqs=sequences_strategy())
@example(seqs=[PulseSequence(3, (1, 3), (1, -1), 5e-324, 7)])
def test_sequences_json_roundtrip_bit_exact(tmp_path, seqs):
    path = tmp_path / "seqs.json"
    write_sequences_json(path, seqs)
    back = read_sequences_json(path)
    assert back == seqs
    assert _bits([s.gate_period for s in back]) == _bits([s.gate_period for s in seqs])


# ---------------------------------------------------------------------------
# CLI pipelines
# ---------------------------------------------------------------------------


@pytest.fixture()
def pipeline(tmp_path):
    """Small end-to-end run: design, simulate, reconstruct, fit."""
    out = tmp_path / "run"
    design_cfg = write_json(
        tmp_path / "design.json",
        {
            "schema_version": 1,
            "kind": "bandpass",
            "center_hz": 1.0e6,
            "bandwidth_hz": 0.3e6,
            "power_rad2": 1e-3,
            "sample_period_s": T_G,
            "taps": 101,
            "grid_size": 1025,
            "name": "injected",
        },
    )
    assert main(["design", "--config", design_cfg, "--out-dir", str(out)]) == 0
    sim_cfg = write_json(
        tmp_path / "sim.json",
        {
            "schema_version": 1,
            "family": "fttps",
            "n_sequences": 24,
            "n_slots": 48,
            "gate_period_s": T_G,
            "model": str(out / "injected.json"),
            "mode": "gate",
            "trajectories": 40,
            "shots_per_trajectory": 100,
            "seed": 5,
            "keep_raw": True,
        },
    )
    assert main(["simulate", "--config", sim_cfg, "--out-dir", str(out)]) == 0
    return tmp_path, out, sim_cfg


def test_cli_design_outputs(pipeline):
    _, out, _ = pipeline
    model = read_model_json(out / "injected.json")
    assert model.ar == ()
    spec = read_spectrum_csv(out / "injected_psd.csv")
    assert spec.values.max() > 0


def test_cli_simulate_deterministic(pipeline, tmp_path):
    tmp, out, sim_cfg = pipeline
    first = (out / "records.csv").read_bytes()
    rerun = tmp / "rerun"
    assert main(["simulate", "--config", sim_cfg, "--out-dir", str(rerun)]) == 0
    assert (rerun / "records.csv").read_bytes() == first


def test_cli_reconstruct_and_fit(pipeline, tmp_path):
    tmp, out, _ = pipeline
    recon_cfg = write_json(
        tmp / "recon.json",
        {
            "schema_version": 1,
            "records": str(out / "records.csv"),
            "sequences": str(out / "sequences.json"),
            "grid_size": 1025,
            "bootstrap_resamples": 25,
            "raw_survivals": str(out / "records_raw.csv"),
        },
    )
    assert main(["reconstruct", "--config", recon_cfg, "--out-dir", str(out)]) == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "freq_hz,psd_rad2_per_hz,ci_lo,ci_hi"
    meta = json.loads((out / "reconstruction_meta.json").read_text())
    assert meta["bins"] == len(lines) - 1
    assert meta["stream_version"] == STREAM_VERSION == 2
    fit_cfg = write_json(
        tmp / "fit.json",
        {
            "schema_version": 1,
            "records": str(out / "records.csv"),
            "sequences": str(out / "sequences.json"),
            "injected_spectrum": str(out / "injected_psd.csv"),
            "grid_size": 1025,
            "model_kind": "white_only",
            "n_starts": 2,
        },
    )
    assert main(["fit", "--config", fit_cfg, "--out-dir", str(out)]) == 0
    report = json.loads((out / "fit_report.json").read_text())
    assert report["converged"] is True
    assert (out / "fit_residuals.csv").exists()
    report_cfg = write_json(
        tmp / "report.json",
        {
            "schema_version": 1,
            "records": str(out / "records.csv"),
            "reconstruction": str(out / "spectrum.csv"),
            "fit_report": str(out / "fit_report.json"),
        },
    )
    assert main(
        ["report", "--config", report_cfg, "--out-dir", str(out), "--emit-plot-data"]
    ) == 0
    assert (out / "plot_data.csv").read_text().startswith("series,x,y\n")


def test_cli_fit_residuals_parse(pipeline):
    tmp, out, _ = pipeline
    fit_cfg = write_json(
        tmp / "fit.json",
        {
            "schema_version": 1,
            "records": str(out / "records.csv"),
            "sequences": str(out / "sequences.json"),
            "model_kind": "white_only",
            "n_starts": 2,
        },
    )
    assert main(["fit", "--config", fit_cfg, "--out-dir", str(out)]) == 0
    lines = (out / "fit_residuals.csv").read_text().splitlines()
    assert lines[0] == "seq_index,residual"
    assert len(lines) == 25
    for line in lines[1:]:
        label, residual = line.split(",")
        int(label)
        float(residual)


def test_cli_fit_flags_unresolved_parameters(pipeline):
    # the records carry only injected noise, so once the injected spectrum is accounted
    # for, the native Lorentzian's cutoff has nothing to be fitted to
    tmp, out, _ = pipeline
    fit_cfg = write_json(
        tmp / "fit.json",
        {
            "schema_version": 1,
            "records": str(out / "records.csv"),
            "sequences": str(out / "sequences.json"),
            "injected_spectrum": str(out / "injected_psd.csv"),
            "grid_size": 1025,
            "model_kind": "lorentzian_plus_white",
            "n_starts": 2,
        },
    )
    assert main(["fit", "--config", fit_cfg, "--out-dir", str(out)]) == 0
    report = json.loads((out / "fit_report.json").read_text())
    assert report["converged"] is True
    assert "cutoff_sq" in report["unresolved"]
    report_cfg = write_json(
        tmp / "report.json",
        {"schema_version": 1, "records": str(out / "records.csv"),
         "fit_report": str(out / "fit_report.json")},
    )
    assert main(["report", "--config", report_cfg, "--out-dir", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["fit"] == report
    # white records: the white-only fit resolves its floor
    white = tmp / "white"
    white.mkdir()
    write_model_json(
        white / "model.json", ArmaModel(ar=(), ma=(0.05,), drive_std=1.0, sample_period=T_G)
    )
    sim = dict(json.loads((tmp / "sim.json").read_text()), model=str(white / "model.json"))
    assert main(["simulate", "--config", write_json(white / "sim.json", sim),
                 "--out-dir", str(white)]) == 0
    white_cfg = write_json(
        white / "fit.json",
        {"schema_version": 1, "records": str(white / "records.csv"),
         "sequences": str(white / "sequences.json"), "model_kind": "white_only", "n_starts": 2},
    )
    assert main(["fit", "--config", white_cfg, "--out-dir", str(white)]) == 0
    assert "white_floor" not in json.loads((white / "fit_report.json").read_text())["unresolved"]


def test_cli_fit_report_without_finite_stderr(tmp_path):
    # the README pipeline's records at seed 7: the Lorentzian amplitude lands at exactly 0,
    # so cutoff_sq has no finite stderr; fit_report.json holds null, which report reads back
    seqs = make_fttps(64, 128, T_G)
    model = design_bandpass(1.0e6, 0.2e6, 1e-3, T_G)
    records = run_experiment(seqs, model, mode=GateMode(200, 1000), seed=7)
    write_records_csv(tmp_path / "records.csv", records)
    write_sequences_json(tmp_path / "sequences.json", seqs)
    write_spectrum_csv(tmp_path / "psd.csv", psd(model))
    fit_cfg = {"schema_version": 1, "records": str(tmp_path / "records.csv"),
               "sequences": str(tmp_path / "sequences.json"),
               "injected_spectrum": str(tmp_path / "psd.csv")}
    out = tmp_path / "out"
    assert main(["fit", "--config", write_json(tmp_path / "fit.json", fit_cfg),
                 "--out-dir", str(out)]) == 0
    report = json.loads((out / "fit_report.json").read_text())
    assert report["params"]["amplitude"] == 0.0
    assert report["param_stderr"][1] is None
    assert "cutoff_sq" in report["unresolved"]
    assert report["saturated"] == []
    assert report["chi2_per_dof"] == pytest.approx(report["loss"] / (64 - 5))
    report_cfg = {"schema_version": 1, "records": str(tmp_path / "records.csv"),
                  "fit_report": str(out / "fit_report.json")}
    assert main(["report", "--config", write_json(tmp_path / "report.json", report_cfg),
                 "--out-dir", str(out)]) == 0


def test_cli_export_circuits(tmp_path):
    cfg = write_json(
        tmp_path / "export.json",
        {
            "schema_version": 1,
            "family": "rfttps",
            "n_sequences": 3,
            "n_slots": 16,
            "gate_period_s": T_G,
            "model": None,
            "trajectories": 2,
            "seed": 9,
        },
    )
    # model key must point at a real file
    assert main(["export-circuits", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    model_path = tmp_path / "m.json"
    write_model_json(model_path, ArmaModel(ar=(), ma=(0.1,), drive_std=1.0, sample_period=T_G))
    cfg = write_json(
        tmp_path / "export2.json",
        {
            "schema_version": 1,
            "family": "rfttps",
            "n_sequences": 3,
            "n_slots": 16,
            "gate_period_s": T_G,
            "model": str(model_path),
            "trajectories": 2,
            "seed": 9,
        },
    )
    out = tmp_path / "qasm"
    assert main(["export-circuits", "--config", cfg, "--out-dir", str(out)]) == 0
    files = sorted(p.name for p in out.glob("*.qasm"))
    assert len(files) == 6
    text = (out / "circuit_seq002_traj001.qasm").read_text()
    assert text.count("u1(") == 16


@pytest.mark.parametrize(
    "model",
    [
        ArmaModel(ar=(), ma=(0.05, -0.02, 0.01), drive_std=1.0, sample_period=T_G),
        ArmaModel(ar=(0.5, -0.2), ma=(0.05, 0.02), drive_std=1.0, sample_period=T_G),
    ],
    ids=["ma", "ar2"],
)
def test_cli_export_phases_are_simulator_phases(tmp_path, model):
    # every exported u1 angle is the injected phase the simulator draws for the
    # same (seed, sequence, trajectory), bit for bit: row r of the sequence's injected stream
    model_path = tmp_path / "m.json"
    write_model_json(model_path, model)
    cfg = write_json(tmp_path / "export.json", {
        "schema_version": 1, "family": "rfttps", "n_sequences": 3, "n_slots": 16,
        "gate_period_s": T_G, "model": str(model_path), "trajectories": 2, "seed": 5,
    })
    assert main(["export-circuits", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    root = SeedLineage(5)
    for seq in make_rfttps(3, 16, T_G):
        injected = root.child(seq.label, 0, STREAM_INJECTED).generator()
        for r, expected in enumerate(_model_phases(model, injected, 2, 16)):
            text = (tmp_path / f"circuit_seq{seq.label:03d}_traj{r:03d}.qasm").read_text()
            assert _bits(parse_circuit(text).slot_phases) == _bits(expected)


def test_cli_export_misaligned_model_exit_code(tmp_path):
    # a 70 ns model cannot be injected on 100 ns gates: simulate and export agree
    model_path = tmp_path / "m.json"
    write_model_json(model_path, ArmaModel(ar=(), ma=(0.1,), drive_std=1.0, sample_period=70e-9))
    common = {"schema_version": 1, "family": "fttps", "n_sequences": 2, "n_slots": 16,
              "gate_period_s": T_G, "model": str(model_path), "trajectories": 2}
    export = write_json(tmp_path / "export.json", common)
    simulate = write_json(tmp_path / "sim.json", dict(common, mode="gate", shots_per_trajectory=10))
    assert main(["simulate", "--config", simulate, "--out-dir", str(tmp_path / "sim")]) == 3
    assert main(["export-circuits", "--config", export, "--out-dir", str(tmp_path / "qasm")]) == 3
    assert not list((tmp_path / "qasm").glob("*.qasm"))


def test_cli_ingest(tmp_path):
    path = tmp_path / "hw.csv"
    path.write_text(
        "seq_index,n_pulses,survival_mean,survival_stderr,shots,trajectories,seed\n"
        "0,0,0.95,,500,1,3\n"
        "1,1,0.51,0.01,500,1,3\n"
    )
    cfg = write_json(tmp_path / "ingest.json", {"schema_version": 1, "records": str(path)})
    out = tmp_path / "out"
    assert main(["ingest", "--config", cfg, "--out-dir", str(out)]) == 0
    lines = (out / "records_normalized.csv").read_text().splitlines()
    assert lines[0].endswith(",saturated")
    assert lines[1].endswith(",0")
    assert lines[2].endswith(",1")  # p = 0.51 is below the 0.02 floor


def test_cli_ingest_bad_row_exit_code(tmp_path):
    path = tmp_path / "hw.csv"
    path.write_text(
        "seq_index,n_pulses,survival_mean,survival_stderr,shots,trajectories,seed\n"
        "0,0,1.7,0.01,500,1,3\n"
    )
    cfg = write_json(tmp_path / "ingest.json", {"schema_version": 1, "records": str(path)})
    assert main(["ingest", "--config", cfg, "--out-dir", str(tmp_path)]) == 2


def test_cli_design_zero_power(tmp_path):
    cfg = write_json(
        tmp_path / "zero_cfg.json",
        {
            "schema_version": 1,
            "kind": "bandpass",
            "center_hz": 1.0e6,
            "bandwidth_hz": 0.2e6,
            "power_rad2": 0.0,
            "sample_period_s": T_G,
            "grid_size": 65,
            "name": "zero",
        },
    )
    out = tmp_path / "out"
    assert main(["design", "--config", cfg, "--out-dir", str(out)]) == 0
    model = read_model_json(out / "zero.json")
    assert model.drive_std == 0.0
    spec = read_spectrum_csv(out / "zero_psd.csv")
    assert np.all(spec.values == 0.0)


def test_cli_config_errors(tmp_path):
    missing = write_json(tmp_path / "c1.json", {"schema_version": 1})
    assert main(["design", "--config", missing, "--out-dir", str(tmp_path)]) == 2
    bad_version = write_json(tmp_path / "c2.json", {"schema_version": 99, "kind": "bandpass"})
    assert main(["design", "--config", bad_version, "--out-dir", str(tmp_path)]) == 2
    bad_json = tmp_path / "c3.json"
    bad_json.write_text("{not json")
    assert main(["design", "--config", str(bad_json), "--out-dir", str(tmp_path)]) == 2
    assert main(["design", "--config", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)]) == 2


def test_cli_numerical_failure_exit_code(tmp_path):
    # band outside Nyquist -> designer rejection -> exit 3
    cfg = write_json(
        tmp_path / "bad_band.json",
        {
            "schema_version": 1,
            "kind": "bandpass",
            "center_hz": 6.0e6,
            "bandwidth_hz": 0.2e6,
            "power_rad2": 1e-3,
            "sample_period_s": T_G,
        },
    )
    assert main(["design", "--config", cfg, "--out-dir", str(tmp_path)]) == 3


def test_cli_power_law_anchor_above_nyquist_exit_code(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "power_law.json",
        {"schema_version": 1, "kind": "power_law", "alpha": 1.0, "anchor_freq_hz": 6e6,
         "anchor_psd": 1e-9, "band_lo_hz": 1e5, "band_hi_hz": 5e6, "sample_period_s": T_G},
    )
    assert main(["design", "--config", cfg, "--out-dir", str(tmp_path)]) == 3
    assert "anchor 6e+06 Hz must lie below Nyquist 5e+06 Hz" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("alpha", [1e300, -1e300])
def test_cli_non_finite_design_target_exit_code(tmp_path, capsys, alpha):
    # a power law that overflows on the design grid is refused before any tap is computed
    cfg = write_json(
        tmp_path / "power_law.json",
        {"schema_version": 1, "kind": "power_law", "alpha": alpha, "anchor_freq_hz": 1e6,
         "anchor_psd": 1e-9, "band_lo_hz": 1e5, "band_hi_hz": 4e6, "sample_period_s": T_G},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["design", "--config", cfg, "--out-dir", str(tmp_path)]) == 3
    assert "target PSD is not finite" in capsys.readouterr().err


def _bad_input_run(tmp_path, case):
    """(argv, faulty file, needs a line number) for one bad-input case."""
    model = tmp_path / "model.json"
    records = tmp_path / "records.csv"
    records.write_text(RECORD_HEADER + "0,0,0.9,0.01,100,1,7\n1,1,0.8,nan,100,1,7\n")
    seqs = tmp_path / "seqs.json"
    write_sequences_json(seqs, make_fttps(2, 16, T_G))
    simulate = {
        "schema_version": 1, "family": "fttps", "n_sequences": 2, "n_slots": 16,
        "gate_period_s": T_G, "model": str(model), "mode": "gate",
        "trajectories": 2, "shots_per_trajectory": 10,
    }
    if case == "config-not-object":
        return "design", [1], tmp_path / "cfg.json", False
    if case == "reconstruct-nan-stderr":
        cfg = {"schema_version": 1, "records": str(records), "sequences": str(seqs)}
        return "reconstruct", cfg, records, True
    if case.startswith(("reconstruct-records-", "reconstruct-native-", "reconstruct-repeated-",
                        "fit-")):
        return _mismatch_run(tmp_path, case, records, seqs)
    if case == "simulate-missing-model":
        return "simulate", simulate, model, False
    if case == "simulate-malformed-model":
        model.write_text('{"ar": [], "ma": [1.0],\n "drive_std": }')
        return "simulate", simulate, model, True
    if case == "reconstruct-empty-records":  # header-only records, empty sequence list
        records.write_text(RECORD_HEADER)
        seqs.write_text("[]\n")
        cfg = {"schema_version": 1, "records": str(records), "sequences": str(seqs)}
        return "reconstruct", cfg, records, False
    if case == "report-empty-records":
        records.write_text(RECORD_HEADER)
        return "report", {"schema_version": 1, "records": str(records)}, records, False
    records.write_text(RECORD_HEADER + "0,0,0.9,0.01,100,1,7\n")
    if case == "out-dir-is-a-file":
        (tmp_path / "out").write_text("")
        return "report", {"schema_version": 1, "records": str(records)}, tmp_path / "out", False
    if case.startswith("config-version-"):  # equal to 1 in Python, and once accepted
        version = True if case == "config-version-bool" else 1.0
        cfg = {"schema_version": version, "records": str(records)}
        return "report", cfg, tmp_path / "cfg.json", False
    if case.startswith(("records-", "injected-", "model-", "sequences-", "raw-")):
        return _invalid_file_run(tmp_path, case, records, seqs, model, simulate)
    if case == "reconstruct-empty-sequences":
        seqs.write_text("[]\n")
        cfg = {"schema_version": 1, "records": str(records), "sequences": str(seqs)}
        return "reconstruct", cfg, seqs, False
    if case == "report-empty-reconstruction":
        recon = tmp_path / "spectrum.csv"
        recon.write_text("freq_hz,psd_rad2_per_hz,ci_lo,ci_hi\n")
        cfg = {"schema_version": 1, "records": str(records), "reconstruction": str(recon)}
        return "report", cfg, recon, False
    fit_report = tmp_path / "fit_report.json"
    cfg = {"schema_version": 1, "records": str(records), "fit_report": str(fit_report)}
    return "report", cfg, fit_report, False


def _invalid_file_run(tmp_path, case, records, seqs, model, simulate):
    """An input file that its reader rejects: empty, or not a valid spectrum, model,
    sequence document or per-trajectory sidecar."""
    recon = {"schema_version": 1, "records": str(records), "sequences": str(seqs)}
    if case == "records-empty-file":
        records.write_text("")
        return "reconstruct", recon, records, False
    if case.startswith("injected-"):
        spectrum = tmp_path / "injected.csv"
        descending = case == "injected-descending-freqs"
        rows = "2.0,1e-9\n1.0,1e-9\n" if descending else "1.0,1e-9\n2.0,-1e-9\n"
        spectrum.write_text("freq_hz,psd_rad2_per_hz\n" + rows)
        return "fit", dict(recon, injected_spectrum=str(spectrum)), spectrum, False
    if case.startswith("model-"):
        doc = {"ar": [], "ma": [1.0], "drive_std": 0.1, "sample_period_s": T_G}
        if case == "model-missing-ma":
            del doc["ma"]
        else:
            doc.update({
                "model-non-numeric-drive-std": {"drive_std": "x"},
                "model-ar-string": {"ar": "05"},  # once read as ar = (0.0, 5.0)
                "model-ma-string-entry": {"ma": ["0.5"]},
                "model-drive-std-bool": {"drive_std": True},
            }[case])
        model.write_text(json.dumps(doc))
        return "simulate", simulate, model, False
    if case == "sequences-missing-n-slots":
        docs = json.loads(seqs.read_text())
        del docs[0]["n_slots"]
        seqs.write_text(json.dumps(docs))
        return "reconstruct", recon, seqs, False
    if case.startswith("sequences-"):  # once truncated or coerced, and ingest exited 0
        docs = json.loads(seqs.read_text())
        if case == "sequences-n-slots-fraction":
            docs[1]["n_slots"] = 16.5
        elif case == "sequences-slot-fraction":
            docs[1]["pulses"][0]["slot"] = 8.5
        else:
            docs[1]["label"] = True
        seqs.write_text(json.dumps(docs))
        return "ingest", recon, seqs, False
    raw = tmp_path / "records_raw.csv"  # the record expects one row, for sequence 0
    rows = {
        "raw-no-rows-for-sequence": "1,0,0.9\n",
        "raw-row-count-mismatch": "0,0,0.9\n0,1,0.8\n",
        "raw-no-matching-record": "0,0,0.9\n5,0,0.8\n",  # once dropped unread
        # the record below expects two rows; each file places one survival twice or nowhere
        "raw-repeated-trajectory": "0,0,0.9\n0,0,0.8\n",
        "raw-trajectory-out-of-range": "0,0,0.9\n0,2,0.8\n",
    }[case]
    if case in ("raw-repeated-trajectory", "raw-trajectory-out-of-range"):
        records.write_text(RECORD_HEADER + "0,0,0.9,0.01,100,2,7\n")
    raw.write_text("seq_index,trajectory,survival\n" + rows)
    has_line = case not in ("raw-no-rows-for-sequence", "raw-row-count-mismatch")
    return "reconstruct", dict(recon, bootstrap_resamples=10, raw_survivals=str(raw)), raw, has_line


def _mismatch_run(tmp_path, case, records, seqs):
    """Records or an injected spectrum that contradict the sequence documents or filters."""
    command, fault = case.split("-", 1)
    seq_list = make_fttps(8, 16, T_G)
    write_sequences_json(seqs, seq_list)
    good = [(s.label, s.n_pulses) for s in seq_list]
    bad = list(good)
    if fault.endswith("unknown-label"):
        bad[-1] = (99, 7)
    elif fault.endswith("wrong-n-pulses"):
        bad[1] = (1, 7)
    elif fault.endswith("duplicate-row"):
        bad.append(bad[1])

    def write_records(path, rows):
        path.write_text(RECORD_HEADER + "".join(
            f"{k},{n},{0.95 - 0.01 * i},0.01,100,1,7\n" for i, (k, n) in enumerate(rows)
        ))
        return path

    cfg = {"schema_version": 1, "records": str(records), "sequences": str(seqs)}
    if fault.startswith("native-"):
        write_records(records, good)
        faulty = write_records(tmp_path / "native.csv", bad)
        cfg["native_records"] = str(faulty)
    else:
        faulty = write_records(records, bad)
    if command == "fit":
        cfg["model_kind"] = "white_only"
    if fault == "grid-mismatch":
        faulty = tmp_path / "injected.csv"
        model = ArmaModel(ar=(), ma=(0.1,), drive_std=1.0, sample_period=T_G)
        write_spectrum_csv(faulty, psd(model, 513))  # the filters use the default 4097 points
        cfg["injected_spectrum"] = str(faulty)
    if fault == "repeated-label":  # a second label-5 document with shifted slots
        docs = json.loads(seqs.read_text())
        shifted = [dict(p, slot=p["slot"] - 1) for p in docs[5]["pulses"]]
        seqs.write_text(json.dumps(docs + [dict(docs[5], pulses=shifted)]))
        faulty = seqs
    return command, cfg, faulty, False


@pytest.mark.parametrize(
    "case",
    ["reconstruct-nan-stderr", "simulate-missing-model", "simulate-malformed-model",
     "report-missing-fit-report", "reconstruct-empty-records", "reconstruct-empty-sequences",
     "report-empty-records", "report-empty-reconstruction",
     # records that contradict sequences.json, and a fit spectrum on another grid
     "reconstruct-records-unknown-label", "reconstruct-records-wrong-n-pulses",
     "reconstruct-records-duplicate-row", "reconstruct-native-unknown-label",
     "reconstruct-native-wrong-n-pulses", "fit-unknown-label", "fit-wrong-n-pulses",
     "fit-duplicate-row", "fit-grid-mismatch", "reconstruct-repeated-label",
     "config-not-object", "config-version-bool", "config-version-float", "out-dir-is-a-file",
     # files their readers reject
     "records-empty-file", "injected-descending-freqs", "injected-negative-psd",
     "model-missing-ma", "model-non-numeric-drive-std", "sequences-missing-n-slots",
     "raw-no-rows-for-sequence", "raw-row-count-mismatch", "raw-no-matching-record",
     "raw-repeated-trajectory", "raw-trajectory-out-of-range",
     # documents whose numbers have the wrong JSON type
     "model-ar-string", "model-ma-string-entry", "model-drive-std-bool",
     "sequences-n-slots-fraction", "sequences-slot-fraction", "sequences-label-bool"],
)
def test_cli_bad_input_file_exit_code(tmp_path, capsys, case):
    command, cfg, faulty, has_line = _bad_input_run(tmp_path, case)
    cfg_path = write_json(tmp_path / "cfg.json", cfg)
    assert main([command, "--config", cfg_path, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert str(faulty) in err
    assert ("line " in err) == has_line


def test_cli_reconstruct_header_only_raw_survivals_exit_code(tmp_path, capsys):
    records, seqs, raw = tmp_path / "records.csv", tmp_path / "seqs.json", tmp_path / "raw.csv"
    records.write_text(RECORD_HEADER + "0,0,0.9,0.01,100,1,7\n")
    write_sequences_json(seqs, make_fttps(2, 16, T_G))
    raw.write_text("seq_index,trajectory,survival\n")
    cfg = write_json(tmp_path / "cfg.json", {
        "schema_version": 1, "records": str(records), "sequences": str(seqs),
        "bootstrap_resamples": 10, "raw_survivals": str(raw),
    })
    assert main(["reconstruct", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert f"{raw}: no data rows" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rows", ["2.0,1e-9,0.0,2e-9\n1.0,1e-9,0.0,2e-9\n", "1.0,1e-9,0.0,2e-9\n2.0,-1e-9,0.0,0.0\n"],
    ids=["descending-freqs", "negative-psd"],
)
def test_cli_report_refuses_an_invalid_reconstruction(tmp_path, capsys, rows):
    # report reads a reconstruction with the one spectrum reader, which checks it as fit does
    records, recon = tmp_path / "records.csv", tmp_path / "spectrum.csv"
    records.write_text(RECORD_HEADER + "0,0,0.9,0.01,100,1,7\n")
    recon.write_text("freq_hz,psd_rad2_per_hz,ci_lo,ci_hi\n" + rows)
    cfg = write_json(tmp_path / "cfg.json", {"schema_version": 1, "records": str(records),
                                             "reconstruction": str(recon)})
    assert main(["report", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert f"{recon}: invalid spectrum" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize(
    "command, flag_seed, config_seed",
    [("simulate", "-1", None), ("export-circuits", "-1", None), ("simulate", None, -3)],
    ids=["simulate-flag", "export-circuits-flag", "simulate-config"],
)
def test_cli_negative_seed_exit_code(tmp_path, capsys, command, flag_seed, config_seed):
    # numpy's SeedSequence rejects a negative seed; the CLI must say so as a config error
    model = tmp_path / "model.json"
    write_model_json(model, ArmaModel(ar=(), ma=(0.1,), drive_std=1.0, sample_period=T_G))
    cfg = {
        "schema_version": 1, "family": "fttps", "n_sequences": 2, "n_slots": 16,
        "gate_period_s": T_G, "model": str(model), "mode": "gate",
        "trajectories": 2, "shots_per_trajectory": 10,
    }
    if config_seed is not None:
        cfg["seed"] = config_seed
    argv = [command, "--config", write_json(tmp_path / "cfg.json", cfg),
            "--out-dir", str(tmp_path / "out")]
    if flag_seed is not None:
        argv += ["--seed", flag_seed]
    assert main(argv) == 2
    assert "seed: expected a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("reconstruct", "bootstrap_quantiles", [0.5]),
        ("reconstruct", "bootstrap_quantiles", ["a", 0.9]),
        ("reconstruct", "bootstrap_quantiles", [0.1, 1.5]),
        ("reconstruct", "bootstrap_quantiles", [0.9, 0.1]),
        ("reconstruct", "bootstrap_quantiles", [0.5, 0.5]),
        ("reconstruct", "bootstrap_resamples", -5),
        ("fit", "model_kind", "pink"),
        ("fit", "mask", ["a"]),
        ("fit", "mask", [1.5]),
        ("fit", "mask", [True]),
        ("fit", "mask", [99]),
        ("fit", "mask", [0, 1, 2]),
        ("reconstruct", "bins", 0),
        ("reconstruct", "saturation_floor", 0.7),
        ("reconstruct", "saturation_floor", 0.0),
        ("reconstruct", "ridge", -1.0),
        ("reconstruct", "grid_size", 1),
        ("fit", "grid_size", 1),
        ("fit", "grid_size", 2),
    ],
    ids=["one-quantile", "text-quantile", "above-one", "reversed", "equal", "negative-resamples",
         "unknown-kind", "text-mask", "float-mask", "bool-mask", "unknown-mask",
         "mask-leaves-too-few", "zero-bins", "floor-above-half", "zero-floor", "negative-ridge",
         "reconstruct-one-point-grid", "fit-one-point-grid", "fit-two-point-grid"],
)
def test_cli_bad_setting_exit_code(tmp_path, capsys, command, key, value):
    seqs = make_fttps(8, 32, T_G)
    records = run_experiment(
        seqs, design_bandpass(1.0e6, 0.3e6, 1e-3, T_G, taps=101),
        mode=GateMode(trajectories=10, shots_per_trajectory=50), seed=3, keep_raw=True,
    )
    write_records_csv(tmp_path / "records.csv", records)
    write_raw_survivals_csv(tmp_path / "raw.csv", records)
    write_sequences_json(tmp_path / "seqs.json", seqs)
    cfg = {"schema_version": 1, "records": str(tmp_path / "records.csv"),
           "sequences": str(tmp_path / "seqs.json")}
    if command == "reconstruct":
        cfg.update(bootstrap_resamples=5, raw_survivals=str(tmp_path / "raw.csv"))
    cfg[key] = value
    argv = [command, "--config", write_json(tmp_path / "cfg.json", cfg),
            "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    assert f"key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("simulate", "target_state", 2),
        ("export-circuits", "target_state", 2),
        ("simulate", "trajectories", 0),
        ("simulate", "shots_per_trajectory", 0),
        ("simulate", "shots", 0),
        ("simulate", "phase_update_period_s", 0.0),
        ("simulate", "phase_update_period_s", -1e-7),
        ("export-circuits", "trajectories", 0),
        ("simulate", "n_sequences", 0),
        ("simulate", "n_slots", 1),
        ("simulate", "gate_period_s", 0.0),
        ("simulate", "gate_period_s", -1e-7),
        ("simulate", "jitter_std_rad", -1.0),
        ("export-circuits", "n_sequences", 0),
        ("export-circuits", "n_slots", 1),
        ("export-circuits", "gate_period_s", 0.0),
        ("design", "sample_period_s", 0.0),
        ("design", "taps", 2),
        ("design", "taps", 4),
        ("design", "grid_size", 1),
        ("design", "bandwidth_hz", -1.0),
        ("design", "bandwidth_hz", 0.0),
        ("design", "power_rad2", -1.0),
        ("design", "name", ""),
        ("design", "name", "a/b"),
        ("design", "name", "../escaped"),
        ("design", "name", "a\\b"),
        ("export-circuits", "prefix", ""),
        ("export-circuits", "prefix", "../escaped"),
        ("export-circuits", "prefix", "a\\b"),
    ],
    ids=["simulate-target-state", "export-target-state", "zero-trajectories", "zero-shots-each",
         "zero-sdr-shots", "zero-update-period", "negative-update-period",
         "export-zero-trajectories", "zero-sequences", "slots-below-sequences",
         "zero-gate-period", "negative-gate-period", "negative-jitter", "export-zero-sequences",
         "export-slots-below-sequences", "export-zero-gate-period", "design-zero-sample-period",
         "design-two-taps", "design-even-taps", "design-one-point-grid",
         "design-negative-bandwidth", "design-zero-bandwidth", "design-negative-power",
         "design-empty-name", "design-name-in-subdir", "design-name-above-out-dir",
         "design-name-with-backslash", "export-empty-prefix", "export-prefix-above-out-dir",
         "export-prefix-with-backslash"],
)
def test_cli_bad_simulation_setting_exit_code(tmp_path, capsys, command, key, value):
    model = tmp_path / "model.json"
    write_model_json(model, ArmaModel(ar=(), ma=(0.1,), drive_std=1.0, sample_period=T_G))
    sdr = key in ("shots", "phase_update_period_s")
    cfg = {
        "schema_version": 1, "family": "fttps", "n_sequences": 2, "n_slots": 16,
        "gate_period_s": T_G, "model": str(model), "mode": "sdr" if sdr else "gate",
        "trajectories": 2, "shots_per_trajectory": 10, "shots": 10, "phase_update_period_s": T_G,
        # design's keys, for its rows
        "kind": "bandpass", "center_hz": 1.0e6, "bandwidth_hz": 0.2e6, "power_rad2": 1e-3,
        "sample_period_s": T_G,
        key: value,
    }
    argv = [command, "--config", write_json(tmp_path / "cfg.json", cfg),
            "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    assert f"key '{key}'" in capsys.readouterr().err
    assert not list(tmp_path.glob("out/*"))


@pytest.mark.parametrize(
    "command, base, key, value",
    [
        ("design", "lorentzian", "amplitude", -1.0),
        ("design", "lorentzian", "cutoff_rad_per_s", 0.0),
        ("design", "lorentzian", "white_floor", -1.0),
        ("design", "power_law", "anchor_freq_hz", 0.0),
        ("design", "power_law", "anchor_psd", -1.0),
        ("design", "multiband", "bands", []),
        ("design", "multiband", "bands", [1.0]),
        ("design", "multiband", "bands", ["x"]),
        ("design", "multiband", "width_hz", -1.0),
        ("design", "multiband", "power_rad2", -1.0),
        ("ingest", "records", "saturation_floor", 0.7),
        ("ingest", "records", "saturation_floor", 0.0),
    ],
    ids=["negative-amplitude", "zero-cutoff", "negative-white-floor", "zero-anchor-freq",
         "negative-anchor-psd", "no-bands", "number-band", "text-band", "negative-band-width",
         "negative-band-power", "ingest-floor-above-half", "ingest-zero-floor"],
)
def test_cli_bad_design_kind_or_ingest_setting_exit_code(tmp_path, capsys, command, base, key,
                                                         value):
    records = tmp_path / "records.csv"
    records.write_text(RECORD_HEADER + "0,0,0.9,0.01,100,1,7\n")
    bases = {
        "lorentzian": {"kind": "lorentzian", "amplitude": 1e-9, "cutoff_rad_per_s": 1e6,
                       "white_floor": 1e-12},
        "power_law": {"kind": "power_law", "alpha": 1.0, "anchor_freq_hz": 1e6,
                      "anchor_psd": 1e-9, "band_lo_hz": 1e5, "band_hi_hz": 4e6},
        "multiband": {"kind": "multiband",
                      "bands": [{"center_hz": 1e6, "width_hz": 0.2e6, "power_rad2": 1e-3}]},
        "records": {"records": str(records)},
    }
    cfg = {"schema_version": 1, "sample_period_s": T_G, **bases[base]}
    # a multiband row other than 'bands' itself sets a key of the band entry
    (cfg["bands"][0] if base == "multiband" and key != "bands" else cfg)[key] = value
    argv = [command, "--config", write_json(tmp_path / "cfg.json", cfg),
            "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    assert f"key '{key}'" in capsys.readouterr().err
    assert not list(tmp_path.glob("out/*"))


@pytest.mark.parametrize("command, key", [("design", "name"), ("export-circuits", "prefix")])
def test_cli_absolute_output_name_exit_code(tmp_path, capsys, command, key):
    # an absolute name would make the output path drop --out-dir
    model = tmp_path / "model.json"
    write_model_json(model, ArmaModel(ar=(), ma=(0.1,), drive_std=1.0, sample_period=T_G))
    cfg = {
        "schema_version": 1, "family": "fttps", "n_sequences": 2, "n_slots": 16,
        "gate_period_s": T_G, "model": str(model), "trajectories": 2,
        "kind": "bandpass", "center_hz": 1.0e6, "bandwidth_hz": 0.2e6, "power_rad2": 1e-3,
        "sample_period_s": T_G, key: str(tmp_path / "escaped"),
    }
    argv = [command, "--config", write_json(tmp_path / "cfg.json", cfg),
            "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    assert f"key '{key}'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["cfg.json", "model.json", "out"]


def test_cli_sdr_block_too_large_exit_code(tmp_path, capsys):
    # 10 shots of 16 one-second slots at 100 ns updates would be 1.6e9 normals (11.9 GiB)
    model = tmp_path / "model.json"
    write_model_json(model, ArmaModel(ar=(), ma=(0.1,), drive_std=1.0, sample_period=T_G))
    cfg = {
        "schema_version": 1, "family": "fttps", "n_sequences": 2, "n_slots": 16,
        "gate_period_s": 1.0, "model": str(model), "mode": "sdr", "shots": 10,
        "phase_update_period_s": T_G,
    }
    argv = ["simulate", "--config", write_json(tmp_path / "cfg.json", cfg),
            "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 3
    assert "phase_update_period" in capsys.readouterr().err
    assert not list(tmp_path.glob("out/*"))


@pytest.fixture(scope="module")
def fuzz_configs(tmp_path_factory):
    """Small README-style configs, one per command, each of which exits 0 as written.

    ``simulate`` and ``export-circuits`` run 2 sequences of 16 slots. The records the
    other commands read come from 8 such sequences, so ``fit`` has records to spare.
    """
    d = tmp_path_factory.mktemp("fuzz")
    model = str(d / "model.json")
    write_model_json(model, ArmaModel(ar=(), ma=(0.1,), drive_std=1.0, sample_period=T_G))
    seqs = make_fttps(8, 16, T_G)
    records = run_experiment(seqs, read_model_json(model), mode=GateMode(4, 20), seed=1,
                             keep_raw=True)
    write_records_csv(d / "records.csv", records)
    write_raw_survivals_csv(d / "raw.csv", records)
    write_sequences_json(d / "seqs.json", seqs)
    write_spectrum_csv(d / "injected.csv", psd(read_model_json(model)))
    run = {"records": str(d / "records.csv"), "sequences": str(d / "seqs.json")}
    injection = {
        "family": "fttps", "n_sequences": 2, "n_slots": 16, "gate_period_s": T_G,
        "model": model, "seed": 11, "target_state": 1, "trajectories": 2,
    }
    configs = {
        "design.bandpass": {"kind": "bandpass", "center_hz": 1.0e6, "bandwidth_hz": 0.2e6,
                            "power_rad2": 1e-3},
        "design.multiband": {"kind": "multiband", "bands": [
            {"center_hz": 1.0e6, "width_hz": 0.2e6, "power_rad2": 1e-3}]},
        "design.power_law": {"kind": "power_law", "alpha": 1.0, "anchor_freq_hz": 1e6,
                             "anchor_psd": 1e-9, "band_lo_hz": 1e5, "band_hi_hz": 4e6},
        "design.lorentzian": {"kind": "lorentzian", "amplitude": 1e-9, "cutoff_rad_per_s": 1e6,
                              "white_floor": 1e-12},
        "simulate.gate": dict(injection, mode="gate", shots_per_trajectory=10, keep_raw=True,
                              native_model=model, over_rotation_rad=0.01, jitter_std_rad=0.01),
        "simulate.sdr": dict(injection, mode="sdr", shots=10, phase_update_period_s=T_G,
                             random_time_offset=True),
        "reconstruct": dict(run, bootstrap_resamples=3, raw_survivals=str(d / "raw.csv"),
                            bootstrap_quantiles=[0.025, 0.975], native_records=run["records"],
                            grid_size=65, saturation_floor=0.02, ridge=0.0, bins=None, seed=2),
        "fit": dict(run, injected_spectrum=str(d / "injected.csv"), grid_size=4097, mask=[7],
                    model_kind="lorentzian_plus_white"),
        "export-circuits": dict(injection, prefix="c"),
        "ingest": dict(run, saturation_floor=0.02),
        "report": {"records": run["records"],  # runs last, on the two runs above
                   "reconstruction": str(d / "reconstruct" / "spectrum.csv"),
                   "fit_report": str(d / "fit" / "fit_report.json")},
    }
    for name, cfg in configs.items():
        if name.startswith("design"):
            cfg.update(sample_period_s=T_G, taps=31, grid_size=65, name="m")
        cfg["schema_version"] = 1
        argv = [name.split(".")[0], "--config", write_json(d / f"{name}.json", cfg),
                "--out-dir", str(d / name)]
        assert main(argv) == 0 and len(cfg) <= N_KEYS, name
    return d, configs


# JSON scalars a config key may hold: bounded integers (no example can ask for a huge
# allocation), finite floats out to +-1e300, bools, short strings, null and short lists
JSON_SCALARS = st.one_of(
    st.integers(min_value=-3, max_value=40),
    st.floats(min_value=-1e300, max_value=1e300),
    st.booleans(),
    st.sampled_from(["gate", "sdr", "fttps", "rfttps", "white_only", "bandpass"]),
    st.text(alphabet="ab.-_/", max_size=3),
    st.none(),
    st.lists(st.one_of(st.integers(min_value=-3, max_value=40),
                       st.floats(min_value=-2.0, max_value=2.0), st.booleans(), st.none(),
                       st.dictionaries(st.sampled_from(["center_hz", "width_hz"]),
                                       st.floats(min_value=-1e7, max_value=1e7), max_size=2)),
             max_size=3),
)
N_KEYS = 16  # the most keys a fuzzed config holds


def _each_edge_value_in_every_key(test):
    for value in (0, -1, 40, 0.0, -1.0, 0.5, 1e300, -1e300, True, "", None, [], [1.0]):
        test = example(values=[value] * N_KEYS)(test)
    return test


@pytest.mark.parametrize(
    "name",
    ["design.bandpass", "design.multiband", "design.power_law", "design.lorentzian",
     "simulate.gate", "simulate.sdr", "reconstruct", "fit", "export-circuits", "ingest",
     "report"],
)
@settings(derandomize=True, max_examples=5, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@_each_edge_value_in_every_key
@given(values=st.lists(JSON_SCALARS, min_size=N_KEYS, max_size=N_KEYS))
def test_cli_any_config_value_exits_0_2_or_3(fuzz_configs, name, values):
    # a JSON scalar in any one key of a working config is run, refused as a config
    # error (2) or refused as a numerical failure (3); an uncaught exception fails the test
    d, configs = fuzz_configs
    for key, value in zip(sorted(configs[name]), values):
        cfg = dict(configs[name], **{key: value})
        with tempfile.TemporaryDirectory(dir=d) as out:
            argv = [name.split(".")[0], "--config", write_json(Path(out) / "cfg.json", cfg),
                    "--out-dir", out]
            assert main(argv) in (0, 2, 3), (key, value)


def test_cli_full_pipeline_byte_reproducible(pipeline, tmp_path):
    # design -> simulate -> reconstruct -> fit twice with one master seed
    tmp, out, sim_cfg = pipeline
    recon_cfg = {
        "schema_version": 1,
        "records": str(out / "records.csv"),
        "sequences": str(out / "sequences.json"),
        "grid_size": 1025,
    }
    fit_cfg = {
        "schema_version": 1,
        "records": str(out / "records.csv"),
        "sequences": str(out / "sequences.json"),
        "injected_spectrum": str(out / "injected_psd.csv"),
        "grid_size": 1025,
        "model_kind": "white_only",
    }
    outputs = {}
    for tag in ("one", "two"):
        run_dir = tmp / f"repeat_{tag}"
        assert main(["simulate", "--config", sim_cfg, "--out-dir", str(run_dir)]) == 0
        rc = dict(recon_cfg, records=str(run_dir / "records.csv"),
                  sequences=str(run_dir / "sequences.json"))
        fc = dict(fit_cfg, records=str(run_dir / "records.csv"),
                  sequences=str(run_dir / "sequences.json"))
        assert main(["reconstruct", "--config", write_json(run_dir / "rc.json", rc),
                     "--out-dir", str(run_dir)]) == 0
        assert main(["fit", "--config", write_json(run_dir / "fc.json", fc),
                     "--out-dir", str(run_dir)]) == 0
        outputs[tag] = {
            name: (run_dir / name).read_bytes()
            for name in ("records.csv", "spectrum.csv", "fit_report.json", "fit_residuals.csv")
        }
    assert outputs["one"] == outputs["two"]


def test_cli_simulate_sdr_mode(tmp_path):
    model_path = tmp_path / "m.json"
    write_model_json(
        model_path, ArmaModel(ar=(), ma=(0.1,), drive_std=1.0, sample_period=T_G / 2)
    )
    cfg = write_json(
        tmp_path / "sdr.json",
        {
            "schema_version": 1,
            "family": "fttps",
            "n_sequences": 4,
            "n_slots": 32,
            "gate_period_s": T_G,
            "model": str(model_path),
            "mode": "sdr",
            "shots": 200,
            "phase_update_period_s": T_G / 2,
            "random_time_offset": True,
            "seed": 6,
        },
    )
    out = tmp_path / "sdr_out"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
    records = read_records_csv(out / "records.csv")
    assert all(r.shots == 1 and r.trajectories == 200 for r in records)


def test_cli_reconstruct_zero_noise(tmp_path):
    model_path = tmp_path / "silent.json"
    write_model_json(model_path, ArmaModel(ar=(), ma=(1.0,), drive_std=0.0, sample_period=T_G))
    sim_cfg = write_json(
        tmp_path / "sim.json",
        {
            "schema_version": 1,
            "family": "fttps",
            "n_sequences": 12,
            "n_slots": 32,
            "gate_period_s": T_G,
            "model": str(model_path),
            "mode": "gate",
            "trajectories": 4,
            "shots_per_trajectory": 20,
            "seed": 2,
        },
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", sim_cfg, "--out-dir", str(out)]) == 0
    recon_cfg = write_json(
        tmp_path / "recon.json",
        {
            "schema_version": 1,
            "records": str(out / "records.csv"),
            "sequences": str(out / "sequences.json"),
            "grid_size": 513,
        },
    )
    assert main(["reconstruct", "--config", recon_cfg, "--out-dir", str(out)]) == 0
    spec = read_spectrum_csv(out / "spectrum.csv")
    assert np.all(spec.values == 0.0)


def test_cli_reconstruct_delta_spectrum(tmp_path):
    # native-only run subtracted from an injected-plus-native run
    native = ArmaModel(ar=(), ma=(0.05,), drive_std=1.0, sample_period=T_G)
    injected = design_bandpass(1.0e6, 0.4e6, 2e-3, T_G, taps=101)
    seqs = make_fttps(24, 48, T_G)
    mode = GateMode(trajectories=80, shots_per_trajectory=200)
    rec_native = run_experiment(seqs, native, mode=mode, seed=41)
    rec_both = run_experiment(seqs, injected, native_model=native, mode=mode, seed=42)
    nat_path, both_path = tmp_path / "nat.csv", tmp_path / "both.csv"
    write_records_csv(nat_path, rec_native)
    write_records_csv(both_path, rec_both)
    seq_path = tmp_path / "seqs.json"
    write_sequences_json(seq_path, seqs)
    cfg = write_json(
        tmp_path / "recon.json",
        {
            "schema_version": 1,
            "records": str(both_path),
            "sequences": str(seq_path),
            "native_records": str(nat_path),
            "grid_size": 1025,
        },
    )
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", cfg, "--out-dir", str(out)]) == 0
    delta = read_spectrum_csv(out / "spectrum_delta.csv")
    peak = delta.freqs[np.argmax(delta.values)]
    assert abs(peak - 1.0e6) < 0.15e6


def test_cli_reconstruct_native_frees_filters_before_resampling(tmp_path, monkeypatch):
    # the native estimate rebuilds its filters, so with native_records no FilterFunction is
    # alive while a bootstrap resample is solved
    seqs = make_fttps(12, 48, T_G)
    model = design_bandpass(1.0e6, 0.4e6, 2e-3, T_G, taps=101)
    native = ArmaModel(ar=(), ma=(0.05,), drive_std=1.0, sample_period=T_G)
    mode = GateMode(trajectories=20, shots_per_trajectory=50)
    both = run_experiment(seqs, model, native_model=native, mode=mode, seed=42, keep_raw=True)
    write_records_csv(tmp_path / "both.csv", both)
    write_raw_survivals_csv(tmp_path / "raw.csv", both)
    write_records_csv(tmp_path / "nat.csv", run_experiment(seqs, native, mode=mode, seed=41))
    write_sequences_json(tmp_path / "seqs.json", seqs)
    cfg = write_json(tmp_path / "recon.json", {
        "schema_version": 1, "records": str(tmp_path / "both.csv"),
        "sequences": str(tmp_path / "seqs.json"), "native_records": str(tmp_path / "nat.csv"),
        "raw_survivals": str(tmp_path / "raw.csv"), "bootstrap_resamples": 3,
        "grid_size": 1025,
    })
    refs, alive = [], []
    build, inversion = sequences.filter_function, qns_recon._weighted_inversion

    def watched(*args):
        filt = build(*args)
        refs.append(weakref.ref(filt))
        return filt

    def counting(*args):
        alive.append(sum(ref() is not None for ref in refs))
        return inversion(*args)

    monkeypatch.setattr(sequences, "filter_function", watched)
    monkeypatch.setattr(qns_recon, "_weighted_inversion", counting)
    assert main(["reconstruct", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 0
    # the point estimate, three resamples and the native estimate
    assert len(alive) == 5 and alive[1:4] == [0, 0, 0]
    assert (tmp_path / "out" / "spectrum_delta.csv").exists()


def test_cli_seed_flag_overrides(tmp_path):
    model_path = tmp_path / "m.json"
    write_model_json(model_path, ArmaModel(ar=(), ma=(0.1,), drive_std=1.0, sample_period=T_G))
    cfg = write_json(
        tmp_path / "sim.json",
        {
            "schema_version": 1,
            "family": "fttps",
            "n_sequences": 2,
            "n_slots": 16,
            "gate_period_s": T_G,
            "model": str(model_path),
            "mode": "gate",
            "trajectories": 3,
            "shots_per_trajectory": 10,
            "seed": 1,
        },
    )
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out-dir", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--out-dir", str(b), "--seed", "2"]) == 0
    ra = read_records_csv(a / "records.csv")
    rb = read_records_csv(b / "records.csv")
    assert ra[0].seed == 1 and rb[0].seed == 2


def test_cli_import_leaves_out_scipy_signal():
    # scipy.signal costs ~0.75 s per process, and no command needs it: the package computes
    # an AR model's taps itself
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import dephasekit.cli, sys; assert 'scipy.signal' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_cli_import_leaves_out_scipy():
    # importing scipy costs 0.5 s or more per process; no command's solvers need it
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, dephasekit, dephasekit.cli\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, loaded"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_cli_reconstruct_and_fit_run_without_scipy(pipeline):
    # all seven commands run on numpy alone: the README's reconstruct, with bootstrap, its
    # Lorentzian fit, design, AR-model synthesis in simulate and export-circuits, ingest,
    # and report with plot data; each runs in a process where importing scipy fails
    tmp, out, _ = pipeline
    ar2 = str(tmp / "ar2.json")
    write_model_json(ar2, ArmaModel(ar=(0.5, -0.2), ma=(0.05, 0.02), drive_std=1.0,
                                    sample_period=T_G))
    run = {"schema_version": 1, "records": str(out / "records.csv"),
           "sequences": str(out / "sequences.json"), "grid_size": 1025}
    injection = {"schema_version": 1, "family": "fttps", "n_sequences": 2, "n_slots": 16,
                 "gate_period_s": T_G, "seed": 3, "trajectories": 4}
    configs = {
        "reconstruct": dict(run, bootstrap_resamples=20,
                            raw_survivals=str(out / "records_raw.csv")),
        "fit": dict(run, injected_spectrum=str(out / "injected_psd.csv"),
                    model_kind="lorentzian_plus_white"),
        "design": {"schema_version": 1, "kind": "bandpass", "center_hz": 1.0e6,
                   "bandwidth_hz": 0.3e6, "power_rad2": 1e-3, "sample_period_s": T_G,
                   "taps": 101, "grid_size": 1025, "name": "designed"},
        "simulate": dict(injection, model=str(out / "injected.json"), native_model=ar2,
                         mode="gate", shots_per_trajectory=10),
        "export-circuits": dict(injection, model=ar2),
        "ingest": {"schema_version": 1, "records": run["records"], "sequences": run["sequences"]},
        "report": {"schema_version": 1, "records": run["records"],  # reads the two above
                   "reconstruction": str(tmp / "no-scipy" / "spectrum.csv"),
                   "fit_report": str(tmp / "no-scipy" / "fit_report.json")},
    }
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.modules['scipy'] = None; from dephasekit.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    env = dict(os.environ, PYTHONPATH=str(src))
    for command, cfg in configs.items():
        argv = [command, "--config", write_json(tmp / f"{command}.json", cfg),
                "--out-dir", str(tmp / "no-scipy")] + ["--emit-plot-data"] * (command == "report")
        done = subprocess.run([sys.executable, "-c", code, *argv], env=env, timeout=300,
                              capture_output=True, text=True)
        assert done.returncode == 0, (command, done.stderr)
    assert (tmp / "no-scipy" / "spectrum.csv").exists()
    assert json.loads((tmp / "no-scipy" / "fit_report.json").read_text())["converged"] is True
    assert (tmp / "no-scipy" / "records_normalized.csv").exists()
    assert "fit" in json.loads((tmp / "no-scipy" / "report.json").read_text())
    assert (tmp / "no-scipy" / "plot_data.csv").exists()
