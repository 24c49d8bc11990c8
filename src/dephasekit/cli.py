"""Config-driven command-line front end.

Subcommands wire the library into full pipelines: ``design`` a noise model,
``simulate`` an injection experiment, ``reconstruct`` the spectrum from the
records, ``fit`` the survival model, ``export-circuits`` as OpenQASM text,
``ingest`` externally measured records, and ``report`` a run summary.

Configs are JSON documents carrying ``schema_version: 1``.  Exit codes: 0 success,
2 config or file error (any ``SchemaError`` or ``OSError``), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import circuits, noise_models, predictor, qns_recon, qubit_sim, serialize, sequences
from .seeds import STREAM_VERSION
from .serialize import SchemaError, field, number_list

SCHEMA_VERSION = 1


def _load_config(path: str) -> dict:
    doc = serialize.read_json(path)
    try:
        field(doc, "schema_version", int, choices=(SCHEMA_VERSION,))
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    return doc


def _seed(config: dict, args) -> int:
    seed = args.seed if args.seed is not None else field(config, "seed", int, 0)
    if seed < 0:
        raise SchemaError(f"seed: expected a non-negative integer, got {seed}")
    return seed


# -- design -------------------------------------------------------------------

def cmd_design(config: dict, args, out: Path) -> None:
    kind = field(config, "kind", str, choices=("bandpass", "multiband", "power_law", "lorentzian"))
    t_s = field(config, "sample_period_s", float, above=0)
    taps = field(config, "taps", int, noise_models.DEFAULT_TAPS, at_least=3)
    if taps % 2 == 0:
        raise SchemaError(f"key 'taps': expected an odd number, got {taps}")
    grid_size = field(config, "grid_size", int, noise_models.DEFAULT_GRID_SIZE, at_least=2)
    if kind == "bandpass":
        model = noise_models.design_bandpass(
            field(config, "center_hz", float),
            field(config, "bandwidth_hz", float, above=0),
            field(config, "power_rad2", float, at_least=0),
            t_s,
            taps=taps,
        )
    elif kind == "multiband":
        bands = field(config, "bands", list)
        if not bands or not all(isinstance(band, dict) for band in bands):
            raise SchemaError(f"key 'bands': expected a non-empty list of objects, got {bands!r}")
        bands = [
            (
                field(band, "center_hz", float),
                field(band, "width_hz", float, above=0),
                field(band, "power_rad2", float, at_least=0),
            )
            for band in bands
        ]
        model = noise_models.design_multiband(bands, t_s, taps=taps)
    elif kind == "power_law":
        model = noise_models.design_power_law(
            field(config, "alpha", float),
            (
                field(config, "anchor_freq_hz", float, above=0),
                field(config, "anchor_psd", float, at_least=0),
            ),
            (field(config, "band_lo_hz", float), field(config, "band_hi_hz", float)),
            t_s,
            taps=taps,
        )
    else:
        model = noise_models.design_lorentzian(
            field(config, "amplitude", float, at_least=0),
            field(config, "cutoff_rad_per_s", float, above=0),
            field(config, "white_floor", float, at_least=0),
            t_s,
            taps=taps,
        )
    name = field(config, "name", str, "model")
    if not name or "/" in name or "\\" in name:
        raise SchemaError(f"key 'name': expected a non-empty name with no / or \\, got {name!r}")
    serialize.write_model_json(out / f"{name}.json", model)
    serialize.write_spectrum_csv(out / f"{name}_psd.csv", noise_models.psd(model, grid_size))
    print(f"wrote {out / (name + '.json')} and {out / (name + '_psd.csv')}")


# -- simulate -------------------------------------------------------------------

def _sequences_from_config(config: dict) -> "list[sequences.PulseSequence]":
    family = field(config, "family", str, choices=("fttps", "rfttps"))
    maker = sequences.make_fttps if family == "fttps" else sequences.make_rfttps
    n_sequences = field(config, "n_sequences", int, above=0)
    return maker(
        n_sequences,
        field(config, "n_slots", int, at_least=n_sequences),
        field(config, "gate_period_s", float, above=0),
    )


def _mode_from_config(config: dict):
    if field(config, "mode", str, choices=("gate", "sdr")) == "gate":
        return qubit_sim.GateMode(
            trajectories=field(config, "trajectories", int, above=0),
            shots_per_trajectory=field(config, "shots_per_trajectory", int, above=0),
        )
    return qubit_sim.SdrMode(
        shots=field(config, "shots", int, above=0),
        phase_update_period=field(config, "phase_update_period_s", float, above=0),
        random_time_offset=field(config, "random_time_offset", bool, True),
    )


def cmd_simulate(config: dict, args, out: Path) -> None:
    seqs = _sequences_from_config(config)
    model = serialize.read_model_json(field(config, "model", str))
    native_path = field(config, "native_model", str, None)
    native = serialize.read_model_json(native_path) if native_path else None
    perr = qubit_sim.PulseErrorModel(
        over_rotation=field(config, "over_rotation_rad", float, 0.0),
        jitter_std=field(config, "jitter_std_rad", float, 0.0, at_least=0),
    )
    keep_raw = field(config, "keep_raw", bool, False)
    records = qubit_sim.run_experiment(
        seqs,
        model,
        native_model=native,
        pulse_errors=perr,
        mode=_mode_from_config(config),
        seed=_seed(config, args),
        target_state=field(config, "target_state", int, 1, choices=(0, 1)),
        keep_raw=keep_raw,
    )
    serialize.write_records_csv(out / "records.csv", records)
    serialize.write_sequences_json(out / "sequences.json", seqs)
    if keep_raw:
        serialize.write_raw_survivals_csv(out / "records_raw.csv", records)
    print(f"wrote {out / 'records.csv'} ({len(records)} sequences)")


# -- reconstruct ------------------------------------------------------------------

def _records_and_sequences(config: dict):
    """The records and the sequence documents a config names, checked against each other."""
    path = field(config, "records", str)
    records = serialize.read_records_csv(path)
    seqs = serialize.read_sequences_json(field(config, "sequences", str))
    serialize.check_records_match_sequences(path, records, seqs)
    return records, seqs


def _bootstrap_quantiles(config: dict) -> "tuple[float, float]":
    quantiles = number_list(config, "bootstrap_quantiles", [0.025, 0.975])
    if len(quantiles) != 2 or not 0.0 <= quantiles[0] < quantiles[1] <= 1.0:
        raise SchemaError(
            f"key 'bootstrap_quantiles': expected two numbers 0 <= lo < hi <= 1, "
            f"got {quantiles!r}"
        )
    return quantiles[0], quantiles[1]


def _saturation_floor(config: dict) -> float:
    return field(config, "saturation_floor", float, qns_recon.DEFAULT_SATURATION_FLOOR,
                 above=0, below=0.5)


def cmd_reconstruct(config: dict, args, out: Path) -> None:
    records, seqs = _records_and_sequences(config)
    native_path = field(config, "native_records", str, None)
    if native_path:
        native_records = serialize.read_records_csv(native_path)
        serialize.check_records_match_sequences(native_path, native_records, seqs)
    grid_size = field(config, "grid_size", int, noise_models.DEFAULT_GRID_SIZE, at_least=2)
    # a generator leaves the inversion the only holder of the filters, which it frees once
    # they are binned
    filters = (sequences.filter_function(s, grid_size) for s in seqs)
    floor = _saturation_floor(config)
    ridge = field(config, "ridge", float, 0.0, at_least=0)
    bins = field(config, "bins", int, None, at_least=1)
    resamples = field(config, "bootstrap_resamples", int, 0, at_least=0)
    band = None
    if resamples > 0:
        quantiles = _bootstrap_quantiles(config)
        raw_path = field(config, "raw_survivals", str, None)
        if raw_path is None:
            raise SchemaError(
                "key 'raw_survivals': bootstrap needs the per-trajectory file "
                "written by simulate with keep_raw=true"
            )
        records = serialize.read_raw_survivals_csv(raw_path, records)
        band = qns_recon.bootstrap_spectrum(
            records, filters, resamples=resamples, quantiles=quantiles,
            seed=_seed(config, args), ridge=ridge, saturation_floor=floor, bins=bins,
        )
        estimate = band.point
    else:
        estimate = qns_recon.reconstruct_spectrum(
            records, filters, bins=bins, ridge=ridge, saturation_floor=floor
        )
    delta_path = None
    if native_path:
        native_estimate = qns_recon.reconstruct_spectrum(
            native_records, (sequences.filter_function(s, grid_size) for s in seqs),
            ridge=ridge, saturation_floor=floor, bins_like=estimate,
        )
        subtraction = qns_recon.subtract_native(estimate, native_estimate)
        delta_path = out / "spectrum_delta.csv"
        serialize.write_spectrum_estimate_csv(delta_path, subtraction.spectrum)
    serialize.write_spectrum_estimate_csv(out / "spectrum.csv", estimate, band)
    meta = {
        "schema_version": SCHEMA_VERSION,
        "ridge": ridge,
        "saturation_floor": floor,
        "excluded_sequences": [r.label for r in records if r.label not in estimate.labels],
        "bins": len(estimate.values),
        "seed": records[0].seed,
        "stream_version": STREAM_VERSION,
        "integrated_power_rad2": estimate.integrated_power(),
    }
    if delta_path is not None:
        meta["delta_spectrum"] = str(delta_path)
    serialize.write_json(out / "reconstruction_meta.json", meta)
    print(f"wrote {out / 'spectrum.csv'} ({len(estimate.values)} bins)")


# -- fit -----------------------------------------------------------------------

def cmd_fit(config: dict, args, out: Path) -> None:
    records, seqs = _records_and_sequences(config)
    grid_size = field(config, "grid_size", int, noise_models.DEFAULT_GRID_SIZE, at_least=3)
    filters = [sequences.filter_function(s, grid_size) for s in seqs]
    injected_path = field(config, "injected_spectrum", str, None)
    injected = None
    if injected_path:
        injected = serialize.read_spectrum_csv(injected_path)
        if not np.array_equal(injected.freqs, filters[0].freqs):
            raise SchemaError(
                f"{injected_path}: spectrum grid of {injected.freqs.size} points does not "
                f"match the filters' grid of {filters[0].freqs.size} points (grid_size)"
            )
    kind = field(config, "model_kind", str, predictor.LORENTZIAN_PLUS_WHITE,
                 choices=tuple(predictor._PARAM_NAMES))
    mask = field(config, "mask", list, [])
    labels = {r.label for r in records}
    for k in mask:
        if isinstance(k, bool) or not isinstance(k, int) or k not in labels:
            raise SchemaError(f"key 'mask': entry {k!r} is not the seq_index of a record")
    n_free, n_fit = len(predictor._PARAM_NAMES[kind]), len(labels - set(mask))
    if n_fit <= n_free:
        raise SchemaError(f"key 'mask': leaves {n_fit} records, {kind} needs at least {n_free + 1}")
    result = predictor.fit(records, filters, injected=injected, kind=kind, mask=mask)
    report = {
        "schema_version": SCHEMA_VERSION,
        "model_kind": result.params.kind,
        "params": {
            "amplitude": result.params.amplitude,
            "cutoff_rad_per_s": result.params.cutoff,
            "white_floor": result.params.white_floor,
            "c1": result.params.c1,
            "c2": result.params.c2,
        },
        "param_stderr": [float(e) if math.isfinite(e) else None for e in result.param_stderr],
        "bounds_active": list(result.bounds_active),
        "unresolved": list(result.unresolved),
        "loss": result.loss,
        "chi2_per_dof": result.chi2_per_dof,
        "saturated": list(result.saturated),
        "converged": result.converged,
        "message": result.message,
        "mask": sorted(result.params.mask),
        "jacobian_rel_err": result.jacobian_rel_err,
    }
    serialize.write_json(out / "fit_report.json", report)
    serialize.write_csv(
        out / "fit_residuals.csv", ("seq_index", "residual"), zip(result.labels, result.residuals)
    )
    print(f"wrote {out / 'fit_report.json'} (loss {result.loss:.3e})")


# -- export-circuits ---------------------------------------------------------------

def cmd_export_circuits(config: dict, args, out: Path) -> None:
    seqs = _sequences_from_config(config)
    model = serialize.read_model_json(field(config, "model", str))
    n_traj = field(config, "trajectories", int, above=0)
    target = field(config, "target_state", int, 1, choices=(0, 1))
    prefix = field(config, "prefix", str, "circuit")
    if not prefix or "/" in prefix or "\\" in prefix:
        raise SchemaError(f"key 'prefix': expected a non-empty name with no / or \\, got {prefix!r}")
    seed = _seed(config, args)
    count = 0
    for seq in seqs:
        for r, phases in enumerate(qubit_sim._injected_gate_phases(seq, model, n_traj, seed)):
            text = circuits.emit_circuit(seq, phases, target_state=target)
            circuits.verify_roundtrip(text, seq, phases)
            path = out / f"{prefix}_seq{seq.label:03d}_traj{r:03d}.qasm"
            path.write_text(text)
            count += 1
    serialize.write_sequences_json(out / "sequences.json", seqs)
    print(f"wrote {count} circuits to {out}")


# -- ingest -----------------------------------------------------------------------

def cmd_ingest(config: dict, args, out: Path) -> None:
    records_path = field(config, "records", str)
    records = serialize.read_records_csv(records_path)
    seq_path = field(config, "sequences", str, None)
    if seq_path:
        seqs = serialize.read_sequences_json(seq_path)
        serialize.check_records_match_sequences(records_path, records, seqs)
    floor = _saturation_floor(config)
    flags = [int(qns_recon.decay_from_survival(r.survival_mean, floor).saturated) for r in records]
    rows = [serialize.record_row(r) + (flag,) for r, flag in zip(records, flags)]
    header = serialize.RECORD_FIELDS + ("saturated",)
    serialize.write_csv(out / "records_normalized.csv", header, rows)
    print(f"wrote {out / 'records_normalized.csv'} ({len(records)} rows)")


# -- report -----------------------------------------------------------------------

def cmd_report(config: dict, args, out: Path) -> None:
    records = serialize.read_records_csv(field(config, "records", str))
    summary = {
        "schema_version": SCHEMA_VERSION,
        "n_sequences": len(records),
        "total_shots": sum(r.total_shots for r in records),
        "survival_min": min(r.survival_mean for r in records),
        "survival_max": max(r.survival_mean for r in records),
    }
    recon_path = field(config, "reconstruction", str, None)
    plot_rows = [("survival", r.n_pulses, float(r.survival_mean)) for r in records]
    if recon_path:
        recon = serialize.read_spectrum_csv(recon_path)
        summary["reconstruction_bins"] = int(recon.freqs.size)
        summary["reconstruction_peak_hz"] = float(recon.freqs[np.argmax(recon.values)])
        plot_rows += [("spectrum", f, v) for f, v in zip(recon.freqs, recon.values)]
    fit_path = field(config, "fit_report", str, None)
    if fit_path:
        summary["fit"] = serialize.read_json(fit_path)
    serialize.write_json(out / "report.json", summary)
    if args.emit_plot_data:
        serialize.write_csv(out / "plot_data.csv", ("series", "x", "y"), plot_rows)
    print(f"wrote {out / 'report.json'}")


_COMMANDS = {
    "design": cmd_design,
    "simulate": cmd_simulate,
    "reconstruct": cmd_reconstruct,
    "fit": cmd_fit,
    "export-circuits": cmd_export_circuits,
    "ingest": cmd_ingest,
    "report": cmd_report,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dephasekit",
        description="Correlated dephasing-noise synthesis, injection and spectroscopy",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out-dir", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name == "report":
            p.add_argument(
                "--emit-plot-data",
                action="store_true",
                help="write tidy long-format CSV for external plotting",
            )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](config, args, out)
    except (SchemaError, OSError) as exc:  # an OSError names its file itself
        print(f"{'file' if isinstance(exc, OSError) else 'config'} error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
