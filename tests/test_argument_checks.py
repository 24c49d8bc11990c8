"""Library argument checks: each bad argument fails with its own ValueError message; and
every array an artifact holds refuses writes."""

import os

import numpy as np
import pytest

from dephasekit.circuits import emit_circuit, parse_circuit
from dephasekit.noise_models import (
    ArmaModel,
    Spectrum,
    autocovariance,
    design_bandpass,
    design_lorentzian,
    design_multiband,
    design_power_law,
    generate_trajectory,
    psd,
)
from dephasekit.predictor import WHITE_ONLY, _ModelMatrix
from dephasekit.qns_recon import bootstrap_spectrum, reconstruct_spectrum, subtract_native
from dephasekit.qubit_sim import ExperimentRecord, GateMode, run_experiment, run_shot
from dephasekit.sequences import FilterFunction, PulseSequence, filter_function, make_fttps
from dephasekit.serialize import read_spectrum_csv, write_raw_survivals_csv, write_spectrum_csv

T_G = 100e-9
MODEL = ArmaModel(ar=(), ma=(0.1,), drive_std=1.0, sample_period=T_G)
SLOW = ArmaModel(ar=(), ma=(0.1,), drive_std=1.0, sample_period=2 * T_G)


def _seqs():
    return make_fttps(4, 16, T_G)


def _filters():
    return [filter_function(s, grid_size=33) for s in _seqs()]


def _records(mean=0.9):
    return [ExperimentRecord(s.label, s.n_pulses, mean, 0.01, 100, 1, 0) for s in _seqs()]


def _one_peak():
    """Two filters that peak at the same frequency, and a record for each."""
    freqs = np.linspace(0.0, 5e6, 33)
    filters = [FilterFunction(freqs, np.ones(33), peak_freq=1e6, label=k) for k in (0, 1)]
    return _records()[:2], filters


CASES = {
    "spectrum-shape": (lambda: Spectrum(np.zeros(3), np.zeros(2)),
                       "1-d arrays of equal length"),
    "spectrum-descending": (lambda: Spectrum([2.0, 1.0], [0.0, 0.0]),
                            "freqs must be strictly ascending"),
    "spectrum-negative": (lambda: Spectrum([1.0, 2.0], [0.0, -1.0]),
                          "PSD values must be non-negative"),
    "arma-non-finite": (lambda: ArmaModel(ar=(), ma=(np.inf,), drive_std=1.0, sample_period=T_G),
                        "ARMA coefficients must be finite"),
    "autocovariance-lag": (lambda: autocovariance(MODEL, -1), "max_lag must be >= 0"),
    "bandpass-taps": (lambda: design_bandpass(1e6, 0.2e6, 1e-3, T_G, taps=1),
                      "taps must be >= 3"),
    "multiband-empty": (lambda: design_multiband([], T_G), "at least one band is required"),
    "multiband-width": (lambda: design_multiband([(1e6, 0.0, 1e-3)], T_G),
                        "band width must be > 0"),
    "multiband-power": (lambda: design_multiband([(1e6, 0.2e6, -1.0)], T_G),
                        "band power must be >= 0"),
    "power-law-anchor": (lambda: design_power_law(1.0, (0.0, 1e-9), (1e5, 4e6), T_G),
                         "anchor must have positive frequency"),
    # no PSD passes through these anchors: the target is 0 at the taper's end, and the
    # design grid stops at Nyquist
    "power-law-anchor-taper-end": (lambda: design_power_law(1.0, (5e6, 1e-9), (1e5, 4e6), T_G),
                                   r"anchor 5e\+06 Hz must lie below Nyquist 5e\+06 Hz"),
    "power-law-anchor-tapered": (lambda: design_power_law(1.0, (1e7, 1e-9), (1e5, 4e6), T_G),
                                 r"anchor 1e\+07 Hz must lie below Nyquist 5e\+06 Hz"),
    "power-law-anchor-nyquist": (lambda: design_power_law(1.0, (6e6, 1e-9), (1e5, 5e6), T_G),
                                 r"anchor 6e\+06 Hz must lie below Nyquist 5e\+06 Hz"),
    "lorentzian-amplitude": (lambda: design_lorentzian(-1.0, 1e6, 0.0, T_G),
                             "amplitude and white_floor must be >= 0"),
    "lorentzian-cutoff": (lambda: design_lorentzian(1e-9, 0.0, 0.0, T_G),
                          "cutoff must be > 0"),
    "fttps-count": (lambda: make_fttps(0, 16, T_G), "n_sequences must be >= 1"),
    "sequence-slots": (lambda: PulseSequence(0, (), (), T_G), "n_slots must be >= 1"),
    "sequence-period": (lambda: PulseSequence(16, (), (), 0.0), "gate_period must be > 0"),
    "filter-shape": (lambda: FilterFunction(np.zeros(3), np.zeros(2), 0.0),
                     "1-d arrays of equal length"),
    "experiment-empty": (lambda: run_experiment([], MODEL), "at least one sequence is required"),
    "experiment-periods": (
        lambda: run_experiment([PulseSequence(16, (), (), T_G), PulseSequence(16, (), (), 2 * T_G)],
                               MODEL),
        "all sequences must share one gate period",
    ),
    "experiment-mode": (lambda: run_experiment(_seqs(), MODEL, mode="gate"), "unsupported mode"),
    "experiment-held-normals": (
        lambda: run_experiment(_seqs(), ArmaModel(ar=(0.9999,), ma=(1.0,), drive_std=1.0,
                                                  sample_period=T_G), mode=GateMode(300, 1)),
        "a model with 344064 taps holds 103223700 normals in one stream of 300 rows, above 16777216",
    ),
    "taps-memory-cap": (
        lambda: ArmaModel(ar=(0.99999,), ma=(1.0,), drive_std=1.0, sample_period=T_G).taps(),
        r"past the 500000-tap cap: largest AR root modulus 0\.99999",
    ),
    "shot-native-short": (
        lambda: run_shot(_seqs()[0], generate_trajectory(MODEL, 16, 0),
                         native=generate_trajectory(MODEL, 4, 1)),
        "native trajectory has 4 steps, sequence needs 16",
    ),
    "shot-trajectory-period": (
        lambda: run_shot(_seqs()[0], generate_trajectory(SLOW, 16, 0)),
        "^trajectory sample_period 2e-07 must equal the gate period 1e-07",
    ),
    "shot-native-period": (
        lambda: run_shot(_seqs()[0], generate_trajectory(MODEL, 16, 0),
                         native=generate_trajectory(SLOW, 16, 1)),
        "native trajectory sample_period 2e-07 must equal the gate period 1e-07",
    ),
    "reconstruct-bins": (lambda: reconstruct_spectrum(_records(), _filters(), bins=0),
                         "bins must be >= 1"),
    "reconstruct-ridge": (lambda: reconstruct_spectrum(_records(), _filters(), ridge=-1.0),
                          "ridge must be >= 0"),
    "reconstruct-saturated": (lambda: reconstruct_spectrum(_records(mean=0.5), _filters()),
                              "all records are saturated"),
    "reconstruct-one-peak": (lambda: reconstruct_spectrum(*_one_peak()),
                             "filter peak frequencies must be distinct"),
    "bootstrap-resamples": (lambda: bootstrap_spectrum(_records(), _filters(), resamples=0),
                            "resamples must be >= 1"),
    "model-matrix-grid": (lambda: _ModelMatrix(_records(), _filters(), psd(MODEL, 65), WHITE_ONLY),
                          "injected spectrum grid does not match the filters"),
    "raw-survivals-missing": (lambda: write_raw_survivals_csv(os.devnull, _records()),
                              "has no per-trajectory data"),
}


@pytest.mark.parametrize("case", CASES)
def test_argument_check(case):
    call, message = CASES[case]
    with pytest.raises(ValueError, match=message):
        call()


def _spectrum_read_back(tmp_path):
    write_spectrum_csv(tmp_path / "psd.csv", psd(MODEL, 33))
    return read_spectrum_csv(tmp_path / "psd.csv")


def _raw_records():
    return run_experiment(_seqs(), MODEL, mode=GateMode(4, 10), keep_raw=True)


def _circuit():
    seq = _seqs()[1]
    return parse_circuit(emit_circuit(seq, np.linspace(-0.1, 0.1, seq.n_slots)))


ESTIMATE = ("freqs", "values", "bin_edges", "stderr")
READ_ONLY = {
    "psd": (lambda tmp_path: psd(MODEL, 33), ("freqs", "values")),
    "read-spectrum-csv": (_spectrum_read_back, ("freqs", "values")),
    "trajectory": (lambda tmp_path: generate_trajectory(MODEL, 16, 0), ("phases",)),
    "reconstruction": (lambda tmp_path: reconstruct_spectrum(_records(), _filters()), ESTIMATE),
    "bootstrap-median": (
        lambda tmp_path: bootstrap_spectrum(_raw_records(), _filters(), resamples=2).median,
        ESTIMATE,
    ),
    "subtraction": (
        lambda tmp_path: subtract_native(*[reconstruct_spectrum(_records(m), _filters())
                                           for m in (0.9, 0.95)]).spectrum,
        ESTIMATE,
    ),
    "filter-function": (lambda tmp_path: _filters()[1], ("freqs", "weights")),
    "parsed-circuit": (lambda tmp_path: _circuit(), ("slot_phases",)),
}


@pytest.mark.parametrize("case", READ_ONLY)
def test_artifact_arrays_are_read_only(tmp_path, case):
    make, names = READ_ONLY[case]
    artifact = make(tmp_path)
    for name in names:
        values = getattr(artifact, name)
        assert not values.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            values[...] = 0.0
