"""The three workloads: inputs made from the seed, one timed iteration, output checks.

Each workload is a closed loop with one client: one process, and at most one
CLI child at a time.  `run(tracer)` is the timed part; `check(output)` runs
outside the timer and returns the records digest and a list of problems
(empty when the output is correct).  See README.md for why each was chosen.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

T_G = 100e-9
N_SEQUENCES = 64
N_SLOTS = 128
Z_LIMIT = 5.0  # acceptance criterion 4


def use_checkout_source() -> None:
    """Import dephasekit from this checkout's `src/`, and only from there."""
    if not (SRC / "dephasekit" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no dephasekit sources at {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _records_digest(records) -> str:
    from dephasekit import serialize

    return hashlib.sha256(serialize.records_to_csv_text(records).encode()).hexdigest()


class _InProcess:
    """Shared shape of the two workloads that call `run_experiment` in-process."""

    rss_source = "self"

    def __init__(self, seed: int):
        self.seed = seed

    def setup_probe(self) -> list:
        code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import workloads; "
                f"workloads.make({self.name!r}, {self.seed}).setup()")
        return [sys.executable, "-c", code]

    def run(self, tracer=None):
        from dephasekit import qubit_sim

        with tracing.installed(tracer) if tracer else contextlib.nullcontext():
            return qubit_sim.run_experiment(self.seqs, seed=self.seed, **self.kwargs)

    def check(self, records) -> tuple:
        problems = []
        if len(records) != N_SEQUENCES:
            problems.append(f"{len(records)} records, expected {N_SEQUENCES}")
        for rec in records:
            if not (0.0 <= rec.survival_mean <= 1.0):
                problems.append(f"sequence {rec.label}: survival {rec.survival_mean!r}")
            if not (math.isfinite(rec.survival_stderr) and rec.survival_stderr > 0):
                problems.append(f"sequence {rec.label}: stderr {rec.survival_stderr!r}")
        return _records_digest(records), problems

    def cleanup(self) -> None:
        pass


class GatePowerLaw(_InProcess):
    name = "gate-powerlaw"

    def setup(self) -> None:
        use_checkout_source()
        from dephasekit import noise_models, qubit_sim, sequences

        self.seqs = sequences.make_fttps(N_SEQUENCES, N_SLOTS, T_G)

        def design(power):
            return noise_models.design_power_law(2.0, (0.5e6, power * 1e-9), (0.1e6, 2.0e6), T_G)

        # calibrated as in the acceptance fixture: the largest decay is chi = 2
        base = noise_models.autocovariance(design(1.0), N_SLOTS - 1)
        chi_max = max(sequences.chi_time_domain(s, base) for s in self.seqs)
        self.model = design(2.0 / chi_max)
        self.kwargs = {"model": self.model, "mode": qubit_sim.GateMode(300, 100)}
        self._expected = None

    def check(self, records) -> tuple:
        from dephasekit import qubit_sim

        digest, problems = super().check(records)
        if self._expected is None:
            self._expected = [qubit_sim.analytic_survival(s, self.model) for s in self.seqs]
        for rec, expected in zip(records, self._expected):
            z = abs(rec.survival_mean - expected) / rec.survival_stderr
            if not z < Z_LIMIT:
                problems.append(f"sequence {rec.label}: |z| = {z:.3g} against analytic survival")
        return digest, problems


class SdrAsync(_InProcess):
    name = "sdr-async"

    def setup(self) -> None:
        use_checkout_source()
        from dephasekit import noise_models, qubit_sim, sequences

        self.seqs = sequences.make_rfttps(N_SEQUENCES, N_SLOTS, T_G)
        update = 70e-9
        self.kwargs = {
            "model": noise_models.design_bandpass(2.0e6, 0.5e6, 1e-3, update, taps=101),
            "native_model": noise_models.design_lorentzian(
                2e-9, 2 * math.pi * 0.4e6, 1e-10, T_G, taps=101),
            "pulse_errors": qubit_sim.PulseErrorModel(over_rotation=0.02, jitter_std=0.02),
            "mode": qubit_sim.SdrMode(600, update, random_time_offset=True),
        }


class CliPipeline:
    """README pipeline plus export-circuits, one `python -m dephasekit.cli` per command."""

    name = "cli-pipeline"
    rss_source = "children"
    configs = HERE / "cli_configs"
    n_circuits = (16, 10)  # sequences x trajectories in export.json
    band_hz = (0.9e6, 1.1e6)  # design.json: 1 MHz centre, 0.2 MHz width
    stages = ("design", "simulate", "reconstruct", "fit", "report", "export")

    def __init__(self, seed: int):
        self.seed = seed
        self.work = OUT / f"cli-{os.getpid()}"
        seed_arg = ["--seed", str(seed)]
        c = self.configs
        self.commands = list(zip(self.stages, [
            ["design", "--config", str(c / "design.json"), "--out-dir", "run"],
            ["simulate", "--config", str(c / "simulate.json"), "--out-dir", "run", *seed_arg],
            ["reconstruct", "--config", str(c / "reconstruct.json"), "--out-dir", "run",
             *seed_arg],
            ["fit", "--config", str(c / "fit.json"), "--out-dir", "run", *seed_arg],
            ["report", "--config", str(c / "report.json"), "--out-dir", "run",
             "--emit-plot-data"],
            ["export-circuits", "--config", str(c / "export.json"), "--out-dir", "run/qasm",
             *seed_arg],
        ]))
        self._expected = None

    def setup_probe(self) -> list:
        return [sys.executable, "-c", "import dephasekit.cli"]

    def setup(self) -> None:
        use_checkout_source()
        self.env = child_env()

    def run(self, tracer=None) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        codes = {}
        for stage, args in self.commands:
            if tracer:
                spans_file = self.work / f"{stage}.spans.json"
                argv = [sys.executable, str(HERE / "cli_launch.py"), str(spans_file), *args]
                index = tracer.open(f"cli.{stage}")
            else:
                argv = [sys.executable, "-m", "dephasekit.cli", *args]
            code = subprocess.run(argv, cwd=self.work, env=self.env,
                                  stdout=subprocess.DEVNULL).returncode
            codes[stage] = code
            if tracer:
                tracer.close(index)
                if code == 0:
                    tracer.adopt(json.loads(spans_file.read_text()), index)
            if code != 0:
                break
        return codes

    def check(self, codes: dict) -> tuple:
        problems = [f"{stage} exited {code}" for stage, code in codes.items() if code]
        if len(codes) != len(self.commands):
            problems.append("pipeline stopped early")
        run = self.work / "run"
        records = run / "records.csv"
        digest = hashlib.sha256(records.read_bytes()).hexdigest() if records.is_file() else ""
        if not problems:
            problems += self._check_circuits(run / "qasm") + self._check_peak(run / "spectrum.csv")
        return digest, problems

    def _check_circuits(self, qasm_dir: Path) -> list:
        from dephasekit import circuits, sequences

        if self._expected is None:
            self._expected = {s.label: s for s in sequences.make_rfttps(
                self.n_circuits[0], N_SLOTS, T_G)}
        files = sorted(qasm_dir.glob("circuit_seq*_traj*.qasm"))
        want = self.n_circuits[0] * self.n_circuits[1]
        problems = [] if len(files) == want else [f"{len(files)} QASM files, expected {want}"]
        for path in files:
            seq = self._expected[int(path.name.split("_seq")[1][:3])]
            parsed = circuits.parse_circuit(path.read_text())
            if (parsed.n_phase_gates, parsed.n_x_type, parsed.pulse_slots, parsed.pulse_signs) \
                    != (seq.n_slots, seq.n_pulses, seq.pulse_slots, seq.pulse_signs):
                problems.append(f"{path.name}: gate counts or pulse placement differ")
        return problems

    def _check_peak(self, spectrum: Path) -> list:
        with open(spectrum, newline="") as fh:
            rows = [(float(r["psd_rad2_per_hz"]), float(r["freq_hz"])) for r in csv.DictReader(fh)]
        peak_hz = max(rows)[1]
        lo, hi = self.band_hz
        return [] if lo <= peak_hz <= hi else [f"spectrum peak at {peak_hz:.6g} Hz, outside band"]

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (GatePowerLaw, SdrAsync, CliPipeline)}


def make(name: str, seed: int):
    return WORKLOADS[name](seed)
