"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

The file name keeps it out of the repository's pytest collection; it needs
dephasekit's sources in the checkout, and runs in about two seconds.
"""

import contextlib
import dataclasses
import io
import itertools
import json
import sys
import unittest

import run
import tracing
import workloads

NAME = r"\A[A-Za-z0-9_.-]+\Z"


def hand_built_spans() -> list:
    return [
        ["iteration", 0.0, 10.0, -1, 0],
        ["qns_recon.bootstrap", 1.0, 6.0, 0, 0],
        ["qns_recon.reconstruct", 1.5, 2.5, 1, 0],
        ["qns_recon.nnls", 2.0, 2.25, 2, 0],
        ["qns_recon.nnls", 3.0, 4.0, 1, 0],
        ["qns_recon.nnls", 3.5, 4.5, 1, 0],  # overlaps its sibling
        ["serialize.write", 7.0, 11.0, 0, 100],  # ends after its parent
        ["serialize.write", 7.5, 8.0, 6, 40],  # nested writer: bytes count once
    ]


class SelfTime(unittest.TestCase):
    def test_self_time_is_duration_minus_child_coverage(self):
        selfs = tracing.self_times(hand_built_spans())
        # iteration: 10 - |[1,6] u [7,10]|; bootstrap: 5 - |[1.5,2.5] u [3,4.5]|
        self.assertEqual(selfs, [2.0, 2.5, 0.75, 0.25, 1.0, 1.0, 3.5, 0.5])

    def test_layer_values_sum_self_times_and_counts(self):
        spans = hand_built_spans()
        values = tracing.layer_values(spans, range(len(spans)), tracing.self_times(spans))
        self.assertEqual(values["qns_recon.nnls_calls"], 3)
        self.assertEqual(values["qns_recon.nnls_s"], 2.25)
        self.assertEqual(values["qns_recon.bootstrap_s"], 2.5)
        self.assertEqual(values["qns_recon.reconstruct_s"], 0.75)
        self.assertEqual(values["serialize.write_s"], 4.0)
        self.assertEqual(values["serialize.bytes_written"], 100)
        self.assertEqual(values["seeds.generators"], 0)

    def test_wrappers_catch_internal_calls_and_are_removed(self):
        from dephasekit import noise_models

        original = noise_models.psd
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            noise_models.design_power_law(2.0, (0.5e6, 1e-9), (0.1e6, 2.0e6), 100e-9, taps=31)
        self.assertIs(noise_models.psd, original)
        names = [(s[0], s[3]) for s in tracer.spans]
        self.assertEqual(names, [("noise_models.design", -1), ("noise_models.psd", 0)])


class MetricNames(unittest.TestCase):
    def test_benchmark_json_lists_what_run_emits(self):
        spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
        for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
            self.assertEqual(listed, list(table))

    def test_emitted_names_match_pattern_and_carry_units(self):
        tracer = tracing.Tracer()
        tracer.spans = hand_built_spans()
        fake = {"roots": [0], "walls": [1.0], "traced_walls": [1.1], "attempted": 2,
                "failures": []}
        layers, _ = run.per_layer(fake, tracer, None)
        e2e = run.end_to_end(workloads.make("gate-powerlaw", 0), fake, 1.0)
        for values, table in ((layers, run.PER_LAYER), (e2e, run.END_TO_END)):
            metrics = run.metrics_of(values, table)
            self.assertEqual(len(metrics), len(table))
            for name, metric in metrics.items():
                self.assertRegex(name, NAME)
                self.assertRegex(metric["unit"], r"\A[A-Za-z0-9_/%.-]{1,16}\Z")
                self.assertIsInstance(metric["value"], (int, float))


class OutputChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from dephasekit import qubit_sim

        cls.gate = workloads.make("gate-powerlaw", 3)
        cls.gate.setup()
        cls.clean = [
            qubit_sim.ExperimentRecord(
                label=s.label, n_pulses=s.n_pulses,
                survival_mean=qubit_sim.analytic_survival(s, cls.gate.model),
                survival_stderr=0.01, shots=100, trajectories=300, seed=3)
            for s in cls.gate.seqs
        ]

    def measure(self, run_once) -> dict:
        self.gate.run = run_once
        with contextlib.redirect_stderr(io.StringIO()):
            return run.measure(self.gate, 0.02, None)

    def fail_rate(self, records) -> float:
        result = self.measure(lambda tracer=None: records)
        return len(result["failures"]) / result["attempted"]

    def test_clean_records_pass(self):
        self.assertEqual(self.fail_rate(self.clean), 0.0)

    def test_perturbed_survival_mean_fails_every_iteration(self):
        # six standard errors: |z| = 6 > 5, while the probability stays below 1
        low = min(range(len(self.clean)), key=lambda i: self.clean[i].survival_mean)
        bad = list(self.clean)
        bad[low] = dataclasses.replace(bad[low], survival_mean=bad[low].survival_mean + 0.06)
        self.assertLess(bad[low].survival_mean, 1.0)
        self.assertEqual(self.fail_rate(bad), 1.0)

    def test_probability_outside_unit_interval_fails(self):
        bad = [dataclasses.replace(self.clean[-1], survival_mean=1.5)]
        self.assertEqual(self.fail_rate(self.clean[:-1] + bad), 1.0)

    def test_records_that_change_between_iterations_fail(self):
        changed = [dataclasses.replace(r, survival_stderr=0.011) for r in self.clean]
        stream = itertools.cycle([self.clean, changed])
        result = self.measure(lambda tracer=None: next(stream))
        failed = [f["iteration"] for f in result["failures"]]
        self.assertEqual(failed, list(range(1, result["attempted"], 2)))


if __name__ == "__main__":
    workloads.use_checkout_source()
    sys.exit(unittest.main())
