"""Tests of the benchmark itself. Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench
"""
from __future__ import annotations

import functools
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import tracing
import workloads
from workloads import WORKLOADS, Gate, Op, check

ROOT = Path(__file__).resolve().parents[1]
COUNT_SUFFIXES = (".calls", ".builds", ".blocks", ".minflt", ".path_amplitude_calls", ".lattice_terms", ".evolve_calls")


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(100, 0, -1)]
    assert run.percentile(values, 50) == 50.0
    assert run.percentile(values, 90) == 90.0
    assert run.percentile(values[:10], 90) == 99.0  # 9th of 91..100
    assert run.percentile([7.0], 90) == 7.0


def test_beyond_counts_strictly_greater_samples():
    values = [float(v) for v in range(1, 101)]
    assert run.beyond(values, run.percentile(values, 90)) == 10
    assert run.beyond([1.0, 2.0, 2.0, 3.0], 2.0) == 1


def test_local_slowdowns_use_the_probes_nearest_each_op():
    ref = run.REFERENCE_PROBE_S
    probes = [(0, ref), (10, 2 * ref), (20, ref)]  # (ops done before the probe, seconds)
    slowdowns = run.local_slowdowns(probes, 25, nearest=1)
    assert slowdowns[:5] == [1.0] * 5 and slowdowns[5:15] == [2.0] * 10 and slowdowns[15:] == [1.0] * 10
    assert run.local_slowdowns(probes, 3) == [1.0, 1.0, 1.0]  # median of all three


def _span(layer, parent, start, end, flt_start=0, flt_end=0):
    return [layer, f"{layer}.f", parent, start, end, flt_start, flt_end, 0]


def test_self_time_subtracts_child_spans():
    spans = [
        _span("cli", -1, 0.0, 10.0, 0, 100),
        _span("verify", 0, 1.0, 9.0, 10, 90),
        _span("paths", 1, 2.0, 5.0, 20, 50),
        _span("threeparticle", 1, 5.0, 8.0, 50, 80),
        _span("threeparticle", 3, 6.0, 7.0, 60, 70),  # nested call in the same layer
    ]
    times = tracing.self_totals(spans, tracing.START, tracing.END)
    assert times == {"cli": 2.0, "verify": 2.0, "paths": 3.0, "threeparticle": 3.0}
    faults = tracing.self_totals(spans, tracing.FLT_START, tracing.FLT_END)
    assert faults == {"cli": 20, "verify": 20, "paths": 30, "threeparticle": 30}
    assert sum(times.values()) == spans[0][tracing.END] - spans[0][tracing.START]


MARGINAL_OP = Op(("marginal",), "abc", {"0": 0.25, "1": 0.75})
VERIFY_OP = Op(("verify",), "abc")


def _marginal_stdout(p0: float) -> str:
    return json.dumps({"circuit": "abc", "probabilities": {"0": p0, "1": 1.0 - p0}})


def test_gate_rejects_perturbed_marginal():
    assert check(MARGINAL_OP, 0, _marginal_stdout(0.25 + 1e-12)) is None
    assert "off the oracle" in check(MARGINAL_OP, 0, _marginal_stdout(0.25 + 1e-8))


def test_gate_rejects_failing_verify_report():
    passing = json.dumps({"circuit": "abc", "pass": True})
    assert check(VERIFY_OP, 0, passing) is None
    assert check(VERIFY_OP, 0, json.dumps({"circuit": "abc", "pass": False})) is not None
    assert check(VERIFY_OP, 0, json.dumps({"circuit": "abd", "pass": True})) is not None
    assert check(VERIFY_OP, 3, "") == "exit code 3"


def test_gate_rejects_changed_bytes_of_a_repeated_op():
    gate = Gate()
    assert gate.admit(VERIFY_OP, 0, json.dumps({"circuit": "abc", "pass": True}))
    assert not gate.admit(VERIFY_OP, 0, json.dumps({"pass": True, "circuit": "abc"}))
    assert len(gate.failures) == 1


def test_between_runs_outside_the_timed_ops_at_most_once_per_interval(monkeypatch):
    def fake_call(argv):
        time.sleep(0.01)
        return 0, json.dumps({"circuit": "abc", "pass": True}), 0.001

    monkeypatch.setattr(workloads, "call", fake_call)
    stamps = []
    loop = workloads.run_cycles(
        [VERIFY_OP] * 5, Gate(), 0.3, between=lambda _: stamps.append(time.perf_counter()), every=0.1
    )
    assert loop.failed == 0 and loop.attempted == 5 * loop.cycles
    assert loop.latencies == [0.001] * loop.attempted  # the hook's time is not in any op
    assert 3 <= len(stamps) <= 5
    assert all(b - a >= 0.1 for a, b in zip(stamps, stamps[1:]))


@functools.lru_cache(maxsize=None)
def _traced_counts(workload: str, run_index: int) -> dict[str, float]:
    """Count metrics of one fresh traced run of `workload` at seed 11."""
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "11", "--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        check=True,
        capture_output=True,
        text=True,
    )
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["correct"] and report["failed"] == 0
    return {
        name: metric["value"]
        for name, metric in report["metrics"].items()
        if name.endswith(COUNT_SUFFIXES)
    }


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_exactly_across_traced_runs(workload):
    first = _traced_counts(workload, 0)
    expected = {f"{layer}.{kind}" for layer in tracing.LAYERS for kind in ("calls", "minflt")}
    expected |= set(tracing.BUILDERS.values())
    expected |= {"paths.path_amplitude_calls", "paths.lattice_terms", "oracle.evolve_calls"}
    assert set(first) == expected
    assert first == _traced_counts(workload, 1)


def test_counts_show_each_workload_isolates_its_layer():
    corpus = _traced_counts("verify-corpus", 0)
    assert round(corpus["threeparticle.builds"] * 51) == 45
    assert round(corpus["twoparticle.builds"] * 51) == 192
    lambda_n3 = _traced_counts("lambda-n3", 0)
    assert lambda_n3["threeparticle.builds"] == 1
    assert lambda_n3["paths.calls"] == lambda_n3["subsystems.blocks"] == lambda_n3["twoparticle.calls"] == 0
    verify_n4 = _traced_counts("verify-n4", 0)
    assert verify_n4["threeparticle.calls"] == verify_n4["twoparticle.calls"] == 0
    assert verify_n4["subsystems.blocks"] == 12 and verify_n4["paths.lattice_terms"] == 16 * 16**4


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reach_repeats_exactly(workload, tmp_path):
    probe = WORKLOADS[workload]
    assert probe.reach(11, tmp_path) == probe.reach(11, tmp_path) > 0
