"""Verification suite: report structure, pass behavior, failure signaling."""
from __future__ import annotations

import functools
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from sumpaths import paths, subsystems, threeparticle, twoparticle, verify
from sumpaths.circuits import build_epr_circuit, load_circuit, make_circuit, save_circuit
from sumpaths.cli import main
from sumpaths.corpus import random_circuit
from sumpaths.verify import verify_circuit

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def count_calls(monkeypatch, fn) -> list:
    """Wrap every sumpaths binding of `fn`; the returned list grows by one per call."""
    calls = []

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "sumpaths" or name.startswith("sumpaths."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_epr_report_is_complete_and_tight():
    report = verify_circuit(build_epr_circuit(np.eye(2), np.eye(2)))
    names = [check.name for check in report.checks]
    for expected in (
        "norm_preservation",
        "pathsum_completeness",
        "oracle_equivalence",
        "telescoping",
        "zero_hit_layers",
        "two_form_equivalence",
        "hermitian_pairing",
        "lambda_bound",
        "density_reconstruction",
        "density_pathsum",
        "no_signaling",
    ):
        assert expected in names
    assert report.passed
    assert all(check.max_error < 1e-10 for check in report.checks)


def test_three_particle_report_has_closure_check():
    circuit = random_circuit(np.random.default_rng(5), 3, 3)
    report = verify_circuit(circuit)
    names = [check.name for check in report.checks]
    assert "three_closure" in names and "general_subsystem" in names
    assert report.passed


def test_four_particle_report_passes():
    circuit = random_circuit(np.random.default_rng(7), 4, 3)
    report = verify_circuit(circuit)
    assert report.passed
    assert "general_subsystem" in [check.name for check in report.checks]


def test_impossible_tolerance_fails_and_exits_one(tmp_path):
    path = tmp_path / "c.json"
    save_circuit(random_circuit(np.random.default_rng(11), 2, 4), str(path))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify", "--circuit", str(path), "--tol", "1e-18"])
    assert code == 1
    assert json.loads(out.getvalue())["pass"] is False
    assert err.getvalue().startswith("error: checks failed: ") and err.getvalue().count("\n") == 1


def test_report_json_shape():
    report = verify_circuit(build_epr_circuit(np.eye(2), np.eye(2)))
    raw = report.to_json()
    assert raw["schema"] == 1
    assert set(raw) == {"schema", "circuit", "checks", "pass"}
    assert all(set(c) == {"name", "max_error", "tolerance", "pass"} for c in raw["checks"])
    timed = report.to_json(with_timings=True)
    assert all("timing_ms" in c for c in timed["checks"])


@pytest.mark.parametrize(
    "file, builder, builds",
    [
        # base and extended circuit: one table build each
        ("n2_l8_s0.json", twoparticle.lambda_tables, 2),
        ("n3_l3_s0.json", threeparticle.lambda3_tables, 2),
        # one conditioned prefix tree each: (0,) base, (0, 1) general_subsystem, (0,) extended
        ("n4_l3_s0.json", paths.conditioned_prefix_states, 3),
    ],
)
def test_verify_builds_each_route_once(monkeypatch, file, builder, builds):
    calls = count_calls(monkeypatch, builder)
    assert verify_circuit(load_circuit(str(CORPUS / file))).passed
    assert len(calls) == builds


def test_marginal_builds_one_tree_for_every_outcome(monkeypatch):
    calls = count_calls(monkeypatch, paths.conditioned_prefix_states)
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["marginal", "--circuit", str(CORPUS / "n4_l3_s0.json"), "--subsystem", "0,1"])
    assert code == 0 and len(json.loads(out.getvalue())["probabilities"]) == 4
    assert len(calls) == 1


def test_timings_charge_shared_builds_and_sum_to_wall_time(monkeypatch):
    # every clock read advances 1 s; each table build advances 1000 s
    clock = [0.0]
    reads = []

    def fake_clock():
        reads.append(clock[0])
        clock[0] += 1.0
        return reads[-1]

    build = twoparticle.lambda_tables

    def slow_build(*args, **kwargs):
        clock[0] += 1000.0
        return build(*args, **kwargs)

    monkeypatch.setattr(verify, "perf_counter", fake_clock)
    monkeypatch.setattr(verify, "lambda_tables", slow_build)
    monkeypatch.setattr(subsystems, "lambda_tables", slow_build)
    report = verify_circuit(load_circuit(str(CORPUS / "n2_l8_s0.json")))
    timings = {check.name: check.timing_ms for check in report.checks}
    assert len(reads) == len(report.checks) + 1
    assert sum(timings.values()) == (reads[-1] - reads[0]) * 1000.0
    # the base build is charged to the first check that reads it, the extended one to no_signaling
    slow = {name for name, ms in timings.items() if ms > 1000.0 * 1000.0}
    assert slow == {"oracle_equivalence", "no_signaling"}
    assert all(ms == 1000.0 for name, ms in timings.items() if name not in slow)


def test_zero_hit_layers_compares_streamed_tables_at_nine_layers(monkeypatch):
    # layer 5 of an otherwise all-gates n = 9 circuit has no 0-1 gate; its
    # streamed table, nudged off the repeat of layer 4's, must fail the check
    base = random_circuit(np.random.default_rng(61), 2, 9, p_single=1.0, p_phase=1.0)
    specs = [
        (dict(enumerate(layer.singles)), [] if t == 5 else list(layer.phases))
        for t, layer in enumerate(base.layers, start=1)
    ]
    circuit = make_circuit(2, specs)
    assert verify_circuit(circuit).passed
    build = twoparticle.lambda_tables

    def nudged(*args, **kwargs):
        for t, lam in enumerate(build(*args, **kwargs)):
            if t == 5:
                lam = lam.copy()
                lam[0, 1] += 1e-13
            yield lam

    monkeypatch.setattr(verify, "lambda_tables", nudged)
    checks = {check.name: check for check in verify_circuit(circuit).checks}
    assert not checks["zero_hit_layers"].passed and checks["zero_hit_layers"].max_error > 0.0
    assert checks["telescoping"].passed
