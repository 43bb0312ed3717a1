"""CLI contract: commands, output schemas, exit codes, byte-stable reports."""
from __future__ import annotations

import dataclasses
import io
import itertools
import json
import math
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sumpaths import cli as cli_module
from sumpaths import paths as paths_module
from sumpaths import threeparticle as threeparticle_module
from sumpaths import twoparticle as twoparticle_module
from sumpaths import verify as verify_module
from sumpaths.circuits import (
    build_epr_circuit,
    circuit_digest,
    circuit_to_raw,
    load_circuit,
    save_circuit,
    validate_circuit,
)
from sumpaths.cli import main
from sumpaths.common import DEFAULT_BUDGET
from sumpaths.corpus import random_circuit
from sumpaths.oracle import marginal_by_sum
from sumpaths.paths import enumerate_paths
from sumpaths.verify import verify_circuit

from .reference import lambda_general, prefix_lambdas

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def run_cli(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def epr_file(tmp_path):
    path = tmp_path / "epr.json"
    save_circuit(build_epr_circuit(np.eye(2), np.eye(2)), str(path))
    return str(path)


@pytest.fixture()
def random_file(tmp_path):
    path = tmp_path / "random3.json"
    save_circuit(random_circuit(np.random.default_rng(55), 3, 3), str(path))
    return str(path)


def test_marginal_epr_all_methods(epr_file):
    for method in ("oracle", "pathsum", "lambda"):
        code, out, _ = run_cli("marginal", "--circuit", epr_file, "--method", method)
        assert code == 0
        probs = json.loads(out)["probabilities"]
        assert abs(probs["0"] - 0.5) < 1e-9 and abs(probs["1"] - 0.5) < 1e-9


def test_marginal_methods_agree_on_random_circuit(random_file):
    results = {}
    for method in ("oracle", "pathsum", "lambda"):
        code, out, _ = run_cli("marginal", "--circuit", random_file, "--method", method)
        assert code == 0
        results[method] = json.loads(out)["probabilities"]
    for key in ("0", "1"):
        assert abs(results["oracle"][key] - results["lambda"][key]) < 1e-9
        assert abs(results["oracle"][key] - results["pathsum"][key]) < 1e-9


def test_marginal_csv_format(random_file):
    code, out, _ = run_cli(
        "marginal", "--circuit", random_file, "--format", "csv", "--method", "oracle"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "outcome,probability"
    assert len(lines) == 3


def test_marginal_two_particle_subsystem_of_four(tmp_path):
    path = tmp_path / "four.json"
    circuit = random_circuit(np.random.default_rng(77), 4, 3)
    save_circuit(circuit, str(path))
    code, out, _ = run_cli("marginal", "--circuit", str(path), "--subsystem", "1,2")
    assert code == 0
    probs = json.loads(out)["probabilities"]
    oracle = marginal_by_sum(circuit, (1, 2)).as_mapping()
    assert all(abs(probs[k] - oracle[k]) < 1e-9 for k in oracle)


def test_trace_epr_pair(epr_file):
    code, out, _ = run_cli("trace", "--circuit", epr_file, "--pair", "0,1")
    assert code == 0
    report = json.loads(report_text := out)
    trajectory = [complex(re, im) for re, im in report["trajectory"]]
    assert abs(trajectory[0] - 1) < 1e-12
    assert abs(trajectory[1]) < 1e-12 and abs(trajectory[2]) < 1e-12
    assert report["paths"] == ["00", "10"]


def test_trace_three_particle_has_breakdowns(random_file):
    code, out, _ = run_cli("trace", "--circuit", random_file, "--pair", "1,3")
    assert code == 0
    report = json.loads(out)
    assert len(report["breakdowns"]) == 3
    total = 1.0 + 0j
    for b in report["breakdowns"]:
        total += complex(*b["total"])
    assert abs(total - complex(*report["trajectory"][-1])) < 1e-10


def test_trace_general_subsystem(tmp_path):
    path = tmp_path / "four.json"
    save_circuit(random_circuit(np.random.default_rng(78), 4, 2), str(path))
    code, out, _ = run_cli(
        "trace", "--circuit", str(path), "--subsystem", "0,1", "--endpoint", "0,1", "--pair", "0,2"
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["trajectory"]) == 3
    assert len(report["paths"][0]) == 2


@pytest.mark.parametrize("particles", [4, 5])
def test_trace_of_particle_zero_follows_the_hit_stream_beyond_three_particles(tmp_path, particles):
    circuit = random_circuit(np.random.default_rng(80 + particles), particles, 4, p_single=0.9, p_phase=1.0)
    path = tmp_path / "c.json"
    save_circuit(circuit, str(path))
    two = tmp_path / "two.json"
    save_circuit(random_circuit(np.random.default_rng(80), 2, 4), str(two))
    for endpoint, pair in (("0", "0,5"), ("1", "7,2"), ("1", "3,3")):
        code, out, err = run_cli("trace", "--circuit", str(path), "--endpoint", endpoint, "--pair", pair)
        assert (code, err) == (0, "")
        report = json.loads(out)
        code, out, _ = run_cli("trace", "--circuit", str(two), "--endpoint", endpoint, "--pair", pair)
        reference = json.loads(out)
        assert report.keys() == reference.keys()
        assert [len(report[key]) for key in ("paths", "trajectory", "hits")] == [2, 5, 4]
        assert all(isinstance(bits, str) and len(bits) == 4 for bits in report["paths"])
        paths = enumerate_paths(circuit.n, int(endpoint))
        first, second = ((paths[int(k)],) for k in pair.split(","))
        assert report["paths"] == [first[0].bitstring(), second[0].bitstring()]
        expected = prefix_lambdas(circuit, (0,), first, second)
        assert max(abs(complex(*value) - e) for value, e in zip(report["trajectory"], expected)) < 1e-12
        hits = [complex(*value) for value in report["hits"]]
        assert max(abs(h - (b - a)) for h, a, b in zip(hits, expected, expected[1:])) < 1e-12


def test_trace_bad_pair_index(epr_file):
    code, _, err = run_cli("trace", "--circuit", epr_file, "--pair", "0,7")
    assert code == 2 and "out of range" in err


@pytest.mark.parametrize("endpoint", ["", "x", "0,", "1,y"])
def test_trace_bad_endpoint_spec_is_input_error(epr_file, endpoint):
    code, out, err = run_cli("trace", "--circuit", epr_file, "--endpoint", endpoint, "--pair", "0,1")
    assert (code, out) == (2, "")
    assert err == f"error: bad endpoint spec {endpoint!r}\n"


def _straddles(circuit, subsystem: tuple[int, ...], t: int) -> bool:
    return any((a in subsystem) != (b in subsystem) for a, b in (g.pair for g in circuit.layer(t).phases))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(2, 5), st.integers(1, 4), st.sampled_from([0.3, 1.0]), st.integers(0, 2**32 - 1), st.data())
def test_trace_of_every_subsystem_matches_the_direct_overlap_at_every_layer(particles, layers, p_phase, seed, data):
    circuit = random_circuit(np.random.default_rng(seed), particles, layers, p_single=0.9, p_phase=p_phase)
    subsets = [s for r in range(1, particles) for s in itertools.combinations(range(particles), r)]
    subsystem = data.draw(st.sampled_from([s for s in subsets if (s, particles) != ((0,), 3)]))
    endpoints = data.draw(st.tuples(*[st.integers(0, 1)] * len(subsystem)))
    count = (1 << (layers - 1)) ** len(subsystem)
    first, second = data.draw(st.integers(0, count - 1)), data.draw(st.integers(0, count - 1))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.json"
        save_circuit(circuit, str(path))
        code, out, err = run_cli(
            "trace", "--circuit", str(path), "--subsystem", ",".join(map(str, subsystem)),
            "--endpoint", ",".join(map(str, endpoints)), "--pair", f"{first},{second}",
        )
    assert (code, err) == (0, "")
    report = json.loads(out)
    member_paths = [enumerate_paths(layers, e) for e in endpoints]
    p, q = (list(itertools.product(*member_paths))[index] for index in (first, second))
    expected = prefix_lambdas(circuit, subsystem, p, q)
    assert expected[-1] == lambda_general(circuit, subsystem, p, q)
    trajectory = [complex(*value) for value in report["trajectory"]]
    assert trajectory[0] == 1 and max(abs(a - b) for a, b in zip(trajectory, expected, strict=True)) < 1e-12
    for t, value in enumerate(report["hits"], start=1):
        if not _straddles(circuit, subsystem, t):
            assert value == [0.0, 0.0]


@pytest.mark.parametrize("particles, subsystem", [(2, "0"), (3, "0"), (4, "0"), (4, "1,2"), (5, "2,4")])
def test_trace_names_paths_in_enumeration_order_at_every_index(tmp_path, particles, subsystem):
    members = len(subsystem.split(","))
    for layers in range(1, 5):
        path = tmp_path / f"n{layers}.json"
        save_circuit(random_circuit(np.random.default_rng(layers), particles, layers), str(path))
        for endpoints in itertools.product((0, 1), repeat=members):
            product = list(itertools.product(*(enumerate_paths(layers, e) for e in endpoints)))
            for index, paths in enumerate(product):
                last = len(product) - 1 - index
                code, out, _ = run_cli(
                    "trace", "--circuit", str(path), "--subsystem", subsystem,
                    "--endpoint", ",".join(map(str, endpoints)), "--pair", f"{index},{last}",
                )
                assert code == 0
                named = json.loads(out)["paths"][0]
                if subsystem == "0":
                    assert named == paths[0].bitstring()
                else:
                    assert named == [p.bitstring() for p in paths]


def test_trace_builds_only_the_two_named_paths(tmp_path):
    # 2^19 paths per endpoint: enumerating them all took about 145 MiB
    path = tmp_path / "n20.json"
    save_circuit(random_circuit(np.random.default_rng(20), 2, 20, p_single=0.9, p_phase=1.0), str(path))
    tracemalloc.start()
    try:
        code, out, err = run_cli("trace", "--circuit", str(path), "--pair", "0,524287")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert json.loads(out)["paths"] == ["0" * 20, "1" * 19 + "0"]
    assert peak < 4 * 2**20


def test_trace_answers_past_the_path_count_budget(tmp_path):
    # 2^23 paths per endpoint, past the default budget: trace builds two of them and walks each side once
    path = tmp_path / "n24.json"
    save_circuit(random_circuit(np.random.default_rng(1), 2, 24, p_single=1.0, p_phase=1.0), str(path))
    code, out, err = run_cli("trace", "--circuit", str(path), "--pair", "0,1")
    assert (code, err) == (0, "")
    assert len(json.loads(out)["trajectory"]) == 25


def test_paths_charges_its_enumeration(tmp_path):
    path = tmp_path / "n4.json"
    save_circuit(random_circuit(np.random.default_rng(4), 1, 4), str(path))
    code, out, err = run_cli("paths", "--circuit", str(path), "--particle", "0", "--endpoint", "0", "--budget", "4")
    assert (code, out) == (3, "")
    assert err == "error: path enumeration needs 8 combinations, budget is 4; raise --budget to override\n"
    code, out, _ = run_cli("paths", "--circuit", str(path), "--particle", "0", "--endpoint", "0", "--budget", "8")
    assert code == 0 and len(json.loads(out)["paths"]) == 8


@pytest.mark.parametrize(
    "particles, layers, message",
    [
        ("1" * 400, 1, "'particles' must be at most 65536"),
        (str(2**40), 1, "'particles' must be at most 65536"),
        # about 300 KB of empty layers that would ask for a 50 GB gate table
        ("65536", 100_000, "'particles' times the layer count must be at most 1048576"),
    ],
    ids=["400-digits", "2^40", "many-layers"],
)
@pytest.mark.parametrize("command", ["marginal", "verify"])
def test_huge_particle_counts_are_input_errors(tmp_path, particles, layers, message, command):
    path = tmp_path / "huge.json"
    path.write_text(f'{{"particles": {particles}, "layers": [{", ".join(["{}"] * layers)}]}}')
    code, out, err = run_cli(command, "--circuit", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_verify_epr_passes_tightly(epr_file):
    code, out, _ = run_cli("verify", "--circuit", epr_file)
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["oracle_equivalence"]["max_error"] < 1e-12
    assert "timing_ms" not in by_name["oracle_equivalence"]


def test_verify_is_byte_identical_across_runs(random_file):
    first = run_cli("verify", "--circuit", random_file)
    second = run_cli("verify", "--circuit", random_file)
    assert first[0] == 0 and first[1] == second[1]


def test_verify_timings_flag_adds_timing_fields(epr_file):
    code, out, _ = run_cli("verify", "--circuit", epr_file, "--timings")
    assert code == 0
    assert all("timing_ms" in c for c in json.loads(out)["checks"])


def test_verify_rejects_corrupt_gate(tmp_path):
    bad = {
        "particles": 1,
        "layers": [{"singles": {"0": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]}}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run_cli("verify", "--circuit", str(path))
    assert code == 2 and "unitarity" in err


def _small_manifest(directory: Path) -> str:
    """A manifest over three shipped corpus files, copied into `directory`; keeps manifest tests quick."""
    manifest = json.loads((CORPUS / "manifest.json").read_text())
    subset = {
        "schema": 1,
        "generator_version": manifest["generator_version"],
        "circuits": manifest["circuits"][:3],
    }
    for entry in subset["circuits"]:
        (directory / entry["file"]).write_text((CORPUS / entry["file"]).read_text())
    path = directory / "manifest.json"
    path.write_text(json.dumps(subset))
    return str(path)


def test_verify_manifest_runs_every_circuit(tmp_path):
    code, out, _ = run_cli("verify", "--manifest", _small_manifest(tmp_path))
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True and len(report["circuits"]) == 3


def test_verify_manifest_csv_has_one_row_per_file_and_check(tmp_path):
    manifest = _small_manifest(tmp_path)
    code, out, err = run_cli("verify", "--manifest", manifest, "--format", "csv")
    assert code == 0 and err == ""
    json_code, json_out, _ = run_cli("verify", "--manifest", manifest)
    assert json_code == 0
    expected = [
        f"{r['file']},{c['name']},{c['max_error']!r},{c['tolerance']!r},{c['pass']}"
        for r in json.loads(json_out)["circuits"]
        for c in r["checks"]
    ]
    assert len(expected) > 3
    assert out.splitlines() == ["file,check,max_error,tolerance,pass", *expected]


@pytest.mark.parametrize("source", ["circuit", "manifest"])
def test_verify_csv_with_timings_gains_a_last_timing_column(tmp_path, epr_file, source):
    argv = ("--circuit", epr_file) if source == "circuit" else ("--manifest", _small_manifest(tmp_path))
    code, plain, _ = run_cli("verify", *argv, "--format", "csv")
    assert code == 0
    code, timed, err = run_cli("verify", *argv, "--format", "csv", "--timings")
    assert code == 0 and err == ""
    plain_lines, timed_lines = plain.splitlines(), timed.splitlines()
    assert timed_lines[0] == plain_lines[0] + ",timing_ms"
    assert len(timed_lines) == len(plain_lines) > 3
    for untimed, row in zip(plain_lines[1:], timed_lines[1:]):
        cells, timing = row.rsplit(",", 1)
        assert cells == untimed and float(timing) >= 0.0


def test_verify_needs_exactly_one_source(epr_file):
    code, _, _ = run_cli("verify")
    assert code == 2
    code, _, _ = run_cli("verify", "--circuit", epr_file, "--manifest", "x.json")
    assert code == 2


def test_epr_command_rotation_and_matrix_specs():
    code, out, _ = run_cli("epr", "--a2", "0.3")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert abs(complex(*report["cross_pair_lambda"])) < 1e-12

    identity = json.dumps([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])
    code, out, _ = run_cli("epr", "--a2", identity, "--b2", "1.1")
    assert code == 0 and json.loads(out)["pass"] is True


@pytest.mark.parametrize("angle", ["inf", "1e400", "nan"])
@pytest.mark.parametrize("option", ["--a2", "--b2"])
def test_epr_command_rejects_a_non_finite_angle(option, angle):
    code, out, err = run_cli("epr", option, angle)
    assert code == 2 and out == ""
    assert err == f"error: gate spec {option}: angle {angle!r} is not finite\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_epr_failure_writes_its_report_then_one_error_line(monkeypatch, fmt):
    real = cli_module.lambda_accumulate

    def leaky_cross_pair(*args):
        entry = real(*args)
        return dataclasses.replace(entry, hits=(entry.hits[0], entry.hits[1] + 1e-3))

    monkeypatch.setattr(cli_module, "lambda_accumulate", leaky_cross_pair)
    code, out, err = run_cli("epr", "--format", fmt)
    assert code == 1
    assert err.startswith("error: checks failed: ") and "cross_pair_hits" in err and err.count("\n") == 1
    if fmt == "json":
        assert json.loads(out)["pass"] is False
    else:
        assert out.splitlines()[0] == "method,outcome,probability" and len(out.splitlines()) == 7


def test_epr_command_rejects_nonunitary_matrix():
    bad = json.dumps([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]])
    code, _, _ = run_cli("epr", "--a2", bad)
    assert code == 2


@pytest.mark.parametrize("option", ["--a2", "--b2"])
def test_epr_command_rejects_boolean_matrix_entries(option):
    # a circuit file rejects a boolean entry, so the gate spec does too; true + 0i would read as 1
    identity_of_booleans = json.dumps([[[True, 0], [0, 0]], [[0, 0], [1, 0]]])
    code, out, err = run_cli("epr", option, identity_of_booleans)
    assert code == 2 and out == ""
    assert err == f"error: gate spec {option}[0][0]: entries must be numbers\n"
    assert run_cli("epr", option, json.dumps([[[1, 0], [0, 0]], [[0, 0], [1, 0]]]))[0] == 0


def test_perturb_clamp_one_reproduces_exact_marginal(random_file):
    code, out, _ = run_cli("perturb", "--circuit", random_file, "--clamp", "1.0")
    assert code == 0
    report = json.loads(out)
    for key, value in report["probabilities"].items():
        assert abs(value - report["oracle"][key]) < 1e-9
    assert abs(report["raw_total"] - 1.0) < 1e-9


def test_perturb_clamp_zero_is_classical_path_sum(epr_file):
    code, out, _ = run_cli("perturb", "--circuit", epr_file, "--clamp", "0.0")
    assert code == 0
    report = json.loads(out)
    # EPR: interference is already off, so the classical sum equals the marginal
    for key in ("0", "1"):
        assert abs(report["probabilities"][key] - 0.5) < 1e-10


def test_perturb_clamp_zero_matches_classical_path_sum(random_file):
    from sumpaths.circuits import load_circuit
    from sumpaths.paths import enumerate_paths, path_amplitude

    code, out, _ = run_cli("perturb", "--circuit", random_file, "--clamp", "0.0")
    assert code == 0
    report = json.loads(out)
    circuit = load_circuit(random_file)
    classical = {
        str(j): sum(
            abs(path_amplitude(circuit, 0, p)) ** 2 for p in enumerate_paths(circuit.n, j)
        )
        for j in (0, 1)
    }
    total = sum(classical.values())
    for key in ("0", "1"):
        assert abs(report["raw"][key] - classical[key]) < 1e-12
        assert abs(report["probabilities"][key] - classical[key] / total) < 1e-12


def test_three_particle_lambda_routes_answer_at_twelve_layers_and_stop_at_thirteen(tmp_path):
    # the cascade runs through layer n - 1 alone: at all-gates n = 12 its struck path weights and
    # partner states are each exactly 2^22 entries, and so is perturb's lambda over 11 layers
    path = tmp_path / "c.json"
    circuit = random_circuit(np.random.default_rng(1), 3, 12, p_single=1.0, p_phase=1.0)
    save_circuit(circuit, str(path))
    oracle = marginal_by_sum(circuit, (0,)).as_mapping()
    code, out, err = run_cli("marginal", "--method", "lambda", "--circuit", str(path))
    assert (code, err) == (0, "")
    probabilities = json.loads(out)["probabilities"]
    assert max(abs(probabilities[k] - oracle[k]) for k in oracle) < 1e-9
    code, out, err = run_cli("perturb", "--clamp", "1", "--circuit", str(path))
    assert (code, err) == (0, "") and json.loads(out)["max_deviation"] < 1e-9
    save_circuit(random_circuit(np.random.default_rng(1), 3, 13, p_single=1.0, p_phase=1.0), str(path))
    code, out, err = run_cli("marginal", "--method", "lambda", "--circuit", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("error: struck path weights needs 16777216 ") and err.count("\n") == 1


def test_three_particle_lambda_routes_answer_at_small_budgets():
    # the marginal and perturb read the cascade's layers as they pass and keep none, so a budget
    # of 300 fits n3_l4_s0's 4^4 struck path weights; keeping every layer's factors, 4352 entries,
    # once stopped both here with exit 3
    circuit = str(CORPUS / "n3_l4_s0.json")
    oracle = marginal_by_sum(load_circuit(circuit), (0,)).as_mapping()
    code, out, err = run_cli("marginal", "--circuit", circuit, "--budget", "300")
    assert (code, err) == (0, "")
    probabilities = json.loads(out)["probabilities"]
    assert max(abs(probabilities[k] - oracle[k]) for k in oracle) < 1e-12
    code, out, err = run_cli("perturb", "--circuit", circuit, "--clamp", "1", "--budget", "300")
    assert (code, err) == (0, "") and json.loads(out)["max_deviation"] < 1e-12


def test_perturb_charges_the_dense_lambda_its_clamp_reads(tmp_path):
    # (0, 1) of an all-gates N=3 n=7 circuit: the streamed marginal fits the default budget,
    # but the clamp reads the dense lambda every outcome's block shares, (2^12)^2 configuration path pairs
    path = tmp_path / "c.json"
    save_circuit(random_circuit(np.random.default_rng(1), 3, 7, p_single=1.0, p_phase=1.0), str(path))
    code, out, _ = run_cli("marginal", "--circuit", str(path), "--subsystem", "0,1")
    assert code == 0 and len(json.loads(out)["probabilities"]) == 4
    code, out, err = run_cli("perturb", "--circuit", str(path), "--subsystem", "0,1", "--clamp", "0.5")
    assert (code, out) == (3, "")
    assert err == "error: configuration path pairs needs 16777216 combinations, budget is 4194304; raise --budget to override\n"


def test_perturb_rejects_negative_clamp(epr_file):
    code, _, _ = run_cli("perturb", "--circuit", epr_file, "--clamp", "-0.5")
    assert code == 2


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("perturb", "--clamp", "nan"),
        ("perturb", "--clamp", "inf"),
    ],
)
def test_nonfinite_clamp_is_input_error(epr_file, command, flag, value):
    code, out, err = run_cli(command, "--circuit", epr_file, flag, value)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_takes_no_tolerance_option(epr_file):
    # each check's tolerance is fixed in the verify module: no caller can loosen it
    with redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as exit_info:
        main(["verify", "--circuit", epr_file, "--tol", "1"])
    assert exit_info.value.code == 2


def test_paths_dump_epr():
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "epr.json"
        a2 = random_circuit(np.random.default_rng(3), 1, 1).single(1, 0)
        save_circuit(build_epr_circuit(a2, np.eye(2)), str(path))
        code, out, _ = run_cli("paths", "--circuit", str(path), "--particle", "0", "--endpoint", "0")
        assert code == 0
        rows = json.loads(out)["paths"]
        assert [row["modes"] for row in rows] == ["00", "10"]
        expected = [a2[0, 0] / math.sqrt(2), a2[0, 1] / math.sqrt(2)]
        for row, value in zip(rows, expected):
            assert abs(complex(*row["amplitude"]) - value) < 1e-12


def test_paths_single_layer(tmp_path):
    path = tmp_path / "one.json"
    save_circuit(random_circuit(np.random.default_rng(4), 1, 1), str(path))
    code, out, _ = run_cli("paths", "--circuit", str(path), "--particle", "0", "--endpoint", "1")
    assert code == 0
    assert len(json.loads(out)["paths"]) == 1


def test_paths_bad_endpoint(epr_file):
    code, _, _ = run_cli("paths", "--circuit", epr_file, "--particle", "0", "--endpoint", "2")
    assert code == 2


def test_density_command_reports_small_errors(tmp_path):
    path = tmp_path / "two.json"
    save_circuit(random_circuit(np.random.default_rng(5), 2, 4), str(path))
    code, out, _ = run_cli("density", "--circuit", path.as_posix())
    assert code == 0
    layers = json.loads(out)["layers"]
    assert [entry["t"] for entry in layers] == [1, 2, 3, 4]
    for entry in layers:
        assert entry["frobeniusError"] < 1e-10
        total = np.array([[complex(*c) for c in row] for row in entry["sum"]])
        oracle = np.array([[complex(*c) for c in row] for row in entry["oracle"]])
        assert np.max(np.abs(total - oracle)) < 1e-10


def test_density_honours_budget():
    # the last layer of an 8-layer circuit holds tree table 7 and the prefix amplitudes, 2^8 entries each
    circuit = str(CORPUS / "n2_l8_s0.json")
    for budget in ("4", "255"):
        code, out, err = run_cli("density", "--circuit", circuit, "--budget", budget)
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    code, out, _ = run_cli("density", "--circuit", circuit, "--budget", "256")
    assert code == 0 and out == run_cli("density", "--circuit", circuit)[1]


def test_csv_outputs_for_every_command(epr_file, random_file, tmp_path):
    headers = {
        ("marginal", "--circuit", random_file): "outcome,probability",
        ("trace", "--circuit", random_file, "--pair", "0,1"): "layer,lambda_re,lambda_im,hit_re,hit_im",
        ("verify", "--circuit", epr_file): "check,max_error,tolerance,pass",
        ("verify", "--manifest", _small_manifest(tmp_path)): "file,check,max_error,tolerance,pass",
        ("epr", "--a2", "0.4"): "method,outcome,probability",
        ("perturb", "--circuit", epr_file, "--clamp", "0.5"): "outcome,raw,probability,oracle,deviation",
        ("paths", "--circuit", random_file, "--particle", "0", "--endpoint", "1"): "index,modes,re,im",
        ("density", "--circuit", epr_file): "t,frobeniusError,hitDiagonalMax,offdiagonalError,pathsumError",
    }
    lines = {}
    for argv, header in headers.items():
        code, out, err = run_cli(*argv, "--format", "csv")
        assert code == 0 and err == "", argv
        assert out.splitlines()[0] == header and "{" not in out, argv
        lines[argv[0]] = len(out.splitlines())
    assert lines["trace"] == 5  # header + lambda^(0..3)
    assert lines["epr"] == 7


def test_verify_single_particle_circuit(tmp_path):
    path = tmp_path / "one.json"
    save_circuit(random_circuit(np.random.default_rng(8), 1, 3), str(path))
    code, out, _ = run_cli("verify", "--circuit", str(path))
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert names == ["norm_preservation", "pathsum_completeness"]


def test_budget_exit_code(tmp_path):
    path = tmp_path / "big.json"
    save_circuit(random_circuit(np.random.default_rng(6), 2, 8), str(path))
    code, _, err = run_cli("marginal", "--circuit", str(path), "--budget", "64")
    assert code == 3 and "budget" in err


def test_budget_charge_past_the_int_to_str_limit_exits_three(tmp_path):
    # 2^20000 has 6021 decimal digits, past Python's default limit of 4300
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"particles": 20000, "layers": [{}]}))
    code, out, err = run_cli("marginal", "--circuit", str(path), "--method", "lambda", "--subsystem", "0")
    assert (code, out) == (3, "")
    assert err == "error: conditioned external states needs 2^19999 combinations, budget is 4194304; raise --budget to override\n"
    # counts below it stay decimal; the marginal's first charge is particle 0's tree table 7, 2^(7 + 1) states
    save_circuit(random_circuit(np.random.default_rng(6), 2, 8), str(path))
    code, _, err = run_cli("marginal", "--circuit", str(path), "--budget", "64")
    assert (code, err) == (3, "error: conditioned external states needs 256 combinations, budget is 64; raise --budget to override\n")


@pytest.mark.parametrize("budget", ["-1", "0"])
def test_nonpositive_budget_is_input_error(epr_file, budget):
    code, out, err = run_cli("marginal", "--circuit", epr_file, "--budget", budget)
    assert code == 2 and out == ""
    assert err == f"error: budget must be positive, got {budget}\n"


def test_no_signaling_fits_the_base_circuits_budget():
    # the extended circuit's cascade is charged no more than the base one's
    code, out, err = run_cli(
        "verify", "--circuit", str(CORPUS / "n3_l5_s0.json"), "--budget", "100000"
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["pass"] is True


def test_two_particle_no_signaling_layer_costs_no_budget(tmp_path):
    # the appended layer has no 0-1 gate, so the extended circuit's table
    # stops one layer short and is charged the base circuit's 4^n: 4^6 fits
    # a budget of 5000, and an all-gates n = 11 circuit the default 4^11
    path = tmp_path / "n2_l11.json"
    save_circuit(random_circuit(np.random.default_rng(11), 2, 11, p_single=0.9, p_phase=1.0), str(path))
    for argv in ((str(CORPUS / "n2_l6_s0.json"), "--budget", "5000"), (str(path),)):
        code, out, err = run_cli("verify", "--circuit", *argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["pass"] is True


@pytest.mark.parametrize(
    "manifest", ["[]", '{"circuits": 3}', '{"circuits": [{"file": 3}]}', '{"circuits": [', "", '{"a": 1, "a": 2}']
)
def test_malformed_manifest_is_input_error(tmp_path, manifest):
    path = tmp_path / "manifest.json"
    path.write_text(manifest, encoding="utf-8")
    code, out, err = run_cli("verify", "--manifest", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


def test_epr_matrix_without_pairs_is_input_error():
    code, out, err = run_cli("epr", "--a2", "[[1,2]]")
    assert code == 2 and out == ""
    assert err.startswith("error: gate spec") and err.count("\n") == 1


@pytest.mark.parametrize("depth", [1000, 100000])
@pytest.mark.parametrize("source", ["circuit", "manifest", "gate spec"])
def test_deeply_nested_json_is_input_error(tmp_path, source, depth):
    nested = "[" * depth + "]" * depth
    path = tmp_path / "input.json"
    if source == "circuit":
        path.write_text(f'{{"particles": 2, "layers": {nested}}}', encoding="utf-8")
        argv = ("marginal", "--circuit", str(path))
    elif source == "manifest":
        path.write_text(f'{{"circuits": {nested}}}', encoding="utf-8")
        argv = ("verify", "--manifest", str(path))
    else:
        argv = ("epr", "--a2", nested, "--b2", "0")
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_missing_file_is_input_error():
    code, _, _ = run_cli("marginal", "--circuit", "no-such-file.json")
    assert code == 2


def test_reports_are_deterministic_for_every_command(epr_file, random_file):
    commands = [
        ("marginal", "--circuit", random_file),
        ("trace", "--circuit", random_file, "--pair", "0,1"),
        ("epr", "--a2", "0.7"),
        ("perturb", "--circuit", random_file, "--clamp", "0.5"),
        ("paths", "--circuit", random_file, "--particle", "1", "--endpoint", "0"),
    ]
    for argv in commands:
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first[0] == 0
        assert first[1] == second[1]


NUMBERS = {"particles": 2, "cell": 1, "pair": [0, 1], "theta": [0, 0, 0, 1]}
BOOLEANS = {"particles": True, "cell": True, "pair": [False, True], "theta": [0, 0, 0, True]}


def _one_layer_json(values: dict) -> dict:
    identity = [[[values["cell"], 0], [0, 0]], [[0, 0], [1, 0]]]
    phase = {"pair": values["pair"], "theta": values["theta"]}
    return {"particles": values["particles"], "layers": [{"singles": {"0": identity}, "phases": [phase]}]}


@pytest.mark.parametrize("field", sorted(BOOLEANS))
def test_json_booleans_are_not_numbers(tmp_path, field):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(_one_layer_json(NUMBERS)), encoding="utf-8")
    assert run_cli("marginal", "--circuit", str(path))[0] == 0
    path.write_text(json.dumps(_one_layer_json({**NUMBERS, field: BOOLEANS[field]})), encoding="utf-8")
    code, out, err = run_cli("marginal", "--circuit", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    message = {
        "particles": "'particles' must be",
        "cell": "entries must be numbers",
        "pair": "'pair' must be",
        "theta": "theta[3] must be",
    }
    assert message[field] in err


def test_norm_drift_exits_one(tmp_path):
    # each gate's defect (8e-13) passes validation; four layers drift past NORM_TOL
    drifting = [[[1 + 4e-13, 0], [0, 0]], [[0, 0], [1, 0]]]
    path = tmp_path / "drift.json"
    path.write_text(json.dumps({"particles": 2, "layers": [{"singles": {"0": drifting}}] * 4}))
    for argv in (("marginal", "--method", "oracle"), ("verify",)):
        code, out, err = run_cli(argv[0], "--circuit", str(path), *argv[1:])
        assert code == 1 and out == ""
        assert err.startswith("error: state norm drifted") and err.count("\n") == 1


def test_manifest_digest_mismatch_is_input_error(tmp_path):
    entry = json.loads((CORPUS / "manifest.json").read_text())["circuits"][0]
    (tmp_path / entry["file"]).write_text((CORPUS / entry["file"]).read_text())
    path = tmp_path / "manifest.json"
    for digest, expected in ((entry["digest"], 0), (None, 0), ("0" * 64, 2)):
        listed = {"file": entry["file"]} if digest is None else {"file": entry["file"], "digest": digest}
        path.write_text(json.dumps({"circuits": [listed]}))
        code, out, err = run_cli("verify", "--manifest", str(path))
        assert code == expected, err
    assert out == "" and err == f"error: {entry['file']}: digest differs from its manifest entry\n"


def test_manifest_repeated_digest_is_input_error(tmp_path):
    # a repeated key must not let the last value pass over a wrong first one
    entry = json.loads((CORPUS / "manifest.json").read_text())["circuits"][0]
    (tmp_path / entry["file"]).write_text((CORPUS / entry["file"]).read_text())
    path = tmp_path / "manifest.json"
    path.write_text(
        f'{{"circuits": [{{"file": "{entry["file"]}", "digest": "{"0" * 64}", "digest": "{entry["digest"]}"}}]}}'
    )
    code, out, err = run_cli("verify", "--manifest", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: repeated key 'digest'\n"


@pytest.mark.parametrize("particles, subsystem", [(2, "0"), (3, "0"), (3, "0,1"), (4, "0"), (4, "0,1")])
def test_zero_layer_circuits_answer_like_the_oracle(tmp_path, particles, subsystem):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"particles": particles, "layers": []}))
    expected = marginal_by_sum(load_circuit(str(path)), [int(i) for i in subsystem.split(",")])
    for argv in (("marginal", "--method", "lambda"), ("marginal", "--method", "pathsum"), ("perturb", "--clamp", "0.5")):
        code, out, err = run_cli(argv[0], "--circuit", str(path), "--subsystem", subsystem, *argv[1:])
        assert (code, err) == (0, ""), argv
        assert json.loads(out)["probabilities"] == expected.as_mapping()


@pytest.mark.parametrize(
    "layer, message",
    [
        ({"phases": 5}, "'phases' must be a list"),
        ({"singles": {"0": [[[10**400, 0], [0, 0]], [[0, 0], [1, 0]]]}}, "entries must be numbers"),
        ({"phases": [{"pair": [0, 1], "theta": [0, 0, 0, 10**400]}]}, "theta[3] must be"),
    ],
)
def test_mistyped_layer_fields_are_input_errors(tmp_path, layer, message):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"particles": 2, "layers": [layer]}))
    code, out, err = run_cli("marginal", "--circuit", str(path))
    assert code == 2 and out == ""
    assert message in err and err.count("\n") == 1


_H = [[[2**-0.5, 0], [2**-0.5, 0]], [[2**-0.5, 0], [-(2**-0.5), 0]]]
_X = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]


@pytest.mark.parametrize(
    "text, message",
    [
        # json.load keeps the last of two equal keys, so each of these ran on what was left
        ('{"particles": 2, "particles": 3, "layers": []}', "repeated key 'particles'"),
        (f'{{"particles": 2, "layers": [{{"singles": {{"0": {_H}, "0": {_X}}}}}]}}', "repeated key '0'"),
        ('{"particles": 2, "layers": [{"phases": [{"pair": [0, 1], "theta": [0, 0, 0, 1], "theta": [0, 0, 0, 2]}]}]}',
         "repeated key 'theta'"),
        # int() reads each of these keys as a particle index
        (json.dumps({"particles": 2, "layers": [{"singles": {"1": _H, "01": _X}}]}), "singles key '01'"),
        (json.dumps({"particles": 2, "layers": [{"singles": {" 1": _X}}]}), "singles key ' 1'"),
        (json.dumps({"particles": 2, "layers": [{"singles": {"+1": _X}}]}), "singles key '+1'"),
        (json.dumps({"particles": 11, "layers": [{"singles": {"1_0": _X}}]}), "singles key '1_0'"),
    ],
    ids=["particles", "singles-0", "theta", "key-01", "key-space-1", "key-plus-1", "key-1_0"],
)
def test_repeated_keys_and_noncanonical_singles_keys_are_input_errors(tmp_path, text, message):
    path = tmp_path / "c.json"
    path.write_text(text)
    code, out, err = run_cli("marginal", "--circuit", str(path))
    assert code == 2 and out == ""
    assert message in err and err.startswith("error: ") and err.count("\n") == 1


def test_one_parser_carries_no_state_between_calls(epr_file):
    assert cli_module.build_parser() is cli_module.build_parser()
    plain = run_cli("verify", "--circuit", epr_file)
    assert plain[0] == 0
    timed = run_cli("verify", "--circuit", epr_file, "--timings")
    assert timed[0] == 0 and timed[1] != plain[1]
    assert run_cli("verify", "--circuit", epr_file) == plain
    circuit = str(CORPUS / "n3_l5_s0.json")
    assert run_cli("marginal", "--circuit", circuit, "--budget", "4")[0] == 3
    assert run_cli("marginal", "--circuit", circuit)[0] == 0
    code, out, _ = run_cli("marginal", "--circuit", epr_file, "--format", "csv")
    assert code == 0 and out.startswith("outcome,probability\n")
    code, out, _ = run_cli("marginal", "--circuit", epr_file)
    assert code == 0 and json.loads(out)["method"] == "lambda"


def test_sixteen_particles_fit_and_twenty_four_exit_before_allocating(tmp_path):
    small, large = tmp_path / "p16.json", tmp_path / "p24.json"
    save_circuit(random_circuit(np.random.default_rng(1), 16, 1), str(small))
    save_circuit(random_circuit(np.random.default_rng(1), 24, 1), str(large))
    code, out, err = run_cli("marginal", "--circuit", str(small), "--method", "lambda")
    assert (code, err) == (0, "")
    code, oracle_out, _ = run_cli("marginal", "--circuit", str(small), "--method", "oracle")
    assert code == 0
    lam, oracle = json.loads(out)["probabilities"], json.loads(oracle_out)["probabilities"]
    assert max(abs(lam[k] - oracle[k]) for k in oracle) < 1e-9
    tracemalloc.start()
    try:
        code, out, err = run_cli("marginal", "--circuit", str(large), "--method", "lambda")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and out == "" and "conditioned external states" in err
    assert peak < 16 * 2**20  # one 2 x 2^23 state table would be 256 MiB


@pytest.mark.parametrize(
    "argv, charge",
    [
        (("marginal", "--method", "oracle"), "state-vector amplitudes"),
        (("marginal", "--method", "pathsum"), "path-sum elimination table"),
        (("perturb", "--clamp", "1"), "state-vector amplitudes"),
        (("verify",), "state-vector amplitudes"),
    ],
)
def test_twenty_three_particles_exit_before_the_state_vector_is_built(tmp_path, argv, charge):
    path = tmp_path / "p23.json"
    save_circuit(random_circuit(np.random.default_rng(1), 23, 1, p_single=1.0, p_phase=1.0), str(path))
    tracemalloc.start()
    try:
        code, out, err = run_cli(*argv, "--circuit", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and out == ""
    assert err.startswith(f"error: {charge} needs 8388608") and err.count("\n") == 1
    assert peak < 2**20  # one 2^23-entry state vector would be 128 MiB


@pytest.mark.parametrize("particles, count", [(3, 8388608), (4, 16777216)])
def test_twelve_layer_pair_marginal_exits_before_the_prefix_tree_is_built(tmp_path, particles, count):
    # the general route's first charge, tree table 11, is past the default budget
    path = tmp_path / "c.json"
    save_circuit(random_circuit(np.random.default_rng(1), particles, 12, p_single=1.0, p_phase=1.0), str(path))
    tracemalloc.start()
    try:
        code, out, err = run_cli("marginal", "--method", "lambda", "--subsystem", "0,1", "--circuit", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and out == ""
    assert err.startswith(f"error: conditioned external states needs {count} combinations")
    assert peak < 2**20  # one 2^23-entry table would be 128 MiB

@pytest.mark.parametrize("particles, layers", [(2, 23), (4, 21), (5, 20)])
def test_twelve_layer_lambda_marginal_fits_the_default_budget(tmp_path, monkeypatch, particles, layers):
    # the pair sums read each layer of the tree's stream as it passes, keep none and hold no lambda table
    path = tmp_path / "c.json"
    circuit = random_circuit(np.random.default_rng(11), particles, 12, p_single=0.9, p_phase=1.0)
    save_circuit(circuit, str(path))
    code, out, err = run_cli("marginal", "--circuit", str(path), "--method", "lambda")
    assert (code, err) == (0, "")
    oracle = marginal_by_sum(circuit, (0,)).as_mapping()
    probabilities = json.loads(out)["probabilities"]
    assert max(abs(probabilities[k] - oracle[k]) for k in oracle) < 1e-9

    # the first all-gates size past tree table n - 1, 2^(n + N - 2) states, is charged before its first tree step
    def no_step(*args, **kwargs):
        raise AssertionError("tree_step ran")

    for module in (paths_module, twoparticle_module):
        monkeypatch.setattr(module, "tree_step", no_step)
    save_circuit(random_circuit(np.random.default_rng(1), particles, layers, p_single=1.0, p_phase=1.0), str(path))
    code, out, err = run_cli("marginal", "--circuit", str(path), "--method", "lambda")
    assert code == 3 and out == ""
    assert err.startswith("error: conditioned external states needs 8388608 ") and err.count("\n") == 1


def _huge_angle_layers(thetas: list, singles: dict | None = None) -> list:
    return [{"singles": singles or {}, "phases": [{"pair": [0, 1], "theta": theta}]} for theta in thetas]


@pytest.mark.parametrize(
    "document",
    [
        # per-layer factors never add two angles, so 1.7e308 absorbs nothing
        {"particles": 2, "layers": _huge_angle_layers([[0, 0, 0, 1.7e308]] * 3)},
        {"particles": 2, "layers": _huge_angle_layers([[0, 0, 0, 1.7e308], [0, 0, 0, 5.0]], {"0": _H, "1": _H})},
        {"particles": 2, "layers": [{}, {}] + _huge_angle_layers([[1.0, 0.0, 1.7e308, 0.0]])},
        # 12 particles and 66 gates in one sum: 12 elimination steps, 66 endpoint factors
        circuit_to_raw(random_circuit(np.random.default_rng(11), 12, 1, p_single=1.0, p_phase=1.0)),
    ],
    ids=["three-huge-layers", "huge-then-small", "huge-hit", "twelve-particles"],
)
def test_valid_extreme_circuits_pass_verify_and_sum_their_paths(tmp_path, document):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(document))
    code, out, err = run_cli("verify", "--circuit", str(path))
    assert (code, err) == (0, "")
    assert all(check["pass"] for check in json.loads(out)["checks"])
    code, out, err = run_cli("marginal", "--circuit", str(path), "--method", "pathsum")
    assert (code, err) == (0, "")
    oracle = marginal_by_sum(load_circuit(str(path)), (0,)).as_mapping()
    pathsum = json.loads(out)["probabilities"]
    assert max(abs(pathsum[k] - oracle[k]) for k in oracle) < 1e-12


@pytest.mark.parametrize(
    "particles, argv",
    [(2, ("density",)), (2, ("verify",)), (3, ("trace", "--pair", "0,1")), (3, ("verify",))],
    ids=["n2-density", "n2-verify", "n3-trace", "n3-verify"],
)
def test_opposite_extreme_angles_answer(tmp_path, particles, argv):
    # t1 + t4 - t2 - t3 and every difference of two modes' angles overflow; the gates' tables do not
    raw = circuit_to_raw(random_circuit(np.random.default_rng(1), particles, 3, p_single=1.0, p_phase=1.0))
    for gate in (gate for layer in raw["layers"] for gate in layer.get("phases", [])):
        gate["theta"] = [1.7e308, -1.7e308, -1.7e308, 1.7e308]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    code, out, err = run_cli(*argv, "--circuit", str(path))
    assert (code, err) == (0, "")
    if argv[0] == "verify":
        assert all(check["pass"] for check in json.loads(out)["checks"])


def test_non_finite_results_exit_one(monkeypatch, epr_file):
    def nan_amplitudes(circuit, budget=DEFAULT_BUDGET):
        return np.full(1 << circuit.particles, np.nan, dtype=complex)

    monkeypatch.setattr(verify_module, "amplitudes_via_paths", nan_amplitudes)
    monkeypatch.setattr(cli_module, "amplitudes_via_paths", nan_amplitudes)
    checks = {c.name: c for c in verify_circuit(load_circuit(epr_file)).checks}
    assert math.isnan(checks["pathsum_completeness"].max_error)
    assert not checks["pathsum_completeness"].passed
    for argv in (("verify",), ("marginal", "--method", "pathsum")):
        for fmt in ("json", "csv"):
            code, out, err = run_cli(argv[0], "--circuit", epr_file, *argv[1:], "--format", fmt)
            assert code == 1 and out == ""
            assert err == "error: result is not finite\n"


def test_three_particle_trace_too_long_for_its_branch_pairs_exits_three_before_any_hit(tmp_path, monkeypatch):
    # all-gates N=3 n=12: layer 12 would enumerate 4^12 branch path pairs, past the default budget
    def no_hit(*args, **kwargs):
        raise AssertionError("hit_three ran")

    monkeypatch.setattr(threeparticle_module, "hit_three", no_hit)
    path = tmp_path / "n3_l12.json"
    save_circuit(random_circuit(np.random.default_rng(1), 3, 12, p_single=1.0, p_phase=1.0), str(path))
    code, out, err = run_cli("trace", "--circuit", str(path), "--pair", "0,1")
    assert code == 3 and out == ""
    assert err.startswith("error: branch path pairs needs 16777216") and err.count("\n") == 1


_REPORT_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308, -1.7976931348623157e308]
)
_REPORT_TEXT = st.text(st.characters(codec="utf-8") | st.sampled_from('"\\\b\f\n\r\t\x00\x1f\x7f\u2028\U0001f600'))
_REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _REPORT_FLOATS | _REPORT_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_REPORT_TEXT, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_REPORT_VALUES)
def test_report_writer_gives_the_text_of_json_dumps(value):
    assert cli_module._json(value) == json.dumps(value, sort_keys=True, indent=2, allow_nan=False)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_report_writer_rejects_a_non_finite_float_anywhere(bad):
    with pytest.raises(ArithmeticError):
        cli_module._json({"checks": [{"max_error": bad}], "pass": True})


def test_trace_charges_the_pair_reference(tmp_path):
    path = tmp_path / "p16.json"
    save_circuit(random_circuit(np.random.default_rng(1), 16, 1), str(path))
    tracemalloc.start()
    try:
        code, out, err = run_cli(
            "trace", "--circuit", str(path), "--subsystem", "0", "--pair", "0,0", "--budget", "4"
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and out == ""
    assert err.startswith("error: straddling factor table needs 65536") and err.count("\n") == 1
    assert peak < 2**20  # one 2^16-entry straddling table is 1 MiB


def test_lambda_blocks_are_held_one_at_a_time(tmp_path):
    # subsystem (0, 1) of an all-gates N=4 n=6 circuit: a dense lambda per outcome
    # would be 1024 x 1024 complex, 16 MiB; the pair sums read layers 1-5 as they
    # pass, table 5 is 1024 x 4 complex, and hold no lambda at all
    path = tmp_path / "n4.json"
    circuit = random_circuit(np.random.default_rng(3), 4, 6, p_single=1.0, p_phase=1.0)
    save_circuit(circuit, str(path))
    tracemalloc.start()
    try:
        code, out, err = run_cli("marginal", "--circuit", str(path), "--method", "lambda", "--subsystem", "0,1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    oracle = marginal_by_sum(circuit, (0, 1)).as_mapping()
    probabilities = json.loads(out)["probabilities"]
    assert max(abs(probabilities[k] - oracle[k]) for k in oracle) < 1e-9
    assert peak < 4 * 2**20


def _strict_json(text: str):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def _finite_csv(text: str) -> None:
    """Every cell of a CSV report that reads as a number is finite."""
    for line in text.splitlines()[1:]:
        for cell in line.split(","):
            try:
                value = float(cell)
            except ValueError:
                continue
            assert math.isfinite(value), line


# Angles of +-1.7e308 are valid, but their sums over layers overflow.
_ANGLES = st.floats(-10, 10, allow_nan=False) | st.sampled_from([1.7e308, -1.7e308])
# Leaves a mutation may put anywhere: wrong types, huge and tiny numbers, strings.
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-3, 6)
    | st.sampled_from([2**64, -(10**400), 10**400])
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3)
)
_JSON = st.recursive(
    _LEAVES,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6,
)


@st.composite
def _unitary_cells(draw):
    special = draw(st.sampled_from(["random", "identity", "drift"]))
    if special == "identity":
        return [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    if special == "drift":
        return [[[1 + 4e-13, 0], [0, 0]], [[0, 0], [1, 0]]]
    a, b, c, d = (draw(_ANGLES) for _ in range(4))
    u = np.exp(1j * a) * np.array(
        [[np.exp(1j * b) * np.cos(c), np.exp(1j * d) * np.sin(c)],
         [-np.exp(-1j * d) * np.sin(c), np.exp(-1j * b) * np.cos(c)]]
    )
    return [[[float(x.real), float(x.imag)] for x in row] for row in u]


@st.composite
def _circuit_json(draw):
    particles = draw(st.integers(1, 5))
    layers = []
    for _ in range(draw(st.integers(0, 3))):
        singles = {
            str(i): draw(_unitary_cells())
            for i in range(particles)
            if draw(st.booleans())
        }
        pairs = [(a, b) for a in range(particles) for b in range(a + 1, particles)]
        phases = [
            {"pair": list(pair), "theta": [draw(_ANGLES) for _ in range(4)]}
            for pair in pairs
            if draw(st.booleans())
        ]
        layers.append({"singles": singles, "phases": phases})
    return {"particles": particles, "layers": layers}


def _mutate(data, document):
    """Replace, drop or add a few nodes of a JSON document.

    Each mutation walks down from the root, going one level deeper with odds
    of two in three, so the top-level keys, the layer fields and the numbers
    deep inside a gate all get hit.
    """
    for _ in range(data.draw(st.sampled_from([0, 1, 1, 2]))):
        node = document
        while True:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            inner = [k for k in keys if isinstance(node[k], (dict, list)) and node[k]]
            if inner and data.draw(st.integers(0, 2)):
                node = node[data.draw(st.sampled_from(inner))]
                continue
            action = data.draw(st.sampled_from(["replace", "drop", "add"])) if keys else "add"
            if action == "add" and isinstance(node, dict):
                key = data.draw(st.sampled_from(["particles", "layers", "singles", "phases", "pair", "theta", "file", "digest", "0", "x"]))
                node[key] = data.draw(_JSON)
            elif action == "add":
                node.append(data.draw(_JSON))
            elif action == "drop":
                del node[data.draw(st.sampled_from(keys))]
            else:
                node[data.draw(st.sampled_from(keys))] = data.draw(_JSON)
            break
    return document


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(st.data())
def test_cli_exit_codes_hold_on_random_and_mutated_input(data):
    circuit = _mutate(data, data.draw(_circuit_json()))
    if isinstance(circuit, dict) and isinstance(circuit.get("particles"), int) and circuit["particles"] > 5:
        circuit["particles"] = 5  # the contract under test covers at most five particles
    try:
        digest = circuit_digest(validate_circuit(circuit))
    except ValueError:  # an invalid circuit: any digest will do
        digest = "0" * 64
    entry = {"file": data.draw(st.sampled_from(["c.json", "missing.json", ""])), "digest": digest}
    manifest = _mutate(data, {"circuits": [entry]})
    subsystem = data.draw(st.sampled_from(["0", "1", "0,1", "1,2", "0,0", "5", "-1", "x"]))
    commands = [
        ("marginal", "--subsystem", subsystem, "--method", data.draw(st.sampled_from(["oracle", "pathsum", "lambda"]))),
        ("verify",),
        ("perturb", "--subsystem", subsystem, "--clamp", data.draw(st.sampled_from(["0", "0.5", "1", "2"]))),
        ("trace", "--subsystem", subsystem, "--endpoint", data.draw(st.sampled_from(["0", "1", "0,1", "2"])),
         "--pair", data.draw(st.sampled_from(["0,0", "0,1", "1,0", "3,1", "a,b"]))),
        ("density",),
    ]
    command = data.draw(st.sampled_from(commands + [("verify-manifest",)]))
    fmt = data.draw(st.sampled_from(["json", "csv"]))
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "c.json").write_text(json.dumps(circuit))
        (Path(tmp) / "manifest.json").write_text(json.dumps(manifest))
        if command[0] == "verify-manifest":
            argv = ("verify", "--manifest", str(Path(tmp) / "manifest.json"), "--format", fmt)
        else:
            argv = (command[0], "--circuit", str(Path(tmp) / "c.json"), *command[1:], "--format", fmt)
        code, out, err = run_cli(*argv)
    assert code in (0, 1, 2, 3)
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    elif "--format" in argv and fmt == "csv":
        _finite_csv(out)
    else:
        _strict_json(out)
