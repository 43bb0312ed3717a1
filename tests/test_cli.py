"""CLI contract: commands, output schemas, exit codes, byte-stable reports."""
from __future__ import annotations

import io
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

from sumpaths.circuits import (
    build_epr_circuit,
    circuit_digest,
    load_circuit,
    save_circuit,
    validate_circuit,
)
from sumpaths.cli import main
from sumpaths.corpus import random_circuit
from sumpaths.oracle import marginal_by_sum
from sumpaths.verify import verify_circuit

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


def test_trace_bad_pair_index(epr_file):
    code, _, err = run_cli("trace", "--circuit", epr_file, "--pair", "0,7")
    assert code == 2 and "out of range" in err


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


def test_verify_manifest_runs_every_circuit():
    # a small manifest over three shipped corpus files keeps this test quick
    manifest = json.loads((CORPUS / "manifest.json").read_text())
    subset = {
        "schema": 1,
        "generator_version": manifest["generator_version"],
        "circuits": manifest["circuits"][:3],
    }
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        sub_path = Path(tmp) / "manifest.json"
        sub_path.write_text(json.dumps(subset))
        for entry in subset["circuits"]:
            (Path(tmp) / entry["file"]).write_text((CORPUS / entry["file"]).read_text())
        code, out, _ = run_cli("verify", "--manifest", str(sub_path))
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True and len(report["circuits"]) == 3


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


def test_epr_command_rejects_nonunitary_matrix():
    bad = json.dumps([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]])
    code, _, _ = run_cli("epr", "--a2", bad)
    assert code == 2


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


def test_perturb_rejects_negative_clamp(epr_file):
    code, _, _ = run_cli("perturb", "--circuit", epr_file, "--clamp", "-0.5")
    assert code == 2


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


def test_csv_outputs_for_every_command(epr_file, random_file):
    code, out, _ = run_cli("trace", "--circuit", random_file, "--pair", "0,1", "--format", "csv")
    assert code == 0 and out.splitlines()[0] == "layer,lambda_re,lambda_im,hit_re,hit_im"
    assert len(out.splitlines()) == 5  # header + lambda^(0..3)

    code, out, _ = run_cli("epr", "--a2", "0.4", "--format", "csv")
    assert code == 0 and out.splitlines()[0] == "method,outcome,probability"
    assert len(out.splitlines()) == 7

    code, out, _ = run_cli("perturb", "--circuit", epr_file, "--clamp", "0.5", "--format", "csv")
    assert code == 0 and out.splitlines()[0] == "outcome,raw,probability,oracle,deviation"

    code, out, _ = run_cli("density", "--circuit", epr_file, "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "t,frobeniusError,hitDiagonalMax,offdiagonalError,pathsumError"

    code, out, _ = run_cli("verify", "--circuit", epr_file, "--format", "csv")
    assert code == 0 and out.splitlines()[0] == "check,max_error,tolerance,pass"


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


def test_zero_oracle_cap_is_input_error(epr_file):
    from sumpaths import oracle

    cap = oracle.MAX_ORACLE_PARTICLES
    code, out, err = run_cli("marginal", "--circuit", epr_file, "--oracle-cap", "0")
    assert code == 2 and out == ""
    assert err == "error: oracle cap must be at least 1, got 0\n"
    assert oracle.MAX_ORACLE_PARTICLES == cap


@pytest.mark.parametrize("manifest", ["[]", '{"circuits": 3}', '{"circuits": [{"file": 3}]}'])
def test_malformed_manifest_is_input_error(tmp_path, manifest):
    path = tmp_path / "manifest.json"
    path.write_text(manifest, encoding="utf-8")
    code, out, err = run_cli("verify", "--manifest", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: manifest") and err.count("\n") == 1


def test_epr_matrix_without_pairs_is_input_error():
    code, out, err = run_cli("epr", "--a2", "[[1,2]]")
    assert code == 2 and out == ""
    assert err.startswith("error: gate spec") and err.count("\n") == 1


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


def test_oracle_cap_lasts_one_call():
    code, _, _ = run_cli(
        "marginal", "--circuit", str(CORPUS / "n2_l2_s0.json"), "--method", "oracle", "--oracle-cap", "2"
    )
    assert code == 0
    code, _, err = run_cli("marginal", "--circuit", str(CORPUS / "n3_l2_s0.json"), "--method", "oracle")
    assert code == 0, err


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


def test_sixteen_particles_fit_and_twenty_four_exit_before_allocating(tmp_path):
    small, large = tmp_path / "p16.json", tmp_path / "p24.json"
    save_circuit(random_circuit(np.random.default_rng(1), 16, 1), str(small))
    save_circuit(random_circuit(np.random.default_rng(1), 24, 1), str(large))
    code, out, err = run_cli("marginal", "--circuit", str(small), "--method", "lambda")
    assert (code, err) == (0, "")
    code, oracle_out, _ = run_cli("marginal", "--circuit", str(small), "--method", "oracle", "--oracle-cap", "16")
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


def test_non_finite_results_exit_one(tmp_path):
    # valid angles whose sum over three layers overflows: the path sums are NaN
    path = tmp_path / "huge.json"
    layer = {"phases": [{"pair": [0, 1], "theta": [0, 0, 0, 1.7e308]}]}
    path.write_text(json.dumps({"particles": 2, "layers": [layer] * 3}))
    with np.errstate(all="ignore"):
        checks = {c.name: c for c in verify_circuit(load_circuit(str(path))).checks}
    assert math.isnan(checks["pathsum_completeness"].max_error)
    assert not checks["pathsum_completeness"].passed
    for argv in (("verify",), ("marginal", "--method", "pathsum")):
        for fmt in ("json", "csv"):
            code, out, err = run_cli(argv[0], "--circuit", str(path), *argv[1:], "--format", fmt)
            assert code == 1 and out == ""
            assert err == "error: result is not finite\n"


def test_trace_charges_the_conditioned_external_states(tmp_path):
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
    assert err.startswith("error: conditioned external states needs 32768") and err.count("\n") == 1
    assert peak < 2**20  # one 2^15 external state is 512 KiB


def test_lambda_blocks_are_held_one_at_a_time(tmp_path):
    # subsystem (0, 1) of an all-gates N=4 n=6 circuit: each outcome's lambda is
    # 1024 x 1024 complex, 16 MiB, and four outcomes would hold 64 MiB
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
    assert peak < 2 * 16 * 2**20


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
        if command[0] == "verify-manifest":  # a manifest report is JSON in either format
            argv = ("verify", "--manifest", str(Path(tmp) / "manifest.json"))
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
