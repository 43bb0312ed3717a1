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

from sumpaths import common, oracle, paths, subsystems, threeparticle, twoparticle, verify
from sumpaths.circuits import HADAMARD, PhaseGate, build_epr_circuit, load_circuit, make_circuit, save_circuit
from sumpaths.common import BudgetExceeded
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


FOUR_OR_MORE_CHECKS = [
    # the hit stream's walk, as for two particles, without the density checks
    "norm_preservation",
    "pathsum_completeness",
    "oracle_equivalence",
    "marginal_normalization",
    "telescoping",
    "zero_hit_layers",
    "two_form_equivalence",
    "hermitian_pairing",
    "lambda_bound",
    "general_subsystem",
    "no_signaling",
]


def test_four_particle_report_passes():
    circuit = random_circuit(np.random.default_rng(7), 4, 3)
    report = verify_circuit(circuit)
    assert report.passed
    assert [check.name for check in report.checks] == FOUR_OR_MORE_CHECKS


@pytest.mark.parametrize("particles, layers", [(5, 4), (6, 2)])
def test_more_particles_list_the_four_particle_checks(particles, layers):
    report = verify_circuit(random_circuit(np.random.default_rng(7), particles, layers, p_phase=1.0))
    assert report.passed
    assert [check.name for check in report.checks] == FOUR_OR_MORE_CHECKS


def test_a_failing_check_fails_the_report_and_exits_one(tmp_path, monkeypatch):
    path = tmp_path / "c.json"
    save_circuit(random_circuit(np.random.default_rng(11), 2, 4), str(path))
    monkeypatch.setattr(verify, "marginal_deviation", lambda *args: twoparticle.marginal_deviation(*args) + 1e-6)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify", "--circuit", str(path)])
    assert code == 1
    assert json.loads(out.getvalue())["pass"] is False
    assert err.getvalue() == "error: checks failed: two_form_equivalence\n"


TOLERANCES = {
    "norm_preservation": 1e-12,
    "pathsum_completeness": 1e-10,
    "oracle_equivalence": 1e-9,
    "marginal_normalization": 1e-9,
    "three_closure": 1e-9,
    "telescoping": 1e-10,
    "zero_hit_layers": 0.0,
    "two_form_equivalence": 1e-10,
    "hermitian_pairing": 1e-12,
    "lambda_bound": 1e-10,
    "density_reconstruction": 1e-10,
    "density_hit_diagonal": 1e-12,
    "density_offdiagonal_form": 1e-12,
    "density_pathsum": 1e-10,
    "general_subsystem": 1e-9,
    "no_signaling": 1e-12,
}


def test_each_check_reports_its_fixed_tolerance():
    seen = set()
    for particles in (1, 2, 3, 4):
        circuit = random_circuit(np.random.default_rng(particles), particles, 3, p_single=1.0, p_phase=1.0)
        for check in verify_circuit(circuit).to_json()["checks"]:
            assert check["tolerance"] == TOLERANCES[check["name"]], check["name"]
            seen.add(check["name"])
    assert seen == set(TOLERANCES)


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
        # one pass of the tree's stream: each layer serves the tables, the marginals and
        # no_signaling, whose appended layer has no gate on particle 0 and books no hit
        ("n2_l8_s0.json", twoparticle.tree_layers, 1),
        # one cascade pass: its listed hit factors serve the tables and both marginals
        ("n3_l3_s0.json", threeparticle.cascade_hits, 1),
        # one step per layer of each conditioned prefix tree, none grown twice: the 8 layers
        # of the stream's tree and the first 7 of density's
        ("n2_l8_s0.json", paths.tree_step, 15),
        # 3 layers of (0,)'s tree, grown by the stream (N=4) or zipped with the cascade (N=3),
        # and the first 2 of (0, 1)'s tree for general_subsystem, whose pair sums skip layer 3
        ("n3_l3_s0.json", paths.tree_step, 5),
        ("n4_l3_s0.json", paths.tree_step, 5),
    ],
)
def test_verify_builds_each_route_once(monkeypatch, file, builder, builds):
    calls = count_calls(monkeypatch, builder)
    assert verify_circuit(load_circuit(str(CORPUS / file))).passed
    assert len(calls) == builds


@pytest.mark.parametrize("file", ["n2_l8_s0.json", "n2_l1_s0.json", "n4_l4_s0.json"])
def test_verify_adds_each_hit_to_lambda_once(monkeypatch, file):
    # the walk adds layer t's hit to lambda once per layer, and two_form_equivalence reads
    # the endpoint rows of the walk's final table
    circuit = load_circuit(str(CORPUS / file))
    calls = count_calls(monkeypatch, common.add_hit)
    assert verify_circuit(circuit).passed
    assert len(calls) == circuit.n


@pytest.mark.parametrize(
    "file, most",
    [
        # the base circuit's layers and the appended one, plus the normalized circuit's for density
        ("n2_l8_s0.json", 17),
        ("n3_l5_s0.json", 6),
        ("n4_l4_s0.json", 5),
    ],
)
def test_verify_evolves_the_state_vector_once(monkeypatch, file, most):
    calls = count_calls(monkeypatch, oracle._apply_layer)
    assert verify_circuit(load_circuit(str(CORPUS / file))).passed
    assert len(calls) <= most


@pytest.mark.parametrize("file", ["n2_l5_s0.json", "n3_l3_s0.json"])
def test_no_signaling_catches_a_bad_fold(monkeypatch, file):
    # only the extended circuit's pair sums get endpoint 0's amplitudes scaled: they read the
    # layers of the tree (N=2) or the cascade (N=3), with the appended layer's none
    base = load_circuit(str(CORPUS / file))

    def bad_fold(circuit, particles):
        amplitudes = subsystems.joint_amplitudes(circuit, particles)
        if circuit.n > base.n:
            amplitudes[0] *= 1.0 + 1e-6
        return amplitudes

    monkeypatch.setattr(verify, "joint_amplitudes", bad_fold)
    checks = {check.name: check for check in verify_circuit(load_circuit(str(CORPUS / file))).checks}
    assert checks["oracle_equivalence"].passed
    assert not checks["no_signaling"].passed


@pytest.mark.parametrize("particles, layers", [(13, 2), (16, 1)])
def test_verify_passes_past_twelve_particles(particles, layers):
    # the oracle is charged 2^N amplitudes per state vector, within the default budget up to N = 22
    circuit = random_circuit(np.random.default_rng(1), particles, layers, p_single=1.0, p_phase=1.0)
    report = verify_circuit(circuit)
    assert report.passed, [check.name for check in report.checks if not check.passed]
    assert len(report.checks) == 11


def test_three_particle_verify_charges_the_base_tables_only(tmp_path):
    # the cascade charges the base circuit's 4^3 lambda entries, 2 x 4 path weights, 4 partner
    # states and at most 2^5 x 5 = 160 listed hit factors, its largest charge; the (0, 1) route
    # charges 2^7 conditioned external states, and no extended build charges its 4^4 = 256
    # lambda entries
    thetas = (0.0, 0.4, 1.1, 2.3)
    first = [PhaseGate(pair, thetas) for pair in ((0, 1), (0, 2), (1, 2))]
    later = ({}, [PhaseGate((1, 2), thetas)])
    circuit = make_circuit(3, [({0: HADAMARD, 1: HADAMARD, 2: HADAMARD}, first), later, later])
    path = tmp_path / "c.json"
    save_circuit(circuit, str(path))
    stops = {63: "path-pair table needs 64", 159: "hit factors needs 160"}
    for budget, code in ((63, 3), (159, 3), (160, 0), (200, 0), (255, 0)):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            assert main(["verify", "--circuit", str(path), "--budget", str(budget)]) == code
        assert err.getvalue().startswith(f"error: {stops[budget]} ") if code else err.getvalue() == ""


@pytest.mark.parametrize("file", sorted(path.name for path in CORPUS.glob("n*_l*_s*.json")))
def test_verify_checks_the_bits_the_marginal_prints(monkeypatch, file):
    # the walk's base pair sums read layers 1..n-1, as lambda_marginals does, so the (0,)
    # marginals that oracle_equivalence checks are the ones `marginal` prints, bit for bit
    circuit = load_circuit(str(CORPUS / file))
    checks, walked = verify._lambda_checks, []

    def recorded(*args):
        walked.append(checks(*args))
        return walked[-1]

    monkeypatch.setattr(verify, "_lambda_checks", recorded)
    assert verify_circuit(circuit).passed
    (base, _), = walked
    assert base == list(subsystems.lambda_marginals(circuit, (0,)).values())


def test_marginal_builds_one_tree_for_every_outcome(monkeypatch):
    calls = count_calls(monkeypatch, twoparticle.tree_layers)
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

    build = twoparticle.tree_layers

    def slow_build(*args, **kwargs):
        clock[0] += 1000.0
        return build(*args, **kwargs)

    monkeypatch.setattr(verify, "perf_counter", fake_clock)
    monkeypatch.setattr(verify, "tree_layers", slow_build)
    report = verify_circuit(load_circuit(str(CORPUS / "n2_l8_s0.json")))
    timings = {check.name: check.timing_ms for check in report.checks}
    assert len(reads) == len(report.checks) + 1
    assert sum(timings.values()) == (reads[-1] - reads[0]) * 1000.0
    # the one build is charged to the first check that reads it
    slow = {name for name, ms in timings.items() if ms > 1000.0 * 1000.0}
    assert slow == {"oracle_equivalence"}
    assert all(ms == 1000.0 for name, ms in timings.items() if name not in slow)


def _nudged_at(layer: int):
    """The tree's stream with one more hit at `layer`: 1e-13 between prefixes 0 and 1, and an exact 0 on the diagonal."""
    build = twoparticle.tree_layers

    def nudged(*args, **kwargs):
        for t, (hits, table) in enumerate(build(*args, **kwargs), start=1):
            if t == layer:
                side = np.zeros((table.shape[0], 2), dtype=complex)
                side[0], side[1, 0] = 1.0, 1e-13
                hits = hits + ((side, np.array([1.0, -1.0])),)
            yield hits, table

    return nudged


def test_zero_hit_layers_compares_streamed_tables_at_nine_layers(monkeypatch):
    # layer 5 of an otherwise all-gates n = 9 circuit has no 0-1 gate; a hit
    # streamed there nudges its table off the repeat of layer 4's, which must fail the check
    base = random_circuit(np.random.default_rng(61), 2, 9, p_single=1.0, p_phase=1.0)
    specs = [
        (dict(enumerate(layer.singles)), [] if t == 5 else list(layer.phases))
        for t, layer in enumerate(base.layers, start=1)
    ]
    circuit = make_circuit(2, specs)
    assert verify_circuit(circuit).passed
    monkeypatch.setattr(verify, "tree_layers", _nudged_at(5))
    checks = {check.name: check for check in verify_circuit(circuit).checks}
    assert not checks["zero_hit_layers"].passed and checks["zero_hit_layers"].max_error > 0.0
    assert checks["telescoping"].passed


def test_zero_hit_layers_compares_streamed_tables_at_four_particles(monkeypatch):
    # layer 3 of an all-gates N=4 n=5 circuit keeps only its external gates; a hit
    # streamed there nudges its table off the repeat of layer 2's, which must fail the check
    base = random_circuit(np.random.default_rng(29), 4, 5, p_single=1.0, p_phase=1.0)
    specs = [
        (dict(enumerate(layer.singles)), [g for g in layer.phases if t != 3 or 0 not in g.pair])
        for t, layer in enumerate(base.layers, start=1)
    ]
    circuit = make_circuit(4, specs)
    assert verify_circuit(circuit).passed
    monkeypatch.setattr(verify, "tree_layers", _nudged_at(3))
    checks = {check.name: check for check in verify_circuit(circuit).checks}
    assert not checks["zero_hit_layers"].passed and checks["zero_hit_layers"].max_error > 0.0
    assert checks["telescoping"].passed


@pytest.mark.parametrize(
    "particles, layers, charge",
    [
        (3, 12, "path-sum pair phase tables needs 12582912"),
        (4, 9, "path-sum elimination table needs 33554432"),
        (2, 12, "path-pair table needs 16777216"),
    ],
)
def test_every_charge_is_checked_before_any_check_runs(monkeypatch, tmp_path, particles, layers, charge):
    # each of these fits its first charges and fails a later one
    def no_oracle(*args, **kwargs):
        raise AssertionError("the oracle ran before every charge was checked")

    monkeypatch.setattr(verify, "states", no_oracle)
    path = tmp_path / "c.json"
    save_circuit(random_circuit(np.random.default_rng(11), particles, layers, p_single=0.9, p_phase=1.0), str(path))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify", "--circuit", str(path)])
    assert (code, out.getvalue()) == (3, "")
    assert err.getvalue() == f"error: {charge} combinations, budget is 4194304; raise --budget to override\n"


@pytest.mark.parametrize("particles, layers", [(3, 11), (4, 8)])
def test_verify_reaches_eleven_all_gates_layers_at_three_particles_and_eight_at_four(particles, layers):
    # one layer more passes the path sum's pair phase tables (N=3) or its elimination table (N=4),
    # which test_every_charge_is_checked_before_any_check_runs pins; at N=4 n=8 that table is
    # exactly 2^22, and at N=3 n=11 so are the cascade's struck path weights and the (0, 1) amplitudes
    circuit = random_circuit(np.random.default_rng(11), particles, layers, p_single=1.0, p_phase=1.0)
    assert verify_circuit(circuit).passed


@pytest.mark.parametrize("file", ["n2_l3_s0.json", "n3_l3_s0.json", "n4_l3_s0.json"])
def test_verify_charges_name_every_charge_the_checks_make(file):
    # the checks fit exactly the largest listed charge, and one less fails the first one that needs it
    circuit = load_circuit(str(CORPUS / file))
    charges = verify.verify_charges(circuit)
    largest = max(count for count, _ in charges)
    assert verify_circuit(circuit, budget=largest).passed
    first = next(what for count, what in charges if count == largest)
    with pytest.raises(BudgetExceeded, match=f"^{first} needs {largest} "):
        verify_circuit(circuit, budget=largest - 1)


def test_hermitian_gap_reads_every_slab_and_keeps_nan():
    rng = np.random.default_rng(3)
    for size in (1, 64, 65, 200):
        table = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        assert verify._hermitian_gap(table) == float(np.max(np.abs(table - table.conj().T)))
        table[-1, 0] = np.nan
        assert np.isnan(verify._hermitian_gap(table))
