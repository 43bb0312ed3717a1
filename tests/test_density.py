"""Reduced-density hit/miss split against the partial-trace oracle."""
from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumpaths import density
from sumpaths.circuits import PhaseGate, build_epr_circuit, load_circuit, make_circuit, random_single
from sumpaths.corpus import random_circuit
from sumpaths.density import PhaseGateNotNormalized, density_report, normalized_phase_form
from sumpaths.oracle import evolve
from sumpaths.verify import verify_circuit

from .reference import (
    collapse_amplitude_direct,
    density_step,
    hit_offdiagonal,
    hit_pathsum_amplitude,
    joint_distribution,
    reduced_density,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def joint_at(circuit, t):
    psi = evolve(circuit, t)
    return np.outer(psi, psi.conj())


def test_normalized_form_preserves_physics():
    circuit = random_circuit(np.random.default_rng(3), 2, 5)
    normalized = normalized_phase_form(circuit)
    for gate in (g for layer in normalized.layers for g in layer.phases):
        assert gate.thetas[:3] == (0.0, 0.0, 0.0)
    assert np.max(
        np.abs(joint_distribution(circuit).probabilities - joint_distribution(normalized).probabilities)
    ) < 1e-12
    for t in range(circuit.n + 1):
        assert np.max(np.abs(reduced_density(circuit, 0, t) - reduced_density(normalized, 0, t))) < 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(1, 5),
    st.lists(st.sampled_from([1.7e308, -1.7e308]) | st.floats(-1e16, 1e16), min_size=20, max_size=20),
    st.integers(0, 2**32 - 1),
)
@example(5, [1.7e308, -1.7e308, -1.7e308, 1.7e308] * 5, 0)  # t1 + t4 - t2 - t3 overflows
def test_density_total_is_the_given_circuits_reduced_density_at_extreme_angles(layers, angles, seed):
    # the normalization reads each gate's table, so moving its local factors loses no bits
    rng = np.random.default_rng(seed)
    circuit = make_circuit(
        2,
        [
            ({0: random_single(rng), 1: random_single(rng)}, [PhaseGate((0, 1), tuple(angles[4 * t : 4 * t + 4]))])
            for t in range(layers)
        ],
    )
    for record in density_report(circuit):
        assert np.max(np.abs(record["total"] - reduced_density(circuit, 0, record["layer"]))) < 1e-12


def test_density_step_without_gate_has_zero_hit():
    circuit = make_circuit(2, [({0: np.eye(2)}, [])])
    pair = density_step(circuit, 1, joint_at(circuit, 0))
    assert np.all(pair.hit == 0)
    assert np.max(np.abs(pair.miss - np.diag([1.0, 0.0]))) == 0.0


def test_epr_layer_one_split():
    circuit = build_epr_circuit(np.eye(2), np.eye(2))
    pair = density_step(circuit, 1, joint_at(circuit, 0))
    assert np.max(np.abs(pair.total - np.eye(2) / 2)) < 1e-12
    # the miss keeps the |+><+| coherences; the hit cancels them exactly
    assert np.max(np.abs(pair.miss - np.full((2, 2), 0.5))) < 1e-12
    assert np.max(np.abs(pair.hit - np.array([[0, -0.5], [-0.5, 0]]))) < 1e-12
    assert np.max(np.abs(np.diag(pair.hit))) < 1e-15


def test_reconstruction_on_random_circuits():
    rng = np.random.default_rng(5)
    for _ in range(4):
        circuit = normalized_phase_form(random_circuit(rng, 2, 6))
        for t in range(1, 7):
            pair = density_step(circuit, t, joint_at(circuit, t - 1))
            oracle = reduced_density(circuit, 0, t)
            assert np.linalg.norm(pair.total - oracle) < 1e-10
            assert np.max(np.abs(np.diag(pair.hit))) < 1e-12


def test_hit_is_not_a_density_matrix():
    circuit = build_epr_circuit(np.eye(2), np.eye(2))
    pair = density_step(circuit, 1, joint_at(circuit, 0))
    eigenvalues = np.linalg.eigvalsh(pair.hit)
    assert eigenvalues.min() < -1e-3  # not positive semidefinite
    assert abs(np.trace(pair.hit)) < 1e-12  # and traceless, so certainly not trace one


def test_offdiagonal_formula_matches_split_hit():
    rng = np.random.default_rng(7)
    for _ in range(4):
        circuit = normalized_phase_form(random_circuit(rng, 2, 5))
        for t in range(1, 6):
            prev = joint_at(circuit, t - 1)
            pair = density_step(circuit, t, prev)
            off = hit_offdiagonal(circuit, t, prev)
            assert np.max(np.abs(off - pair.hit)) < 1e-12


def test_offdiagonal_zero_angle_is_zero():
    circuit = make_circuit(2, [({}, [PhaseGate((0, 1), (0.0, 0.0, 0.0, 0.0))])])
    off = hit_offdiagonal(circuit, 1, joint_at(circuit, 0))
    assert np.all(off == 0)


def test_unnormalized_gate_is_rejected():
    circuit = make_circuit(2, [({}, [PhaseGate((0, 1), (0.1, 0.0, 0.0, 1.0))])])
    with pytest.raises(PhaseGateNotNormalized):
        density_step(circuit, 1, joint_at(circuit, 0))


def test_pathsum_amplitude_product_state_collapses_to_single_term():
    from sumpaths.circuits import random_single

    b = random_single(np.random.default_rng(9))
    circuit = make_circuit(2, [({1: b}, []), ({1: b}, [])])
    # identity A gates: only the all-zero path contributes, giving <1|BB|0>
    value = hit_pathsum_amplitude(circuit, 2)
    assert abs(value - (b @ b)[1, 0]) < 1e-14


def test_pathsum_amplitude_epr_layer_two():
    circuit = build_epr_circuit(np.eye(2), np.eye(2))
    value = hit_pathsum_amplitude(circuit, 2)
    assert abs(value - collapse_amplitude_direct(circuit, 2)) < 1e-12


def test_pathsum_amplitude_matches_direct_on_random_circuits():
    rng = np.random.default_rng(11)
    for _ in range(4):
        circuit = normalized_phase_form(random_circuit(rng, 2, 6))
        for t in range(1, 7):
            value = hit_pathsum_amplitude(circuit, t)
            assert abs(value - collapse_amplitude_direct(circuit, t)) < 1e-10


def test_density_report_is_clean_on_epr():
    records = density_report(build_epr_circuit(np.eye(2), np.eye(2)))
    assert len(records) == 2
    for record in records:
        assert record["frobenius_error"] < 1e-10
        assert record["hit_diagonal_max"] < 1e-12
        assert record["offdiagonal_error"] < 1e-12
        assert record["pathsum_error"] < 1e-10


def _assert_report_equals_the_one_layer_functions(circuit):
    normalized = normalized_phase_form(circuit)
    records = density_report(circuit)
    assert [record["layer"] for record in records] == list(range(1, circuit.n + 1))
    for t, record in enumerate(records, start=1):
        prev_joint = joint_at(normalized, t - 1)
        pair = density_step(normalized, t, prev_joint)
        assert np.array_equal(record["miss"], pair.miss)
        assert np.array_equal(record["hit"], pair.hit)
        assert np.array_equal(record["total"], pair.total)
        off = hit_offdiagonal(normalized, t, prev_joint)
        assert record["offdiagonal_error"] == float(np.max(np.abs(off - pair.hit)))
        pathsum = hit_pathsum_amplitude(normalized, t)
        direct = collapse_amplitude_direct(normalized, t)
        # the Kronecker product by broadcast gives np.kron's bits
        singles = np.kron(normalized.single(t, 0), normalized.single(t, 1))
        assert direct == complex((singles @ evolve(normalized, t - 1))[1])
        assert record["pathsum_amplitude"] == pathsum
        assert record["pathsum_error"] == abs(pathsum - direct)
        assert np.array_equal(record["oracle"], reduced_density(circuit, 0, t))  # the given circuit's


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.integers(1, 6),
    st.sampled_from([0.3, 1.0]),
    st.sampled_from([0.0, 0.3, 1.0]),
    st.integers(0, 2**32 - 1),
)
def test_density_report_matches_the_per_layer_references_bit_for_bit(layers, p_single, p_phase, seed):
    _assert_report_equals_the_one_layer_functions(
        random_circuit(np.random.default_rng(seed), 2, layers, p_single, p_phase)
    )


@pytest.mark.parametrize("name", sorted(path.name for path in CORPUS.glob("n2_*.json")))
def test_density_report_matches_the_per_layer_references_on_the_corpus(name):
    _assert_report_equals_the_one_layer_functions(load_circuit(str(CORPUS / name)))


def test_rejects_three_particle_circuits():
    circuit = random_circuit(np.random.default_rng(13), 3, 2)
    with pytest.raises(ValueError):
        normalized_phase_form(circuit)


@pytest.mark.parametrize("name", ["n2_l3_s0.json", "n2_l8_s1.json"])
def test_density_reconstruction_sees_a_fault_in_the_normalization(monkeypatch, name):
    # the oracle matrices are the given circuit's, so a normalization that drops each gate's
    # local factor on particle 0 leaves the recursion's totals off them
    factor = density.factor_phase_gate
    monkeypatch.setattr(density, "factor_phase_gate", lambda gate: dataclasses.replace(factor(gate), local_first=1.0))
    checks = {check.name: check for check in verify_circuit(load_circuit(str(CORPUS / name))).checks}
    assert not checks["density_reconstruction"].passed
    assert checks["oracle_equivalence"].passed
