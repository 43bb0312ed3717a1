"""State-vector oracle against explicit Kronecker-product references."""
from __future__ import annotations

import ast
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumpaths.circuits import HADAMARD, build_epr_circuit, make_circuit
from sumpaths import oracle as oracle_module
from sumpaths.corpus import random_circuit
from sumpaths.oracle import Distribution, evolve, marginal_by_sum, states

from .reference import joint_distribution, kron_evolve, reduced_density, tensordot_oracle_layer

X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_bit_convention_particle0_is_most_significant():
    circuit = make_circuit(2, [({0: X}, [])])
    state = evolve(circuit)
    assert abs(state[2] - 1.0) < 1e-15  # |10> sits at index 2


def test_epr_layer1_is_bell_state_in_measurement_frame():
    # The Bell pair appears after undoing the basis-change Hadamard kept on
    # particle B; the layer-1 state itself is (I x H) |Bell>.
    circuit = build_epr_circuit(np.eye(2), np.eye(2))
    state = evolve(circuit, upto=1).reshape(2, 2)
    rotated = (state @ HADAMARD.T).reshape(-1)
    bell = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    assert np.max(np.abs(rotated - bell)) < 1e-12


def test_layer_zero_is_initial_state():
    circuit = build_epr_circuit(HADAMARD, HADAMARD)
    state = evolve(circuit, upto=0)
    assert abs(state[0] - 1.0) == 0.0 and np.all(state[1:] == 0.0)


def test_upto_out_of_range():
    circuit = build_epr_circuit(np.eye(2), np.eye(2))
    with pytest.raises(IndexError):
        evolve(circuit, upto=3)


def test_norm_preserved_on_random_three_particle_circuit():
    rng = np.random.default_rng(42)
    circuit = random_circuit(rng, particles=3, layers=5)
    for t in range(circuit.n + 1):
        assert abs(np.linalg.norm(evolve(circuit, upto=t)) - 1.0) < 1e-12


@pytest.mark.parametrize("particles,layers,seed", [(2, 4, 7), (3, 3, 11), (4, 3, 13)])
def test_evolution_matches_kron_reference(particles, layers, seed):
    circuit = random_circuit(np.random.default_rng(seed), particles, layers)
    for t in range(layers + 1):
        assert np.max(np.abs(evolve(circuit, upto=t) - kron_evolve(circuit, upto=t))) < 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(1, 5),
    st.integers(0, 6),
    st.sampled_from([0.0, 0.3, 1.0]),
    st.sampled_from([0.0, 0.3, 1.0]),
    st.integers(0, 2**32 - 1),
)
def test_streamed_states_are_the_evolved_states_bit_for_bit(particles, layers, p_single, p_phase, seed):
    # the whole stream is held, so a state written after its yield would show
    circuit = random_circuit(np.random.default_rng(seed), particles, layers, p_single, p_phase)
    streamed = list(states(circuit))
    assert len(streamed) == layers + 1
    for t, state in enumerate(streamed):
        assert np.array_equal(state, evolve(circuit, t))


def test_epr_joint_distribution_is_bell_correlated():
    # b2 = H undoes the measurement-frame Hadamard, exposing the Bell correlations.
    dist = joint_distribution(build_epr_circuit(np.eye(2), HADAMARD))
    assert abs(dist[(0, 0)] - 0.5) < 1e-12 and abs(dist[(1, 1)] - 0.5) < 1e-12
    assert dist[(0, 1)] < 1e-12 and dist[(1, 0)] < 1e-12


def test_epr_hadamard_measurement_gives_uniform_joint():
    # with both measurement rotations set to H the four joint outcomes are
    # equally likely, while the subsystem marginal stays 1/2
    dist = joint_distribution(build_epr_circuit(HADAMARD, HADAMARD))
    assert np.max(np.abs(dist.probabilities - 0.25)) < 1e-12
    marginal = marginal_by_sum(build_epr_circuit(HADAMARD, HADAMARD), {0})
    assert abs(marginal[0] - 0.5) < 1e-12


def test_all_identity_circuit_stays_at_zero():
    circuit = make_circuit(3, [({}, [])])
    dist = joint_distribution(circuit)
    assert abs(dist[(0, 0, 0)] - 1.0) < 1e-15


def test_epr_marginal_is_uniform_for_any_rotation():
    rng = np.random.default_rng(5)
    from sumpaths.circuits import random_single

    circuit = build_epr_circuit(random_single(rng), random_single(rng))
    marginal = marginal_by_sum(circuit, {0})
    assert abs(marginal[0] - 0.5) < 1e-12 and abs(marginal[1] - 0.5) < 1e-12


def test_marginal_of_product_circuit_is_single_particle_born_rule():
    rng = np.random.default_rng(9)
    from sumpaths.circuits import random_single

    a, b = random_single(rng), random_single(rng)
    circuit = make_circuit(2, [({0: a, 1: b}, [])])
    marginal = marginal_by_sum(circuit, {0})
    assert abs(marginal[0] - abs(a[0, 0]) ** 2) < 1e-12


def test_marginal_rejects_bad_subsystem():
    circuit = make_circuit(2, [({}, [])])
    with pytest.raises(ValueError):
        marginal_by_sum(circuit, set())
    with pytest.raises(ValueError):
        marginal_by_sum(circuit, {0, 2})


def test_reduced_density_of_bell_state_is_maximally_mixed():
    circuit = build_epr_circuit(np.eye(2), np.eye(2))
    rho = reduced_density(circuit, 0, upto=1)
    assert np.max(np.abs(rho - np.eye(2) / 2)) < 1e-12


def test_reduced_density_at_layer_zero():
    circuit = build_epr_circuit(np.eye(2), np.eye(2))
    rho = reduced_density(circuit, 1, upto=0)
    assert np.max(np.abs(rho - np.diag([1.0, 0.0]))) == 0.0


def test_reduced_density_diagonal_matches_marginal():
    circuit = random_circuit(np.random.default_rng(21), particles=3, layers=4)
    rho = reduced_density(circuit, 1)
    marginal = marginal_by_sum(circuit, {1})
    assert abs(rho[0, 0].real - marginal[0]) < 1e-12
    assert abs(rho[1, 1].real - marginal[1]) < 1e-12
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert abs(np.trace(rho).real - 1.0) < 1e-10
    assert np.linalg.eigvalsh(rho).min() > -1e-10


def test_distribution_rejects_unnormalized_probabilities():
    with pytest.raises(ValueError):
        Distribution(labels=((0,), (1,)), probabilities=np.array([0.7, 0.7]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 8), st.sampled_from([0.3, 1.0]), st.integers(0, 2**32 - 1))
def test_layer_kernel_equals_the_tensordot_form(particles, p_single, seed):
    rng = np.random.default_rng(seed)
    circuit = random_circuit(rng, particles, 1, p_single=p_single, p_phase=1.0)
    state = rng.normal(size=(2,) * particles) + 1j * rng.normal(size=(2,) * particles)
    layer = oracle_module._apply_layer(state, circuit, 1)
    assert np.array_equal(layer, tensordot_oracle_layer(state, circuit, 1))


@pytest.mark.parametrize("p_phase, layers", [(1.0, 2), (0.3, 3)])
def test_a_layer_holds_under_five_state_vectors(p_phase, layers):
    # a gate's reordered operand and product are dropped before the next gate's are built; at
    # p_phase 0.3 a layer leaves a strided result, which the generator flattens and keeps alone
    circuit = random_circuit(np.random.default_rng(1), 16, layers, p_single=1.0, p_phase=p_phase)
    tracemalloc.start()
    try:
        evolve(circuit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * (16 << 16)  # one state vector: 2^16 amplitudes of 16 bytes


def test_oracle_imports_no_kernel_of_the_routes_it_checks():
    tree = ast.parse(open(oracle_module.__file__, encoding="utf-8").read())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not imported & {"paths", "twoparticle", "threeparticle", "subsystems", "density"}
