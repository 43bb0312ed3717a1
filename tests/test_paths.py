"""Path engine: enumeration, amplitudes, joint phases, path sums, conditional unitaries."""
from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumpaths.circuits import HADAMARD, PhaseGate, build_epr_circuit, make_circuit, random_single
from sumpaths.common import BudgetExceeded
from sumpaths.corpus import random_circuit
from sumpaths.oracle import evolve
from sumpaths.paths import (
    Path,
    amplitudes_via_paths,
    apply_single,
    condition_on_paths,
    conditioned_prefix_states,
    enumerate_paths,
    member_paths_at,
    path_amplitude,
    pair_phases,
    prefix_amplitude_layers,
    prefix_amplitudes,
)

from .reference import (
    brute_amplitude,
    conditioned_external_matrix,
    conditioned_unitary,
    einsum_amplitudes,
    joint_phase,
    kron_pair_phases,
    moveaxis_single,
    path_index,
    repeat_prefix_amplitudes,
    tensordot_conditioned_layer,
)


def test_two_layer_enumeration_has_two_paths():
    paths = enumerate_paths(2, endpoint=1)
    assert [p.modes for p in paths] == [(0, 1), (1, 1)]


def test_single_layer_enumeration():
    assert [p.modes for p in enumerate_paths(1, 0)] == [(0,)]


def test_four_layer_enumeration_is_lexicographic():
    paths = enumerate_paths(4, endpoint=1)
    assert len(paths) == 8
    prefixes = [p.modes[:-1] for p in paths]
    assert prefixes == sorted(prefixes)
    assert all(p.endpoint == 1 for p in paths)
    assert [path_index(p) for p in paths] == list(range(8))


def test_zero_layer_enumeration_rejected():
    with pytest.raises(ValueError):
        enumerate_paths(0, 0)


@pytest.mark.parametrize("members", [1, 2, 3])
def test_member_paths_at_builds_the_product_order_at_every_index(members):
    for n in range(1, 5):
        for endpoints in itertools.product((0, 1), repeat=members):
            product = list(itertools.product(*(enumerate_paths(n, e) for e in endpoints)))
            built = [member_paths_at(n, endpoints, index) for index in range(len(product))]
            assert built == product
            for index in (-1, len(product)):
                with pytest.raises(IndexError):
                    member_paths_at(n, endpoints, index)


def test_member_paths_at_rejects_what_enumeration_rejects_first():
    with pytest.raises(ValueError, match="at least one layer"):
        member_paths_at(0, (0,), 5)
    with pytest.raises(ValueError, match="endpoint must be 0 or 1, got 2"):
        member_paths_at(3, (1, 2), 99)


def test_hadamard_path_amplitude():
    circuit = make_circuit(1, [({0: HADAMARD}, [])])
    assert abs(path_amplitude(circuit, 0, Path((0,))) - 1 / math.sqrt(2)) < 1e-15


def test_identity_path_amplitudes():
    circuit = make_circuit(1, [({}, []), ({}, [])])
    assert path_amplitude(circuit, 0, Path((0, 0))) == 1.0
    assert path_amplitude(circuit, 0, Path((1, 1))) == 0.0


def test_path_amplitudes_sum_to_free_matrix_element():
    circuit = random_circuit(np.random.default_rng(3), particles=1, layers=5)
    free = np.eye(2, dtype=complex)
    for t in range(1, 6):
        free = circuit.single(t, 0) @ free
    for endpoint in (0, 1):
        total = sum(path_amplitude(circuit, 0, p) for p in enumerate_paths(5, endpoint))
        assert abs(total - free[endpoint, 0]) < 1e-12


def test_amplitude_modulus_bounded_by_one():
    circuit = random_circuit(np.random.default_rng(17), particles=2, layers=6)
    for endpoint in (0, 1):
        for p in enumerate_paths(6, endpoint):
            assert abs(path_amplitude(circuit, 0, p)) <= 1 + 1e-12


def test_epr_joint_phase_flips_on_mode_one_pair():
    circuit = build_epr_circuit(np.eye(2), np.eye(2))
    phase = joint_phase(circuit, [Path((1, 0)), Path((1, 0))])
    assert abs(phase + 1.0) < 1e-12
    phase = joint_phase(circuit, [Path((0, 0)), Path((1, 0))])
    assert abs(phase - 1.0) < 1e-12


def test_zero_theta_joint_phase_is_one():
    circuit = make_circuit(2, [({}, [PhaseGate((0, 1), (0.0, 0.0, 0.0, 0.0))])])
    for pa, pb in itertools.product(enumerate_paths(1, 0) + enumerate_paths(1, 1), repeat=2):
        assert joint_phase(circuit, [pa, pb]) == 1.0


def test_two_layer_amplitude_is_sum_of_four_terms():
    rng = np.random.default_rng(23)
    circuit = random_circuit(rng, particles=2, layers=2, p_single=1.0, p_phase=1.0)
    value = amplitudes_via_paths(circuit)[0b01]
    total = 0.0
    for pa in enumerate_paths(2, 0):
        for pb in enumerate_paths(2, 1):
            total += (
                path_amplitude(circuit, 0, pa)
                * path_amplitude(circuit, 1, pb)
                * joint_phase(circuit, [pa, pb])
            )
    assert abs(value - total) < 1e-12


def test_amplitude_factorizes_without_phase_gates():
    rng = np.random.default_rng(29)
    a, b = random_single(rng), random_single(rng)
    circuit = make_circuit(2, [({0: a, 1: b}, [])])
    amplitudes = amplitudes_via_paths(circuit)
    for ja, jb in itertools.product((0, 1), repeat=2):
        assert abs(amplitudes[2 * ja + jb] - a[ja, 0] * b[jb, 0]) < 1e-14


@pytest.mark.parametrize("seed,particles,layers", [(7, 2, 4), (7, 3, 3), (31, 3, 4)])
def test_amplitude_via_paths_matches_oracle_and_brute_force(seed, particles, layers):
    circuit = random_circuit(np.random.default_rng(seed), particles, layers)
    amplitudes = amplitudes_via_paths(circuit)
    assert np.max(np.abs(amplitudes - evolve(circuit))) < 1e-10
    for index, outcome in enumerate(itertools.product((0, 1), repeat=particles)):
        assert abs(amplitudes[index] - brute_amplitude(circuit, outcome)) < 1e-10


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(1, 5),
    st.integers(0, 4),
    st.sampled_from([0.0, 0.3, 1.0]),
    st.sampled_from([0.0, 0.3, 1.0]),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_amplitudes_via_paths_match_oracle_and_brute_force_on_sparse_circuits(
    particles, layers, p_single, p_phase, seed, data
):
    circuit = random_circuit(np.random.default_rng(seed), particles, layers, p_single, p_phase)
    amplitudes = amplitudes_via_paths(circuit)
    assert amplitudes.shape == (1 << particles,)
    assert np.max(np.abs(amplitudes - evolve(circuit))) < 1e-10
    # the raw loop costs (2^(n-1))^N terms per outcome, so one drawn outcome is checked
    index = data.draw(st.integers(0, (1 << particles) - 1))
    outcome = tuple((index >> (particles - 1 - k)) & 1 for k in range(particles))
    assert abs(amplitudes[index] - brute_amplitude(circuit, outcome)) < 1e-10


def test_twelve_layer_pair_path_sum_stays_small():
    # the pair's phase over layers 1..11 is one 2048 x 2048 table (64 MiB);
    # a 4096 x 4096 table over both whole paths would be 256 MiB
    circuit = random_circuit(np.random.default_rng(11), 2, 12, p_single=1.0, p_phase=1.0)
    tracemalloc.start()
    try:
        amplitudes = amplitudes_via_paths(circuit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(amplitudes - evolve(circuit))) < 1e-10
    assert peak < 128 * 2**20


_GATE_DENSITIES = st.sampled_from([0.0, 0.3, 1.0])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.integers(0, 6), _GATE_DENSITIES, _GATE_DENSITIES, st.integers(0, 2**32 - 1))
def test_path_sum_operands_equal_the_reference_builders(particles, layers, p_single, p_phase, seed):
    circuit = random_circuit(np.random.default_rng(seed), particles, layers, p_single, p_phase)
    for i in range(particles):
        for upto, grown in enumerate(prefix_amplitude_layers(circuit, i)):
            assert np.array_equal(grown, repeat_prefix_amplitudes(circuit, i, upto))
            assert np.array_equal(prefix_amplitudes(circuit, i, upto), grown)
    for pair in itertools.combinations(range(particles), 2):
        for value, reference in zip(pair_phases(circuit, pair), kron_pair_phases(circuit, pair)):
            assert (value is None) == (reference is None)
            assert value is None or np.array_equal(value, reference)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(1, 6), _GATE_DENSITIES, _GATE_DENSITIES, st.integers(0, 2**32 - 1), st.data())
def test_eliminated_path_sum_matches_the_einsum_contraction(particles, p_single, p_phase, seed, data):
    # at most 2^12 lattice terms, so the raw loop stays quick
    layers = data.draw(st.integers(0, min(6, 1 + 12 // particles)))
    circuit = random_circuit(np.random.default_rng(seed), particles, layers, p_single, p_phase)
    amplitudes = amplitudes_via_paths(circuit)
    assert np.max(np.abs(amplitudes - einsum_amplitudes(circuit))) < 1e-13
    assert np.max(np.abs(amplitudes - evolve(circuit))) < 1e-13
    index = data.draw(st.integers(0, (1 << particles) - 1))
    outcome = tuple((index >> (particles - 1 - k)) & 1 for k in range(particles))
    assert abs(amplitudes[index] - brute_amplitude(circuit, outcome)) < 1e-12


@pytest.mark.parametrize("particles,layers", [(3, 8), (4, 6), (5, 5)])
def test_path_sum_never_holds_the_lattice(particles, layers):
    # the lattice (2^(n-1))^N would be 16-32 MiB; the elimination's tables
    # reach about 2 (2^(n-1))^(N-1) entries, 0.5-2 MiB
    circuit = random_circuit(np.random.default_rng(13), particles, layers, p_single=1.0, p_phase=1.0)
    tracemalloc.start()
    try:
        amplitudes_via_paths(circuit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_pair_phases_split_the_last_layer_off():
    circuit = random_circuit(np.random.default_rng(5), 3, 3, p_single=1.0, p_phase=1.0)
    prefix, last = pair_phases(circuit, (0, 2))
    for pa, pb in itertools.product(enumerate_paths(3, 0) + enumerate_paths(3, 1), repeat=2):
        gates = [circuit.phase(t, (0, 2)) for t in range(1, 4)]
        expected = np.prod([np.exp(1j * g.theta(pa.mode(t), pb.mode(t))) for t, g in enumerate(gates, 1)])
        value = prefix[path_index(pa), path_index(pb)] * last[pa.endpoint, pb.endpoint]
        assert abs(value - expected) < 1e-14
    uncoupled = make_circuit(2, [({}, [PhaseGate((0, 1), (0.1, 0.2, 0.3, 0.4))]), ({}, [])])
    prefix, last = pair_phases(uncoupled, (0, 1))
    assert prefix is not None and last is None
    assert pair_phases(make_circuit(2, []), (0, 1)) == (None, None)


def _complex_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 8), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_single_gate_kernels_equal_the_forms_they_replace(particles, rows, seed):
    rng = np.random.default_rng(seed)
    gate = _complex_normal(rng, (2, 2))
    state = _complex_normal(rng, (2,) * particles)
    tree = _complex_normal(rng, (rows,) + (2,) * particles)  # a prefix tree's leading row axis
    for axis in range(particles):
        assert np.array_equal(apply_single(state, axis, gate), moveaxis_single(state, axis, gate))
        assert np.array_equal(apply_single(tree, axis + 1, gate), moveaxis_single(tree, axis + 1, gate))
    # the cascade's partner update: (subsystem prefix, external prefix, mode) tables
    table = _complex_normal(rng, (rows, 2, 2))
    assert np.array_equal(apply_single(table, 2, gate), np.tensordot(table, gate, axes=([2], [1])))

    # the conditioned evolution of `particles` external particles, every axis carrying a single
    circuit = random_circuit(rng, particles + 1, 2, p_single=1.0, p_phase=1.0)
    cond = condition_on_paths(circuit, {0: Path(modes=tuple(int(m) for m in rng.integers(0, 2, 2)))})
    for t in (1, 2):
        assert np.array_equal(cond._apply(state, t), tensordot_conditioned_layer(cond, state, t))


def test_amplitude_budget_guard():
    circuit = random_circuit(np.random.default_rng(1), particles=3, layers=4)
    with pytest.raises(BudgetExceeded):
        amplitudes_via_paths(circuit, budget=8)
    with pytest.raises(ValueError, match="too many particles"):
        amplitudes_via_paths(make_circuit(17, [({}, [])]))


def test_epr_conditioning_on_mode_zero_path_gives_free_external_circuit():
    a2 = random_single(np.random.default_rng(41))
    circuit = build_epr_circuit(a2, HADAMARD)
    cond = condition_on_paths(circuit, {0: Path((0, 0))})
    expected = HADAMARD @ np.eye(2) @ HADAMARD  # layer-1 H, conditioned gate = I, layer-2 H
    assert np.max(np.abs(conditioned_unitary(cond) - expected)) < 1e-12


def test_epr_conditioning_on_mode_one_path_applies_z():
    circuit = build_epr_circuit(np.eye(2), np.eye(2))
    cond = condition_on_paths(circuit, {0: Path((1, 0))})
    expected = np.diag([1.0, -1.0]) @ HADAMARD
    assert np.max(np.abs(conditioned_unitary(cond) - expected)) < 1e-12


def test_conditioning_zero_thetas_equals_free_circuit():
    rng = np.random.default_rng(43)
    b = random_single(rng)
    circuit = make_circuit(
        2, [({1: b}, [PhaseGate((0, 1), (0.0, 0.0, 0.0, 0.0))]), ({1: b}, [])]
    )
    for path in enumerate_paths(2, 0) + enumerate_paths(2, 1):
        cond = condition_on_paths(circuit, {0: path})
        assert np.max(np.abs(conditioned_unitary(cond) - b @ b)) < 1e-12


def test_conditional_unitary_is_unitary_everywhere():
    circuit = random_circuit(np.random.default_rng(47), particles=3, layers=4)
    for path in enumerate_paths(4, 0):
        cond = condition_on_paths(circuit, {0: path})
        for t in range(circuit.n + 1):
            u = conditioned_unitary(cond, upto=t)
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12


def test_conditioning_matches_independent_reference():
    circuit = random_circuit(np.random.default_rng(53), particles=3, layers=4)
    rng = np.random.default_rng(59)
    paths = enumerate_paths(4, 0) + enumerate_paths(4, 1)
    for _ in range(6):
        pa = paths[rng.integers(len(paths))]
        pb = paths[rng.integers(len(paths))]
        cond = condition_on_paths(circuit, {0: pa, 1: pb})
        for t in (0, 2, circuit.n):
            ref = conditioned_external_matrix(circuit, {0: pa, 1: pb}, upto=t)
            assert np.max(np.abs(conditioned_unitary(cond, upto=t) - ref)) < 1e-12


def test_conditional_matrix_element_equals_conditioned_path_sum():
    # <k|B_P|0> must reproduce the sum over external paths weighted by joint phases.
    circuit = random_circuit(np.random.default_rng(61), particles=2, layers=5)
    for pa in enumerate_paths(5, 1)[:4]:
        cond = condition_on_paths(circuit, {0: pa})
        state = cond.state()
        for k in (0, 1):
            total = 0.0
            for m in enumerate_paths(5, k):
                total += path_amplitude(circuit, 1, m) * joint_phase(circuit, [pa, m])
            assert abs(state[k] - total) < 1e-10


def test_conditioning_rejects_overlap_and_full_cover():
    circuit = random_circuit(np.random.default_rng(67), particles=2, layers=2)
    paths = enumerate_paths(2, 0)
    with pytest.raises(ValueError):
        condition_on_paths(circuit, {0: paths[0], 1: paths[0], 2: paths[0]})
    with pytest.raises(ValueError):
        condition_on_paths(circuit, {0: paths[0], 1: paths[0]})


def test_short_paths_get_their_prefix_amplitude():
    circuit = random_circuit(np.random.default_rng(71), particles=2, layers=4)
    full = Path((1, 0, 1, 1))
    for t in range(5):
        head = Path(full.modes[:t])
        expected = np.prod([circuit.single(s, 1)[full.mode(s), full.mode(s - 1)] for s in range(1, t + 1)])
        assert abs(path_amplitude(circuit, 1, head) - expected) < 1e-15
    with pytest.raises(ValueError):
        path_amplitude(circuit, 1, Path((0,) * 5))


def test_zero_layer_path_sum_is_the_initial_state():
    circuit = make_circuit(3, [])
    assert amplitudes_via_paths(circuit).tolist() == [1.0] + [0.0] * 7
    assert amplitudes_via_paths(make_circuit(16, [])).nonzero()[0].tolist() == [0]


def _prefix_paths(row: int, t: int, members: int, n: int) -> list[Path]:
    """Member paths of length n whose first t modes are the prefixes joined in `row`."""
    prefixes = [(row >> (t * (members - 1 - k))) & ((1 << t) - 1) for k in range(members)]
    return [Path(tuple((p >> (t - 1 - s)) & 1 for s in range(t)) + (1,) * (n - t)) for p in prefixes]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(2, 5), st.integers(0, 4), st.integers(0, 2**32 - 1), st.data())
def test_prefix_tree_rows_equal_the_conditioned_evolutions(particles, layers, seed, data):
    members = data.draw(st.integers(1, min(2, particles - 1)))
    subsystem = sorted(data.draw(st.sets(st.integers(0, particles - 1), min_size=members, max_size=members)))
    circuit = random_circuit(np.random.default_rng(seed), particles, layers)
    tables = conditioned_prefix_states(circuit, subsystem)
    assert len(tables) == layers + 1
    for t, table in enumerate(tables):
        assert table.shape == (1 << (members * t), 1 << (particles - members))
        for row in range(table.shape[0]):
            paths = _prefix_paths(row, t, members, layers)
            if layers == 0:
                expected = np.eye(1 << (particles - members))[0]
            else:
                expected = condition_on_paths(circuit, dict(zip(subsystem, paths))).state(upto=t)
            assert np.max(np.abs(table[row] - expected)) < 1e-12
