"""Two-particle hits, hidden variables, and marginals against independent references."""
from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from sumpaths.circuits import PhaseGate, build_epr_circuit, make_circuit, random_single
from sumpaths.common import DEFAULT_BUDGET, BudgetExceeded
from sumpaths.corpus import random_circuit
from sumpaths.oracle import marginal_by_sum
from sumpaths.paths import ConditionalUnitary, Path, TreeStep, conditioned_prefix_state_layers, enumerate_paths
from sumpaths.paths import member_paths_at
from sumpaths.subsystems import lambda_blocks
from sumpaths.twoparticle import (
    hit,
    lambda_accumulate,
    lambda_tables,
    marginal_deviation,
)

from .reference import (
    axis_folded_blocks,
    axis_lambda_tables,
    conditioned_external_matrix,
    final_blocks,
    gram_tables,
    hit_lambdas,
    lambda_direct,
    sparse_circuit,
    table_trajectory,
    two_particle_tables,
)

EPR = build_epr_circuit(np.eye(2), np.eye(2))
P0, P1 = (Path((0, 0)),), (Path((1, 0)),)  # the two subsystem paths to endpoint 0, one member each


def all_pairs(n: int, endpoint: int):
    paths = enumerate_paths(n, endpoint)
    return [(p, q) for p in paths for q in paths if p != q]


def test_epr_hit_is_minus_one_at_layer_one():
    assert abs(hit(EPR, (0,), P0, P1, 1) + 1.0) < 1e-12


def test_layers_without_phase_gate_hit_exactly_zero():
    assert hit(EPR, (0,), P0, P1, 2) == 0j
    circuit = make_circuit(2, [({0: random_single(np.random.default_rng(0))}, [])] * 3)
    paths = enumerate_paths(3, 0)
    assert all(hit(circuit, (0,), (paths[0],), (paths[1],), t) == 0j for t in (1, 2, 3))


def test_hit_telescopes_against_direct_matrix_products():
    circuit = random_circuit(np.random.default_rng(101), particles=2, layers=5)
    for p, q in all_pairs(5, 0)[:20]:
        for t in range(1, 6):
            via_hit = hit(circuit, (0,), (p,), (q,), t)
            now = conditioned_external_matrix(circuit, {0: p}, upto=t).conj().T @ (
                conditioned_external_matrix(circuit, {0: q}, upto=t)
            )
            before = conditioned_external_matrix(circuit, {0: p}, upto=t - 1).conj().T @ (
                conditioned_external_matrix(circuit, {0: q}, upto=t - 1)
            )
            assert abs(via_hit - (now[0, 0] - before[0, 0])) < 1e-12


def test_epr_trajectory_turns_interference_off():
    entry = lambda_accumulate(EPR, (0,), P0, P1)
    assert np.max(np.abs(np.array(entry.trajectory) - np.array([1.0, 0.0, 0.0]))) < 1e-12
    assert abs(entry.hits[0] + 1.0) < 1e-12 and entry.hits[1] == 0j


def test_zero_theta_circuit_keeps_lambda_at_one():
    rng = np.random.default_rng(5)
    circuit = make_circuit(
        2,
        [
            ({0: random_single(rng), 1: random_single(rng)},
             [PhaseGate((0, 1), (0.0, 0.0, 0.0, 0.0))])
            for _ in range(4)
        ],
    )
    for p, q in all_pairs(4, 1)[:6]:
        entry = lambda_accumulate(circuit, (0,), (p,), (q,))
        assert all(value == 1.0 + 0j for value in entry.trajectory)


def test_lambda_direct_examples():
    assert abs(lambda_direct(EPR, P0[0], P0[0]) - 1.0) < 1e-12
    assert abs(lambda_direct(EPR, P0[0], P1[0])) < 1e-12
    circuit = random_circuit(np.random.default_rng(7), particles=2, layers=6)
    for p, q in all_pairs(6, 0)[:10]:
        assert abs(lambda_direct(circuit, p, q)) <= 1 + 1e-12


def test_accumulated_lambda_matches_direct():
    circuit = random_circuit(np.random.default_rng(11), particles=2, layers=6)
    for endpoint in (0, 1):
        for p, q in all_pairs(6, endpoint)[:24]:
            entry = lambda_accumulate(circuit, (0,), (p,), (q,))
            assert abs(entry.final - lambda_direct(circuit, p, q)) < 1e-10


def test_tables_match_scalar_ops():
    circuit = random_circuit(np.random.default_rng(13), particles=2, layers=4)
    tables = hit_lambdas(circuit)
    for p, q in all_pairs(4, 1):
        trajectory = np.array(table_trajectory(tables, p, q))
        scalar = lambda_accumulate(circuit, (0,), (p,), (q,))
        assert np.max(np.abs(trajectory - np.array(scalar.trajectory))) < 1e-12
        assert np.max(np.abs(np.diff(trajectory) - np.array(scalar.hits))) < 1e-12


def test_tables_telescope_to_direct_tables_at_every_prefix():
    circuit = random_circuit(np.random.default_rng(17), particles=2, layers=7)
    for lam, gram in zip(hit_lambdas(circuit), gram_tables(circuit), strict=True):
        assert np.max(np.abs(lam - gram)) < 1e-10


def test_gateless_layers_copy_lambda_bit_exactly():
    circuit = make_circuit(
        2,
        [
            ({0: random_single(np.random.default_rng(1))}, [PhaseGate((0, 1), (0.3, 1.0, 2.0, 0.5))]),
            ({1: random_single(np.random.default_rng(2))}, []),
        ],
    )
    tables = hit_lambdas(circuit)
    expanded = np.repeat(np.repeat(tables[1], 2, axis=0), 2, axis=1)
    assert np.array_equal(tables[2], expanded)


def test_hermitian_pairing_and_bound():
    circuit = random_circuit(np.random.default_rng(19), particles=2, layers=6)
    tables = hit_lambdas(circuit)
    final = tables[circuit.n]
    assert np.max(np.abs(final - final.conj().T)) < 1e-12
    assert all(np.max(np.abs(table)) <= 1 + 1e-10 for table in tables)
    p, q = enumerate_paths(6, 0)[0], enumerate_paths(6, 0)[3]
    forward, backward = (lambda_accumulate(circuit, (0,), (a,), (b,)).final for a, b in ((p, q), (q, p)))
    assert abs(forward - np.conj(backward)) < 1e-12


def test_epr_marginal_is_half_for_any_measurement_rotation():
    rng = np.random.default_rng(23)
    for _ in range(5):
        circuit = build_epr_circuit(random_single(rng), random_single(rng))
        blocks = final_blocks(circuit, hit_lambdas(circuit))
        for j in (0, 1):
            assert abs(blocks[j].marginal() - 0.5) < 1e-10
            assert abs(marginal_deviation(circuit, j, blocks[j]) - 0.5) < 1e-10


def test_interaction_free_marginal_is_free_born_rule():
    rng = np.random.default_rng(29)
    gates = [random_single(rng) for _ in range(3)]
    circuit = make_circuit(2, [({0: g, 1: random_single(rng)}, []) for g in gates])
    free = gates[2] @ gates[1] @ gates[0]
    blocks = final_blocks(circuit, hit_lambdas(circuit))
    for j in (0, 1):
        assert abs(blocks[j].marginal() - abs(free[j, 0]) ** 2) < 1e-12


def test_marginal_matches_oracle_on_random_circuits():
    rng = np.random.default_rng(31)
    for layers in (1, 2, 3, 5, 8):
        circuit = random_circuit(rng, particles=2, layers=layers)
        oracle = marginal_by_sum(circuit, {0})
        blocks = final_blocks(circuit, hit_lambdas(circuit))
        for j in (0, 1):
            assert abs(blocks[j].marginal() - oracle[j]) < 1e-9
            assert abs(blocks[j].marginal() - marginal_deviation(circuit, j, blocks[j])) < 1e-10


def test_marginals_normalize():
    circuit = random_circuit(np.random.default_rng(37), particles=2, layers=6)
    blocks = final_blocks(circuit, hit_lambdas(circuit))
    assert abs(blocks[0].marginal() + blocks[1].marginal() - 1.0) < 1e-9


def test_single_layer_circuit_has_no_pairs():
    rng = np.random.default_rng(41)
    a = random_single(rng)
    circuit = make_circuit(2, [({0: a, 1: random_single(rng)}, [])])
    blocks = final_blocks(circuit, hit_lambdas(circuit))
    for j in (0, 1):
        assert abs(blocks[j].marginal() - abs(a[j, 0]) ** 2) < 1e-12


def test_rejects_wrong_particle_count():
    circuit = random_circuit(np.random.default_rng(43), particles=3, layers=2)
    paths = enumerate_paths(2, 0)
    with pytest.raises(ValueError):
        hit(circuit, (0,), (paths[0],), (paths[1],), 1)
    with pytest.raises(ValueError):
        next(lambda_tables(circuit))


def test_budget_guard():
    circuit = random_circuit(np.random.default_rng(47), particles=2, layers=8)
    with pytest.raises(BudgetExceeded):
        next(lambda_tables(circuit, budget=100))


def test_streamed_build_peaks_below_two_final_tables():
    # each layer's table is written once from the last one and one hit block
    # at a time, so the last layer holds lambda_(n-1), one hit block and
    # lambda_n
    circuit = random_circuit(
        np.random.default_rng(59), particles=2, layers=9, p_single=1.0, p_phase=1.0
    )
    tracemalloc.start()
    try:
        for final, _ in lambda_tables(circuit):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * final.nbytes


from hypothesis import given, settings
from hypothesis import strategies as st

from sumpaths.circuits import HADAMARD


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.lists(
        st.one_of(st.none(), st.tuples(*([st.floats(0, 2 * np.pi)] * 4))),
        min_size=1,
        max_size=4,
    )
)
def test_structural_invariants_hold_for_arbitrary_angles(layer_thetas):
    # Hadamard singles keep every path alive; the phase gates carry the draw
    specs = [
        ({0: HADAMARD, 1: HADAMARD}, [] if thetas is None else [PhaseGate((0, 1), thetas)])
        for thetas in layer_thetas
    ]
    circuit = make_circuit(2, specs)
    tables = hit_lambdas(circuit)
    final = tables[circuit.n]
    assert np.max(np.abs(final - final.conj().T)) < 1e-12
    assert max(np.max(np.abs(t_)) for t_ in tables) <= 1 + 1e-10
    blocks = final_blocks(circuit, tables)
    oracle = marginal_by_sum(circuit, {0})
    for j in (0, 1):
        assert abs(blocks[j].marginal() - oracle[j]) < 1e-9


_PAIR_FLAGS = st.lists(st.booleans(), min_size=15, max_size=15)  # one flag per pair of up to 6 particles


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([2, 4, 5, 6]), st.lists(_PAIR_FLAGS, max_size=5), st.integers(0, 2**32 - 1))
def test_hit_stream_matches_the_gram_tables_at_every_particle_count(particles, pattern, seed):
    # two particles keep the earlier builder's tables bit for bit
    circuit = sparse_circuit(particles, pattern, seed)
    tables = hit_lambdas(circuit)
    assert len(tables) == circuit.n + 1
    for lam, gram in zip(tables, gram_tables(circuit), strict=True):
        assert np.max(np.abs(lam - gram)) < 1e-12
    if particles == 2:
        for lam, earlier in zip(tables, two_particle_tables(circuit), strict=True):
            assert np.array_equal(lam, earlier)


@pytest.mark.parametrize("particles", [4, 5])
def test_scalar_hits_match_the_stream_beyond_three_particles(particles):
    circuit = random_circuit(np.random.default_rng(67), particles, 4, p_single=1.0, p_phase=0.7)
    tables = hit_lambdas(circuit)
    for endpoint in (0, 1):
        for p, q in all_pairs(4, endpoint)[:12]:
            entry = lambda_accumulate(circuit, (0,), (p,), (q,))
            assert np.max(np.abs(np.array(entry.trajectory) - table_trajectory(tables, p, q))) < 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from([2, 4, 5]),
    st.lists(_PAIR_FLAGS, min_size=1, max_size=5),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_stream_and_fold_match_the_axis_by_axis_stream(particles, pattern, seed, data):
    # the stream reads each layer's pre-gate states and D off the tree step; the earlier
    # stream rebuilt both from the tree's tables, and two particles keep its bits
    circuit = sparse_circuit(particles, pattern, seed)
    tables = hit_lambdas(circuit)
    for t, (lam, earlier) in enumerate(zip(tables, axis_lambda_tables(circuit), strict=True)):
        if particles == 2:
            assert np.array_equal(lam, earlier)
        else:
            assert np.max(np.abs(lam - earlier)) < 1e-12
        if t and all(0 not in gate.pair for gate in circuit.layer(t).phases):
            size = tables[t - 1].shape[0]
            repeated = np.broadcast_to(tables[t - 1][:, None, :, None], (size, 2, size, 2))
            assert np.array_equal(lam.reshape(size, 2, size, 2), repeated)
    folded = {j: block for (j,), block in lambda_blocks(circuit, (0,), DEFAULT_BUDGET)}
    for j, earlier in axis_folded_blocks(circuit).items():
        assert np.array_equal(folded[j].amplitudes, earlier.amplitudes)
        if particles == 2:
            assert np.array_equal(folded[j].lam, earlier.lam)
        else:
            assert np.max(np.abs(folded[j].lam - earlier.lam)) < 1e-12
    n, final = circuit.n, tables[-1]
    for _ in range(3):
        k, l = (data.draw(st.integers(0, final.shape[0] - 1)) for _ in range(2))
        p, q = (Path(tuple((index >> (n - 1 - s)) & 1 for s in range(n))) for index in (k, l))
        t = data.draw(st.integers(1, n))
        rows, cols = k >> (n - t), l >> (n - t)
        streamed = tables[t][rows, cols] - tables[t - 1][rows >> 1, cols >> 1]
        assert abs(streamed - hit(circuit, (0,), (p,), (q,), t)) < 1e-12


def test_one_stream_layer_holds_the_old_table_the_new_table_and_one_hit_block():
    # the earlier layer held two np.repeat copies (two and four old tables) at once
    circuit = random_circuit(np.random.default_rng(71), particles=2, layers=10, p_single=1.0, p_phase=1.0)
    tables = lambda_tables(circuit)
    tracemalloc.start()
    try:
        for _ in range(circuit.n):
            old, _ = next(tables)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        new, _ = next(tables)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert circuit.phase(circuit.n, (0, 1)) is not None
    # one hit block is the size of the old table; the slack covers numpy's ufunc
    # buffer (8192 entries) and the pre-gate rows weighted by one mode pair (512 x 2)
    slack = 256 * 1024
    assert peak - base <= new.nbytes + old.nbytes + slack


@pytest.mark.parametrize("particles", [2, 5])
def test_the_stream_holds_no_tree_step_between_layers(particles):
    # a step holds a pre-gate copy of the tree's last table and a 2^N factor
    # array; keeping every layer's step would add about half the tree again
    circuit = random_circuit(np.random.default_rng(83), particles, 4, p_single=1.0, p_phase=1.0)
    for _ in lambda_tables(circuit):
        gc.collect()
        assert not [obj for obj in gc.get_objects() if isinstance(obj, TreeStep)]



@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([2, 4, 5]), st.integers(0, 6), st.integers(0, 2**32 - 1), st.data())
def test_the_stream_yields_the_prefix_trees_tables_bit_for_bit(particles, layers, seed, data):
    # the stream grows particle 0's tree itself, over all its layers or over the first few
    circuit = random_circuit(np.random.default_rng(seed), particles, layers, p_single=0.9, p_phase=0.8)
    stop = data.draw(st.sampled_from([None, *range(layers + 1)]))
    pairs = list(lambda_tables(circuit, layers=stop))
    assert len(pairs) == (layers if stop is None else stop) + 1
    for (lam, table), tree in zip(pairs, conditioned_prefix_state_layers(circuit, (0,))):
        assert lam.shape == (table.shape[0],) * 2
        assert np.array_equal(table, tree)


@pytest.mark.parametrize("particles, subsystem, layers", [(2, (0,), 24), (4, (0, 1), 8), (5, (0, 2), 6)])
def test_accumulation_evolves_each_side_once_and_matches_every_hit_bit_for_bit(
    monkeypatch, particles, subsystem, layers
):
    circuit = random_circuit(np.random.default_rng(layers), particles, layers, p_single=1.0, p_phase=1.0)
    endpoints = (0,) * len(subsystem)
    p, q = (member_paths_at(layers, endpoints, index) for index in (0, 1))
    calls = []
    apply = ConditionalUnitary._apply
    monkeypatch.setattr(ConditionalUnitary, "_apply", lambda self, state, t: calls.append(t) or apply(self, state, t))
    entry = lambda_accumulate(circuit, subsystem, p, q)
    assert len(calls) <= 2 * layers  # each side's state is grown once per layer, never rebuilt from layer 1
    assert entry.hits == tuple(hit(circuit, subsystem, p, q, t) for t in range(1, layers + 1))
