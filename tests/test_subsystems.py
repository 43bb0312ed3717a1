"""General subsystem marginals: cross-module agreement and oracle equivalence."""
from __future__ import annotations

import itertools
from pathlib import Path as FilePath

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sumpaths.circuits import Circuit, PhaseGate, build_epr_circuit, load_circuit, make_circuit, random_single
from sumpaths.common import DEFAULT_BUDGET, BudgetExceeded, LambdaBlock
from sumpaths.corpus import random_circuit
from sumpaths.oracle import marginal_by_sum
from sumpaths.paths import Path, enumerate_paths, path_amplitude
from sumpaths.subsystems import conditioned_blocks, conditioned_charges, lambda_blocks, table_blocks
from sumpaths.threeparticle import lambda3_tables, lambda_three
from sumpaths.twoparticle import lambda_accumulate, lambda_tables

from .reference import column_pair_sum, config_path_amplitude, dense_conditioned_blocks, final_blocks
from .reference import lambda_general, sparse_circuit


def test_single_particle_config_amplitude_reduces_to_path_amplitude():
    circuit = random_circuit(np.random.default_rng(3), 3, 3)
    for path in enumerate_paths(3, 1):
        assert config_path_amplitude(circuit, (0,), (path,)) == path_amplitude(circuit, 0, path)


def test_epr_pair_config_amplitude_carries_interaction_phase():
    from sumpaths.circuits import HADAMARD

    # both subsystem paths sit at mode 1, so the intra-subsystem gate
    # contributes its -1 phase to the configuration amplitude
    circuit = make_circuit(
        3, [({0: HADAMARD, 1: HADAMARD}, [PhaseGate((0, 1), (0.0, 0.0, 0.0, np.pi))])]
    )
    value = config_path_amplitude(circuit, (0, 1), (Path((1,)), Path((1,))))
    assert abs(value - (-0.5)) < 1e-12


def test_lambda_general_identity_cases():
    circuit = random_circuit(np.random.default_rng(5), 3, 3)
    cfg = (enumerate_paths(3, 0)[2],)
    assert abs(lambda_general(circuit, (0,), cfg, cfg) - 1.0) < 1e-12


def test_lambda_general_is_one_when_decoupled():
    rng = np.random.default_rng(7)
    specs = [({i: random_single(rng) for i in range(3)}, []) for _ in range(3)]
    circuit = make_circuit(3, specs)
    paths = enumerate_paths(3, 0)
    for p, q in itertools.combinations(paths, 2):
        value = lambda_general(circuit, (0,), (p,), (q,))
        assert value == 1.0 + 0j


def test_lambda_general_matches_two_particle_module():
    circuit = random_circuit(np.random.default_rng(11), 2, 4)
    paths = enumerate_paths(4, 1)
    for p, q in itertools.permutations(paths[:4], 2):
        general = lambda_general(circuit, (0,), (p,), (q,))
        assert abs(general - lambda_accumulate(circuit, (0,), (p,), (q,)).final) < 1e-10
    tables = final_blocks(circuit, lambda_tables(circuit))
    for (j,), block in conditioned_blocks(circuit, (0,)):
        assert abs(block.marginal() - tables[j].marginal()) < 1e-12


def test_lambda_general_matches_three_particle_module():
    circuit = random_circuit(np.random.default_rng(13), 3, 3)
    paths = enumerate_paths(3, 0)
    for p, q in itertools.permutations(paths[:3], 2):
        general = lambda_general(circuit, (0,), (p,), (q,))
        assert abs(general - lambda_three(circuit, p, q).final) < 1e-10


def test_trajectory_increments_are_exact_zeros_off_interaction_layers():
    rng = np.random.default_rng(17)
    circuit = make_circuit(
        4,
        [
            ({i: random_single(rng) for i in range(4)}, [PhaseGate((2, 3), (0.1, 0.5, 0.2, 0.9))]),
            ({}, [PhaseGate((0, 2), tuple(rng.uniform(0, 2 * np.pi, 4)))]),
            ({i: random_single(rng) for i in range(4)}, [PhaseGate((0, 1), tuple(rng.uniform(0, 2 * np.pi, 4)))]),
        ],
    )
    p = (Path((0, 0, 0)), Path((0, 0, 1)))
    q = (Path((0, 1, 0)), Path((1, 1, 1)))  # particle 0 differs at the straddling layer 2
    hits = lambda_accumulate(circuit, (0, 1), p, q).hits
    # layer 1 only couples external particles (2,3); layer 3's (0,1) gate is intra-subsystem
    assert hits[0] == 0j and hits[2] == 0j
    assert hits[1] != 0j


def test_endpoint_mismatch_rejected():
    circuit = random_circuit(np.random.default_rng(19), 3, 2)
    p = (Path((0, 0)),)
    q = (Path((0, 1)),)
    with pytest.raises(ValueError):
        lambda_general(circuit, (0,), p, q)


def test_product_circuit_pair_marginal_is_product_of_born_rules():
    rng = np.random.default_rng(23)
    gates = [random_single(rng) for _ in range(3)]
    circuit = make_circuit(3, [({i: gates[i] for i in range(3)}, [])])
    for outcome, block in conditioned_blocks(circuit, (0, 1)):
        expected = abs(gates[0][outcome[0], 0]) ** 2 * abs(gates[1][outcome[1], 0]) ** 2
        assert abs(block.marginal() - expected) < 1e-12


@pytest.mark.parametrize("subsystem", [(0,), (1,), (3,), (0, 1), (1, 3)])
def test_marginal_general_matches_oracle_four_particles(subsystem):
    circuit = random_circuit(np.random.default_rng(29), 4, 4)
    oracle = marginal_by_sum(circuit, subsystem)
    for outcome, block in conditioned_blocks(circuit, subsystem):
        assert abs(block.marginal() - oracle[outcome]) < 1e-9


def test_intra_subsystem_bookkeeping_is_interchangeable():
    # the intra-subsystem phases ride on the amplitudes, as in the scalar
    # configuration amplitude; moved onto lambda they leave the marginal
    circuit = random_circuit(np.random.default_rng(31), 4, 3)
    for outcome, block in conditioned_blocks(circuit, (0, 1)):
        configs = list(itertools.product(*(enumerate_paths(circuit.n, j) for j in outcome)))
        scalar = np.array([config_path_amplitude(circuit, (0, 1), c) for c in configs])
        assert np.max(np.abs(block.amplitudes - scalar)) < 1e-12
        for i, k in ((0, 1), (2, 3), (3, 0)):
            assert abs(block.lam[i, k] - lambda_general(circuit, (0, 1), configs[i], configs[k])) < 1e-10
        bare = np.array(
            [path_amplitude(circuit, 0, c[0]) * path_amplitude(circuit, 1, c[1]) for c in configs]
        )
        intra = np.ones(len(configs), dtype=complex)
        for t in range(1, circuit.n + 1):
            gate = circuit.phase(t, (0, 1))
            if gate is not None:
                intra *= [np.exp(1j * gate.theta(c[0].mode(t), c[1].mode(t))) for c in configs]
        moved = LambdaBlock(amplitudes=bare, lam=block.lam * np.outer(intra.conj(), intra))
        assert abs(moved.marginal() - block.marginal()) < 1e-12


def test_subsystem_distribution_normalizes_and_matches_oracle():
    circuit = random_circuit(np.random.default_rng(37), 4, 3)
    blocks = list(conditioned_blocks(circuit, (1, 2)))
    oracle = marginal_by_sum(circuit, (1, 2))
    assert [outcome for outcome, _ in blocks] == list(oracle.labels)
    probabilities = np.array([block.marginal() for _, block in blocks])
    assert np.max(np.abs(probabilities - oracle.probabilities)) < 1e-9
    assert abs(probabilities.sum() - 1.0) < 1e-9


def test_epr_marginal_through_general_machinery():
    circuit = build_epr_circuit(random_single(np.random.default_rng(41)), np.eye(2))
    for _, block in conditioned_blocks(circuit, (0,)):
        assert abs(block.marginal() - 0.5) < 1e-10


def test_lambda_block_budget_guard():
    circuit = random_circuit(np.random.default_rng(43), 4, 4)
    with pytest.raises(BudgetExceeded):
        next(conditioned_blocks(circuit, (0, 1), budget=16))


def test_subsystem_validation():
    circuit = random_circuit(np.random.default_rng(47), 3, 2)
    with pytest.raises(ValueError):
        next(conditioned_blocks(circuit, ()))
    with pytest.raises(ValueError):
        next(conditioned_blocks(circuit, (0, 1, 2)))
    with pytest.raises(ValueError):
        next(conditioned_blocks(circuit, (0, 5)))


_GATE_FLAGS = st.lists(st.booleans(), min_size=10, max_size=10)  # one flag per pair of up to 5 particles


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3]), st.lists(_GATE_FLAGS, min_size=1, max_size=5), st.integers(0, 2**32 - 1))
def test_each_streamed_table_is_the_final_table_of_the_cut_circuit(particles, pattern, seed):
    # the tables are compared after the whole stream has run, so a table
    # written after it was yielded fails too
    circuit = sparse_circuit(particles, pattern, seed)
    build = lambda_tables if particles == 2 else lambda3_tables
    streamed = list(build(circuit))
    assert len(streamed) == circuit.n + 1
    for t, lam in enumerate(streamed):
        *_, final = build(Circuit(particles=particles, layers=circuit.layers[:t]))
        assert np.array_equal(lam, final)


@settings(max_examples=45, deadline=None, derandomize=True)
@given(st.sampled_from([2, 4, 5]), st.lists(_GATE_FLAGS, min_size=1, max_size=5), st.integers(0, 2**32 - 1))
def test_folded_blocks_equal_the_unfolded_ones_bit_for_bit(particles, pattern, seed):
    # the marginal route streams n - 1 layers and folds layer n, gate or no
    # gate, into both endpoint blocks, under the charges of that shorter stream
    circuit = sparse_circuit(particles, pattern, seed)
    *_, final = lambda_tables(circuit)
    unfolded = list(table_blocks(circuit, final))
    budget = max(4 ** (circuit.n - 1), 2 ** (circuit.n - 1 + particles))
    folded = list(lambda_blocks(circuit, (0,), budget=budget))
    for (outcome, block), (folded_outcome, folded_block) in zip(unfolded, folded, strict=True):
        assert outcome == folded_outcome
        assert np.array_equal(block.amplitudes, folded_block.amplitudes)
        assert np.array_equal(block.lam, folded_block.lam)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from([(2, 10), (3, 5), (4, 4)]),
    st.floats(0.0, 1.5),
    st.integers(0, 2**32 - 1),
)
def test_pair_sum_matches_the_column_sliced_sum(shape, clamp, seed):
    # a clamp below 1 also scales the diagonal, which the sum must then weigh
    particles, layers = shape
    circuit = random_circuit(np.random.default_rng(seed), particles, layers, p_single=1.0, p_phase=0.8)
    for _, block in lambda_blocks(circuit, (0,), DEFAULT_BUDGET):
        scale = np.minimum(1.0, clamp / np.maximum(np.abs(block.lam), 1e-300))
        clamped = LambdaBlock(block.amplitudes, block.lam * scale)
        for checked in (block, clamped):
            assert abs(checked.marginal() - column_pair_sum(checked).real) < 1e-13


CORPUS = FilePath(__file__).resolve().parent.parent / "corpus"


def assert_gram_blocks_equal_the_dense_blocks(circuit, subsystem):
    # the factor route keeps every amplitude and materialized lambda bit for bit,
    # and sums its pairs as |S^T a|^2 to within rounding of the dense pair sum
    oracle = marginal_by_sum(circuit, subsystem)
    pairs = zip(conditioned_blocks(circuit, subsystem), dense_conditioned_blocks(circuit, subsystem), strict=True)
    for (outcome, block), (dense_outcome, dense) in pairs:
        assert outcome == dense_outcome
        marginal = block.marginal()
        if circuit.n == 0 and any(outcome):
            assert block.amplitudes.size == block.factor.shape[0] == 0 and marginal == 0.0
        assert np.array_equal(block.amplitudes, dense.amplitudes)
        assert np.array_equal(block.lam, dense.lam)
        assert LambdaBlock(block.amplitudes, block.lam).marginal() == dense.marginal()  # as perturb sums it
        assert abs(marginal - dense.marginal()) < 1e-12
        assert abs(marginal - oracle[outcome]) < 1e-10


@pytest.mark.parametrize("layers", range(6))
@pytest.mark.parametrize("particles", [2, 3, 4, 5])
@settings(max_examples=8, deadline=None, derandomize=True)
@given(density=st.sampled_from([0.0, 0.3, 1.0]), data=st.data())
def test_gram_factor_blocks_equal_the_dense_blocks(particles, layers, density, data):
    members = data.draw(st.lists(st.integers(0, particles - 1), min_size=1, max_size=particles - 1, unique=True))
    subsystem = tuple(sorted(members))
    assume(subsystem != (0,))
    seed = data.draw(st.integers(0, 2**32 - 1))
    circuit = random_circuit(np.random.default_rng(seed), particles, layers, p_phase=density)
    if max(count for count, _ in conditioned_charges(circuit, subsystem)) > DEFAULT_BUDGET:
        # both routes stop at the same charge, with the same message, before any work
        with pytest.raises(BudgetExceeded) as factored:
            next(conditioned_blocks(circuit, subsystem))
        with pytest.raises(BudgetExceeded) as dense:
            next(dense_conditioned_blocks(circuit, subsystem))
        assert str(factored.value) == str(dense.value)
        return
    assert_gram_blocks_equal_the_dense_blocks(circuit, subsystem)


@pytest.mark.parametrize("subsystem", [(0, 1), (1, 2)])
@pytest.mark.parametrize("file", sorted(path.name for path in CORPUS.glob("n[34]_*.json")))
def test_gram_factor_blocks_equal_the_dense_blocks_on_the_corpus(file, subsystem):
    assert_gram_blocks_equal_the_dense_blocks(load_circuit(str(CORPUS / file)), subsystem)


def test_a_block_holds_exactly_one_lambda_form():
    amplitudes, factor = np.ones(2, dtype=complex), np.eye(2, dtype=complex)
    for forms in ({}, {"lam": np.eye(2), "factor": factor}):
        with pytest.raises(ValueError):
            LambdaBlock(amplitudes, **forms)
    block = LambdaBlock(amplitudes, factor=factor)
    assert block.lam is block.lam  # materialized once
    assert np.array_equal(block.lam, np.eye(2)) and block.marginal() == 2.0
