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
from sumpaths.paths import Path, conditioned_prefix_state_layers, enumerate_paths, member_paths_at, normalize_subsystem
from sumpaths.paths import path_amplitude, tree_step
from sumpaths.subsystems import dense_lambda_charges, lambda_blocks, lambda_charges, lambda_marginals, lambda_stream
from sumpaths.threeparticle import lambda_three
from sumpaths.twoparticle import lambda_accumulate

from .reference import column_pair_sum, config_path_amplitude, dense_conditioned_blocks, dense_conditioned_charges
from .reference import earlier_stream, final_blocks, gram_blocks, hit_lambdas, lambda3_tables, lambda_general
from .reference import share_marginals, share_sums, sparse_circuit, swap_particles, table_conditioned_blocks


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
    tables = final_blocks(circuit, hit_lambdas(circuit))
    for (j,), probability in lambda_marginals(circuit, (0,)).items():
        assert abs(probability - tables[j].marginal()) < 1e-12


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
    for outcome, probability in lambda_marginals(circuit, (0, 1)).items():
        expected = abs(gates[0][outcome[0], 0]) ** 2 * abs(gates[1][outcome[1], 0]) ** 2
        assert abs(probability - expected) < 1e-12


@pytest.mark.parametrize("subsystem", [(0,), (1,), (3,), (0, 1), (1, 3)])
def test_marginal_general_matches_oracle_four_particles(subsystem):
    circuit = random_circuit(np.random.default_rng(29), 4, 4)
    oracle = marginal_by_sum(circuit, subsystem)
    for outcome, probability in lambda_marginals(circuit, subsystem).items():
        assert abs(probability - oracle[outcome]) < 1e-9


def test_intra_subsystem_bookkeeping_is_interchangeable():
    # the intra-subsystem phases ride on the amplitudes, as in the scalar
    # configuration amplitude; moved onto lambda they leave the marginal
    circuit = random_circuit(np.random.default_rng(31), 4, 3)
    for outcome, block in lambda_blocks(circuit, (0, 1)):
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
    marginals = lambda_marginals(circuit, (1, 2))
    oracle = marginal_by_sum(circuit, (1, 2))
    assert list(marginals) == list(oracle.labels)
    probabilities = np.array(list(marginals.values()))
    assert np.max(np.abs(probabilities - oracle.probabilities)) < 1e-9
    assert abs(probabilities.sum() - 1.0) < 1e-9


def test_epr_marginal_through_general_machinery():
    circuit = build_epr_circuit(random_single(np.random.default_rng(41)), np.eye(2))
    for probability in lambda_marginals(circuit, (0,)).values():
        assert abs(probability - 0.5) < 1e-10


def test_lambda_block_budget_guard():
    circuit = random_circuit(np.random.default_rng(43), 4, 4)
    with pytest.raises(BudgetExceeded):
        lambda_marginals(circuit, (0, 1), budget=16)


def test_subsystem_validation():
    circuit = random_circuit(np.random.default_rng(47), 3, 2)
    for subsystem in ((), (0, 1, 2), (0, 5)):
        with pytest.raises(ValueError):
            lambda_marginals(circuit, subsystem)


_GATE_FLAGS = st.lists(st.booleans(), min_size=10, max_size=10)  # one flag per pair of up to 5 particles


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3]), st.lists(_GATE_FLAGS, min_size=1, max_size=5), st.integers(0, 2**32 - 1))
def test_each_streamed_table_is_the_final_table_of_the_cut_circuit(particles, pattern, seed):
    # the tables are compared after the whole stream has run, so a table
    # written after it was yielded fails too
    circuit = sparse_circuit(particles, pattern, seed)
    build = hit_lambdas if particles == 2 else lambda3_tables
    streamed = list(build(circuit))
    assert len(streamed) == circuit.n + 1
    for t, lam in enumerate(streamed):
        *_, final = build(Circuit(particles=particles, layers=circuit.layers[:t]))
        assert np.array_equal(lam, final)


@settings(max_examples=45, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3, 4, 5]), st.lists(_GATE_FLAGS, min_size=1, max_size=5), st.integers(0, 2**32 - 1))
def test_folded_blocks_match_the_unfolded_ones(particles, pattern, seed):
    # every endpoint's block reads the one table over n - 1 layers: the whole last table's
    # rows to rounding, since layer n adds nothing there, and its amplitudes bit for bit
    circuit = sparse_circuit(particles, pattern, seed)
    unfolded = final_blocks(circuit, lambda3_tables(circuit) if particles == 3 else hit_lambdas(circuit))
    folded = list(lambda_blocks(circuit, (0,), DEFAULT_BUDGET))
    assert [outcome for outcome, _ in folded] == [(0,), (1,)]
    for (j,), block in folded:
        assert np.array_equal(unfolded[j].amplitudes, block.amplitudes)
        assert np.max(np.abs(unfolded[j].lam - block.lam)) < 1e-12
        assert block.lam.shape == (1 << (circuit.n - 1),) * 2


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


def assert_reader_matches_the_references(circuit, subsystem):
    # the streamed pair sums agree with the Gram closed form and the dense pair sum to rounding;
    # perturb's blocks hold the amplitudes bit for bit and lambda to rounding
    oracle = marginal_by_sum(circuit, subsystem)
    marginals = lambda_marginals(circuit, subsystem)
    pairs = zip(gram_blocks(circuit, subsystem), dense_conditioned_blocks(circuit, subsystem), strict=True)
    blocks = lambda_blocks(circuit, subsystem)
    for (outcome, gram), (dense_outcome, dense) in pairs:
        (block_outcome, block) = next(blocks)
        assert outcome == dense_outcome == block_outcome
        assert abs(marginals[outcome] - gram.marginal()) < 1e-12
        assert abs(marginals[outcome] - dense.marginal()) < 1e-12
        assert abs(marginals[outcome] - oracle[outcome]) < 1e-10
        assert abs(block.marginal() - dense.marginal()) < 1e-12
        if circuit.n or not any(outcome):  # with no layers an outcome with a 1 has no path
            assert np.array_equal(block.amplitudes, dense.amplitudes)
            assert np.array_equal(gram.lam, dense.lam)
            assert np.max(np.abs(block.lam - dense.lam)) < 1e-12


@pytest.mark.parametrize("layers", range(6))
@pytest.mark.parametrize("particles", [2, 3, 4, 5])
@settings(max_examples=8, deadline=None, derandomize=True)
@given(density=st.sampled_from([0.0, 0.3, 1.0]), data=st.data())
def test_the_reader_matches_the_dense_blocks(particles, layers, density, data):
    members = data.draw(st.lists(st.integers(0, particles - 1), min_size=1, max_size=particles - 1, unique=True))
    subsystem = tuple(sorted(members))
    assume(subsystem != (0,) or particles != 3)
    seed = data.draw(st.integers(0, 2**32 - 1))
    circuit = random_circuit(np.random.default_rng(seed), particles, layers, p_phase=density)
    if max(count for count, _ in lambda_charges(circuit, subsystem)) > DEFAULT_BUDGET:
        # the reader and the Gram reference stop at the same charge, with the same message, before any work
        with pytest.raises(BudgetExceeded) as streamed:
            lambda_marginals(circuit, subsystem)
        with pytest.raises(BudgetExceeded) as gram:
            next(gram_blocks(circuit, subsystem))
        assert str(streamed.value) == str(gram.value)
        return
    if max(count for count, _ in dense_conditioned_charges(circuit, subsystem)) > DEFAULT_BUDGET:
        # past the dense reference's pair table the reader still fits: it answers to the Gram form and the oracle
        with pytest.raises(BudgetExceeded, match="^configuration path pairs "):
            next(dense_conditioned_blocks(circuit, subsystem))
        assert max(count for count, _ in dense_lambda_charges(circuit, subsystem)) > DEFAULT_BUDGET
        oracle = marginal_by_sum(circuit, subsystem)
        marginals = lambda_marginals(circuit, subsystem)
        for outcome, gram in gram_blocks(circuit, subsystem):
            assert abs(marginals[outcome] - gram.marginal()) < 1e-12
            assert abs(marginals[outcome] - oracle[outcome]) < 1e-10
        return
    assert_reader_matches_the_references(circuit, subsystem)


@pytest.mark.parametrize("subsystem", [(0, 1), (1, 2)])
@pytest.mark.parametrize("file", sorted(path.name for path in CORPUS.glob("n[34]_*.json")))
def test_the_reader_matches_the_dense_blocks_on_the_corpus(file, subsystem):
    assert_reader_matches_the_references(load_circuit(str(CORPUS / file)), subsystem)


SUBSYSTEMS = [
    (particles, subsystem)
    for particles in range(2, 7)
    for size in range(1, particles)
    for subsystem in itertools.combinations(range(particles), size)
]


def _gram_layers(particles: int, size: int) -> int:
    """The most layers, up to 9, at which the tree's tables and the amplitudes stay within 2^16 entries."""
    return max(n for n in range(10) if size * max(n - 1, 0) + particles - size <= 16 and size * n <= 16)


def assert_reader_matches_the_gram_reference(circuit, subsystem):
    marginals = lambda_marginals(circuit, subsystem)
    assert list(marginals) == list(itertools.product((0, 1), repeat=len(subsystem)))
    for outcome, gram in gram_blocks(circuit, subsystem):
        assert abs(marginals[outcome] - gram.marginal()) < 1e-12


@pytest.mark.parametrize("particles, subsystem", SUBSYSTEMS)
@settings(max_examples=4, deadline=None, derandomize=True)
@given(density=st.sampled_from([0.0, 0.3, 1.0]), data=st.data())
def test_the_reader_matches_the_gram_reference_for_every_subsystem(particles, subsystem, density, data):
    # the per-layer sums and the closed form the hits telescope to, at N=2-6 and n <= 9
    layers = data.draw(st.integers(0, _gram_layers(particles, len(subsystem))))
    seed = data.draw(st.integers(0, 2**32 - 1))
    circuit = random_circuit(np.random.default_rng(seed), particles, layers, p_phase=density)
    assert_reader_matches_the_gram_reference(circuit, subsystem)


def assert_streamed_sides_are_the_tree_tables(circuit, subsystem):
    # the stream yields layers 1..n-1 and nothing more, each layer's sides the tree's table t and
    # layer t's pre-gate states; the earlier route's shares of layer n held the very rows of the
    # whole final table that end at each outcome, bit for bit
    particles = normalize_subsystem(circuit, subsystem)
    tree = list(conditioned_prefix_state_layers(circuit, particles))
    stream = lambda_stream(circuit, particles)
    for t in range(1, circuit.n):
        hits = next(stream)
        pre = tree_step(circuit, particles, t, tree[t - 1]).pre
        if hits:
            (grown, plus), (previous, minus) = hits
            assert np.array_equal(grown, tree[t]) and np.array_equal(previous, pre)
            assert np.array_equal(plus, np.ones(pre.shape[1])) and np.array_equal(minus, -plus)
    assert next(stream, None) is None
    shares = [share for outcome, share in earlier_stream(circuit, particles) if outcome is not None]
    pairs = zip(table_conditioned_blocks(circuit, particles), gram_blocks(circuit, particles), strict=True)
    for index, ((outcome, table), (_, gram)) in enumerate(pairs):
        assert np.array_equal(table.factor, gram.factor) and np.array_equal(table.amplitudes, gram.amplitudes)
        if circuit.n and shares[index]:
            (rows, _), _ = shares[index]
            assert np.array_equal(rows, table.factor)


@pytest.mark.parametrize("particles, subsystem", [case for case in SUBSYSTEMS if case != (3, (0,))])  # no cascade
@settings(max_examples=4, deadline=None, derandomize=True)
@given(density=st.sampled_from([0.0, 0.3, 1.0]), data=st.data())
def test_streamed_sides_are_the_tree_tables_bit_for_bit(particles, subsystem, density, data):
    layers = data.draw(st.integers(0, min(7, _gram_layers(particles, len(subsystem)))))
    seed = data.draw(st.integers(0, 2**32 - 1))
    circuit = random_circuit(np.random.default_rng(seed), particles, layers, p_phase=density)
    assert_streamed_sides_are_the_tree_tables(circuit, subsystem)


@pytest.mark.parametrize("file", sorted(path.name for path in CORPUS.glob("n[34]_*.json")))
def test_the_reader_matches_the_gram_reference_on_the_corpus(file):
    circuit = load_circuit(str(CORPUS / file))
    for size in range(1, circuit.particles):
        for subsystem in itertools.combinations(range(circuit.particles), size):
            assert_reader_matches_the_gram_reference(circuit, subsystem)
            if subsystem != (0,) or circuit.particles != 3:
                assert_streamed_sides_are_the_tree_tables(circuit, subsystem)


def assert_the_last_layer_adds_nothing(circuit, subsystem):
    # on pairs of paths that end at the same outcome, layer n's hit is exactly zero: each outcome's
    # share of it adds at most 1e-14 to its pair sum, and the marginals that never build it match
    # the earlier route, which read it, to 1e-12
    particles = normalize_subsystem(circuit, subsystem)
    _, added = share_sums(circuit, particles)
    assert max(abs(float(np.sum(terms))) for terms in added) <= 1e-14
    marginals, earlier = lambda_marginals(circuit, subsystem), share_marginals(circuit, subsystem)
    assert list(marginals) == list(earlier)
    assert max(abs(marginals[outcome] - earlier[outcome]) for outcome in earlier) < 1e-12


def assert_a_pair_that_ends_together_gains_nothing_at_the_last_layer(circuit, subsystem, endpoints, indices):
    # the per-pair references: lambda over n layers is lambda over n - 1 layers to 1e-15
    particles = normalize_subsystem(circuit, subsystem)
    p, q = (member_paths_at(circuit.n, endpoints, index) for index in indices)
    if circuit.particles == 3 and particles == (0,):
        trajectory = lambda_three(circuit, p[0], q[0]).trajectory
    else:
        trajectory = lambda_accumulate(circuit, particles, p, q).trajectory
    assert abs(trajectory[-1] - trajectory[-2]) <= 1e-15


@pytest.mark.parametrize("particles, subsystem", SUBSYSTEMS)
@settings(max_examples=4, deadline=None, derandomize=True)
@given(density=st.sampled_from([0.3, 1.0]), data=st.data())
def test_the_last_layer_adds_nothing_for_every_subsystem(particles, subsystem, density, data):
    # both producers at N=2-6 and n <= 9; the scalar cascade's pairs at n <= 4
    cascade = (particles, subsystem) == (3, (0,))
    layers = data.draw(st.integers(0, _gram_layers(particles, len(subsystem))))
    seed = data.draw(st.integers(0, 2**32 - 1))
    circuit = random_circuit(np.random.default_rng(seed), particles, layers, p_phase=density)
    assert_the_last_layer_adds_nothing(circuit, subsystem)
    pair_layers = data.draw(st.integers(1, 4 if cascade else 9))
    pair_circuit = random_circuit(np.random.default_rng(seed), particles, pair_layers, p_phase=density)
    endpoints = data.draw(st.lists(st.integers(0, 1), min_size=len(subsystem), max_size=len(subsystem)))
    count = 1 << (len(subsystem) * (pair_layers - 1))
    indices = data.draw(st.tuples(st.integers(0, count - 1), st.integers(0, count - 1)))
    assert_a_pair_that_ends_together_gains_nothing_at_the_last_layer(pair_circuit, subsystem, endpoints, indices)


@pytest.mark.parametrize("file", sorted(path.name for path in CORPUS.glob("n*_l*_s*.json")))
def test_the_last_layer_adds_nothing_on_the_corpus(file):
    circuit = load_circuit(str(CORPUS / file))
    for size in range(1, circuit.particles):
        last = (1 << size * (circuit.n - 1)) - 1
        for subsystem in itertools.combinations(range(circuit.particles), size):
            assert_the_last_layer_adds_nothing(circuit, subsystem)
            for endpoints in ((0,) * size, (1,) * size):  # the first, middle and last path prefixes
                for indices in ((0, last), (last // 2, 0)):
                    assert_a_pair_that_ends_together_gains_nothing_at_the_last_layer(circuit, subsystem, endpoints, indices)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([2, 4, 5]), st.lists(_GATE_FLAGS, min_size=1, max_size=5), st.integers(0, 2**32 - 1), st.data())
def test_member_relabeling_ties_each_single_particle_to_the_hit_stream(particles, pattern, seed, data):
    # the reader's (j,) is its (0,) once particles 0 and j trade labels
    member = data.draw(st.integers(1, particles - 1))
    circuit = sparse_circuit(particles, pattern, seed)
    streamed = lambda_marginals(swap_particles(circuit, 0, member), (0,))
    for outcome, probability in lambda_marginals(circuit, (member,)).items():
        assert abs(probability - streamed[outcome]) < 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([4, 5]), st.lists(_GATE_FLAGS, min_size=1, max_size=5), st.integers(0, 2**32 - 1), st.data())
def test_external_relabeling_leaves_every_pair_block_lambda(particles, pattern, seed, data):
    # a lambda is an overlap of external states, which no relabeling of the external particles moves
    circuit = sparse_circuit(particles, pattern, seed)
    relabeled = circuit
    for first, second in data.draw(st.lists(st.tuples(st.integers(2, particles - 1), st.integers(2, particles - 1)))):
        relabeled = swap_particles(relabeled, first, second)
    pairs = zip(lambda_blocks(circuit, (0, 1)), lambda_blocks(relabeled, (0, 1)), strict=True)
    for (outcome, block), (relabeled_outcome, moved) in pairs:
        assert outcome == relabeled_outcome
        assert np.max(np.abs(block.lam - moved.lam)) < 1e-12
    marginals, moved = lambda_marginals(circuit, (0, 1)), lambda_marginals(relabeled, (0, 1))
    assert max(abs(marginals[outcome] - moved[outcome]) for outcome in marginals) < 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([4, 5]), st.lists(_GATE_FLAGS, min_size=1, max_size=5), st.integers(0, 2**32 - 1), st.data())
def test_external_relabeling_leaves_every_single_particle_lambda_table(particles, pattern, seed, data):
    # every table the tree's hits add up to is an overlap of external states, which no
    # relabeling of particles 1..N-1 moves
    circuit = sparse_circuit(particles, pattern, seed)
    relabeled = circuit
    for first, second in data.draw(st.lists(st.tuples(st.integers(1, particles - 1), st.integers(1, particles - 1)))):
        relabeled = swap_particles(relabeled, first, second)
    for lam, moved in zip(hit_lambdas(circuit), hit_lambdas(relabeled), strict=True):
        assert np.max(np.abs(lam - moved)) < 1e-12


@pytest.mark.parametrize("particles", [3, 4])
def test_pair_marginal_matches_the_oracle_at_eleven_all_gates_layers(particles):
    # the stream stops at layer 10: the largest external-state table is table 10,
    # 2^21 entries at N=3 and 2^22 at N=4, beside the 2^22 joint path amplitudes
    circuit = random_circuit(np.random.default_rng(1), particles, 11, p_single=1.0, p_phase=1.0)
    oracle = marginal_by_sum(circuit, (0, 1))
    for outcome, probability in lambda_marginals(circuit, (0, 1)).items():
        assert abs(probability - oracle[outcome]) < 1e-9

