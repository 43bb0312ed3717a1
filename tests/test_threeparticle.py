"""Three-particle cascade: branch factors, closure, reductions, no-signaling."""
from __future__ import annotations

import io
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path as FilePath

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumpaths import cli
from sumpaths.circuits import PhaseGate, append_external_layer, load_circuit, make_circuit, random_single
from sumpaths.common import DEFAULT_BUDGET, BudgetExceeded
from sumpaths.corpus import random_circuit
from sumpaths.oracle import marginal_by_sum
from sumpaths.paths import Path, enumerate_paths
from sumpaths.subsystems import conditioned_blocks, lambda_blocks
from sumpaths.threeparticle import (
    cascade_charges,
    cascade_hits,
    delta,
    gamma_chi,
    hit_tables,
    hit_three,
    lambda3_tables,
    lambda_three,
)
from sumpaths.twoparticle import hit as hit_two
from sumpaths.twoparticle import lambda_accumulate

from .reference import (
    conditioned_external_matrix,
    decoupled_three_particle,
    drop_particle,
    final_blocks,
    gram_tables,
    hit_lambdas,
    lambda_general,
    per_branch_cascade_layers,
    refined_cascade_tables,
    remove_trailing_external_gate,
    table_trajectory,
    thetas_cascade_charges,
)

CORPUS = FilePath(__file__).resolve().parent.parent / "corpus"


def sample_pairs(n: int, endpoint: int, count: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    paths = enumerate_paths(n, endpoint)
    pairs = [(p, q) for p in paths for q in paths if p != q]
    rng.shuffle(pairs)
    return pairs[:count]


def test_delta_ab_zero_without_gate():
    circuit = make_circuit(3, [({}, [PhaseGate((0, 2), (0.1, 0.2, 0.3, 0.4))])])
    p, q = Path((0,)), Path((1,))
    m = n_ = Path((0,))
    assert delta(circuit, 1, p, q, m, n_, 1) == 0j
    assert delta(circuit, 2, p, q, m, n_, 1) != 0j


def test_delta_ac_zero_when_decoupled():
    circuit = decoupled_three_particle(np.random.default_rng(3), layers=3)
    p, q = Path((0, 0, 0)), Path((1, 1, 0))
    for r in range(1, 4):
        for s in enumerate_paths(r, 0):
            for t_ in enumerate_paths(r, 0):
                assert delta(circuit, 2, p, q, s, t_, r) == 0j


def test_delta_endpoint_mismatch_rejected():
    circuit = random_circuit(np.random.default_rng(5), 3, 2)
    p, q = Path((0, 0)), Path((1, 0))
    with pytest.raises(ValueError):
        delta(circuit, 1, p, q, Path((0,)), Path((1,)), 1)
    for outside in (0, 3):  # only B and C are external
        with pytest.raises(ValueError):
            delta(circuit, outside, p, q, Path((0,)), Path((0,)), 1)
        with pytest.raises(ValueError):
            gamma_chi(circuit, outside, p, q, Path((0,)), Path((0,)), 1)


def test_delta_ab_reduces_to_two_particle_form_for_single_gate():
    # One A-B gate, identity B singles: the booking factor collapses to
    # (e^{i dtheta} - 1) B_M^* B_N with unit amplitudes.
    theta = (0.0, 0.0, 0.0, 1.3)
    circuit = make_circuit(3, [({}, [PhaseGate((0, 1), theta)])])
    p, q = Path((0,)), Path((1,))
    m = n_ = Path((0,))
    value = delta(circuit, 1, p, q, m, n_, 1)
    assert abs(value - (np.exp(1j * 0.0) - 1.0)) < 1e-15  # joint mode (q=1, k=0) has theta 0
    mm = nn = Path((1,))
    value = delta(circuit, 1, p, q, mm, nn, 1)
    # B has identity singles, so a path through mode 1 has zero amplitude
    assert value == 0j


def test_gamma_chi_b_prefix_identity():
    circuit = random_circuit(np.random.default_rng(7), 3, 4)
    p, q = Path((0, 1, 0, 0)), Path((1, 0, 1, 0))
    for s, t_ in sample_pairs(4, 1, 4, seed=1):
        for upto in range(1, 5):
            total = 1.0 + 0j
            for t in range(1, upto + 1):
                gamma, chi = gamma_chi(circuit, 1, p, q, s, t_, t)
                total += gamma + chi
            left = conditioned_external_matrix(circuit, {0: p, 2: s}, upto)[:, 0]
            right = conditioned_external_matrix(circuit, {0: q, 2: t_}, upto)[:, 0]
            assert abs(total - np.vdot(left, right)) < 1e-10


def test_gamma_chi_b_zero_without_gates():
    circuit = decoupled_three_particle(np.random.default_rng(11), layers=3)
    p, q = Path((0, 1, 0)), Path((1, 0, 0))
    for s, t_ in sample_pairs(3, 0, 2, seed=2):
        for t in range(1, 4):
            gamma, chi = gamma_chi(circuit, 1, p, q, s, t_, t)
            assert chi == 0j  # no B-C gates in a decoupled circuit
            if circuit.phase(t, (0, 1)) is None:
                assert gamma == 0j


def test_gamma_chi_c_prefix_identity_with_final_interaction_excluded():
    circuit = random_circuit(np.random.default_rng(13), 3, 4)
    p, q = Path((1, 1, 0, 0)), Path((0, 0, 1, 0))
    for m, n_ in sample_pairs(4, 0, 4, seed=3):
        for upto in range(1, 5):
            total = 1.0 + 0j
            for t in range(1, upto + 1):
                gamma, chi = gamma_chi(circuit, 2, p, q, m, n_, t)
                if t <= upto - 1:
                    total += gamma
                total += chi
            # reference state: condition on (A, B) paths through upto, but drop
            # the layer-upto A-C gate, mirroring the booked A-B branch
            def state(a_path, b_path):
                vec = conditioned_external_matrix(circuit, {0: a_path, 1: b_path}, upto - 1)[:, 0]
                vec = circuit.single(upto, 2) @ vec
                gate = circuit.phase(upto, (1, 2))
                if gate is not None:
                    thetas = np.asarray(gate.thetas).reshape(2, 2)
                    vec = np.exp(1j * thetas[b_path.mode(upto)]) * vec
                return vec

            assert abs(total - np.vdot(state(p, m), state(q, n_))) < 1e-10


def test_gamma_chi_c_full_telescoping():
    circuit = random_circuit(np.random.default_rng(17), 3, 3)
    p, q = Path((1, 0, 0)), Path((0, 1, 0))
    for m, n_ in sample_pairs(3, 1, 3, seed=4):
        total = 1.0 + 0j
        for t in range(1, 4):
            gamma, chi = gamma_chi(circuit, 2, p, q, m, n_, t)
            total += gamma + chi
        left = conditioned_external_matrix(circuit, {0: p, 1: m}, 3)[:, 0]
        right = conditioned_external_matrix(circuit, {0: q, 1: n_}, 3)[:, 0]
        assert abs(total - np.vdot(left, right)) < 1e-10


def test_bc_only_layer_gives_zero_gamma_nonzero_chi():
    rng = np.random.default_rng(2)
    circuit = make_circuit(
        3,
        [
            ({1: random_single(rng), 2: random_single(rng)},
             [PhaseGate((1, 2), (0.4, 1.1, 2.2, 0.7))]),
            ({}, []),
        ],
    )
    p, q = Path((0, 0)), Path((1, 0))
    for s, t_ in sample_pairs(2, 0, 3, seed=8):
        gamma, chi = gamma_chi(circuit, 1, p, q, s, t_, 1)
        assert gamma == 0j
        if s.mode(1) != t_.mode(1):
            assert abs(chi) > 1e-6
    for m, n_ in sample_pairs(2, 1, 3, seed=9):
        gamma, chi = gamma_chi(circuit, 2, p, q, m, n_, 1)
        assert gamma == 0j
        if m.mode(1) != n_.mode(1):
            assert abs(chi) > 1e-6


def test_zero_theta_marginal_is_free_born_rule():
    rng = np.random.default_rng(4)
    gates = [random_single(rng) for _ in range(2)]
    circuit = make_circuit(
        3, [({0: gates[0]}, []), ({0: gates[1], 1: random_single(rng), 2: random_single(rng)}, [])]
    )
    free = gates[1] @ gates[0]
    blocks = final_blocks(circuit, lambda3_tables(circuit))
    for j in (0, 1):
        assert abs(blocks[j].marginal() - abs(free[j, 0]) ** 2) < 1e-12


def test_hit_three_zero_at_interaction_free_layers():
    circuit = make_circuit(
        3,
        [
            ({0: random_single(np.random.default_rng(0))}, [PhaseGate((1, 2), (1.0, 0.2, 0.3, 0.4))]),
            ({}, [PhaseGate((0, 1), (0.5, 0.1, 0.2, 0.9))]),
            ({}, []),
        ],
    )
    # layer 1 has no subsystem-coupled gate: the hit is an exact (bit-level) zero
    p, q = Path((0, 0, 0)), Path((0, 1, 0))
    breakdown = hit_three(circuit, p, q, 1)
    assert breakdown.total == 0j and not breakdown.ab_branch and not breakdown.ac_branch
    assert hit_three(circuit, p, q, 3).total == 0j
    # the paths diverge at layer 2, where the A-B gate sits: that hit is real work
    assert abs(hit_three(circuit, p, q, 2).total) > 1e-3


def test_hit_three_matches_two_particle_hit_when_decoupled():
    circuit = decoupled_three_particle(np.random.default_rng(19), layers=3)
    reduced = drop_particle(circuit, 2)
    for endpoint in (0, 1):
        for p, q in sample_pairs(3, endpoint, 6, seed=5):
            for r in range(1, 4):
                three = hit_three(circuit, p, q, r).total
                two = hit_two(reduced, (0,), (p,), (q,), r)
                assert abs(three - two) < 1e-10


def test_breakdown_totals_match_branch_terms():
    circuit = random_circuit(np.random.default_rng(23), 3, 3)
    p, q = Path((0, 1, 1)), Path((1, 0, 1))
    breakdown = hit_three(circuit, p, q, 3)
    rebuilt = sum((t.value for t in breakdown.ab_branch), 0j) + sum(
        (t.value for t in breakdown.ac_branch), 0j
    )
    assert abs(breakdown.total - rebuilt) < 1e-14


def test_cascade_closes_to_direct_inner_product():
    rng = np.random.default_rng(29)
    for layers in (1, 2, 3):
        circuit = random_circuit(rng, 3, layers)
        for endpoint in (0, 1):
            for p, q in sample_pairs(layers, endpoint, 6, seed=layers):
                entry = lambda_three(circuit, p, q)
                direct = lambda_general(circuit, (0,), (p,), (q,))
                assert abs(entry.final - direct) < 1e-9


def test_zero_theta_circuit_keeps_lambda_at_one():
    rng = np.random.default_rng(31)
    circuit = make_circuit(3, [({i: random_single(rng) for i in range(3)}, []) for _ in range(3)])
    p, q = Path((0, 1, 0)), Path((1, 0, 0))
    entry = lambda_three(circuit, p, q)
    assert all(value == 1.0 + 0j for value in entry.trajectory)


def test_identical_paths_give_unit_lambda():
    circuit = random_circuit(np.random.default_rng(37), 3, 3)
    p = enumerate_paths(3, 1)[2]
    assert abs(lambda_three(circuit, p, p).final - 1.0) < 1e-12
    assert abs(lambda_general(circuit, (0,), (p,), (p,)) - 1.0) < 1e-12


def test_tables_match_scalar_cascade():
    circuit = random_circuit(np.random.default_rng(41), 3, 3)
    tables = list(lambda3_tables(circuit))
    for endpoint in (0, 1):
        for p, q in sample_pairs(3, endpoint, 8, seed=6):
            scalar = lambda_three(circuit, p, q)
            table = table_trajectory(tables, p, q)
            assert np.max(np.abs(np.array(table) - np.array(scalar.trajectory))) < 1e-10


def sparse_circuit(pattern, rng: np.random.Generator):
    """Random singles on every particle; layer t holds the A-B, A-C and B-C gates flagged in pattern[t - 1]."""
    specs = [
        (
            {i: random_single(rng) for i in range(3)},
            [
                PhaseGate(pair, tuple(rng.uniform(0.0, 2.0 * np.pi, 4).tolist()))
                for pair, present in zip(((0, 1), (0, 2), (1, 2)), gates)
                if present
            ],
        )
        for gates in pattern
    ]
    return make_circuit(3, specs)


def swap_externals(circuit):
    """The same circuit with particles 1 (B) and 2 (C) exchanged."""
    specs = []
    for layer in circuit.layers:
        phases = []
        for gate in layer.phases:
            if gate.pair == (1, 2):
                t00, t01, t10, t11 = gate.thetas
                phases.append(PhaseGate((1, 2), (t00, t10, t01, t11)))
            else:
                phases.append(PhaseGate((0, 3 - gate.pair[1]), gate.thetas))
        specs.append(({0: layer.singles[0], 1: layer.singles[2], 2: layer.singles[1]}, phases))
    return make_circuit(3, specs)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()), min_size=1, max_size=4),
    st.integers(0, 2**32 - 1),
)
def test_tables_match_scalar_cascade_on_sparse_gate_patterns(pattern, seed):
    # each layer holds any subset of the A-B, A-C and B-C gates, so the
    # tables' absent-gate branches (no increment, no hit) all run
    rng = np.random.default_rng(seed)
    circuit = sparse_circuit(pattern, rng)
    tables = list(lambda3_tables(circuit))
    for endpoint in (0, 1):
        paths = enumerate_paths(circuit.n, endpoint)
        p, q = (paths[int(i)] for i in rng.integers(0, len(paths), 2))
        scalar = lambda_three(circuit, p, q)
        assert np.max(np.abs(np.array(table_trajectory(tables, p, q)) - scalar.trajectory)) < 1e-10


# angles where the sum or difference of two rounds by whole radians, and ones where it overflows
EXTREME_ANGLES = st.sampled_from([1.7e308, -1.7e308]) | st.floats(-1e16, 1e16)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.lists(EXTREME_ANGLES, min_size=36, max_size=36), st.integers(0, 2**32 - 1))
@example(3, [1.7e308, -1.7e308, -1.7e308, 1.7e308] * 9, 0)
def test_scalar_cascade_matches_the_tables_at_extreme_angles(layers, angles, seed):
    # the scalar cascade multiplies each gate's factors, as the tables do: no two angles are combined
    rng = np.random.default_rng(seed)
    quads = iter(tuple(angles[k : k + 4]) for k in range(0, 36, 4))
    specs = [
        ({i: random_single(rng) for i in range(3)}, [PhaseGate(pair, next(quads)) for pair in ((0, 1), (0, 2), (1, 2))])
        for _ in range(layers)
    ]
    circuit = make_circuit(3, specs)
    tables = list(lambda3_tables(circuit))
    for endpoint in (0, 1):
        paths = enumerate_paths(layers, endpoint)
        p, q = (paths[int(i)] for i in rng.integers(0, len(paths), 2))
        scalar = lambda_three(circuit, p, q)
        assert np.max(np.abs(np.array(table_trajectory(tables, p, q)) - scalar.trajectory)) < 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()), min_size=1, max_size=5),
    st.integers(0, 2**32 - 1),
)
def test_swapping_external_particles_keeps_every_table(pattern, seed):
    # the A-B and A-C branches trade places, and B-C angles are read transposed
    rng = np.random.default_rng(seed)
    circuit = sparse_circuit(pattern, rng)
    swapped = swap_externals(circuit)
    for lam, twin in zip(lambda3_tables(circuit), lambda3_tables(swapped), strict=True):
        assert np.max(np.abs(lam - twin)) < 1e-12
    if circuit.n <= 4:  # and one scalar pair
        paths = enumerate_paths(circuit.n, int(rng.integers(0, 2)))
        p, q = (paths[int(i)] for i in rng.integers(0, len(paths), 2))
        assert abs(lambda_three(circuit, p, q).final - lambda_three(swapped, p, q).final) < 1e-10


@pytest.mark.parametrize("layers", [6, 7, 8])
def test_tables_beyond_five_layers_match_direct_and_general_routes(layers):
    # all gates present, so every layer books the most columns; n = 8 fills the default budget
    circuit = random_circuit(np.random.default_rng(79 + layers), 3, layers, p_single=1.0, p_phase=1.0)
    tables = list(lambda3_tables(circuit))
    for lam, gram in zip(tables, gram_tables(circuit), strict=True):
        assert np.max(np.abs(lam - gram)) < 1e-9
    oracle = marginal_by_sum(circuit, {0})
    general = dict(conditioned_blocks(circuit, (0,)))
    blocks = final_blocks(circuit, tables)
    for j in (0, 1):
        assert abs(blocks[j].marginal() - general[(j,)].marginal()) < 1e-9
        assert abs(blocks[j].marginal() - oracle[j]) < 1e-9


def assert_matches_refined_cascade(circuit) -> None:
    for lam, earlier in zip(lambda3_tables(circuit), refined_cascade_tables(circuit), strict=True):
        assert np.max(np.abs(lam - earlier)) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()), min_size=1, max_size=5),
    st.integers(0, 2**32 - 1),
)
def test_tables_match_the_refined_cascade_on_sparse_gate_patterns(pattern, seed):
    # the carried columns meet every mix of present and absent booking, gamma and chi gates
    assert_matches_refined_cascade(sparse_circuit(pattern, np.random.default_rng(seed)))


@settings(max_examples=14, deadline=None, derandomize=True)
@given(st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_tables_match_the_refined_cascade_with_every_gate(layers, seed):
    circuit = random_circuit(np.random.default_rng(seed), 3, layers, p_single=1.0, p_phase=1.0)
    assert_matches_refined_cascade(circuit)


@pytest.mark.parametrize("file", sorted(path.name for path in CORPUS.glob("n3_*.json")))
def test_tables_match_the_refined_cascade_on_the_corpus(file):
    assert_matches_refined_cascade(load_circuit(str(CORPUS / file)))


def assert_matches_the_per_branch_pass(circuit) -> None:
    # both branches in one stacked pass give the per-branch pass's factors and tables bit for bit
    layers = list(cascade_hits(circuit))
    earlier = list(per_branch_cascade_layers(circuit))
    assert len(layers) == len(earlier) == circuit.n
    for hits, expected in zip(layers, earlier):
        assert len(hits) == len(expected)
        for (side, signed), (side_ref, signed_ref) in zip(hits, expected):
            assert np.array_equal(side, side_ref) and np.array_equal(signed, signed_ref)
    for lam, lam_ref in zip(lambda3_tables(circuit), hit_tables(earlier), strict=True):
        assert np.array_equal(lam, lam_ref)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()), min_size=1, max_size=7),
    st.integers(0, 2**32 - 1),
)
def test_stacked_pass_matches_the_per_branch_pass_on_sparse_gate_patterns(pattern, seed):
    # the branches book different column counts wherever their gates differ
    assert_matches_the_per_branch_pass(sparse_circuit(pattern, np.random.default_rng(seed)))


@settings(max_examples=16, deadline=None, derandomize=True)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_stacked_pass_matches_the_per_branch_pass_with_every_gate(layers, seed):
    circuit = random_circuit(np.random.default_rng(seed), 3, layers, p_single=1.0, p_phase=1.0)
    assert_matches_the_per_branch_pass(circuit)


@pytest.mark.parametrize("file", sorted(path.name for path in CORPUS.glob("n3_*.json")))
def test_stacked_pass_matches_the_per_branch_pass_on_the_corpus(file):
    assert_matches_the_per_branch_pass(load_circuit(str(CORPUS / file)))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()), min_size=1, max_size=6),
    st.integers(0, 2**32 - 1),
)
def test_no_yielded_factor_or_table_is_written_afterwards(pattern, seed):
    # each array is copied as it is yielded and compared once the whole stream has run
    circuit = sparse_circuit(pattern + [(True, True, True)], np.random.default_rng(seed))
    yielded, snapshots = [], []
    for hits in cascade_hits(circuit):
        yielded.append(hits)
        snapshots.append([(side.copy(), signed.copy()) for side, signed in hits])
    tables = [(lam, lam.copy()) for lam in hit_tables(yielded)]
    for hits, copies in zip(yielded, snapshots, strict=True):
        for (side, signed), (side_copy, signed_copy) in zip(hits, copies, strict=True):
            assert np.array_equal(side, side_copy) and np.array_equal(signed, signed_copy)
    for lam, copy in tables:
        assert np.array_equal(lam, copy)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()), max_size=8),
    st.lists(st.booleans(), max_size=3),
    st.integers(0, 2**32 - 1),
)
def test_cascade_charge_reads_gate_presence_like_the_angle_tables(pattern, tail, seed):
    # the tail's layers hold at most a B-C gate, so the last gate on A comes before them:
    # the branches stop growing there while lambda grows through the tail
    circuit = sparse_circuit(pattern + [(False, False, bc) for bc in tail], np.random.default_rng(seed))
    charges = cascade_charges(circuit)
    assert charges == thetas_cascade_charges(circuit)
    assert charges[0][0] == 4**circuit.n and charges[1][0] <= 4 ** len(pattern)


@pytest.mark.parametrize("file", sorted(path.name for path in CORPUS.glob("n3_*.json")))
def test_cascade_charge_reads_gate_presence_like_the_angle_tables_on_the_corpus(file):
    circuit = load_circuit(str(CORPUS / file))
    assert cascade_charges(circuit) == thetas_cascade_charges(circuit)


def test_eight_all_gate_layers_peak_well_under_the_charged_stack():
    # the charges are 4^8 lambda entries, 4^8 struck path weights and 4^8 partner
    # states, 3 MiB of complex entries; the build holds about 2.5 times that while it grows a
    # layer, and no array holds 4^8 prefix pairs by the 64 columns booked (64 MiB)
    circuit = random_circuit(np.random.default_rng(83), 3, 8, p_single=1.0, p_phase=1.0)
    tracemalloc.start()
    try:
        for lam in lambda3_tables(circuit):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lam.shape == (256, 256)
    assert peak < 10 * 2**20


def test_budget_guard_admits_eleven_all_gate_layers_only():
    # at n = 11 lambda's 4^11 entries, both branches' struck path weights (one per (10-mode
    # subsystem prefix, 11-mode struck prefix) pair each) and the partner states all fit 2^22
    # exactly; at n = 12 lambda's table, the first charge, does not
    rng = np.random.default_rng(83)
    next(lambda3_tables(random_circuit(rng, 3, 11, p_single=1.0, p_phase=1.0)))
    with pytest.raises(BudgetExceeded, match="^path-pair table needs 16777216 "):
        next(lambda3_tables(random_circuit(rng, 3, 12, p_single=1.0, p_phase=1.0)))


def test_trailing_external_layer_adds_no_hit():
    # the branches grow no further after the last A-B/A-C gate, so the layer
    # no-signaling appends adds only lambda's repeat to the charges
    rng = np.random.default_rng(89)
    circuit = random_circuit(rng, 3, 8, p_single=1.0, p_phase=1.0)
    extended = append_external_layer(circuit, rng)
    assert cascade_charges(extended)[1:] == cascade_charges(circuit)[1:]
    tables = list(lambda3_tables(extended))
    expanded = np.repeat(np.repeat(tables[circuit.n], 2, axis=0), 2, axis=1)
    assert np.array_equal(tables[extended.n], expanded)  # the appended layer adds no hit
    for lam, gram in zip(tables, gram_tables(extended), strict=True):
        assert np.max(np.abs(lam - gram)) < 1e-9
    base, blocks = final_blocks(circuit, lambda3_tables(circuit)), final_blocks(extended, tables)
    for j in (0, 1):
        assert abs(blocks[j].marginal() - base[j].marginal()) < 1e-12


def test_tables_close_for_all_pairs_and_prefixes():
    circuit = random_circuit(np.random.default_rng(43), 3, 5)
    for lam, gram in zip(lambda3_tables(circuit), gram_tables(circuit), strict=True):
        assert np.max(np.abs(lam - gram)) < 1e-9


def test_hermitian_pairing_and_bound():
    circuit = random_circuit(np.random.default_rng(47), 3, 4)
    tables = list(lambda3_tables(circuit))
    final = tables[circuit.n]
    assert np.max(np.abs(final - final.conj().T)) < 1e-12
    assert all(np.max(np.abs(table)) <= 1 + 1e-10 for table in tables)


def test_decoupled_lambda_reduces_to_two_particle():
    rng = np.random.default_rng(53)
    circuit = decoupled_three_particle(rng, layers=4)
    reduced = drop_particle(circuit, 2)
    for endpoint in (0, 1):
        for p, q in sample_pairs(4, endpoint, 8, seed=7):
            three = lambda_three(circuit, p, q).final
            two = lambda_accumulate(reduced, (0,), (p,), (q,)).final
            assert abs(three - two) < 1e-10
        three_marginal = final_blocks(circuit, lambda3_tables(circuit))[endpoint].marginal()
        two_marginal = final_blocks(reduced, hit_lambdas(reduced))[endpoint].marginal()
        assert abs(three_marginal - two_marginal) < 1e-10


def test_marginal_three_matches_oracle():
    rng = np.random.default_rng(59)
    for layers in (1, 2, 4, 5):
        circuit = random_circuit(rng, 3, layers)
        oracle = marginal_by_sum(circuit, {0})
        blocks = final_blocks(circuit, lambda3_tables(circuit))
        marginals = [blocks[j].marginal() for j in (0, 1)]
        for j in (0, 1):
            assert abs(marginals[j] - oracle[j]) < 1e-9
        assert abs(marginals[0] + marginals[1] - 1.0) < 1e-9


def test_no_signaling_external_layer():
    rng = np.random.default_rng(61)
    circuit = random_circuit(rng, 3, 3)
    extended = append_external_layer(circuit, rng)
    base_oracle = marginal_by_sum(circuit, {0})
    ext_oracle = marginal_by_sum(extended, {0})
    base = final_blocks(circuit, lambda3_tables(circuit))
    ext = final_blocks(extended, lambda3_tables(extended))
    for j in (0, 1):
        assert abs(base_oracle[j] - ext_oracle[j]) < 1e-12
        assert abs(base[j].marginal() - ext[j].marginal()) < 1e-12


def test_remove_trailing_external_gate():
    rng = np.random.default_rng(67)
    circuit = random_circuit(rng, 3, 2)
    extended = append_external_layer(circuit, rng)
    trimmed = remove_trailing_external_gate(extended)
    assert trimmed.n == circuit.n
    base = marginal_by_sum(extended, {0})
    for j in (0, 1):
        assert abs(marginal_by_sum(trimmed, {0})[j] - base[j]) < 1e-12

    # a trailing identity layer also comes off
    specs = [(dict(enumerate(layer.singles)), list(layer.phases)) for layer in circuit.layers]
    specs.append(({}, []))
    padded = make_circuit(3, specs)
    assert remove_trailing_external_gate(padded).n == circuit.n

    # but a subsystem-coupled final layer must be refused
    bad = make_circuit(3, specs[:-1] + [({}, [PhaseGate((0, 1), (0.0, 0.0, 0.0, 1.0))])])
    with pytest.raises(ValueError):
        remove_trailing_external_gate(bad)
    bad_single = make_circuit(3, specs[:-1] + [({0: random_single(rng)}, [])])
    with pytest.raises(ValueError):
        remove_trailing_external_gate(bad_single)


def test_budget_guard():
    circuit = random_circuit(np.random.default_rng(71), 3, 5)
    with pytest.raises(BudgetExceeded):
        next(lambda3_tables(circuit, budget=1000))


def test_wrong_particle_count_rejected():
    circuit = random_circuit(np.random.default_rng(73), 2, 2)
    p, q = Path((0, 0)), Path((1, 0))
    with pytest.raises(ValueError):
        hit_three(circuit, p, q, 1)
    with pytest.raises(ValueError):
        next(lambda3_tables(circuit))


# The factored marginal route: `lambda_blocks` reads (0,) of three particles
# off every layer's hit factors and builds no lambda table unless `lam` is read.


def swap_particles(circuit, first, second):
    """The same circuit with particles `first` and `second` exchanged; a gate whose pair turns around is transposed."""
    label = {first: second, second: first}
    specs = []
    for layer in circuit.layers:
        phases = []
        for gate in layer.phases:
            a, b = (label.get(i, i) for i in gate.pair)
            t00, t01, t10, t11 = gate.thetas
            phases.append(PhaseGate((a, b), gate.thetas) if a < b else PhaseGate((b, a), (t00, t10, t01, t11)))
        singles = {label.get(i, i): single for i, single in enumerate(layer.singles)}
        specs.append((singles, sorted(phases, key=lambda gate: gate.pair)))
    return make_circuit(circuit.particles, specs)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()), min_size=0, max_size=9),
    st.integers(0, 2**32 - 1),
)
def test_factored_marginals_match_the_dense_last_table(pattern, seed):
    circuit = sparse_circuit(pattern, np.random.default_rng(seed))
    dense = final_blocks(circuit, lambda3_tables(circuit))
    blocks = list(lambda_blocks(circuit, (0,), DEFAULT_BUDGET))
    assert [outcome for outcome, _ in blocks] == [(0,), (1,)]
    for (j,), block in blocks:
        assert block.hits is not None and "lam" not in vars(block)  # no table built
        assert abs(block.marginal() - dense[j].marginal()) < 1e-12


def test_factored_marginals_match_the_oracle_at_ten_layers():
    circuit = random_circuit(np.random.default_rng(1), 3, 10, p_single=1.0, p_phase=1.0)
    oracle = marginal_by_sum(circuit, (0,))
    for (j,), block in lambda_blocks(circuit, (0,), DEFAULT_BUDGET):
        assert abs(block.marginal() - oracle[j]) < 1e-9


def test_factored_marginals_match_the_oracle_at_eleven_layers():
    # the struck path weights and the partner states are each exactly 2^22 entries here
    circuit = random_circuit(np.random.default_rng(1), 3, 11, p_single=1.0, p_phase=1.0)
    oracle = marginal_by_sum(circuit, (0,))
    for (j,), block in lambda_blocks(circuit, (0,), DEFAULT_BUDGET):
        assert abs(block.marginal() - oracle[j]) < 1e-9


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()), min_size=1, max_size=6),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 2]),
)
def test_member_relabeling_ties_each_single_particle_to_the_factored_route(pattern, seed, member):
    circuit = sparse_circuit(pattern, np.random.default_rng(seed))
    factored = dict(lambda_blocks(swap_particles(circuit, 0, member), (0,), DEFAULT_BUDGET))
    for outcome, block in conditioned_blocks(circuit, (member,)):
        assert abs(block.marginal() - factored[outcome].marginal()) < 1e-12


def _perturb_stdout(path: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["perturb", "--clamp", "0.5", "--circuit", path]) == 0
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(path.name for path in CORPUS.glob("n3_*.json")))
def test_perturb_prints_what_the_dense_last_table_prints(monkeypatch, name):
    # the clamp reads each block's lam, added up from the hit factors in the cascade's
    # order: bit for bit the last table's endpoint blocks, which perturb read before
    path = str(CORPUS / name)
    circuit = load_circuit(path)
    dense = final_blocks(circuit, lambda3_tables(circuit))
    for (j,), block in lambda_blocks(circuit, (0,), DEFAULT_BUDGET):
        assert np.array_equal(block.amplitudes, dense[j].amplitudes)
        assert np.array_equal(block.lam, dense[j].lam)
    factored = _perturb_stdout(path)
    monkeypatch.setattr(cli, "lambda_blocks", lambda c, s, b: iter([((j,), dense[j]) for j in (0, 1)]))
    assert factored == _perturb_stdout(path)


def test_factored_marginal_holds_no_path_pair_table():
    # A-B and A-C gates at layer 1 only, so the cascade's own structures stay 4^1-sized; a lambda
    # over one endpoint's 4^(n-1) path pairs would be 1 MiB at n = 9 and the whole table 4 MiB
    circuit = sparse_circuit([(True, True, True)] + [(False, False, True)] * 8, np.random.default_rng(9))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        marginals = {outcome: block.marginal() for outcome, block in lambda_blocks(circuit, (0,), DEFAULT_BUDGET)}
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 4**8 * 16
    oracle = marginal_by_sum(circuit, (0,))
    assert max(abs(marginals[(j,)] - oracle[j]) for j in (0, 1)) < 1e-9


def test_factored_marginal_charges_the_path_amplitudes():
    # hits at layer 1 only: the stream's charges stay 4^1-sized, but every pair sum reads
    # particle 0's 2^n path amplitudes, which at n = 23 are past the default budget
    circuit = sparse_circuit([(True, True, True)] + [(False, False, True)] * 22, np.random.default_rng(23))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="subsystem path amplitudes needs 8388608"):
            next(lambda_blocks(circuit, (0,), DEFAULT_BUDGET))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
