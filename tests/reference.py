"""Independent brute-force references the library is checked against, and test circuits.

The references are built from explicit Kronecker products and raw path
enumeration so they share no evolution or bookkeeping code with the package.
The per-path helpers after them (joint phases, path indices, configuration
amplitudes, single-pair overlaps, dense conditioned unitaries, the joint
distribution) evaluate one path or pair at a time; no command reads them,
so they live here, next to the tests that compare the package against them.
The path-sum references after them are the earlier implementations of the
package's path-sum operands and contraction: `np.repeat`/`np.tile` prefix
amplitudes, `np.kron` pair phases and one greedy-planned `np.einsum`. The
package's one-broadcast-per-layer operands must equal them exactly, and
its particle-by-particle elimination must match their sum.
The circuit helpers after them make the seeded corpora and the reduced,
trimmed or relabeled circuits that the tests compare. The stream helpers after them read
per-layer lambda tables, added up from the hit factors of particle 0's tree
(`hit_lambdas`) or of the cascade (`lambda3_tables`, with its charges):
one pair's trajectory, the final endpoint blocks, and the Gram tables of
the package's conditioned prefix states that every layer must match. Then
comes the earlier dense (0,) route of every particle count but three: the
stream that wrote each lambda table from the last one and the tree step's
dense hits, and the fold of its last layer into both endpoint blocks,
which the factored route must match to rounding. Then come the
earlier two-particle table builder, the earlier axis-by-axis prefix tree
and the hit stream and fold that rebuilt each layer's pre-gate states and
straddling factors from it (which the one-product tree step must match bit
for bit, and the factored stream to rounding), the earlier three-particle cascade that
refined its whole column stacks every layer, the earlier per-branch cascade
pass, which ran one branch after the other and held each struck path weight
for both modes of the subsystem's newest bit, and the earlier pair sum, which
the general hit stream, the carried-column cascade, the stacked cascade pass
(bit for bit) and the copy-free pair sum must reproduce. Then come the
earlier single-gate kernels, `tensordot` and `moveaxis` with a matmul, and
the oracle and conditioned layers built from them: the package's one-BLAS-
call kernels on reshaped views must equal them bit for bit. Then come the
earlier general-subsystem routes: one built each outcome's dense lambda as
the Gram matrix of its gathered final-table rows, the next read each
outcome's Gram factor off the whole final table, reordered, and the last
(`gram_blocks`) folds the last layer per outcome. That Gram form is the
closed form the hits telescope to: the streamed pair sums must match it to
rounding. Then comes the earlier stream, which shared layer n out per
outcome after layers 1..n-1 (`earlier_stream`), and its pair sums: its
shares must hold the whole table's rows bit for bit and add at most
rounding to each pair sum, and the stream that stops at layer n - 1 must
match its marginals to rounding. Then come the
per-layer density references, one layer and one formula per call: the
hit/miss pair of one layer, the partial trace of one state vector, and the
one-layer Kronecker product, evolved matrix and recursion step, over the
package's own core angle and off-diagonal formula. `density_report`'s
stacked-layer batches must reproduce them bit for bit, and its partial
traces the partial trace of one evolved state. Then comes the earlier
cascade charge, which tested each gate's presence layer by layer, pair by
pair. Last is the earlier circuit validator, which tests every
number with a helper call: `validate_circuit`'s inline type tests must give
the same circuits and raise the same errors.
"""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from sumpaths.circuits import (
    IDENTITY,
    MAX_GATE_SLOTS,
    MAX_PARTICLES,
    BadParticleIndex,
    Circuit,
    CircuitFormatError,
    DuplicatePhasePair,
    PhaseGate,
    _assemble,
    make_circuit,
    random_single,
)
from sumpaths.corpus import random_circuit
from sumpaths.common import DEFAULT_BUDGET, HitLayer, LambdaBlock, PairSums, check_budget, check_charges, hit_tables
from sumpaths.density import _core_angle, _offdiagonal, _pathsum_collapse, _require_two_particles
from sumpaths.oracle import Distribution, evolve, marginal_by_sum
from sumpaths.paths import ConditionalUnitary, Path, condition_on_paths, conditioned_prefix_state_layers, normalize_subsystem
from sumpaths.paths import apply_single, endpoint_rows, pair_phases, path_amplitude, prefix_amplitude_layers
from sumpaths.paths import TreeStep, member_layout, prefix_amplitudes, straddling_factor, tree_root, tree_step
from sumpaths.subsystems import joint_amplitudes
from sumpaths.threeparticle import _PLUS_MINUS, _carry, _factors, _last_hit_layer, _toward, cascade_hit_charges, cascade_hits
from sumpaths.twoparticle import _before_layer, _straddle, tree_hit, tree_layers


def kron_layer_operator(circuit: Circuit, t: int) -> np.ndarray:
    """Dense 2^N x 2^N operator of layer t: tensor of singles, then each phase diagonal."""
    layer = circuit.layer(t)
    n = circuit.particles
    op = reduce(np.kron, layer.singles)
    diag = np.ones(1 << n, dtype=complex)
    for gate in layer.phases:
        a, b = gate.pair
        for index in range(1 << n):
            ma = (index >> (n - 1 - a)) & 1
            mb = (index >> (n - 1 - b)) & 1
            diag[index] *= np.exp(1j * gate.theta(ma, mb))
    return diag[:, None] * op


def kron_evolve(circuit: Circuit, upto: int | None = None) -> np.ndarray:
    t_stop = circuit.n if upto is None else upto
    state = np.zeros(1 << circuit.particles, dtype=complex)
    state[0] = 1.0
    for t in range(1, t_stop + 1):
        state = kron_layer_operator(circuit, t) @ state
    return state


def brute_amplitude(circuit: Circuit, outcome: tuple[int, ...]) -> complex:
    """Raw loop over every per-particle mode sequence ending at the outcome.

    With no layers the only sequence is empty and ends at the initial mode 0.
    """
    n, particles = circuit.n, circuit.particles
    total = 0.0 + 0.0j
    per_particle = [
        [seq + (outcome[i],) for seq in itertools.product((0, 1), repeat=n - 1)]
        if n
        else [()] * (outcome[i] == 0)
        for i in range(particles)
    ]
    for assignment in itertools.product(*per_particle):
        term = 1.0 + 0.0j
        for i in range(particles):
            prev = 0
            for t in range(1, n + 1):
                term *= circuit.single(t, i)[assignment[i][t - 1], prev]
                prev = assignment[i][t - 1]
        for t in range(1, n + 1):
            for gate in circuit.layer(t).phases:
                a, b = gate.pair
                term *= np.exp(1j * gate.theta(assignment[a][t - 1], assignment[b][t - 1]))
        total += term
    return total


def conditioned_external_matrix(
    circuit: Circuit, conditioning: dict[int, Path], upto: int | None = None
) -> np.ndarray:
    """External-system unitary with straddling phase gates fixed by the given paths.

    Built layer by layer from scratch: external singles via Kronecker products,
    then every surviving phase factor applied as an explicit diagonal.
    """
    external = [i for i in range(circuit.particles) if i not in conditioning]
    width = len(external)
    dim = 1 << width
    t_stop = circuit.n if upto is None else upto
    op = np.eye(dim, dtype=complex)
    for t in range(1, t_stop + 1):
        layer = circuit.layer(t)
        layer_op = reduce(np.kron, [layer.singles[i] for i in external])
        diag = np.ones(dim, dtype=complex)
        for gate in layer.phases:
            a, b = gate.pair
            if a in conditioning and b in conditioning:
                continue
            for index in range(dim):
                modes = {
                    p: (index >> (width - 1 - k)) & 1 for k, p in enumerate(external)
                }
                for p, path in conditioning.items():
                    modes[p] = path.mode(t)
                if a in modes and b in modes:
                    diag[index] *= np.exp(1j * gate.theta(modes[a], modes[b]))
        op = (diag[:, None] * layer_op) @ op
    return op


def joint_phase_factors(circuit: Circuit, assignment: list[Path]) -> np.ndarray:
    """Per-layer phase factors for one path per particle; their product is the joint phase."""
    if len(assignment) != circuit.particles:
        raise ValueError("need exactly one path per particle")
    factors = np.ones(circuit.n, dtype=complex)
    for t in range(1, circuit.n + 1):
        angle = 0.0
        for gate in circuit.layer(t).phases:
            a, b = gate.pair
            angle += gate.theta(assignment[a].mode(t), assignment[b].mode(t))
        factors[t - 1] = np.exp(1j * angle)
    return factors


def joint_phase(circuit: Circuit, assignment: list[Path]) -> complex:
    """Product over layers of the controlled-phase factors selected by the joint modes."""
    return complex(np.prod(joint_phase_factors(circuit, assignment)))


def prefix_index(path: Path, t: int) -> int:
    """The first t modes of `path` packed most-significant-first: its row in prefix tables."""
    idx = 0
    for m in path.modes[:t]:
        idx = (idx << 1) | m
    return idx


def path_index(path: Path) -> int:
    """Lexicographic index of `path` within enumerate_paths(path.n, path.endpoint)."""
    return prefix_index(path, path.n - 1)


def config_path_amplitude(circuit: Circuit, subsystem: tuple[int, ...], config: tuple[Path, ...]) -> complex:
    """Product of member path amplitudes times the intra-subsystem joint phase; one path per member."""
    particles = normalize_subsystem(circuit, subsystem)
    if len(config) != len(particles):
        raise ValueError("configuration path arity does not match the subsystem")
    local = {p: k for k, p in enumerate(particles)}
    value = 1.0 + 0.0j
    for particle, path in zip(particles, config):
        value *= path_amplitude(circuit, particle, path)
    angle = 0.0
    for t in range(1, circuit.n + 1):
        for gate in circuit.layer(t).phases:
            a, b = gate.pair
            if a in local and b in local:
                angle += gate.theta(config[local[a]].mode(t), config[local[b]].mode(t))
    return value * complex(np.exp(1j * angle))


def lambda_general(
    circuit: Circuit, subsystem: tuple[int, ...], p: tuple[Path, ...], q: tuple[Path, ...]
) -> complex:
    """Final hidden variable: overlap of the external evolutions conditioned on the member paths p and on q.

    One path per member, in ascending member order; the two tuples must
    share their endpoints.
    """
    particles = normalize_subsystem(circuit, subsystem)
    if tuple(path.endpoint for path in p) != tuple(path.endpoint for path in q):
        raise ValueError("configuration paths must share their endpoint tuple")
    state_p = condition_on_paths(circuit, dict(zip(particles, p))).state()
    state_q = condition_on_paths(circuit, dict(zip(particles, q))).state()
    return complex(np.vdot(state_p, state_q))


def prefix_lambdas(
    circuit: Circuit, subsystem: tuple[int, ...], p: tuple[Path, ...], q: tuple[Path, ...]
) -> list[complex]:
    """lambda^(0..n) of one pair, each a direct overlap of the evolutions conditioned on the paths cut to t layers.

    The cut paths' last modes may differ, so this does not go through
    `lambda_general`.
    """
    particles = normalize_subsystem(circuit, subsystem)
    values = []
    for t in range(circuit.n + 1):
        head = Circuit(particles=circuit.particles, layers=circuit.layers[:t])
        state_p, state_q = (
            condition_on_paths(head, {m: Path(path.modes[:t]) for m, path in zip(particles, paths)}).state()
            for paths in (p, q)
        )
        values.append(complex(np.vdot(state_p, state_q)))
    return values


def lambda_direct(circuit: Circuit, p: Path, q: Path) -> complex:
    """The two-particle hidden variable as a direct conditioned-evolution inner product."""
    if circuit.particles != 2:
        raise ValueError("two-particle decomposition needs exactly 2 particles")
    if p.n != circuit.n or q.n != circuit.n:
        raise ValueError("paths must span every circuit layer")
    return lambda_general(circuit, (0,), (p,), (q,))


def conditioned_unitary(cond: ConditionalUnitary, upto: int | None = None) -> np.ndarray:
    """Dense operator of the first `upto` layers (default all) of a conditioned evolution."""
    op = np.eye(cond.dim, dtype=complex)
    for t in range(1, (cond.n if upto is None else upto) + 1):
        op = np.column_stack([cond._apply(column.copy(), t) for column in op.T])
    return op


def joint_distribution(circuit: Circuit) -> Distribution:
    """Born probabilities over all joint outcomes."""
    return marginal_by_sum(circuit, range(circuit.particles))


def repeat_prefix_amplitudes(circuit: Circuit, particle: int, upto: int | None = None) -> np.ndarray:
    """`paths.prefix_amplitudes` grown by `np.repeat`, `np.tile` and fancy indexing."""
    amps = np.ones(1, dtype=complex)
    for t in range(1, (circuit.n if upto is None else upto) + 1):
        last = np.arange(amps.size) % 2  # mode after layer t - 1 (0 before layer 1)
        amps = np.repeat(amps, 2) * circuit.single(t, particle)[np.tile([0, 1], amps.size), np.repeat(last, 2)]
    return amps


def kron_pair_phases(circuit: Circuit, pair: tuple[int, int]) -> tuple[np.ndarray | None, np.ndarray | None]:
    """`paths.pair_phases` as one `np.kron` chain over layers 1..n-1, plus layer n's factor."""
    gates = [circuit.phase(t, pair) for t in range(1, circuit.n + 1)]
    factors = [np.ones((2, 2)) if gate is None else gate.diagonal().reshape(2, 2) for gate in gates]
    prefix = reduce(np.kron, factors[:-1]) if any(g is not None for g in gates[:-1]) else None
    return prefix, (factors[-1] if gates and gates[-1] is not None else None)


def einsum_amplitudes(circuit: Circuit) -> np.ndarray:
    """All 2^N amplitudes as one greedy-planned einsum over the reference operands.

    Particle i carries its prefix index i and its endpoint index N + i.
    """
    n, particles = circuit.n, circuit.particles
    if n == 0:
        return (np.arange(1 << particles) == 0).astype(complex)
    ends = list(range(particles, 2 * particles))
    operands: list = []
    for i in range(particles):
        operands += [repeat_prefix_amplitudes(circuit, i).reshape(-1, 2), [i, ends[i]]]
    for a, b in itertools.combinations(range(particles), 2):
        prefix, last = kron_pair_phases(circuit, (a, b))
        if prefix is not None:
            operands += [prefix, [a, b]]
        if last is not None:
            operands += [last, [ends[a], ends[b]]]
    # numpy's default cap, the largest operand, leaves most of the sum unplanned
    lattice = (1 << (n - 1)) ** particles
    return np.einsum(*operands, ends, optimize=("greedy", max(lattice, 1 << particles))).reshape(-1)


def random_corpus(
    count: int, particles: int, max_layers: int, seed: int
) -> Iterator[tuple[int, Circuit]]:
    """Stream of (layer_count, circuit); layer counts drawn uniformly from 1..max_layers."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        layers = int(rng.integers(1, max_layers + 1))
        yield layers, random_circuit(rng, particles, layers)


def sparse_circuit(particles: int, pattern: list, seed: int) -> Circuit:
    """Random singles on every particle; layer k holds the pair gates its flags select, pairs in order."""
    rng = np.random.default_rng(seed)
    pairs = list(itertools.combinations(range(particles), 2))
    specs = [
        (
            {i: random_single(rng) for i in range(particles)},
            [
                PhaseGate(pair, tuple(rng.uniform(0.0, 2.0 * math.pi, 4).tolist()))
                for pair, present in zip(pairs, gates)
                if present
            ],
        )
        for gates in pattern
    ]
    return make_circuit(particles, specs)


def decoupled_three_particle(rng: np.random.Generator, layers: int) -> Circuit:
    """Three-particle circuit whose third particle never interacts (no A-C or B-C gates)."""
    specs = []
    for _ in range(layers):
        singles = {i: random_single(rng) for i in range(3) if rng.random() < 0.9}
        phases = (
            [PhaseGate(pair=(0, 1), thetas=tuple(rng.uniform(0.0, 2.0 * math.pi, 4).tolist()))]
            if rng.random() < 0.85
            else []
        )
        specs.append((singles, phases))
    return make_circuit(3, specs)


def drop_particle(circuit: Circuit, particle: int) -> Circuit:
    """Remove one particle and every phase gate touching it; remaining indices shift down."""
    keep = [i for i in range(circuit.particles) if i != particle]
    local = {p: k for k, p in enumerate(keep)}
    specs = []
    for layer in circuit.layers:
        singles = {local[i]: layer.singles[i] for i in keep}
        phases = [
            PhaseGate(pair=(local[g.pair[0]], local[g.pair[1]]), thetas=g.thetas)
            for g in layer.phases
            if particle not in g.pair
        ]
        specs.append((singles, phases))
    return make_circuit(circuit.particles - 1, specs)


def remove_trailing_external_gate(circuit: Circuit, atol: float = 1e-12) -> Circuit:
    """Drop a final layer that acts only on external particles; subsystem marginals keep."""
    if circuit.n < 1:
        raise ValueError("circuit has no layers to remove")
    last = circuit.layers[-1]
    if any(0 in gate.pair for gate in last.phases):
        raise ValueError("final layer couples the subsystem via a phase gate")
    if np.max(np.abs(last.singles[0] - IDENTITY)) > atol:
        raise ValueError("final layer applies a non-identity gate to the subsystem")
    specs = [
        (dict(enumerate(layer.singles)), list(layer.phases)) for layer in circuit.layers[:-1]
    ]
    return make_circuit(circuit.particles, specs)


def swap_particles(circuit: Circuit, first: int, second: int) -> Circuit:
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


def table_trajectory(tables: list[np.ndarray], p: Path, q: Path) -> tuple[complex, ...]:
    """lambda^(0..n) of the ordered pair (p, q), read off per-layer prefix tables."""
    return tuple(
        complex(table[prefix_index(p, t), prefix_index(q, t)]) for t, table in enumerate(tables)
    )


def final_blocks(circuit: Circuit, tables: Iterator[np.ndarray]) -> dict[int, LambdaBlock]:
    """{j: endpoint-j block} read off the last table of a lambda stream: its rows and columns of the paths ending at j."""
    for final in tables:  # keeps only the last table
        pass
    amps = prefix_amplitudes(circuit, 0)
    return {j: LambdaBlock(amps[rows], final[np.ix_(rows, rows)]) for j in (0, 1) for rows in [endpoint_rows(circuit.n, j)]}


def gram_tables(circuit: Circuit) -> list[np.ndarray]:
    """G_t: overlaps of the external states conditioned on every t-mode prefix of particle 0."""
    return [u.conj() @ u.T for u in conditioned_prefix_state_layers(circuit, (0,))]


def hit_lambdas(circuit: Circuit) -> list[np.ndarray]:
    """lambda^(0..n) of particle 0's tree stream, added up by `hit_tables` (2 or at least 4 particles)."""
    return list(hit_tables(hits for hits, _ in tree_layers(circuit, (0,))))


def cascade_charges(circuit: Circuit) -> list:
    """What `lambda3_tables` holds at its largest: the last lambda table, 4^n entries, then `cascade_hit_charges`."""
    return [(4**circuit.n, "path-pair table")] + cascade_hit_charges(circuit)


def lambda3_tables(circuit: Circuit, budget: int = DEFAULT_BUDGET) -> Iterator[np.ndarray]:
    """lambda^(t) over every pair of t-mode subsystem prefixes, for t = 0..n, by the literal cascade (three particles).

    `hit_tables` over `cascade_hits`: every table is a fresh array, never
    written after it is yielded. On the first `next()` the last table's
    4^n entries are charged, then `cascade_hits` checks the particle count
    and its own charges.
    """
    check_budget(4**circuit.n, budget, "path-pair table")
    yield from hit_tables(cascade_hits(circuit, budget))


def dense_layer_hits(step: TreeStep):
    """The earlier `twoparticle.layer_hits`: a tree layer's dense hits over every pair of rows, as a function of (a, b).

    `hits(a, b)[k, l]` is the hit of the pair of prefixes k + a and l + b:
    sum_x conj(pre[k, x]) pre[l, x] (conj(D_a(x)) D_b(x) - 1), read off the
    tree's own step. None when the layer has no straddling gate.
    """
    pre, factors = step.pre, step.factors
    if factors is None:
        return None

    def hits(a: int, b: int) -> np.ndarray:
        return (pre.conj() * (factors[b] * factors[a].conj() - 1.0)) @ pre.T

    return hits


def dense_lambda_tables(circuit: Circuit, layers: int | None = None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The earlier dense (0,) stream, `twoparticle.lambda_tables`: (lambda^(t), tree table t) for t = 0..`layers`.

    Layer t writes each new lambda table once: lambda^(t-1) plus the
    `dense_layer_hits` of the step that grew table t for one mode pair
    (a, b) into the strided view of rows 2k + a and columns 2l + b, or
    lambda^(t-1) alone when the layer has no straddling gate.
    """
    layers = circuit.n if layers is None else layers
    lam, table = np.ones((1, 1), dtype=complex), tree_root(circuit, (0,))
    yield lam, table
    for t in range(1, layers + 1):
        step = tree_step(circuit, (0,), t, table)
        hits, table = dense_layer_hits(step), step.grow()
        size = lam.shape[0]
        grown = np.empty((2 * size, 2 * size), dtype=complex)
        view = grown.reshape(size, 2, size, 2)
        if hits is None:
            view[...] = lam[:, None, :, None]
        else:
            for a in (0, 1):
                for b in (0, 1):
                    np.add(lam, hits(a, b), out=view[:, a, :, b])
        lam = grown
        yield lam, table


def dense_lambda_blocks(circuit: Circuit) -> dict[int, LambdaBlock]:
    """{j: block}: the earlier (0,) marginal route of every particle count but three, the dense stream with its fold.

    `dense_lambda_tables` runs n - 1 layers, and the earlier
    `subsystems.table_blocks` folds layer n's hit between two prefixes that
    both move to j into each endpoint's block, each prefix amplitude times
    the last single's element from its mode to j.
    """
    n = circuit.n
    for lam, table in dense_lambda_tables(circuit, max(n - 1, 0)):  # keeps only the last pair
        pass
    if n == 0:
        return {j: LambdaBlock(np.ones(1 - j, dtype=complex), lam[: 1 - j, : 1 - j]) for j in (0, 1)}
    amps = prefix_amplitudes(circuit, 0, upto=n - 1)
    hits = dense_layer_hits(tree_step(circuit, (0,), n, table))
    blocks = {}
    for j in (0, 1):
        block = lam if hits is None else hits(j, j) + lam
        blocks[j] = LambdaBlock(amps * circuit.single(n, 0)[j, np.arange(amps.size) % 2], block)
    return blocks


def two_particle_tables(circuit: Circuit) -> Iterator[np.ndarray]:
    """The earlier two-particle stream: lambda^(t) for t = 0..n off one whole-circuit prefix tree."""
    states = list(conditioned_prefix_state_layers(circuit, (0,)))
    lam = np.ones((1, 1), dtype=complex)
    yield lam
    for t in range(1, circuit.n + 1):
        lam = np.repeat(np.repeat(lam, 2, axis=0), 2, axis=1)
        gate = circuit.phase(t, (0, 1))
        if gate is not None:
            pre = states[t - 1] @ circuit.single(t, 1).T
            diag = gate.diagonal().reshape(2, 2)
            for a in (0, 1):
                for b in (0, 1):
                    d = diag[b] * diag[a].conj() - 1.0
                    lam[a::2, b::2] += (pre.conj() * d) @ pre.T
        yield lam


def axis_prefix_state_layers(circuit: Circuit, subsystem: tuple[int, ...]) -> Iterator[np.ndarray]:
    """The earlier `paths.conditioned_prefix_state_layers`: each layer step axis by axis.

    The external singles one axis at a time, each external phase gate once
    per prefix, `np.repeat` per member, then one multiply per straddling gate.
    """
    members = tuple(sorted(set(subsystem)))
    external, axis = member_layout(circuit.particles, members)
    if not external:
        raise ValueError("conditioning set must leave at least one external particle")
    size, width = len(members), len(external)
    state = np.zeros((1,) * size + (2,) * width, dtype=complex)
    state[(0,) * state.ndim] = 1.0
    yield state.reshape(1, -1)
    for t in range(1, circuit.n + 1):
        layer = circuit.layer(t)
        for p in external:
            state = apply_single(state, axis[p], layer.singles[p])
        straddling = []
        for gate in layer.phases:
            a_in, b_in = (p in members for p in gate.pair)
            if a_in != b_in:
                straddling.append(gate)
            elif not a_in:
                shape = [1] * state.ndim
                shape[axis[gate.pair[0]]] = shape[axis[gate.pair[1]]] = 2
                state = state * gate.diagonal().reshape(shape)
        for k in range(size):
            state = np.repeat(state, 2, axis=k)
        new_mode = np.arange(1 << t) % 2
        for gate in straddling:
            member, other, factors = straddling_factor(gate, members)
            shape = [1] * state.ndim
            shape[axis[member]], shape[axis[other]] = 1 << t, 2
            state = state * factors[new_mode].reshape(shape)
        yield state.reshape(-1, 1 << width)


def axis_layer_hits(circuit: Circuit, t: int, states: np.ndarray):
    """The earlier `twoparticle.layer_hits`: `_before_layer` and `_straddle` rebuilt from table t - 1 of (0,)'s tree."""
    factors = _straddle(circuit, (0,), t)
    if factors is None:
        return None
    pre = _before_layer(circuit, (0,), t, states)

    def hits(a: int, b: int) -> np.ndarray:
        return (pre.conj() * (factors[b] * factors[a].conj() - 1.0)) @ pre.T

    return hits


def axis_lambda_tables(circuit: Circuit, layers: int | None = None) -> Iterator[np.ndarray]:
    """The earlier `twoparticle.lambda_tables` over the first `layers` layers (default n), off the axis-by-axis tree.

    Each layer repeats the last table by two `np.repeat` calls, then adds
    `axis_layer_hits` into four strided views.
    """
    layers = circuit.n if layers is None else layers
    tree = list(itertools.islice(axis_prefix_state_layers(circuit, (0,)), layers))
    lam = np.ones((1, 1), dtype=complex)
    yield lam
    for t in range(1, layers + 1):
        lam = np.repeat(np.repeat(lam, 2, axis=0), 2, axis=1)
        hits = axis_layer_hits(circuit, t, tree[t - 1])
        if hits is not None:
            for a in (0, 1):
                for b in (0, 1):
                    lam[a::2, b::2] += hits(a, b)
        yield lam


def axis_folded_blocks(circuit: Circuit) -> dict[int, LambdaBlock]:
    """{j: block}: the earlier `table_blocks` fold of layer n into lambda^(n-1) of `axis_lambda_tables` (n >= 1)."""
    n = circuit.n
    *_, lam = axis_lambda_tables(circuit, n - 1)
    hits = axis_layer_hits(circuit, n, list(itertools.islice(axis_prefix_state_layers(circuit, (0,)), n))[-1])
    amps = prefix_amplitudes(circuit, 0, upto=n - 1)
    blocks = {}
    for j in (0, 1):
        block = lam
        if hits is not None:
            block = hits(j, j)
            block += lam
        blocks[j] = LambdaBlock(amps * circuit.single(n, 0)[j, np.arange(amps.size) % 2], block)
    return blocks


def _refine(
    stack: np.ndarray, signs: np.ndarray, increments: list[tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """Resolve a column stack one layer finer and append this layer's increments.

    `stack[p, e, L]` holds separable columns over (subsystem prefix p,
    external prefix e); the accumulator it stands for is
    sum_L signs[L] * conj(stack[p, e, L]) * stack[q, f, L]. Every carried
    column is repeated over the new bit of both prefixes. An increment
    (plus, minus) of two (p, e, 2) state tables books
    sum_l conj(plus[p, e, l]) plus[q, f, l] - conj(minus[p, e, l]) minus[q, f, l]
    as four new columns.
    """
    half, ext_half, carried = stack.shape
    out = np.empty((half, 2, ext_half, 2, carried + 4 * len(increments)), dtype=complex)
    out[..., :carried] = stack[:, None, :, None, :]
    out = out.reshape(2 * half, 2 * ext_half, -1)
    for index, (plus, minus) in enumerate(increments):
        col = carried + 4 * index
        out[:, :, col : col + 2] = plus
        out[:, :, col + 2 : col + 4] = minus
    booked = np.tile([1.0, 1.0, -1.0, -1.0], len(increments))
    return out, np.concatenate([signs, booked])


def _branch_hit(
    left: np.ndarray, stack: np.ndarray, signs: np.ndarray, phases: np.ndarray
) -> np.ndarray:
    """One branch's share of the hit table, for every subsystem prefix pair.

    `left[p, e]` is the booked external path weight (bare amplitude times
    cumulative straddle phase), `stack`/`signs` the branch weight
    1 + gamma + chi in column form, and `phases[p, k]` the booking gate's
    phase for the subsystem at prefix p and external endpoint k. Summed over
    external path pairs (e, f) ending at k, the weight splits into
    outer(conj(B), B) for the 1 and (conj(X) * signs) @ X.T for the columns.
    """
    size = left.shape[0]
    left = left.reshape(size, -1, 2)  # external prefix split into (earlier modes, endpoint k)
    ones = left.sum(axis=1)
    cols = np.einsum("qnk,qnkL->qkL", left, stack.reshape(*left.shape, stack.shape[2]))
    hit = np.zeros((size, size), dtype=complex)
    for k in (0, 1):
        weight = np.outer(ones[:, k].conj(), ones[:, k]) + (cols[:, k].conj() * signs) @ cols[:, k].T
        hit += (np.outer(phases[:, k].conj(), phases[:, k]) - 1.0) * weight
    return hit


def refined_cascade_tables(circuit: Circuit) -> Iterator[np.ndarray]:
    """The earlier three-particle cascade: every layer refines each branch's whole column stack.

    Each branch keeps its gamma and chi sums as a stack of signed columns
    over (subsystem prefix, struck prefix) pairs, repeated over the new bit
    of both prefixes at every layer up to the last A-B/A-C gate, and every
    hit contracts the whole stack with the struck particle's path weights.
    """
    def factors(pair: tuple[int, int], t: int) -> np.ndarray | None:
        gate = circuit.phase(t, pair)
        return None if gate is None else gate.diagonal().reshape(2, 2)

    coupled = [r for r in range(1, circuit.n + 1) if factors((0, 1), r) is not None or factors((0, 2), r) is not None]
    last_hit = max(coupled, default=0)
    lam = np.ones((1, 1), dtype=complex)
    yield lam
    states = {struck: np.array([1.0, 0.0], dtype=complex).reshape(1, 1, 2) for struck in (1, 2)}
    stacks = {struck: np.zeros((1, 1, 0), dtype=complex) for struck in (1, 2)}
    signs = {struck: np.zeros(0) for struck in (1, 2)}
    straddle = {struck: np.ones((1, 1), dtype=complex) for struck in (1, 2)}
    amplitudes = {
        struck: itertools.islice(prefix_amplitude_layers(circuit, struck), 1, None) for struck in (1, 2)
    }
    for r in range(1, circuit.n + 1):
        bit = np.arange(1 << r) % 2
        hit_table = None
        for struck in (1, 2):  # A-B, then A-C
            partner = 3 - struck
            ph_book = factors((0, struck), r)
            ph_gamma = factors((0, partner), r)
            ph_bc = factors((1, 2), r)
            if ph_bc is not None and partner == 1:
                ph_bc = ph_bc.T  # indexed [struck mode, partner mode]
            amps = next(amplitudes[struck])
            pre_bc = apply_single(states[struck], 2, circuit.single(r, partner))
            pre_bc = np.repeat(np.repeat(pre_bc, 2, axis=0), 2, axis=1)
            pre_gamma = pre_bc * ph_bc[bit][None, :, :] if ph_bc is not None else pre_bc
            states[struck] = pre_gamma * ph_gamma[bit][:, None, :] if ph_gamma is not None else pre_gamma
            increments = []
            if ph_bc is not None:
                increments.append((pre_gamma, pre_bc))
            if ph_gamma is not None:
                increments.append((states[struck], pre_gamma))
            if r <= last_hit:
                stacks[struck], signs[struck] = _refine(stacks[struck], signs[struck], increments)
            straddle[struck] = np.repeat(np.repeat(straddle[struck], 2, axis=0), 2, axis=1)
            if ph_book is not None:
                # A-B books before the layer-r A-C gate, whose gamma is the stack's last four columns
                columns = stacks[struck].shape[2] - 4 * (struck == 1 and ph_gamma is not None)
                branch = _branch_hit(
                    amps[None, :] * straddle[struck],
                    stacks[struck][:, :, :columns],
                    signs[struck][:columns],
                    ph_book[bit],
                )
                hit_table = branch if hit_table is None else hit_table + branch
                straddle[struck] = straddle[struck] * ph_book[bit[:, None], bit[None, :]]
        lam = np.repeat(np.repeat(lam, 2, axis=0), 2, axis=1)
        if hit_table is not None:
            lam = lam + hit_table
        yield lam


def _full_weights(weights: np.ndarray, single: np.ndarray, booking: np.ndarray | None) -> np.ndarray:
    """One branch's struck path weights over r-mode prefix pairs, each repeated over the subsystem's newest bit."""
    size = weights.shape[0]
    if booking is not None:
        weights = (weights.reshape(size // 2, 2, size // 2, 2) * booking[None, :, None, :]).reshape(size, size)
    grown = np.empty((size, 2, size, 2), dtype=complex)
    np.multiply(weights[:, None, :, None], single.T[np.arange(size) % 2], out=grown)
    return grown.reshape(2 * size, 2 * size)


def _full_contract(weights: np.ndarray, states: np.ndarray) -> np.ndarray:
    """States over (r-1)-mode prefix pairs, repeated over both new bits, summed with the full weight table's b = 0 rows."""
    size = states.shape[0]
    rows = weights.reshape(size, 2, size, 2)[:, 0].transpose(0, 2, 1)
    return (rows @ states).repeat(2, axis=0)


def _telescoped(carried: np.ndarray, chain: list[np.ndarray]) -> np.ndarray:
    """The carried columns, then the pair [last state, first state] of a chain that passed a gate."""
    return carried if len(chain) == 1 else np.concatenate([carried, chain[-1], chain[0]], axis=2)


def _branch_factors(columns: np.ndarray, signs: np.ndarray, phases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One branch's hit as (side, signed) factors: the phased and bare columns side by side, each with its stored sign."""
    phased = columns * phases[:, :, None]
    side = np.concatenate([phased, columns], axis=1).reshape(len(columns), -1)
    return side, np.multiply.outer(_PLUS_MINUS, signs).reshape(-1)


def per_branch_cascade_layers(circuit: Circuit) -> Iterator[tuple]:
    """The earlier cascade pass: one branch after the other, each struck path weight held for both subsystem bits.

    Yields what `threeparticle.cascade_hits` yields. Each branch runs its own
    gate chain of only the present gates, and its weight table repeats every
    row over the subsystem's newest bit, so it holds 4^r entries per branch.
    """
    states = {struck: np.array([1.0, 0.0], dtype=complex).reshape(1, 1, 2) for struck in (1, 2)}
    weights = {struck: np.ones((1, 1), dtype=complex) for struck in (1, 2)}
    columns = {struck: np.array([[[1.0], [0.0]]], dtype=complex) for struck in (1, 2)}
    signs = {struck: np.ones(1) for struck in (1, 2)}
    booking = {struck: None for struck in (1, 2)}
    last_hit = _last_hit_layer(circuit)

    for r in range(1, circuit.n + 1):
        if r > last_hit:
            yield ()
            continue
        layer = circuit.layers[r - 1]
        phases = {pair: _factors(layer.phase_on(pair)) for pair in ((0, 1), (0, 2), (1, 2))}
        bit = np.arange(1 << r) % 2
        hits = []
        for struck in (1, 2):  # A-B, then A-C
            partner = 3 - struck
            ph_book, ph_gamma = phases[0, struck], phases[0, partner]
            ph_bc = _toward(partner, phases[1, 2])
            weights[struck] = _full_weights(weights[struck], layer.singles[struck], booking[struck])
            moved = apply_single(states[struck], 2, layer.singles[partner])
            chain = [_full_contract(weights[struck], moved)]
            factors = np.ones((2, 2, 2))  # [new subsystem mode, new struck mode, partner mode]
            if ph_bc is not None:
                chain.append(chain[-1] * ph_bc)
                factors = factors * ph_bc
            if ph_gamma is not None:
                chain.append(chain[-1] * ph_gamma[bit][:, None, :])
                factors = factors * ph_gamma[:, None, :]
            if r < last_hit:
                size = moved.shape[0]
                grown = np.empty((size, 2, size, 2, 2), dtype=complex)
                np.multiply(moved[:, None, :, None, :], factors[:, None], out=grown)
                states[struck] = grown.reshape(2 * size, 2 * size, 2)
            carried = _carry(columns[struck], layer.singles[struck], booking[struck])
            columns[struck] = _telescoped(carried, chain)
            if len(chain) > 1:
                signs[struck] = np.concatenate([signs[struck], _PLUS_MINUS])
            booking[struck] = ph_book
            if ph_book is None:
                continue
            hit_columns = columns[struck]
            if struck == 1 and ph_gamma is not None:  # A-B books before the layer-r A-C gate
                hit_columns = _telescoped(carried, chain[:-1])
            hits.append(_branch_factors(hit_columns, signs[struck][: hit_columns.shape[2]], ph_book[bit]))
        yield tuple(hits)


def column_pair_sum(block: LambdaBlock) -> complex:
    """The earlier pair sum: sum |a|^2 plus a^dagger lambda a, lambda's diagonal zeroed 256 columns at a time."""
    conj = block.amplitudes.conj()
    row = np.empty_like(conj)
    for start in range(0, len(conj), 256):
        stop = start + 256
        weights = block.lam[:, start:stop].copy()
        np.fill_diagonal(weights[start:], 0.0)
        row[start:stop] = conj @ weights
    return float(np.sum(np.abs(block.amplitudes) ** 2)) + complex(row @ block.amplitudes)


def tensordot_single(state: np.ndarray, axis: int, gate: np.ndarray) -> np.ndarray:
    """The earlier oracle and conditioned-evolution kernel: `gate` on one axis by `np.tensordot`."""
    return np.moveaxis(np.tensordot(gate, state, axes=([1], [axis])), 0, axis)


def moveaxis_single(state: np.ndarray, axis: int, gate: np.ndarray) -> np.ndarray:
    """The earlier `paths.apply_single`: the axis moved last, then one (rows, 2) x (2, 2) matmul."""
    moved = np.moveaxis(state, axis, -1)
    return np.moveaxis((moved.reshape(-1, 2) @ gate.T).reshape(moved.shape), -1, axis)


def tensordot_oracle_layer(state: np.ndarray, circuit: Circuit, t: int) -> np.ndarray:
    """The earlier `oracle._apply_layer`: singles by `tensordot_single`, then each phase diagonal."""
    layer = circuit.layer(t)
    n = circuit.particles
    for i, gate in enumerate(layer.singles):
        state = tensordot_single(state, i, gate)
    for gate in layer.phases:
        shape = [2 if k in gate.pair else 1 for k in range(n)]
        state = state * gate.diagonal().reshape(shape)
    return state


def tensordot_conditioned_layer(cond: ConditionalUnitary, state: np.ndarray, t: int) -> np.ndarray:
    """The earlier `ConditionalUnitary._apply`, with its singles by `tensordot_single`."""
    layer = cond.layers[t - 1]
    width = len(cond.external)
    state = state.reshape((2,) * width)
    for i, gate in enumerate(layer.singles):
        state = tensordot_single(state, i, gate)
    for pair, table in layer.phases:
        shape = [2 if k in pair else 1 for k in range(width)]
        state = state * table.reshape(shape)
    for local, diag in layer.diagonals:
        shape = [2 if k == local else 1 for k in range(width)]
        state = diag.reshape(shape) * state
    return state.reshape(-1)


class GramBlock:
    """One outcome's paths and its Gram factor S, one row per configuration path and one column per external basis state.

    lambda = conj(S) S^T is the closed form the hits telescope to, so the
    pair sum sum_i |a_i|^2 (1 - |s_i|^2) + |S^T a|^2 is the reference the
    per-layer sums are checked against; no lambda matrix is built unless
    `lam` is read.
    """

    def __init__(self, amplitudes: np.ndarray, factor: np.ndarray) -> None:
        self.amplitudes = amplitudes
        self.factor = factor

    @cached_property
    def lam(self) -> np.ndarray:
        """conj(S) S^T from a C-contiguous S."""
        factor = np.ascontiguousarray(self.factor)
        return factor.conj() @ factor.T

    def marginal(self) -> float:
        projected = self.amplitudes @ self.factor
        diagonal = np.sum(np.abs(self.factor) ** 2, axis=1)
        total = complex(np.sum(np.abs(self.amplitudes) ** 2 * (1.0 - diagonal))) + complex(np.vdot(projected, projected))
        assert abs(total.imag) < 1e-10, total
        return total.real


def gram_charges(circuit: Circuit, particles: tuple[int, ...]) -> list:
    """What `gram_blocks` holds: three external-state tables and layer n's straddling factors, then the joint path amplitudes.

    Table n - 1, layer n's pre-gate states and one outcome's rows each have
    one row per (n-1)-mode configuration path prefix and one column per
    external basis state; the straddling factor table has 2^N entries.
    """
    n, size = circuit.n, len(particles)
    states = 1 << (size * max(n - 1, 0) + circuit.particles - size)
    charges = [
        (states, "conditioned external states"),
        (states, "pre-gate external states"),
        (states, "one outcome's external states"),
    ]
    if n:
        charges.append((1 << circuit.particles, "straddling factor table"))
    return charges + [(1 << (size * n), "joint path amplitudes")]


def gram_blocks(
    circuit: Circuit, subsystem: Sequence[int], budget: int = DEFAULT_BUDGET
) -> Iterator[tuple[tuple[int, ...], GramBlock]]:
    """The earlier `subsystems.conditioned_blocks`: (outcome, Gram block) for every outcome, off one conditioned prefix tree.

    The tree grows to table n - 1 and takes layer n's `paths.tree_step`
    once: outcome o's factor is its pre-gate states times the straddling
    factors D[o], in configuration-path order. Table n is never built. The
    budget is charged `gram_charges` before anything is built, and outcomes
    come in `itertools.product((0, 1), repeat=M)` order.
    """
    particles = normalize_subsystem(circuit, subsystem)
    n, size = circuit.n, len(particles)
    check_charges(gram_charges(circuit, particles), budget)
    outcomes = itertools.product((0, 1), repeat=size)
    if n == 0:  # the empty path ends at mode 0: the all-zeros outcome reads the root, no other outcome has a path
        root = tree_root(circuit, particles)
        for outcome in outcomes:
            count = 0 if any(outcome) else 1
            yield outcome, GramBlock(np.ones(count, dtype=complex), root[:count])
        return
    for table in itertools.islice(conditioned_prefix_state_layers(circuit, particles), n):
        pass  # keeps only table n - 1
    step = tree_step(circuit, particles, n, table)
    del table
    amplitudes = joint_amplitudes(circuit, particles)
    for index, outcome in enumerate(outcomes):
        rows = step.pre if step.factors is None else step.pre * step.factors[index]
        yield outcome, GramBlock(amplitudes[index], rows)
        del rows


def dense_conditioned_charges(circuit: Circuit, particles: tuple[int, ...]) -> list:
    """`gram_charges`, then one outcome's lambda pairs, the dense table these blocks build."""
    count = (1 << max(circuit.n - 1, 0)) ** len(particles)
    return gram_charges(circuit, particles) + [(count * count, "configuration path pairs")]


def dense_conditioned_blocks(
    circuit: Circuit, subsystem: tuple[int, ...], budget: int = DEFAULT_BUDGET
) -> Iterator[tuple[tuple[int, ...], LambdaBlock]]:
    """(outcome, block) for every subsystem outcome, all read off one conditioned prefix tree.

    An outcome's lambda is the Gram matrix of the tree's final-table rows at
    its configuration paths; its amplitudes are the members' path amplitudes
    times the intra-subsystem phases. The budget is charged
    `dense_conditioned_charges` before anything is built.
    Outcomes come in `itertools.product((0, 1), repeat=M)` order, and each
    lambda is built only when its outcome is reached.
    """
    particles = normalize_subsystem(circuit, subsystem)
    n, size = circuit.n, len(particles)
    check_charges(dense_conditioned_charges(circuit, particles), budget)
    *_, final = conditioned_prefix_state_layers(circuit, particles)
    amplitudes = [prefix_amplitudes(circuit, p) for p in particles]
    pairs = itertools.combinations(range(size), 2)
    phases = {(a, b): pair_phases(circuit, (particles[a], particles[b])) for a, b in pairs}
    for outcome in itertools.product((0, 1), repeat=size):
        rows = [endpoint_rows(n, j) for j in outcome]
        joint = reduce(lambda high, low: np.add.outer(high << n, low), rows).reshape(-1)
        states = final[joint]
        bare = reduce(np.multiply.outer, [amps[r] for amps, r in zip(amplitudes, rows)]).reshape(-1)
        intra = np.ones([len(r) for r in rows], dtype=complex)
        for (a, b), (prefix, last) in phases.items():
            if prefix is not None:
                shape = [1] * size
                shape[a], shape[b] = prefix.shape
                intra = intra * prefix.reshape(shape)
            if last is not None:
                intra = intra * last[outcome[a], outcome[b]]
        # no local keeps the lambda across the yield
        yield outcome, LambdaBlock(amplitudes=bare * intra.reshape(-1), lam=states.conj() @ states.T)


def table_conditioned_charges(circuit: Circuit, particles: tuple[int, ...]) -> list:
    """What `table_conditioned_blocks` holds: the tree's final table, then the amplitude tensor."""
    n, size = circuit.n, len(particles)
    return [
        (1 << (size * n + circuit.particles - size), "conditioned external states"),
        (1 << (size * n), "joint path amplitudes"),
    ]


def table_conditioned_blocks(
    circuit: Circuit, subsystem: tuple[int, ...], budget: int = DEFAULT_BUDGET
) -> Iterator[tuple[tuple[int, ...], GramBlock]]:
    """The earliest `conditioned_blocks`: each outcome's Gram factor read off the tree's whole final table.

    The final table and the joint amplitude tensor are each built once and
    reordered once to (outcome, configuration path), so every block holds
    views of the two. The budget is charged `table_conditioned_charges`
    before anything is built.
    """
    particles = normalize_subsystem(circuit, subsystem)
    n, size = circuit.n, len(particles)
    check_charges(table_conditioned_charges(circuit, particles), budget)
    for states in conditioned_prefix_state_layers(circuit, particles):  # keeps only the final table
        pass
    outcomes = itertools.product((0, 1), repeat=size)
    amps = [prefix_amplitudes(circuit, p) for p in particles]
    pairs = [
        (a, b, pair_phases(circuit, (particles[a], particles[b]))) for a, b in itertools.combinations(range(size), 2)
    ]
    if n <= 1:
        # at most one configuration path per outcome (none at n = 0 once the outcome has a 1)
        for index, outcome in enumerate(outcomes):
            bare = reduce(np.multiply.outer, [amp[j : j + 1] for amp, j in zip(amps, outcome)])
            intra = np.ones(bare.shape, dtype=complex)
            for a, b, (_, last) in pairs:
                if last is not None:
                    intra = intra * last[outcome[a], outcome[b]]
            yield outcome, GramBlock((bare * intra).reshape(-1), states[index : index + 1])
        return
    split = (1 << (n - 1), 2) * size  # each member's (n-1)-mode prefix, then its endpoint
    bare = reduce(np.multiply.outer, amps)
    intra = np.ones(split, dtype=complex)
    for a, b, factors in pairs:
        for offset, factor in enumerate(factors):
            if factor is not None:  # the prefix factor, then the last layer's
                shape = [1] * len(split)
                shape[2 * a + offset], shape[2 * b + offset] = factor.shape
                intra = intra * factor.reshape(shape)
    order = tuple(range(1, len(split), 2)) + tuple(range(0, len(split), 2))  # endpoints first
    amplitudes = np.ascontiguousarray((bare.reshape(split) * intra).transpose(order)).reshape(1 << size, -1)
    external = 1 << (circuit.particles - size)
    states = np.ascontiguousarray(states.reshape(split + (external,)).transpose(order + (len(split),)))
    states = states.reshape(1 << size, -1, external)
    for index, outcome in enumerate(outcomes):
        yield outcome, GramBlock(amplitudes[index], states[index])


def earlier_stream(circuit: Circuit, particles: tuple[int, ...]) -> Iterator[tuple[int | None, HitLayer]]:
    """The earlier `subsystems.lambda_stream`: (None, layer t's factors) for t = 1..n-1, then (o, outcome o's share of layer n).

    The whole circuit's producer yields layers 1..n-1, and layer n is
    shared out over each outcome's own (n-1)-mode rows, in
    `itertools.product((0, 1), repeat=M)` order. The tree takes layer n's
    `paths.tree_step` off table n - 1 once, and outcome o's share is
    `twoparticle.tree_hit` of the pre-gate states times D[o] beside the
    pre-gate states, or nothing with no straddling gate: the rows of table
    n that end at o. The cascade (the subsystem (0,) of three particles)
    gives endpoint o the rows side[o::2] of each side over n-mode prefixes
    and each side over (n-1)-mode prefixes whole. With no layers every
    share is empty.
    """
    n, outcomes = circuit.n, 1 << len(particles)
    if n == 0:
        yield from ((outcome, ()) for outcome in range(outcomes))
    elif circuit.particles == 3 and particles == (0,):
        for t, hits in enumerate(cascade_hits(circuit), start=1):
            if t < n:
                yield None, hits
            else:
                for o in (0, 1):
                    yield o, tuple((side[o::2] if len(side) == 1 << n else side, signed) for side, signed in hits)
    else:
        table = tree_root(circuit, particles)
        for hits, table in itertools.islice(tree_layers(circuit, particles), n - 1):
            yield None, hits
        step = tree_step(circuit, particles, n, table)
        for o in range(outcomes):
            yield o, () if step.factors is None else tree_hit(step.pre * step.factors[o], step.pre)


def share_sums(circuit: Circuit, particles: tuple[int, ...]) -> tuple[np.ndarray, list[list]]:
    """Every outcome's pair sum over the `earlier_stream`'s layers 1..n-1, and what each factor of its layer-n share adds to it.

    A share's factor (side, signed) adds sum_m signed_m |(side^T a_o)_m|^2,
    read against outcome o's own amplitudes.
    """
    sums = PairSums(joint_amplitudes(circuit, particles), len(particles))
    added = []
    for outcome, hits in earlier_stream(circuit, particles):
        if outcome is None:
            sums.read(hits)
        else:
            added.append([np.abs(sums.amplitudes[outcome] @ side) ** 2 @ signed for side, signed in hits])
    return sums.totals, added


def share_marginals(circuit: Circuit, subsystem: Sequence[int]) -> dict[tuple[int, ...], float]:
    """The earlier `subsystems.lambda_marginals`: the pair sums over layers 1..n-1, then each outcome's share of layer n, in that order."""
    particles = normalize_subsystem(circuit, subsystem)
    totals, added = share_sums(circuit, particles)
    for outcome, terms in enumerate(added):
        for term in terms:
            totals[outcome] += term
    return dict(zip(itertools.product((0, 1), repeat=len(particles)), totals.tolist()))


@dataclass(frozen=True)
class DensityPair:
    """Hit/miss split of the subsystem reduced density matrix at one layer."""

    layer: int
    miss: np.ndarray
    hit: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.miss + self.hit


def reduced_density_of(state: np.ndarray, particles: int, particle: int) -> np.ndarray:
    """Partial trace of |state><state| over every particle but `particle`, of `particles` particles."""
    state = state.reshape((2,) * particles)
    others = [i for i in range(particles) if i != particle]
    return np.tensordot(state, state.conj(), axes=(others, others))


def _singles(circuit: Circuit, t: int) -> np.ndarray:
    """A^(t) x B^(t) as a 4 x 4 matrix: the Kronecker product as one broadcast product."""
    gate_a, gate_b = circuit.single(t, 0), circuit.single(t, 1)
    return (gate_a[:, None, :, None] * gate_b[None, :, None, :]).reshape(4, 4)


def _evolved(singles: np.ndarray, phi: float | None, prev_joint: np.ndarray) -> np.ndarray | None:
    """The joint density matrix after the layer's singles; None when the layer has no gate to read it."""
    return None if phi is None else singles @ prev_joint @ singles.conj().T


def _step(
    circuit: Circuit, t: int, phi: float | None, prev_joint: np.ndarray, evolved: np.ndarray | None
) -> DensityPair:
    """One recursion step from the joint density matrix at layer t-1, the core angle and `_evolved`."""
    gate_a = circuit.single(t, 0)
    rho_prev = prev_joint.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
    miss = gate_a @ rho_prev @ gate_a.conj().T
    if phi is None:
        return DensityPair(layer=t, miss=miss, hit=np.zeros((2, 2), dtype=complex))
    block = evolved.reshape(2, 2, 2, 2)[:, 1, :, 1]  # <1|_B ... |1>_B, indices (a, a')
    z_phi = np.array([1.0, np.exp(1j * phi)])
    hit = z_phi[:, None] * block * z_phi.conj()[None, :] - block
    return DensityPair(layer=t, miss=miss, hit=hit)


def density_step(circuit: Circuit, t: int, prev_joint: np.ndarray) -> DensityPair:
    """One recursion step from the full two-particle density matrix at layer t-1."""
    _require_two_particles(circuit)
    phi = _core_angle(circuit, t)
    prev_joint = np.asarray(prev_joint, dtype=complex).reshape(4, 4)
    return _step(circuit, t, phi, prev_joint, _evolved(_singles(circuit, t), phi, prev_joint))


def hit_offdiagonal(circuit: Circuit, t: int, prev_joint: np.ndarray) -> np.ndarray:
    """Independent off-diagonal formula for the hit term (diagonal cancels exactly)."""
    _require_two_particles(circuit)
    phi = _core_angle(circuit, t)
    prev_joint = np.asarray(prev_joint, dtype=complex).reshape(4, 4)
    return _offdiagonal(phi, _evolved(_singles(circuit, t), phi, prev_joint))


def hit_pathsum_amplitude(circuit: Circuit, t: int, budget: int = DEFAULT_BUDGET) -> complex:
    """The collapse amplitude <01| singles |psi(t-1)> rebuilt as a subsystem path sum.

    Each subsystem path to mode 0 carries its bare amplitude times the
    conditioned external transition <1|B^(t) B_P^(t-1)|0>.
    """
    _require_two_particles(circuit)
    _core_angle(circuit, t)
    check_budget(1 << max(t - 1, 0), budget, "subsystem paths")
    head = Circuit(particles=2, layers=circuit.layers[:t])  # the tree stays within the budget charged
    table = next(itertools.islice(conditioned_prefix_state_layers(head, (0,)), t - 1, None))
    return _pathsum_collapse(circuit, t, prefix_amplitudes(circuit, 0, t), table)


def collapse_amplitude_direct(circuit: Circuit, t: int) -> complex:
    """<01| (A^(t) x B^(t)) |psi(t-1)>, straight from the state vector."""
    _require_two_particles(circuit)
    return complex((_singles(circuit, t) @ evolve(circuit, t - 1))[1])


def reduced_density(circuit: Circuit, particle: int, upto: int | None = None) -> np.ndarray:
    """Partial trace of |psi(t)><psi(t)| over every particle but one."""
    if not 0 <= particle < circuit.particles:
        raise IndexError(f"particle {particle} out of range")
    return reduced_density_of(evolve(circuit, upto), circuit.particles, particle)


def thetas_cascade_charges(circuit: Circuit) -> list:
    """`cascade_charges` with each gate's presence tested layer by layer, pair by pair."""
    def present(pair: tuple[int, int], r: int) -> bool:
        return circuit.phase(r, pair) is not None

    last_hit = max((r for r in range(1, circuit.n + 1) if present((0, 1), r) or present((0, 2), r)), default=0)
    return [
        (4**circuit.n, "path-pair table"),
        (4**last_hit, "struck path weights"),
        (4**last_hit, "partner states"),
    ]


def _ref_is_number(value: Any) -> bool:
    """JSON numbers a float can hold: booleans are ints to Python but never a valid number here."""
    if isinstance(value, float):
        return True
    return isinstance(value, int) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _ref_is_index(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _ref_parse_complex_matrix(entries: Any, where: str) -> list[complex]:
    """The four entries of a 2x2 matrix of [re, im] pairs, row by row."""
    if (
        not isinstance(entries, list)
        or len(entries) != 2
        or any(not isinstance(row, list) or len(row) != 2 for row in entries)
    ):
        raise CircuitFormatError(f"{where}: expected a 2x2 matrix of [re, im] pairs")
    out = []
    for i, row in enumerate(entries):
        for j, cell in enumerate(row):
            if not isinstance(cell, list) or len(cell) != 2:
                raise CircuitFormatError(f"{where}[{i}][{j}]: expected [re, im]")
            re, im = cell
            if not _ref_is_number(re) or not _ref_is_number(im):
                raise CircuitFormatError(f"{where}[{i}][{j}]: entries must be numbers")
            out.append(complex(re, im))
    return out


def _ref_parse_phase(raw: Any, particles: int, where: str) -> PhaseGate:
    if not isinstance(raw, dict):
        raise CircuitFormatError(f"{where}: phase gate must be an object")
    unknown = set(raw) - {"pair", "theta"}
    if unknown:
        raise CircuitFormatError(f"{where}: unknown keys {sorted(unknown)}")
    pair = raw.get("pair")
    theta = raw.get("theta")
    if not isinstance(pair, list) or len(pair) != 2 or not all(_ref_is_index(x) for x in pair):
        raise CircuitFormatError(f"{where}: 'pair' must be two particle indices")
    a, b = pair
    if not (0 <= a < particles and 0 <= b < particles):
        raise BadParticleIndex(f"{where}: pair {pair} out of range for {particles} particles")
    if a >= b:
        raise BadParticleIndex(f"{where}: pair must be strictly increasing, got {pair}")
    if not isinstance(theta, list) or len(theta) != 4:
        raise CircuitFormatError(f"{where}: 'theta' must be four angles")
    angles = []
    for k, value in enumerate(theta):
        if not _ref_is_number(value) or not math.isfinite(value):
            raise CircuitFormatError(f"{where}: theta[{k}] must be a finite number")
        angles.append(float(value))
    return PhaseGate(pair=(a, b), thetas=tuple(angles))


def reference_validate_circuit(raw: Mapping[str, Any]) -> Circuit:
    """The earlier validator: every number through `_ref_is_number`, every gate through the element walk."""
    if not isinstance(raw, Mapping):
        raise CircuitFormatError("circuit description must be an object")
    unknown = set(raw) - {"particles", "layers"}
    if unknown:
        raise CircuitFormatError(f"unknown top-level keys {sorted(unknown)}")
    particles = raw.get("particles")
    if not _ref_is_index(particles) or particles < 1:
        raise CircuitFormatError("'particles' must be a positive integer")
    if particles > MAX_PARTICLES:
        raise CircuitFormatError(f"'particles' must be at most {MAX_PARTICLES}")
    raw_layers = raw.get("layers")
    if not isinstance(raw_layers, list):
        raise CircuitFormatError("'layers' must be a list")
    if particles * len(raw_layers) > MAX_GATE_SLOTS:
        raise CircuitFormatError(f"'particles' times the layer count must be at most {MAX_GATE_SLOTS}")

    layers: list[tuple[dict[int, int], list[PhaseGate]]] = []
    singles: list[list[complex]] = []
    wheres: list[str] = []
    for t, raw_layer in enumerate(raw_layers, start=1):
        where = f"layer {t}"
        if not isinstance(raw_layer, dict):
            raise CircuitFormatError(f"{where}: must be an object")
        unknown = set(raw_layer) - {"singles", "phases"}
        if unknown:
            raise CircuitFormatError(f"{where}: unknown keys {sorted(unknown)}")

        rows: dict[int, int] = {}
        raw_singles = raw_layer.get("singles", {})
        if not isinstance(raw_singles, dict):
            raise CircuitFormatError(f"{where}: 'singles' must map particle index to matrix")
        for key, entries in raw_singles.items():
            try:
                idx = int(key)
            except (TypeError, ValueError):
                raise CircuitFormatError(f"{where}: singles key {key!r} is not an index") from None
            if key != str(idx):  # int() also reads "01", " 1", "+1" and "1_0"
                raise CircuitFormatError(f"{where}: singles key {key!r} is not written as {str(idx)!r}")
            if not 0 <= idx < particles:
                raise BadParticleIndex(f"{where}: singles index {idx} out of range")
            rows[idx] = len(singles)
            wheres.append(f"{where} singles[{idx}]")
            singles.append(_ref_parse_complex_matrix(entries, wheres[-1]))

        raw_phases = raw_layer.get("phases", [])
        if not isinstance(raw_phases, list):
            raise CircuitFormatError(f"{where}: 'phases' must be a list")
        phases: list[PhaseGate] = []
        seen_pairs: set[tuple[int, int]] = set()
        for k, raw_phase in enumerate(raw_phases):
            gate = _ref_parse_phase(raw_phase, particles, f"{where} phases[{k}]")
            if gate.pair in seen_pairs:
                raise DuplicatePhasePair(f"{where}: duplicate phase gate on pair {gate.pair}")
            seen_pairs.add(gate.pair)
            phases.append(gate)
        layers.append((rows, phases))

    return _assemble(particles, layers, singles, wheres)
