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
The circuit helpers after them make the seeded corpora and the reduced or
trimmed circuits that the tests compare. The stream helpers at the end read
the per-layer lambda tables of `lambda_tables` and `lambda3_tables`: one pair's
trajectory, the final endpoint blocks, and the Gram tables of the package's
conditioned prefix states that every layer must match. Then come the
earlier two-particle table builder, the earlier three-particle cascade that
refined its whole column stacks every layer, and the earlier pair sum, which
the general hit stream, the carried-column cascade and the copy-free pair
sum must reproduce. Then come the
earlier single-gate kernels, `tensordot` and `moveaxis` with a matmul, and
the oracle and conditioned layers built from them: the package's one-BLAS-
call kernels on reshaped views must equal them bit for bit. Then comes the
earlier general-subsystem route, which built each outcome's dense lambda as
the Gram matrix of its gathered final-table rows: the package's Gram-factor
blocks must give its amplitudes and lambdas bit for bit. Then come the
per-layer density references, one layer and one formula per call over the
package's own helpers, which `density_report` must reproduce bit for bit,
and the oracle's partial trace of one evolved state. Then comes the
earlier cascade charge, which tested each gate's presence by building its
angle table. Last is the earlier circuit validator, which tests every
number with a helper call: `validate_circuit`'s inline type tests must give
the same circuits and raise the same errors.
"""
from __future__ import annotations

import itertools
import math
import sys
from functools import reduce
from typing import Any, Iterator, Mapping

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
from sumpaths.common import DEFAULT_BUDGET, LambdaBlock, check_budget, check_charges
from sumpaths.density import (
    DensityPair,
    _collapse_direct,
    _core_angle,
    _evolved,
    _offdiagonal,
    _pathsum_collapse,
    _require_two_particles,
    _singles,
    _step,
)
from sumpaths.oracle import Distribution, evolve, marginal_by_sum, reduced_density_of
from sumpaths.paths import ConditionalUnitary, Path, condition_on_paths, conditioned_prefix_states, normalize_subsystem
from sumpaths.paths import apply_single, endpoint_rows, pair_phases, path_amplitude, prefix_amplitude_layers
from sumpaths.paths import prefix_amplitudes
from sumpaths.subsystems import conditioned_charges, table_blocks
from sumpaths.threeparticle import _thetas


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


def table_trajectory(tables: list[np.ndarray], p: Path, q: Path) -> tuple[complex, ...]:
    """lambda^(0..n) of the ordered pair (p, q), read off per-layer prefix tables."""
    return tuple(
        complex(table[prefix_index(p, t), prefix_index(q, t)]) for t, table in enumerate(tables)
    )


def final_blocks(circuit: Circuit, tables: Iterator[np.ndarray]) -> dict[int, LambdaBlock]:
    """{j: endpoint-j block} read off the last table of a lambda stream."""
    *_, final = tables
    return {j: block for (j,), block in table_blocks(circuit, final)}


def gram_tables(circuit: Circuit) -> list[np.ndarray]:
    """G_t: overlaps of the external states conditioned on every t-mode prefix of particle 0."""
    return [u.conj() @ u.T for u in conditioned_prefix_states(circuit, (0,))]


def two_particle_tables(circuit: Circuit) -> Iterator[np.ndarray]:
    """The earlier two-particle stream: lambda^(t) for t = 0..n off one whole-circuit prefix tree."""
    states = conditioned_prefix_states(circuit, (0,))
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
    for gate in layer.phases:
        shape = [2 if k in gate.pair else 1 for k in range(width)]
        state = state * gate.diagonal().reshape(shape)
    for local, diag in layer.diagonals:
        shape = [2 if k == local else 1 for k in range(width)]
        state = diag.reshape(shape) * state
    return state.reshape(-1)


def dense_conditioned_blocks(
    circuit: Circuit, subsystem: tuple[int, ...], budget: int = DEFAULT_BUDGET
) -> Iterator[tuple[tuple[int, ...], LambdaBlock]]:
    """(outcome, block) for every subsystem outcome, all read off one conditioned prefix tree.

    An outcome's lambda is the Gram matrix of the tree's final-table rows at
    its configuration paths; its amplitudes are the members' path amplitudes
    times the intra-subsystem phases. The budget is charged the lambda pairs
    of one outcome and the tree's final table before anything is built.
    Outcomes come in `itertools.product((0, 1), repeat=M)` order, and each
    lambda is built only when its outcome is reached.
    """
    particles = normalize_subsystem(circuit, subsystem)
    n, size = circuit.n, len(particles)
    check_charges(conditioned_charges(circuit, particles), budget)
    final = conditioned_prefix_states(circuit, particles)[n]
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
    table = conditioned_prefix_states(head, (0,))[t - 1]
    return _pathsum_collapse(circuit, t, prefix_amplitudes(circuit, 0, t), table)


def collapse_amplitude_direct(circuit: Circuit, t: int) -> complex:
    """<01| (A^(t) x B^(t)) |psi(t-1)>, straight from the state vector."""
    _require_two_particles(circuit)
    return _collapse_direct(_singles(circuit, t), evolve(circuit, t - 1))


def reduced_density(circuit: Circuit, particle: int, upto: int | None = None) -> np.ndarray:
    """Partial trace of |psi(t)><psi(t)| over every particle but one."""
    if not 0 <= particle < circuit.particles:
        raise IndexError(f"particle {particle} out of range")
    return reduced_density_of(evolve(circuit, upto), circuit.particles, particle)


def thetas_cascade_charges(circuit: Circuit) -> list:
    """The earlier `cascade_charges`: each gate's presence read off its 2x2 angle table."""
    def present(pair: tuple[int, int], r: int) -> bool:
        return _thetas(circuit, pair, r) is not None

    ab, ac, bc = (0, 1), (0, 2), (1, 2)
    last_hit = max((r for r in range(1, circuit.n + 1) if present(ab, r) or present(ac, r)), default=0)
    largest = 4**circuit.n
    c_columns = b_columns = 0
    for r in range(1, last_hit + 1):
        has_bc, has_ab, has_ac = (present(pair, r) for pair in (bc, ab, ac))
        c_columns += 4 * (has_bc + has_ac)
        b_columns += 4 * (has_bc + has_ab)
        largest = max(largest, 4**r * max(c_columns, b_columns))
    return [(largest, "three-particle cascade table")]


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
