"""Computational-basis paths: enumeration, amplitudes, pair phases, path sums, conditioned evolutions.

A path for one particle is its mode after each layer, (m_1, ..., m_n), with
the implicit start m_0 = 0. Enumeration order is lexicographic in
(m_1, ..., m_{n-1}) and is part of the public contract: tables and reports
keyed by path index are reproducible run to run. `member_paths_at` builds
one entry of the product of several members' enumerations from its index
alone, so naming two paths never enumerates the rest.

`conditioned_prefix_state_layers` is the one vectorized evolution of the
external system conditioned on subsystem paths, one table per layer, from
`tree_root`. Each layer is one `TreeStep` (`tree_step`): one product of the
rows with the layer's external operator (the external singles as Kronecker
blocks of at most four particles, the external-only phase gates folded in
as one diagonal), then one broadcast multiply that grows every member's
prefix by its new bit and applies the straddling factors D[a, x]. The hit
stream of the subsystem (0,) (`twoparticle.lambda_tables`) takes the same
steps itself, reading each step's pre-gate states and D before dropping
it, and yields each table beside its lambda. The three-particle Gram walk
of `verify`, the general blocks (the final table only) and the density
path sum read this generator's tables. `condition_on_paths` is the per-path
scalar reference it is checked against, and the evolution the per-pair
hits (`twoparticle.hit`) read.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .circuits import Circuit, PhaseGate, conditioned_diagonal
from .common import DEFAULT_BUDGET, Charge, check_charges


@dataclass(frozen=True)
class Path:
    """Mode sequence (m_1, ..., m_n); m_0 = 0 is implicit."""

    modes: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(m not in (0, 1) for m in self.modes):
            raise ValueError(f"modes must be 0 or 1, got {self.modes}")

    @property
    def n(self) -> int:
        return len(self.modes)

    @property
    def endpoint(self) -> int:
        return self.modes[-1]

    def mode(self, t: int) -> int:
        """Mode after layer t; mode(0) is the fixed initial 0."""
        return 0 if t == 0 else self.modes[t - 1]

    def bitstring(self) -> str:
        return "".join(str(m) for m in self.modes)


def _check_endpoint(n: int, endpoint: int) -> None:
    if n < 1:
        raise ValueError("a path needs at least one layer")
    if endpoint not in (0, 1):
        raise ValueError(f"endpoint must be 0 or 1, got {endpoint}")


def enumerate_paths(n: int, endpoint: int) -> list[Path]:
    """All 2^(n-1) paths of length n ending at `endpoint`, in lexicographic order."""
    _check_endpoint(n, endpoint)
    return [
        Path(modes=prefix + (endpoint,))
        for prefix in itertools.product((0, 1), repeat=n - 1)
    ]


def member_paths_at(n: int, endpoints: Sequence[int], index: int) -> tuple[Path, ...]:
    """One path per endpoint: entry `index` of the product of their `enumerate_paths`, built alone.

    The index's M(n - 1) bits are the members' prefixes in turn, first
    member most significant, as `itertools.product` orders the product.
    Raises IndexError outside 0..2^(M(n - 1)) - 1, after the ValueError
    `enumerate_paths` raises for a bad layer count or endpoint.
    """
    for endpoint in endpoints:
        _check_endpoint(n, endpoint)
    width = n - 1
    if not 0 <= index < 1 << (width * len(endpoints)):
        raise IndexError(f"path index {index} out of range")
    bits = [(index >> k) & 1 for k in range(width * len(endpoints) - 1, -1, -1)]
    return tuple(Path(tuple(bits[k * width : (k + 1) * width]) + (e,)) for k, e in enumerate(endpoints))


def endpoint_rows(n: int, endpoint: int) -> np.ndarray:
    """Prefix-table rows of the n-layer paths ending at `endpoint`, in enumeration order.

    With no layers the empty path ends at the initial mode 0.
    """
    return np.flatnonzero(np.arange(1 << n) % 2 == endpoint)


def prefix_amplitude_layers(circuit: Circuit, particle: int) -> Iterator[np.ndarray]:
    """`prefix_amplitudes(circuit, particle, t)` for t = 0..n, each grown from the last.

    Each layer is one outer product: prefix index q with mode l after layer
    t - 1 is row 2q + l, and its extension by mode m after layer t takes the
    matrix element single[m, l]. The transposed single is made contiguous
    first: a transposed view would lay the product out in its order, and
    the reshape to one axis would then copy it.
    """
    amps = np.ones(1, dtype=complex)
    yield amps
    for t in range(1, circuit.n + 1):
        single = circuit.single(t, particle)
        # every path starts in mode 0
        amps = single[:, 0] if t == 1 else (amps.reshape(-1, 2, 1) * np.ascontiguousarray(single.T)).reshape(-1)
        yield amps


def prefix_amplitudes(circuit: Circuit, particle: int, upto: int | None = None) -> np.ndarray:
    """Amplitudes of `particle` over its 2^t mode sequences through layer t = `upto` (default n).

    Indexed by prefix index: a path's first t modes packed
    most-significant-first.
    """
    t_stop = circuit.n if upto is None else upto
    if not 0 <= t_stop <= circuit.n:
        raise IndexError(f"layer index {t_stop} out of range 0..{circuit.n}")
    return next(itertools.islice(prefix_amplitude_layers(circuit, particle), t_stop, None))


def path_amplitude(circuit: Circuit, particle: int, path: Path) -> complex:
    """Product of single-gate matrix elements along the path's layers; phase gates excluded.

    A path shorter than the circuit gets its amplitude over the first path.n layers.
    """
    if path.n > circuit.n:
        raise ValueError(f"path has {path.n} layers, circuit has {circuit.n}")
    value = 1.0 + 0.0j
    for t in range(1, path.n + 1):
        value *= circuit.single(t, particle)[path.mode(t), path.mode(t - 1)]
    return complex(value)


def pair_phases(circuit: Circuit, pair: tuple[int, int]) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Joint phase of two particles' paths, split into (prefix, last).

    The phase is the product over layers of each gate's 2x2 factor
    `gate.diagonal().reshape(2, 2)` at the two paths' modes. `prefix` is the
    Kronecker product of the factors of layers 1..n-1, on the
    (prefix index, prefix index) grid of the two particles' (n-1)-mode
    prefixes, grown one broadcast outer product per layer; `last` is layer
    n's factor over the two endpoints. Either is None when no gate couples
    the pair in those layers.
    """
    gates = [circuit.phase(t, pair) for t in range(1, circuit.n + 1)]
    factors = [np.ones((2, 2)) if gate is None else gate.diagonal().reshape(2, 2) for gate in gates]
    prefix = None
    if any(g is not None for g in gates[:-1]):
        prefix = factors[0]
        for factor in factors[1:-1]:
            rows, cols = prefix.shape
            prefix = (prefix[:, None, :, None] * factor[None, :, None, :]).reshape(2 * rows, 2 * cols)
    return prefix, (factors[-1] if gates and gates[-1] is not None else None)


def pathsum_charges(circuit: Circuit) -> list[Charge]:
    """What `amplitudes_via_paths` holds: every pair's phase table, then elimination's largest table.

    Each of the C(N, 2) pairs gets a `pair_phases` prefix table over
    (2^(n-1))^2 prefix pairs. Elimination's largest table is the one particle
    0 leaves after going through its coupling to particle 1, 2 (2^(n-1))^(N-1)
    entries, or the final 2^N endpoint table when that is larger; at one
    particle it is the particle's 2^n prefix amplitudes. The two stay
    separate charges, so each names one structure and neither is padded by
    the other. The elimination charge bounds the particle count too: it is
    never less than the 2^N endpoint table.
    """
    width, particles = 1 << max(circuit.n - 1, 0), circuit.particles
    return [
        (math.comb(particles, 2) * width * width, "path-sum pair phase tables"),
        (max(2 * width ** max(particles - 1, 1), 1 << particles), "path-sum elimination table"),
    ]


def amplitudes_via_paths(circuit: Circuit, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """Every joint amplitude as one sum over the configuration-space path lattice.

    Returns 2^N amplitudes, particle 0 most significant. Each particle
    carries two indices, its path prefix and its endpoint. The sum
    eliminates whole particle prefixes in index order: step k multiplies
    the running table by particle k's `pair_phases` prefixes to later
    particles, then contracts its prefix against its `prefix_amplitudes`
    in one batched matmul, leaving its endpoint. Particle 0 is contracted
    against its coupling to particle 1 instead, so no table holds the whole
    lattice (2^(n-1))^N: each table spans the endpoints eliminated so far
    and the prefixes still to go, and none exceeds 2 (2^(n-1))^(N-1)
    entries. The endpoint factors multiply the final 2^N table.
    `pathsum_charges` charges the pair tables and that largest table before
    anything is built. It never evolves a state vector, so it stays
    independent of the oracle it is checked against.
    """
    n, particles = circuit.n, circuit.particles
    check_charges(pathsum_charges(circuit), budget)
    if n == 0:  # every particle still in its initial mode 0
        return (np.arange(1 << particles) == 0).astype(complex)

    width = 1 << (n - 1)
    prefixes, lasts = {}, {}
    for pair in itertools.combinations(range(particles), 2):
        prefixes[pair], lasts[pair] = pair_phases(circuit, pair)
    # axes: the eliminated endpoints (particle 0 most significant), then the
    # prefixes of particles k..N-1; a prefix no factor has touched yet has size 1
    table = np.ones((1,) * (particles + 1), dtype=complex)
    for k in range(particles):
        head = prefixes.get((0, 1)) if k == 0 else None
        for j in range(k + 1 + (head is not None), particles):
            coupling = prefixes[k, j]
            if coupling is not None:
                shape = [1] * table.ndim
                shape[1] = shape[1 + j - k] = width
                table = table * coupling.reshape(shape)
        amps = prefix_amplitudes(circuit, k).reshape(width, 2).T  # (endpoint, prefix)
        if head is not None:  # prefix 0 goes through its coupling to prefix 1, so no table spans both
            table = amps.reshape((2, width) + (1,) * (particles - 1)) * table[0]
            table = (head.T @ table.reshape(2, width, -1)).reshape((2, width) + table.shape[3:])
            continue
        if table.shape[1] == 1:  # no factor couples this prefix: sum its amplitudes alone
            amps = amps.sum(axis=1, keepdims=True)
        rest = table.shape[2:]
        table = (amps @ table.reshape(table.shape[0], table.shape[1], -1)).reshape((-1,) + rest)
    table = table.reshape((2,) * particles)
    for (a, b), last in lasts.items():
        if last is not None:
            shape = [1] * particles
            shape[a] = shape[b] = 2
            table = table * last.reshape(shape)
    return table.reshape(-1)


@dataclass(frozen=True, eq=False)
class ConditionedLayer:
    """External-system layer: free singles, kept internal phases, conditioned diagonals."""

    singles: tuple[np.ndarray, ...]
    phases: tuple[tuple[tuple[int, int], np.ndarray], ...]  # (local pair, the gate's own 2x2 table)
    diagonals: tuple[tuple[int, np.ndarray], ...]  # (local particle, length-2 diagonal)


@dataclass(frozen=True, eq=False)
class ConditionalUnitary:
    """Layered evolution of the external system, conditioned on fixed subsystem paths."""

    external: tuple[int, ...]
    layers: tuple[ConditionedLayer, ...]

    @property
    def n(self) -> int:
        return len(self.layers)

    @property
    def dim(self) -> int:
        return 1 << len(self.external)

    def _apply(self, state: np.ndarray, t: int) -> np.ndarray:
        layer = self.layers[t - 1]
        width = len(self.external)
        for i, gate in enumerate(layer.singles):
            # the gate on the left: that operand order fixes the last bits `trace` prints
            view = state.reshape(1 << i, 2, -1).transpose(1, 0, 2).reshape(2, -1)
            state = np.dot(gate, view).reshape(2, 1 << i, -1).transpose(1, 0, 2)
        state = state.reshape((2,) * width)
        for pair, table in layer.phases:
            shape = [2 if k in pair else 1 for k in range(width)]
            state = state * table.reshape(shape)
        for local, diag in layer.diagonals:
            shape = [2 if k == local else 1 for k in range(width)]
            # diagonal first: the operand order fixes the last bits `trace` prints
            state = diag.reshape(shape) * state
        return state.reshape(-1)

    def states(self, upto: int | None = None) -> Iterator[np.ndarray]:
        """Conditioned evolution of |0...0> after layers 0..upto (default n); none is written once yielded."""
        t_stop = self.n if upto is None else upto
        state = np.zeros(self.dim, dtype=complex)
        state[0] = 1.0
        yield state
        for t in range(1, t_stop + 1):
            state = self._apply(state, t)
            yield state

    def state(self, upto: int | None = None) -> np.ndarray:
        """Conditioned evolution applied to |0...0>: the last of `states(upto)`."""
        for state in self.states(upto):
            pass
        return state


def normalize_subsystem(circuit: Circuit, subsystem: Sequence[int]) -> tuple[int, ...]:
    """The subsystem's distinct members in ascending order, checked to leave an external particle."""
    particles = tuple(sorted(set(subsystem)))
    if not particles:
        raise ValueError("subsystem must be non-empty")
    if particles[0] < 0 or particles[-1] >= circuit.particles:
        raise ValueError(f"subsystem {particles} out of range")
    if len(particles) == circuit.particles:
        raise ValueError("subsystem must leave at least one external particle")
    return particles


def condition_on_paths(circuit: Circuit, conditioning: Mapping[int, Path]) -> ConditionalUnitary:
    """External circuit with every straddling phase gate fixed by the conditioning path's mode.

    Phase gates wholly inside the external set keep their own tables, on
    their particles' local axes; gates wholly inside the conditioning set
    are dropped (they belong to the subsystem amplitude, not to the
    conditioned evolution).
    """
    cond = dict(conditioning)
    for i, path in cond.items():
        if not 0 <= i < circuit.particles:
            raise ValueError(f"conditioning particle {i} out of range")
        if path.n != circuit.n:
            raise ValueError(f"conditioning path for particle {i} has wrong length")
    external = tuple(i for i in range(circuit.particles) if i not in cond)
    if not external:
        raise ValueError("conditioning set must leave at least one external particle")
    local = {p: k for k, p in enumerate(external)}

    layers = []
    for t in range(1, circuit.n + 1):
        layer = circuit.layer(t)
        singles = tuple(layer.singles[p] for p in external)
        phases = []
        diagonals = []
        for gate in layer.phases:
            a, b = gate.pair
            a_fixed, b_fixed = a in cond, b in cond
            if a_fixed and b_fixed:
                continue
            if not a_fixed and not b_fixed:
                phases.append(((local[a], local[b]), gate.table))
            elif a_fixed:
                diagonals.append((local[b], conditioned_diagonal(gate, a, cond[a].mode(t))))
            else:
                diagonals.append((local[a], conditioned_diagonal(gate, b, cond[b].mode(t))))
        layers.append(
            ConditionedLayer(singles=singles, phases=tuple(phases), diagonals=tuple(diagonals))
        )
    return ConditionalUnitary(external=external, layers=tuple(layers))


def apply_single(state: np.ndarray, axis: int, gate: np.ndarray) -> np.ndarray:
    """`gate` applied to one axis of `state`, as one (rows, K) x (K, K) BLAS call on a view.

    K is the axis' size: 2 for one particle, 2^c for a Kronecker block of c
    particles. The rows stay on the left: that operand order fixes the last
    bits of every prefix tree and lambda table. A gate on the left rounds
    differently.
    """
    size = state.shape[axis]
    view = state.reshape(math.prod(state.shape[:axis]), size, -1)
    rows = np.dot(view.transpose(0, 2, 1).reshape(-1, size), gate.T)
    return rows.reshape(view.shape[0], -1, size).transpose(0, 2, 1).reshape(state.shape)


@functools.cache
def member_layout(particles: int, members: tuple[int, ...]) -> tuple[tuple[int, ...], dict[int, int]]:
    """The external particles, and each particle's axis: the members, then the external particles, each ascending."""
    external = tuple(p for p in range(particles) if p not in members)
    return external, {p: k for k, p in enumerate(members + external)}


def straddling_factor(gate: PhaseGate, members: tuple[int, ...]) -> tuple[int, int, np.ndarray]:
    """A straddling gate's member, its external particle, and its 2x2 factor indexed (member mode, external mode)."""
    a, b = gate.pair
    return (a, b, gate.table) if a in members else (b, a, gate.table.T)


_BLOCK = 4  # external particles per Kronecker block of a tree step's operator: at most 16 x 16, 256 entries


def _kron_block(singles: list[np.ndarray]) -> np.ndarray:
    """The Kronecker product of up to `_BLOCK` single gates, the first most significant, one outer product each."""
    op = singles[0]
    for single in singles[1:]:
        size = len(op)
        op = (op[:, None, :, None] * single[:, None]).reshape(2 * size, 2 * size)
    return op


def _phase_product(factors: list[tuple[int, int, np.ndarray]], ndim: int) -> np.ndarray:
    """The product of 2x2 phase tables over every ndim-bit index, each table on its (earlier, later) pair of axes."""
    product = None
    for first, second, table in factors:
        shape = [1] * ndim
        shape[first] = shape[second] = 2
        factor = table.reshape(shape)
        product = factor if product is None else product * factor
    full = np.empty((2,) * ndim, dtype=complex)
    full[...] = product
    return full.reshape(-1)


@dataclass(frozen=True, eq=False)
class TreeStep:
    """Layer t of a conditioned prefix tree, taken from table t - 1.

    `pre` is table t - 1 with layer t's external operator applied: the
    external singles, as one product per Kronecker block of at most four
    particles, and the external-only phase gates as one diagonal. It holds
    the external states just before the straddling gates, one row per
    (t-1)-mode member prefix. `factors` is D[a, x], the product of layer t's
    straddling factors at joint member mode a and external basis state x
    (first member and first external particle most significant), or None
    when no gate couples a member to the external system. Gates wholly
    inside the subsystem belong to the path amplitudes and appear in
    neither.
    """

    layer: int
    members: tuple[int, ...]
    pre: np.ndarray
    factors: np.ndarray | None

    def grow(self) -> np.ndarray:
        """Table t in one broadcast multiply: row (k, a) is pre row k times D[a], k extended by each member's new bit."""
        prefix, size, width = 1 << (self.layer - 1), len(self.members), self.pre.shape[1]
        rows = self.pre.reshape((prefix, 1) * size + (width,))
        if self.factors is None:
            grown = np.broadcast_to(rows, (prefix, 2) * size + (width,))
        else:
            grown = rows * self.factors.reshape((1, 2) * size + (width,))
        return grown.reshape(-1, width)


def tree_step(circuit: Circuit, members: tuple[int, ...], t: int, table: np.ndarray) -> TreeStep:
    """Layer t's `TreeStep` for the normalized `members`, from the prefix tree's table t - 1.

    The external-only phase diagonal folds into the operator when the
    external system is one block, and multiplies the rows once otherwise.
    Each straddling factor is oriented by `straddling_factor`.
    """
    external, axis = member_layout(circuit.particles, members)
    layer = circuit.layer(t)
    size, width = len(members), len(external)
    phases, straddling = [], []
    for gate in layer.phases:
        a, b = gate.pair
        if (a in members) != (b in members):
            member, other, factor = straddling_factor(gate, members)
            straddling.append((axis[member], axis[other], factor))
        elif a not in members:
            phases.append((axis[a] - size, axis[b] - size, gate.table))
    ops = [_kron_block([layer.singles[p] for p in external[k : k + _BLOCK]]) for k in range(0, width, _BLOCK)]
    diagonal = _phase_product(phases, width) if phases else None
    if diagonal is not None and len(ops) == 1:
        ops[0], diagonal = diagonal[:, None] * ops[0], None
    pre = table.reshape((-1,) + tuple(op.shape[0] for op in ops))
    for k, op in enumerate(ops, start=1):
        pre = apply_single(pre, k, op)
    pre = pre.reshape(table.shape)
    if diagonal is not None:
        pre = pre * diagonal
    factors = _phase_product(straddling, circuit.particles).reshape(1 << size, -1) if straddling else None
    return TreeStep(layer=t, members=members, pre=pre, factors=factors)


def tree_root(circuit: Circuit, members: tuple[int, ...]) -> np.ndarray:
    """Table 0: one row, the external system in |0...0>."""
    external, _ = member_layout(circuit.particles, members)
    if not external:
        raise ValueError("conditioning set must leave at least one external particle")
    root = np.zeros((1, 1 << len(external)), dtype=complex)
    root[0, 0] = 1.0
    return root


def conditioned_prefix_state_layers(circuit: Circuit, subsystem: Sequence[int]) -> Iterator[np.ndarray]:
    """External states conditioned on every subsystem path prefix, after layers t = 0..n, each grown from the last.

    Table t is (2^(M t), 2^(N - M)). A row joins the members' t-mode prefix
    indices, first member most significant; a column is an
    external basis state, first external particle most significant. Row r
    equals `condition_on_paths(...).state(upto=t)` for any member paths with
    those prefixes. Each layer is one `TreeStep`: one product with the
    layer's external operator, then one broadcast multiply that grows every
    member's prefix by its new bit and applies the straddling factors. For
    the subsystem (0,), the Gram matrix of table t is the lambda^(t) that
    `verify` checks each streamed table against.
    """
    members = tuple(sorted(set(subsystem)))
    table = tree_root(circuit, members)
    yield table
    for t in range(1, circuit.n + 1):
        table = tree_step(circuit, members, t, table).grow()
        yield table
