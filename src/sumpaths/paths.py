"""Computational-basis paths: enumeration, amplitudes, joint phases, conditional unitaries.

A path for one particle is its mode after each layer, (m_1, ..., m_n), with
the implicit start m_0 = 0. Enumeration order is lexicographic in
(m_1, ..., m_{n-1}) and is part of the public contract: tables and reports
keyed by path index are reproducible run to run.

`conditioned_prefix_states` is the one vectorized evolution of the external
system conditioned on subsystem paths: the two-particle table stream, the
Gram tables `verify` checks both table streams against, the general blocks
and the density path sum read their external states from this prefix tree.
`condition_on_paths` is the per-path scalar reference it is checked against.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .circuits import Circuit, PhaseGate, conditioned_diagonal
from .common import DEFAULT_BUDGET, check_budget

_EINSUM_LETTERS = "abcdefghijklmnop"


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


def enumerate_paths(n: int, endpoint: int) -> list[Path]:
    """All 2^(n-1) paths of length n ending at `endpoint`, in lexicographic order."""
    if n < 1:
        raise ValueError("a path needs at least one layer")
    if endpoint not in (0, 1):
        raise ValueError(f"endpoint must be 0 or 1, got {endpoint}")
    return [
        Path(modes=prefix + (endpoint,))
        for prefix in itertools.product((0, 1), repeat=n - 1)
    ]


def prefix_index(path: Path, t: int) -> int:
    """The first t modes of `path` packed most-significant-first: its row in prefix tables."""
    idx = 0
    for m in path.modes[:t]:
        idx = (idx << 1) | m
    return idx


def path_index(path: Path) -> int:
    """Lexicographic index of `path` within enumerate_paths(path.n, path.endpoint)."""
    return prefix_index(path, path.n - 1)


def endpoint_rows(n: int, endpoint: int) -> np.ndarray:
    """Prefix-table rows of the n-layer paths ending at `endpoint`, in enumeration order.

    With no layers the empty path ends at the initial mode 0.
    """
    return np.flatnonzero(np.arange(1 << n) % 2 == endpoint)


def prefix_amplitudes(circuit: Circuit, particle: int, upto: int | None = None) -> np.ndarray:
    """Amplitudes of `particle` over its 2^t mode sequences through layer t = `upto` (default n).

    Indexed by prefix_index.
    """
    amps = np.ones(1, dtype=complex)
    for t in range(1, (circuit.n if upto is None else upto) + 1):
        last = np.arange(amps.size) % 2  # mode after layer t - 1 (0 before layer 1)
        amps = np.repeat(amps, 2) * circuit.single(t, particle)[np.tile([0, 1], amps.size), np.repeat(last, 2)]
    return amps


def path_mode_array(n: int, endpoint: int) -> np.ndarray:
    """(paths, n) int array of the modes of the paths ending at `endpoint`, in enumeration order."""
    return (endpoint_rows(n, endpoint)[:, None] >> np.arange(n - 1, -1, -1)) & 1


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


def joint_phase_factors(circuit: Circuit, assignment: Sequence[Path]) -> np.ndarray:
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


def joint_phase(circuit: Circuit, assignment: Sequence[Path]) -> complex:
    """Product over layers of the controlled-phase factors selected by the joint modes."""
    return complex(np.prod(joint_phase_factors(circuit, assignment)))


def _pairwise_phase_matrix(circuit: Circuit, pair: tuple[int, int], modes_a: np.ndarray, modes_b: np.ndarray) -> np.ndarray | None:
    """exp(i alpha) between every path of `pair[0]` and every path of `pair[1]`, or None if no gate couples them."""
    total = None
    for t in range(1, circuit.n + 1):
        gate = circuit.phase(t, pair)
        if gate is None:
            continue
        thetas = np.asarray(gate.thetas)
        angles = thetas[2 * modes_a[:, t - 1][:, None] + modes_b[None, :, t - 1]]
        total = angles if total is None else total + angles
    return None if total is None else np.exp(1j * total)


def amplitude_via_paths(
    circuit: Circuit, outcome: Sequence[int], budget: int = DEFAULT_BUDGET
) -> complex:
    """Full sum over the configuration-space path lattice for one joint outcome."""
    n, particles = circuit.n, circuit.particles
    if len(outcome) != particles:
        raise ValueError("need one outcome mode per particle")
    if particles > len(_EINSUM_LETTERS):
        raise ValueError("too many particles for the path-sum evaluator")
    check_budget((1 << max(n - 1, 0)) ** particles, budget, "configuration-space path sum")

    mode_arrays = [path_mode_array(n, outcome[i]) for i in range(particles)]
    operands = [prefix_amplitudes(circuit, i)[endpoint_rows(n, outcome[i])] for i in range(particles)]
    subscripts = list(_EINSUM_LETTERS[:particles])
    for a in range(particles):
        for b in range(a + 1, particles):
            phases = _pairwise_phase_matrix(circuit, (a, b), mode_arrays[a], mode_arrays[b])
            if phases is not None:
                operands.append(phases)
                subscripts.append(_EINSUM_LETTERS[a] + _EINSUM_LETTERS[b])
    return complex(np.einsum(",".join(subscripts) + "->", *operands))


@dataclass(frozen=True, eq=False)
class ConditionedLayer:
    """External-system layer: free singles, kept internal phases, conditioned diagonals."""

    singles: tuple[np.ndarray, ...]
    phases: tuple[PhaseGate, ...]
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
        state = state.reshape((2,) * width)
        for i, gate in enumerate(layer.singles):
            state = np.moveaxis(np.tensordot(gate, state, axes=([1], [i])), 0, i)
        for gate in layer.phases:
            a, b = gate.pair
            shape = [2 if k in (a, b) else 1 for k in range(width)]
            state = state * gate.diagonal().reshape(shape)
        for local, diag in layer.diagonals:
            shape = [2 if k == local else 1 for k in range(width)]
            state = state * diag.reshape(shape)
        return state.reshape(-1)

    def state(self, upto: int | None = None) -> np.ndarray:
        """Conditioned evolution applied to |0...0>."""
        t_stop = self.n if upto is None else upto
        state = np.zeros(self.dim, dtype=complex)
        state[0] = 1.0
        for t in range(1, t_stop + 1):
            state = self._apply(state, t)
        return state

    def state_trajectory(self) -> list[np.ndarray]:
        """States after 0..n layers."""
        state = np.zeros(self.dim, dtype=complex)
        state[0] = 1.0
        out = [state]
        for t in range(1, self.n + 1):
            state = self._apply(state, t)
            out.append(state)
        return out

    def layer_operator(self, t: int) -> np.ndarray:
        """Dense operator of layer t on the external system."""
        op = np.eye(self.dim, dtype=complex)
        cols = [self._apply(op[:, k].copy(), t) for k in range(self.dim)]
        return np.column_stack(cols)

    def unitary(self, upto: int | None = None) -> np.ndarray:
        t_stop = self.n if upto is None else upto
        op = np.eye(self.dim, dtype=complex)
        for t in range(1, t_stop + 1):
            op = self.layer_operator(t) @ op
        return op


def condition_on_paths(circuit: Circuit, conditioning: Mapping[int, Path]) -> ConditionalUnitary:
    """External circuit with every straddling phase gate fixed by the conditioning path's mode.

    Phase gates wholly inside the external set are kept; gates wholly inside
    the conditioning set are dropped (they belong to the subsystem amplitude,
    not to the conditioned evolution).
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
                phases.append(PhaseGate(pair=(local[a], local[b]), thetas=gate.thetas))
            elif a_fixed:
                diagonals.append((local[b], conditioned_diagonal(gate, a, cond[a].mode(t))))
            else:
                diagonals.append((local[a], conditioned_diagonal(gate, b, cond[b].mode(t))))
        layers.append(
            ConditionedLayer(singles=singles, phases=tuple(phases), diagonals=tuple(diagonals))
        )
    return ConditionalUnitary(external=external, layers=tuple(layers))


def conditioned_prefix_states(circuit: Circuit, subsystem: Sequence[int]) -> list[np.ndarray]:
    """External states conditioned on every subsystem path prefix, after layers 0..n.

    Table t is (2^(M t), 2^(N - M)). A row joins the members' t-mode prefix
    indices (`prefix_index`), first member most significant; a column is an
    external basis state, first external particle most significant. Row r
    equals `condition_on_paths(...).state(upto=t)` for any member paths with
    those prefixes. Each layer applies the external singles axis by axis and
    the external phase gates once per prefix, grows every member's prefix by
    `np.repeat`, then applies the straddling gates conditioned on the new
    mode. Gates wholly inside the subsystem stay in the path amplitudes.
    For the subsystem (0,) of two or three particles, the Gram matrix of
    table t is the lambda^(t) that `verify` checks each streamed table
    against.
    """
    members = tuple(sorted(set(subsystem)))
    external = tuple(p for p in range(circuit.particles) if p not in members)
    if not external:
        raise ValueError("conditioning set must leave at least one external particle")
    size, width = len(members), len(external)
    axis = {p: k for k, p in enumerate(members)}
    axis.update({p: size + k for k, p in enumerate(external)})
    state = np.zeros((1,) * size + (2,) * width, dtype=complex)
    state[(0,) * state.ndim] = 1.0
    tables = [state.reshape(1, -1)]
    for t in range(1, circuit.n + 1):
        layer = circuit.layer(t)
        for p in external:
            moved = np.moveaxis(state, axis[p], -1)
            state = np.moveaxis((moved.reshape(-1, 2) @ layer.singles[p].T).reshape(moved.shape), -1, axis[p])
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
            a, b = gate.pair
            factors = gate.diagonal().reshape(2, 2)  # indexed (mode of a, mode of b)
            member, other = (a, b) if a in members else (b, a)
            if member == b:
                factors = factors.T
            shape = [1] * state.ndim
            shape[axis[member]], shape[axis[other]] = 1 << t, 2
            state = state * factors[new_mode].reshape(shape)
        tables.append(state.reshape(-1, 1 << width))
    return tables
