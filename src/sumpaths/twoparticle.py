"""Two-particle decomposition: per-layer hits of information and path-pair hidden variables.

The subsystem is particle 0; particle 1 is external. For an ordered pair of
subsystem paths (P, Q) sharing an endpoint, the hidden variable lambda is the
overlap of the external evolutions conditioned on P and on Q. It starts at 1
and is updated additively by one hit per interaction layer:

    lambda^(t) = lambda^(t-1) + H^(t)

where H^(t) contracts the conditioned external states just before the layer-t
phase gate with the conditioned phase difference of the gate. Layers without
a phase gate contribute an exact zero (no arithmetic is performed, so the
zero is bit-exact). The subsystem marginal is then the classical sum over
path probabilities plus the lambda-weighted interference of distinct pairs.

`TwoParticleTables` reads the conditioned external states of every prefix
from `paths.conditioned_prefix_states`; `hit` and `lambda_accumulate` evolve
one path's state on their own and stay the scalar reference.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, conditioned_diagonal
from .common import DEFAULT_BUDGET, REALITY_TOL, LambdaBlock, RealityError, check_budget
from .paths import Path, condition_on_paths, conditioned_prefix_states, endpoint_rows
from .paths import prefix_amplitudes, prefix_index


def _require_two_particles(circuit: Circuit) -> None:
    if circuit.particles != 2:
        raise ValueError(
            "two-particle decomposition needs exactly 2 particles; "
            "use the three-particle or general-subsystem module instead"
        )


def _check_pair(circuit: Circuit, p: Path, q: Path) -> None:
    if p.n != circuit.n or q.n != circuit.n:
        raise ValueError("paths must span every circuit layer")


def _conditioned_external_state(circuit: Circuit, p: Path, upto: int) -> np.ndarray:
    """External state after `upto` layers, phase gates fixed by the subsystem path."""
    state = np.array([1.0, 0.0], dtype=complex)
    for s in range(1, upto + 1):
        state = circuit.single(s, 1) @ state
        gate = circuit.phase(s, (0, 1))
        if gate is not None:
            state = conditioned_diagonal(gate, 0, p.mode(s)) * state
    return state


def hit(circuit: Circuit, p: Path, q: Path, t: int) -> complex:
    """Hit of information for the ordered path pair (p, q) at layer t."""
    _require_two_particles(circuit)
    _check_pair(circuit, p, q)
    gate = circuit.phase(t, (0, 1))
    if gate is None:
        return 0j
    x_p = circuit.single(t, 1) @ _conditioned_external_state(circuit, p, t - 1)
    x_q = circuit.single(t, 1) @ _conditioned_external_state(circuit, q, t - 1)
    thetas = np.asarray(gate.thetas).reshape(2, 2)
    factors = np.exp(1j * (thetas[q.mode(t)] - thetas[p.mode(t)])) - 1.0
    return complex(np.sum(factors * x_p.conj() * x_q))


@dataclass(frozen=True)
class LambdaEntry:
    """Hidden-variable trajectory lambda^(0..n) and its per-layer hits."""

    trajectory: tuple[complex, ...]
    hits: tuple[complex, ...]

    @property
    def final(self) -> complex:
        return self.trajectory[-1]


def lambda_accumulate(circuit: Circuit, p: Path, q: Path) -> LambdaEntry:
    """Full trajectory with lambda^(0) = 1 and additive per-layer updates."""
    _require_two_particles(circuit)
    _check_pair(circuit, p, q)
    value = 1.0 + 0.0j
    trajectory = [value]
    hits = []
    for t in range(1, circuit.n + 1):
        increment = hit(circuit, p, q, t)
        hits.append(increment)
        value = value + increment
        trajectory.append(value)
    return LambdaEntry(trajectory=tuple(trajectory), hits=tuple(hits))


def lambda_direct(circuit: Circuit, p: Path, q: Path) -> complex:
    """The same hidden variable as a direct conditioned-evolution inner product."""
    _require_two_particles(circuit)
    _check_pair(circuit, p, q)
    state_p = condition_on_paths(circuit, {0: p}).state()
    state_q = condition_on_paths(circuit, {0: q}).state()
    return complex(np.vdot(state_p, state_q))


class TwoParticleTables:
    """Vectorized hidden variables over every subsystem path-prefix pair.

    Prefix indices encode modes most-significant-first, so a full path's row
    is its mode bitstring read as a binary number; paths ending at j occupy
    rows 2k + j with k the lexicographic enumeration index. A layer's hits
    contract the prefix tree's states before the layer, rotated by the
    external single; its `direct` table is the Gram matrix of the states
    after it.

    With keep_trajectory=False only the final lambda table is retained
    (memory O(4^n) instead of O(n 4^n)), hits are added into it in place and
    `hits` and `direct` stay empty; the per-prefix telescoping error and the
    magnitude bound are still tracked incrementally.
    """

    def __init__(
        self, circuit: Circuit, budget: int = DEFAULT_BUDGET, keep_trajectory: bool = True
    ):
        _require_two_particles(circuit)
        check_budget(4**circuit.n, budget, "path-pair table")
        self.circuit = circuit
        self.keep_trajectory = keep_trajectory
        n = circuit.n
        states = conditioned_prefix_states(circuit, (0,))  # external states per prefix

        lam = np.ones((1, 1), dtype=complex)
        self.lam: list[np.ndarray] = [lam]
        self.hits: list[np.ndarray | None] = [None] if keep_trajectory else []
        self.direct: list[np.ndarray] = [states[0].conj() @ states[0].T] if keep_trajectory else []
        self.telescoping_error = 0.0
        self.max_abs = 1.0

        for t in range(1, n + 1):
            pre = states[t - 1] @ circuit.single(t, 1).T  # states just before the layer-t phase gate
            gate = circuit.phase(t, (0, 1))
            lam = np.repeat(np.repeat(lam, 2, axis=0), 2, axis=1)
            hits_t = None
            if gate is not None:
                thetas = np.asarray(gate.thetas).reshape(2, 2)
                if keep_trajectory:
                    hits_t = np.empty_like(lam)
                for a in (0, 1):
                    for b in (0, 1):
                        d = np.exp(1j * (thetas[b] - thetas[a])) - 1.0
                        block = (pre.conj() * d) @ pre.T
                        lam[a::2, b::2] += block
                        if keep_trajectory:
                            hits_t[a::2, b::2] = block
            direct_t = states[t].conj() @ states[t].T
            # np.maximum keeps a NaN, which the builtin max would drop
            self.max_abs = float(np.maximum(self.max_abs, np.max(np.abs(lam))))
            if keep_trajectory:
                self.lam.append(lam)
                self.hits.append(hits_t)
                self.direct.append(direct_t)
                gap = lam - direct_t
            else:
                self.lam = [lam]
                gap = np.subtract(lam, direct_t, out=direct_t)  # direct_t is not kept
            self.telescoping_error = float(np.maximum(self.telescoping_error, np.max(np.abs(gap))))

        self.amps = prefix_amplitudes(circuit, 0)
        self.n = n

    @property
    def final(self) -> np.ndarray:
        return self.lam[-1]

    def entry(self, p: Path, q: Path) -> LambdaEntry:
        if not self.keep_trajectory:
            raise ValueError("tables were built without trajectories")
        trajectory = [
            complex(self.lam[t][prefix_index(p, t), prefix_index(q, t)])
            for t in range(self.n + 1)
        ]
        hits = [
            0j
            if self.hits[t] is None
            else complex(self.hits[t][prefix_index(p, t), prefix_index(q, t)])
            for t in range(1, self.n + 1)
        ]
        return LambdaEntry(trajectory=tuple(trajectory), hits=tuple(hits))

    def block(self, endpoint: int) -> LambdaBlock:
        """Amplitudes and final lambda of the paths ending at `endpoint`, in enumeration order."""
        rows = endpoint_rows(self.n, endpoint)
        return LambdaBlock(self.amps[rows], self.final[np.ix_(rows, rows)])

    def marginal_deviation(self, endpoint: int) -> float:
        """Free single-particle probability plus the (lambda - 1)-weighted interference."""
        free = np.eye(2, dtype=complex)
        for t in range(1, self.n + 1):
            free = self.circuit.single(t, 0) @ free
        block = self.block(endpoint)
        weights = block.lam - 1.0
        np.fill_diagonal(weights, 0.0)
        a = block.amplitudes
        total = abs(free[endpoint, 0]) ** 2 + complex(a.conj() @ weights @ a)
        if abs(total.imag) > REALITY_TOL:
            raise RealityError(f"pair sum has imaginary residue {total.imag:.3e}")
        return total.real


def lambda_tables(
    circuit: Circuit, budget: int = DEFAULT_BUDGET, keep_trajectory: bool = True
) -> TwoParticleTables:
    return TwoParticleTables(circuit, budget, keep_trajectory)

