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

`lambda_tables` streams lambda^(t) over every prefix pair, one layer at a
time, reading the conditioned external states of every prefix from
`paths.conditioned_prefix_states`; `verify` checks each streamed table
against the Gram matrix of those states. `hit` and `lambda_accumulate`
evolve one path's state on their own and stay the scalar reference.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .circuits import Circuit, conditioned_diagonal
from .common import DEFAULT_BUDGET, REALITY_TOL, LambdaBlock, RealityError, check_budget
from .paths import Path, condition_on_paths, conditioned_prefix_states


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


def lambda_tables(circuit: Circuit, budget: int = DEFAULT_BUDGET) -> Iterator[np.ndarray]:
    """lambda^(t) over every pair of t-mode subsystem prefixes, for t = 0..n.

    Prefix indices encode modes most-significant-first, so a full path's row
    is its mode bitstring read as a binary number; paths ending at j occupy
    rows 2k + j with k the lexicographic enumeration index. Layer t repeats
    lambda^(t-1) over the new bit and adds the hits, which contract the
    prefix tree's states before the layer, rotated by the external single.
    Each table is a fresh array, never written after it is yielded, so a
    caller that keeps only the last one holds at most two tables at a time.
    The 4^n budget charge and the particle count are checked on the first
    `next()`.
    """
    _require_two_particles(circuit)
    check_budget(4**circuit.n, budget, "path-pair table")
    states = conditioned_prefix_states(circuit, (0,))  # external states per prefix
    lam = np.ones((1, 1), dtype=complex)
    yield lam
    for t in range(1, circuit.n + 1):
        lam = np.repeat(np.repeat(lam, 2, axis=0), 2, axis=1)
        gate = circuit.phase(t, (0, 1))
        if gate is not None:
            pre = states[t - 1] @ circuit.single(t, 1).T  # states just before the layer-t phase gate
            thetas = np.asarray(gate.thetas).reshape(2, 2)
            for a in (0, 1):
                for b in (0, 1):
                    d = np.exp(1j * (thetas[b] - thetas[a])) - 1.0
                    lam[a::2, b::2] += (pre.conj() * d) @ pre.T
        yield lam


def marginal_deviation(circuit: Circuit, endpoint: int, block: LambdaBlock) -> float:
    """Free single-particle probability plus the (lambda - 1)-weighted interference of `block`."""
    free = np.eye(2, dtype=complex)
    for t in range(1, circuit.n + 1):
        free = circuit.single(t, 0) @ free
    weights = block.lam - 1.0
    np.fill_diagonal(weights, 0.0)
    a = block.amplitudes
    total = abs(free[endpoint, 0]) ** 2 + complex(a.conj() @ weights @ a)
    if abs(total.imag) > REALITY_TOL:
        raise RealityError(f"pair sum has imaginary residue {total.imag:.3e}")
    return total.real
