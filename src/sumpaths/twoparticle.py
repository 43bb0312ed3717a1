"""Hits of information and path-pair hidden variables: the stream of the subsystem (0,), and the per-pair reference.

For an ordered pair of subsystem path tuples (P, Q), one path per member,
sharing their endpoints, the hidden variable lambda is the overlap of the
external evolutions conditioned on P and on Q. It starts at 1 and is
updated additively by one hit per interaction layer, however many particles
the subsystem and the external system hold:

    lambda^(t) = lambda^(t-1) + H^(t)

where H^(t) contracts the conditioned external states just before the
layer-t phase gates with the conditioned phase difference of the layer's
straddling gates, those coupling a member to an external particle.
External-only gates cancel in the contraction and gates inside the
subsystem belong to the path amplitudes, so both drop out, and layers
without a straddling gate contribute an exact zero (no arithmetic is
performed, so the zero is bit-exact). The subsystem marginal is then the
classical sum over path probabilities plus the lambda-weighted interference
of distinct pairs.

`hit` and `lambda_accumulate` evolve each path tuple's external state by
`condition_on_paths` and are the per-pair reference for every subsystem but
the (0,) of three particles, whose hits are the paper's cascade in
`threeparticle`. `lambda_tables` streams lambda^(t) of the subsystem (0,)
over every prefix pair, one layer at a time, reading the conditioned
external states of every prefix from one `prefix_tree`; `verify` checks each
streamed table against the Gram matrix of those states. The stream serves
every particle count but three.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .circuits import Circuit
from .common import DEFAULT_BUDGET, REALITY_TOL, Charge, LambdaBlock, RealityError, check_charges
from .paths import Path, apply_single, condition_on_paths, conditioned_prefix_states, member_layout, normalize_subsystem
from .paths import straddling_factor


def _require_stream(circuit: Circuit) -> None:
    if circuit.particles < 2 or circuit.particles == 3:
        raise ValueError(
            "the hit stream needs 2 or at least 4 particles; "
            "three particles use the cascade of the three-particle module"
        )


def _check_pair(circuit: Circuit, subsystem: Sequence[int], p: Sequence[Path], q: Sequence[Path]) -> tuple[int, ...]:
    """The normalized members, once each member has one full-length path on both sides."""
    members = normalize_subsystem(circuit, subsystem)
    if members == (0,):
        _require_stream(circuit)
    if len(p) != len(members) or len(q) != len(members):
        raise ValueError(f"need one path per subsystem member, {len(members)} on each side")
    if any(path.n != circuit.n for path in (*p, *q)):
        raise ValueError("paths must span every circuit layer")
    return members


def _straddle(circuit: Circuit, members: tuple[int, ...], t: int) -> np.ndarray | None:
    """D[a, x]: layer t's straddling phase factors multiplied at joint member mode a and external basis state x.

    Both a and x read their particles in ascending order, the first most
    significant, on the axes of `paths.member_layout`, each gate's factor
    oriented by `paths.straddling_factor`. None when no gate of layer t
    couples a member to the external system.
    """
    _, axis = member_layout(circuit.particles, members)
    product = None
    for gate in circuit.layer(t).phases:
        a, b = gate.pair
        if (a in members) == (b in members):
            continue
        member, other, factor = straddling_factor(gate, members)
        shape = [1] * circuit.particles
        shape[axis[member]] = shape[axis[other]] = 2
        factor = factor.reshape(shape)
        product = factor if product is None else product * factor
    if product is None:
        return None
    return np.broadcast_to(product, (2,) * circuit.particles).reshape(1 << len(members), -1)


def _before_layer(circuit: Circuit, members: tuple[int, ...], t: int, states: np.ndarray) -> np.ndarray:
    """Rows of external states with layer t's external singles applied axis by axis."""
    external, _ = member_layout(circuit.particles, members)
    state = states.reshape((-1,) + (2,) * len(external))
    singles = circuit.layer(t).singles
    for axis, particle in enumerate(external, start=1):
        state = apply_single(state, axis, singles[particle])
    return state.reshape(states.shape)


def layer_hits(
    circuit: Circuit, t: int, states: np.ndarray | None
) -> Callable[[int, int], np.ndarray] | None:
    """Layer t's hits over every pair of (t-1)-mode prefixes of particle 0, as a function of the modes (a, b) at t.

    `hits(a, b)[k, l]` is the hit of the pair of prefixes k + a and l + b:
    sum_x conj(pre[k, x]) pre[l, x] (conj(D_a(x)) D_b(x) - 1), with `pre`
    the prefix tree's table t - 1 (`states`) just before the phase gates
    and D the straddling factors (`_straddle`). None when layer t has no
    straddling gate; `states` is read only when it has one.
    """
    factors = _straddle(circuit, (0,), t)
    if factors is None:
        return None
    pre = _before_layer(circuit, (0,), t, states)

    def hits(a: int, b: int) -> np.ndarray:
        return (pre.conj() * (factors[b] * factors[a].conj() - 1.0)) @ pre.T

    return hits


def _joint_mode(paths: Sequence[Path], t: int) -> int:
    """The members' modes after layer t as one index, first member most significant."""
    mode = 0
    for path in paths:
        mode = 2 * mode + path.mode(t)
    return mode


def hit(circuit: Circuit, subsystem: Sequence[int], p: Sequence[Path], q: Sequence[Path], t: int) -> complex:
    """Hit of information at layer t for the ordered pair of member path tuples (p, q).

    `p` and `q` hold one path per subsystem member, in ascending member
    order. The hit is sum_x conj(x_p) x_q (conj(D_a(x)) D_b(x) - 1): x_p is
    the external state conditioned on p through layer t - 1, with layer t's
    external singles applied, and a is p's joint member mode at t. Exactly
    0j when layer t has no straddling gate. Refuses the subsystem (0,) of
    three particles, whose hits are the cascade's.
    """
    members = _check_pair(circuit, subsystem, p, q)
    factors = _straddle(circuit, members, t)
    if factors is None:
        return 0j
    # one row each: a two-row product can round differently from the one-row products traces print
    x_p, x_q = (
        _before_layer(circuit, members, t, condition_on_paths(circuit, dict(zip(members, paths))).state(t - 1)[None])[0]
        for paths in (p, q)
    )
    diff = factors[_joint_mode(q, t)] * factors[_joint_mode(p, t)].conj() - 1.0
    return complex(np.sum(diff * x_p.conj() * x_q))


@dataclass(frozen=True)
class LambdaEntry:
    """Hidden-variable trajectory lambda^(0..n) and its per-layer hits."""

    trajectory: tuple[complex, ...]
    hits: tuple[complex, ...]

    @property
    def final(self) -> complex:
        return self.trajectory[-1]


def lambda_accumulate(circuit: Circuit, subsystem: Sequence[int], p: Sequence[Path], q: Sequence[Path]) -> LambdaEntry:
    """Full trajectory with lambda^(0) = 1 and one additive `hit` per layer, for one member path tuple pair."""
    _check_pair(circuit, subsystem, p, q)
    value = 1.0 + 0.0j
    trajectory = [value]
    hits = []
    for t in range(1, circuit.n + 1):
        increment = hit(circuit, subsystem, p, q, t)
        hits.append(increment)
        value = value + increment
        trajectory.append(value)
    return LambdaEntry(trajectory=tuple(trajectory), hits=tuple(hits))


def prefix_tree_charges(circuit: Circuit, layers: int | None = None) -> list[Charge]:
    """What `prefix_tree` charges over the first `layers` layers (default n).

    A stream over those layers holds lambda over 4^layers prefix pairs, and
    the tree's tables together hold under 2^(layers + 1) x 2^(N - 1)
    external amplitudes.
    """
    layers = circuit.n if layers is None else layers
    return [(4**layers, "path-pair table"), (1 << (layers + circuit.particles), "conditioned external states")]


def prefix_tree(
    circuit: Circuit, budget: int = DEFAULT_BUDGET, layers: int | None = None
) -> list[np.ndarray]:
    """Particle 0's conditioned prefix tree over the first `layers` layers (default n), charged first.

    Both `prefix_tree_charges` are checked before anything is built.
    """
    _require_stream(circuit)
    layers = circuit.n if layers is None else layers
    check_charges(prefix_tree_charges(circuit, layers), budget)
    head = Circuit(particles=circuit.particles, layers=circuit.layers[:layers])
    return conditioned_prefix_states(head, (0,))


def lambda_tables(
    circuit: Circuit, budget: int = DEFAULT_BUDGET, tree: list[np.ndarray] | None = None
) -> Iterator[np.ndarray]:
    """lambda^(t) over every pair of t-mode subsystem prefixes, for t = 0..n.

    Prefix indices encode modes most-significant-first, so a full path's row
    is its mode bitstring read as a binary number; paths ending at j occupy
    rows 2k + j with k the lexicographic enumeration index. Layer t repeats
    lambda^(t-1) over the new bit and adds the `layer_hits`. `tree` is the
    circuit's `prefix_tree`, already charged; the stream runs over as many
    layers as it has. Without one, the stream charges and builds the whole
    tree on the first `next()`. Each table is a fresh array, never written
    after it is yielded, so a caller that keeps only the last one holds at
    most two tables at a time.
    """
    tree = prefix_tree(circuit, budget) if tree is None else tree
    lam = np.ones((1, 1), dtype=complex)
    yield lam
    for t in range(1, len(tree)):
        lam = np.repeat(np.repeat(lam, 2, axis=0), 2, axis=1)
        hits = layer_hits(circuit, t, tree[t - 1])
        if hits is not None:
            for a in (0, 1):
                for b in (0, 1):
                    lam[a::2, b::2] += hits(a, b)
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
