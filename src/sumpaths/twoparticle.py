"""The hit stream of the subsystem (0,): per-layer hits of information and path-pair hidden variables.

The subsystem is particle 0; every other particle is external. For an
ordered pair of subsystem paths (P, Q) sharing an endpoint, the hidden
variable lambda is the overlap of the external evolutions conditioned on P
and on Q. It starts at 1 and is updated additively by one hit per
interaction layer, however many external particles there are:

    lambda^(t) = lambda^(t-1) + H^(t)

where H^(t) contracts the conditioned external states just before the
layer-t phase gates with the conditioned phase difference of the layer's
straddling (0, j) gates. External-only gates cancel in the contraction, so
they drop out, and layers without a straddling gate contribute an exact
zero (no arithmetic is performed, so the zero is bit-exact). The subsystem
marginal is then the classical sum over path probabilities plus the
lambda-weighted interference of distinct pairs.

This serves every particle count but three, whose lambda route is the
paper's cascade in `threeparticle`. `lambda_tables` streams lambda^(t) over
every prefix pair, one layer at a time, reading the conditioned external
states of every prefix from one `prefix_tree`; `verify` checks each
streamed table against the Gram matrix of those states. `hit` and
`lambda_accumulate` evolve one path's state by `condition_on_paths` and stay
the per-pair reference.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .circuits import Circuit
from .common import DEFAULT_BUDGET, REALITY_TOL, Charge, LambdaBlock, RealityError, check_charges
from .paths import Path, apply_single, condition_on_paths, conditioned_prefix_states


def _require_stream(circuit: Circuit) -> None:
    if circuit.particles < 2 or circuit.particles == 3:
        raise ValueError(
            "the hit stream needs 2 or at least 4 particles; "
            "three particles use the cascade of the three-particle module"
        )


def _check_pair(circuit: Circuit, p: Path, q: Path) -> None:
    if p.n != circuit.n or q.n != circuit.n:
        raise ValueError("paths must span every circuit layer")


def _straddle(circuit: Circuit, t: int) -> np.ndarray | None:
    """D[a, x]: layer t's (0, j) phase factors multiplied at subsystem mode a and external basis state x.

    None when no gate of layer t couples particle 0 to the external system.
    """
    width = circuit.particles - 1
    product = None
    for gate in circuit.layer(t).phases:
        if gate.pair[0] == 0:
            shape = [2] + [1] * width
            shape[gate.pair[1]] = 2
            factor = gate.diagonal().reshape(shape)
            product = factor if product is None else product * factor
    return None if product is None else np.broadcast_to(product, (2,) * (width + 1)).reshape(2, -1)


def _before_layer(circuit: Circuit, t: int, states: np.ndarray) -> np.ndarray:
    """Rows of external states with layer t's external singles applied axis by axis."""
    state = states.reshape((-1,) + (2,) * (circuit.particles - 1))
    for axis, gate in enumerate(circuit.layer(t).singles[1:], start=1):
        state = apply_single(state, axis, gate)
    return state.reshape(states.shape)


def layer_hits(
    circuit: Circuit, t: int, states: np.ndarray | None
) -> Callable[[int, int], np.ndarray] | None:
    """Layer t's hits over every pair of (t-1)-mode prefixes, as a function of the modes (a, b) at t.

    `hits(a, b)[k, l]` is the hit of the pair of prefixes k + a and l + b:
    sum_x conj(pre[k, x]) pre[l, x] (conj(D_a(x)) D_b(x) - 1), with `pre`
    the prefix tree's table t - 1 (`states`) just before the phase gates
    and D the straddling factors (`_straddle`). None when layer t has no
    straddling gate; `states` is read only when it has one.
    """
    factors = _straddle(circuit, t)
    if factors is None:
        return None
    pre = _before_layer(circuit, t, states)

    def hits(a: int, b: int) -> np.ndarray:
        return (pre.conj() * (factors[b] * factors[a].conj() - 1.0)) @ pre.T

    return hits


def hit(circuit: Circuit, p: Path, q: Path, t: int) -> complex:
    """Hit of information for the ordered path pair (p, q) at layer t."""
    _require_stream(circuit)
    _check_pair(circuit, p, q)
    factors = _straddle(circuit, t)
    if factors is None:
        return 0j
    # one row each: a two-row product can round differently from the one-row products traces print
    x_p, x_q = (
        _before_layer(circuit, t, condition_on_paths(circuit, {0: path}).state(upto=t - 1)[None])[0]
        for path in (p, q)
    )
    diff = factors[q.mode(t)] * factors[p.mode(t)].conj() - 1.0
    return complex(np.sum(diff * x_p.conj() * x_q))


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
    _require_stream(circuit)
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
