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
`threeparticle`. `hit` evolves both states up to its one layer;
`lambda_accumulate` streams each side's states once, and charges what one
hit holds (`pair_charges`) before its first hit. `_before_layer` (the external
singles, axis by axis) and `_straddle` (the straddling factors D) remain
only as that reference's helpers. `lambda_tables` streams lambda^(t) of the
subsystem (0,) over every prefix pair, one layer at a time, beside particle
0's conditioned prefix-tree table t, which it grows one `paths.tree_step`
per layer: `layer_hits` reads each layer's pre-gate states and D off the
step that grew the table, so the stream rebuilds neither, and drops the
step before it yields. `verify` checks each streamed lambda against the
Gram matrix of the table beside it. The stream serves every particle count
but three.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .circuits import Circuit
from .common import DEFAULT_BUDGET, REALITY_TOL, Charge, LambdaBlock, RealityError, check_charges
from .paths import Path, TreeStep, apply_single, condition_on_paths, member_layout, normalize_subsystem
from .paths import straddling_factor, tree_root, tree_step


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


def layer_hits(step: TreeStep) -> Callable[[int, int], np.ndarray] | None:
    """A tree layer's hits over every pair of rows of its previous table, as a function of joint member modes (a, b).

    `hits(a, b)[k, l]` is the hit of the pair of prefixes k + a and l + b:
    sum_x conj(pre[k, x]) pre[l, x] (conj(D_a(x)) D_b(x) - 1), read off the
    tree's own step: `pre` the external states just before the layer's
    straddling gates, D their factors. None when the layer has no
    straddling gate.
    """
    pre, factors = step.pre, step.factors
    if factors is None:
        return None

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
    sides = (condition_on_paths(circuit, dict(zip(members, paths))).state(t - 1) for paths in (p, q))
    return _contract(circuit, members, t, p, q, sides)


def _contract(
    circuit: Circuit, members: tuple[int, ...], t: int, p: Sequence[Path], q: Sequence[Path], sides: Iterable[np.ndarray]
) -> complex:
    """The hit at layer t from p's and q's conditioned states after layer t - 1, read only past a straddling gate."""
    factors = _straddle(circuit, members, t)
    if factors is None:
        return 0j
    # one row each: a two-row product can round differently from the one-row products traces print
    x_p, x_q = (_before_layer(circuit, members, t, state[None])[0] for state in sides)
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


def pair_charges(circuit: Circuit, members: Sequence[int]) -> list[Charge]:
    """What one `hit` holds: the 2^N straddling factors D and two conditioned external states of 2^(N - M)."""
    return [
        (1 << circuit.particles, "straddling factor table"),
        (2 << (circuit.particles - len(members)), "conditioned external states"),
    ]


def lambda_accumulate(
    circuit: Circuit, subsystem: Sequence[int], p: Sequence[Path], q: Sequence[Path], budget: int = DEFAULT_BUDGET
) -> LambdaEntry:
    """Full trajectory with lambda^(0) = 1 and one additive `hit` per layer, for one member path tuple pair.

    The `pair_charges` are checked before the first hit. Each side's
    conditioned state is evolved once, so the walk is linear in n.
    """
    members = _check_pair(circuit, subsystem, p, q)
    check_charges(pair_charges(circuit, members), budget)
    sides = (condition_on_paths(circuit, dict(zip(members, paths))).states() for paths in (p, q))
    # the range ends first, so neither side builds its state after layer n
    hits = tuple(_contract(circuit, members, t, p, q, states) for t, *states in zip(range(1, circuit.n + 1), *sides))
    return LambdaEntry(trajectory=tuple(itertools.accumulate(hits, initial=1.0 + 0.0j)), hits=hits)


def prefix_tree_charges(circuit: Circuit, layers: int | None = None) -> list[Charge]:
    """What `lambda_tables` charges over the first `layers` layers (default n).

    The stream holds lambda over 4^layers prefix pairs, and its last two
    tree tables with one step's pre-gate states, at most 2^(layers + 1) x
    2^(N - 1) external amplitudes.
    """
    layers = circuit.n if layers is None else layers
    return [(4**layers, "path-pair table"), (1 << (layers + circuit.particles), "conditioned external states")]


def lambda_tables(
    circuit: Circuit, budget: int = DEFAULT_BUDGET, layers: int | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(lambda^(t), tree table t) of the subsystem (0,), for t = 0..`layers` (default n).

    lambda^(t) spans every pair of t-mode prefixes. Prefix indices encode
    modes most-significant-first, so a full path's row is its mode bitstring
    read as a binary number; paths ending at j occupy rows 2k + j with k the
    lexicographic enumeration index. Tree table t is particle 0's
    `paths.conditioned_prefix_state_layers` table t, grown here one
    `paths.tree_step` per layer. Layer t writes each new lambda table once:
    lambda^(t-1) plus the `layer_hits` of that step for one mode pair (a, b)
    into the strided view of rows 2k + a and columns 2l + b, or lambda^(t-1)
    alone at every (a, b) when the layer has no straddling gate. Both
    `prefix_tree_charges` are checked on the first `next()`, before anything
    is built. No array is written after it is yielded, and the step is
    dropped before its pair is yielded, so a caller that keeps only the last
    pair holds at most two of each table and one hit block at a time.
    """
    _require_stream(circuit)
    layers = circuit.n if layers is None else layers
    check_charges(prefix_tree_charges(circuit, layers), budget)
    lam, table = np.ones((1, 1), dtype=complex), tree_root(circuit, (0,))
    yield lam, table
    for t in range(1, layers + 1):
        step = tree_step(circuit, (0,), t, table)
        lam, table = _grown_table(lam, layer_hits(step)), step.grow()
        del step
        yield lam, table


def _grown_table(lam: np.ndarray, hits: Callable[[int, int], np.ndarray] | None) -> np.ndarray:
    """lambda^(t) from lambda^(t-1) and layer t's hits, each mode pair (a, b) written once into its strided view."""
    size = lam.shape[0]
    grown = np.empty((2 * size, 2 * size), dtype=complex)
    view = grown.reshape(size, 2, size, 2)
    if hits is None:
        view[...] = lam[:, None, :, None]
    else:
        for a in (0, 1):
            for b in (0, 1):
                np.add(lam, hits(a, b), out=view[:, a, :, b])
    return grown


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
