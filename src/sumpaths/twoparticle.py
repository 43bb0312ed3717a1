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
only as that reference's helpers. `tree_layers` streams the hits of any
member set but the (0,) of three particles, in the cascade's low-rank
`HitLayer` form, off the members' conditioned prefix tree, which it grows
one `paths.tree_step` per layer: each layer's hit is `tree_hit`, the
grown table added and the step's pre-gate states subtracted, so the stream
rebuilds neither, and drops the step before it yields. It yields each tree
table beside its layer's factors, for `verify`, which checks the lambda
they add up to against the Gram matrix of that table.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .circuits import Circuit
from .common import DEFAULT_BUDGET, REALITY_TOL, Charge, HitLayer, LambdaBlock, RealityError, check_charges
from .paths import Path, apply_single, condition_on_paths, member_layout, normalize_subsystem
from .paths import straddling_factor, tree_root, tree_step


def _check_pair(circuit: Circuit, subsystem: Sequence[int], p: Sequence[Path], q: Sequence[Path]) -> tuple[int, ...]:
    """The normalized members, once each member has one full-length path on both sides."""
    members = normalize_subsystem(circuit, subsystem)
    if members == (0,) and circuit.particles == 3:
        raise ValueError("the subsystem (0,) of three particles takes the cascade of the three-particle module")
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


def tree_hit_charges(circuit: Circuit, members: tuple[int, ...]) -> list[Charge]:
    """What `tree_layers` holds for the normalized `members`: the members' tree table and one step's pre-gate states.

    Each is charged 2^(Mn + N - M) external amplitudes, tree table n's size:
    the stream holds table t - 1, its step and table t while it makes layer
    t's factors.
    """
    size = len(members)
    states = 1 << (size * circuit.n + circuit.particles - size)
    return [(states, "conditioned external states"), (states, "pre-gate external states")]


@cache
def _signs(width: int) -> tuple[np.ndarray, np.ndarray]:
    """+1 and -1 over `width` external basis states, read-only."""
    plus, minus = np.ones(width), -np.ones(width)
    plus.flags.writeable = minus.flags.writeable = False
    return plus, minus


def tree_hit(grown: np.ndarray, pre: np.ndarray) -> HitLayer:
    """A tree layer's hit as two factors: (grown, +1) over the rows the layer grew, (pre, -1) over the rows it grew them from.

    Layer t's hit over the pair of rows ((k, a), (l, b)) is
    sum_x conj(pre[k, x]) pre[l, x] (conj(D_a(x)) D_b(x) - 1), with `pre`
    and D the step's pre-gate states and straddling factors. Row (k, a) of
    table t is pre[k] D[a], so the hit is table t's Gram matrix minus
    pre's, repeated over the new modes: each is one (side, signed) factor,
    and a side's row count names the depth of prefix it reads. The two are
    never joined: a joined side would repeat `pre` over every new mode.
    """
    plus, minus = _signs(pre.shape[1])
    return (grown, plus), (pre, minus)


def tree_layers(circuit: Circuit, members: tuple[int, ...]) -> Iterator[tuple[HitLayer, np.ndarray]]:
    """(layer t's hit factors, tree table t) for t = 1..n off the normalized `members`' prefix tree, one `paths.tree_step` each.

    The factors are `tree_hit` of the grown table and the step's pre-gate
    states; a layer without a straddling gate yields none, so its hit is an
    exact zero. Table t is `paths.conditioned_prefix_state_layers` table t.
    Each step is dropped before its layer is yielded, and no yielded array
    is written afterwards. Nothing is charged here: callers charge what
    they hold.
    """
    table = tree_root(circuit, members)
    for t in range(1, circuit.n + 1):
        step = tree_step(circuit, members, t, table)
        table = step.grow()
        hits = () if step.factors is None else tree_hit(table, step.pre)
        del step
        yield hits, table


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
