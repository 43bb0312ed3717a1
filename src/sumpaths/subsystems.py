"""Marginals of an M-particle subsystem of an N-particle circuit.

Subsystem paths are configuration-space paths (one single-particle path per
subsystem member). The hidden variable of an ordered pair of configuration
paths with equal endpoint tuples is the overlap of the conditioned external
evolutions. Every outcome of a subsystem reads the same conditioned
evolution, so `conditioned_blocks` grows the prefix-shared evolution
`paths.conditioned_prefix_state_layers` once, to table n - 1, and yields
each outcome's overlaps as a Gram factor: that outcome's rows of the final
table, which layer n's tree step makes for it alone, since only the last
layer decides where a path ends. Their pair sum |S^T a|^2 needs no lambda
matrix. One pair's lambda, built up hit by hit, is
`twoparticle.lambda_accumulate`, the per-pair reference for every
subsystem.

Phase gates wholly inside the subsystem belong to the configuration
amplitude; gates wholly outside stay in the conditioned evolution; straddling
gates are conditioned on the subsystem path.

`lambda_blocks` is where every lambda marginal picks its route, written
once: `hit_blocks` for the subsystem (0,) at every particle count, and
`conditioned_blocks` for every other subsystem. Each yields (outcome,
block) pairs one at a time. The (0,) blocks hold every layer's hit as
low-rank factors and no lambda table: their pair sum costs 2^r per factor
column at layer r, where a dense hit costs 4^r. Only the producer of the
factors (`hit_stream`) depends on the particle count: the paper's cascade
(`threeparticle.cascade_hits`) for three particles, particle 0's prefix
tree (`twoparticle.tree_hits`) for every other count.
"""
from __future__ import annotations

import functools
import itertools
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .circuits import Circuit
from .common import DEFAULT_BUDGET, Charge, HitFactors, HitLayer, LambdaBlock, check_charges
from .paths import conditioned_prefix_state_layers, endpoint_rows, normalize_subsystem, pair_phases
from .paths import prefix_amplitudes, tree_root, tree_step
from .threeparticle import cascade_hit_charges, cascade_hits, hit_factor_charges
from .twoparticle import tree_factor_charges, tree_hit_charges, tree_hits, tree_layers


def conditioned_charges(circuit: Circuit, particles: tuple[int, ...]) -> list[Charge]:
    """What `conditioned_blocks` holds for a normalized subsystem: external states, straddling factors, amplitudes.

    Three tables of external states: the tree's table n - 1, layer n's
    pre-gate states and one outcome's rows of table n. Each has one row per
    (n-1)-mode configuration path prefix, 2^(M(n-1)) of them, and one column
    per external basis state. Layer n's straddling factor table has one
    entry per joint basis state, 2^N; past n = 1 it is no larger than the
    tables, but at n = 1 it is 2^M times larger. The amplitude tensor has
    one amplitude per configuration path, 2^(Mn). Every block is a view of
    the tensor and one outcome's rows, and no lambda or pair table is built.
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


def dense_lambda_charges(circuit: Circuit, particles: tuple[int, ...]) -> list[Charge]:
    """What reading `lam` off each `lambda_blocks` block adds for a normalized subsystem (`perturb`'s clamp).

    A block's `lam` materializes count^2 pairs, count = 2^(M(n-1))
    configuration paths per outcome, one block at a time. A Gram factor's
    block is its own; the subsystem (0,)'s blocks share lambda over the
    first n - 1 layers, 4^(n-1) pairs too, and each adds layer n's hit on
    its own rows (`common.HitFactors`).
    """
    count = (1 << max(circuit.n - 1, 0)) ** len(particles)
    return [(count * count, "configuration path pairs")]


def conditioned_blocks(
    circuit: Circuit, subsystem: Sequence[int], budget: int = DEFAULT_BUDGET
) -> Iterator[tuple[tuple[int, ...], LambdaBlock]]:
    """(outcome, block) for every subsystem outcome, all read off one conditioned prefix tree.

    An outcome's block is a Gram factor: the tree's final-table rows at its
    configuration paths, whose overlaps are its lambda. Only layer n decides
    the members' endpoints, so the tree grows to table n - 1 and takes layer
    n's `paths.tree_step` once: outcome o's rows are its pre-gate states
    times the straddling factors D[o], the very products `TreeStep.grow`
    makes for them, in configuration-path order; with no straddling gate
    they are the pre-gate states themselves. Table n is never built. The
    amplitudes (`_joint_amplitudes`) are built once, and each block holds a
    view of them. The budget is charged `conditioned_charges` before
    anything is built. Outcomes come in `itertools.product((0, 1),
    repeat=M)` order, each outcome's rows built only when it is reached, so
    a caller that drops each block before asking for the next holds one
    outcome's rows at a time.
    """
    particles = normalize_subsystem(circuit, subsystem)
    n, size = circuit.n, len(particles)
    check_charges(conditioned_charges(circuit, particles), budget)
    outcomes = itertools.product((0, 1), repeat=size)
    if n == 0:  # the empty path ends at mode 0: the all-zeros outcome reads the root, no other outcome has a path
        root = tree_root(circuit, particles)
        for outcome in outcomes:
            count = 0 if any(outcome) else 1
            yield outcome, LambdaBlock(amplitudes=np.ones(count, dtype=complex), factor=root[:count])
        return
    for table in itertools.islice(conditioned_prefix_state_layers(circuit, particles), n):
        pass  # keeps only table n - 1
    step = tree_step(circuit, particles, n, table)
    del table
    amplitudes = _joint_amplitudes(circuit, particles)
    for index, outcome in enumerate(outcomes):
        rows = step.pre if step.factors is None else step.pre * step.factors[index]
        yield outcome, LambdaBlock(amplitudes=amplitudes[index], factor=rows)
        del rows  # the next outcome's rows are built without these alive


def _joint_amplitudes(circuit: Circuit, particles: tuple[int, ...]) -> np.ndarray | list[np.ndarray]:
    """Each outcome's configuration path amplitudes, indexed in `itertools.product((0, 1), repeat=M)` order.

    A path's amplitude is the members' path amplitudes times the
    intra-subsystem phases. Past n = 1 the phases are multiplied in place
    into one tensor over (prefix, endpoint) per member, the bare amplitudes
    take them in place, and one copy reorders the tensor to (outcome,
    configuration path), so two 2^(Mn) tensors are alive at most. The
    multiplication order is fixed: it sets the last bits of every marginal.
    """
    n, size = circuit.n, len(particles)
    amps = [prefix_amplitudes(circuit, p) for p in particles]
    pairs = [
        (a, b, pair_phases(circuit, (particles[a], particles[b]))) for a, b in itertools.combinations(range(size), 2)
    ]
    if n == 1:
        # one configuration path per outcome; numpy rounds a one-element complex product
        # differently from a longer loop, so each outcome multiplies one-element arrays of its own
        amplitudes = []
        for outcome in itertools.product((0, 1), repeat=size):
            bare = functools.reduce(np.multiply.outer, [amp[j : j + 1] for amp, j in zip(amps, outcome)])
            intra = np.ones(bare.shape, dtype=complex)
            for a, b, (_, last) in pairs:
                if last is not None:
                    intra = intra * last[outcome[a], outcome[b]]
            amplitudes.append((bare * intra).reshape(-1))
        return amplitudes
    split = (1 << (n - 1), 2) * size  # each member's (n-1)-mode prefix, then its endpoint
    intra = np.ones(split, dtype=complex)
    for a, b, factors in pairs:
        for offset, factor in enumerate(factors):
            if factor is not None:  # the prefix factor, then the last layer's
                shape = [1] * len(split)
                shape[2 * a + offset], shape[2 * b + offset] = factor.shape
                intra *= factor.reshape(shape)
    joint = functools.reduce(np.multiply.outer, amps).reshape(split)
    joint *= intra
    del intra
    # endpoints first, copied C-contiguous: a strided row would round the dense pair sum differently
    order = tuple(range(1, len(split), 2)) + tuple(range(0, len(split), 2))
    return np.ascontiguousarray(joint.transpose(order)).reshape(1 << size, -1)


class HitStream(NamedTuple):
    """A producer of the subsystem (0,)'s per-layer hit factors, and what it and a reader that keeps them hold."""

    hits: Callable[[Circuit, int], Iterator[HitLayer]]  # checks `charges` on the call
    charges: Callable[[Circuit], list[Charge]]
    kept: Callable[[Circuit], list[Charge]]
    # (layer t's factors, particle 0's tree table t) for t = 1..n, for `verify`'s walk
    beside_tree: Callable[[Circuit, int], Iterator[tuple[HitLayer, np.ndarray]]]


def _cascade_beside_tree(circuit: Circuit, budget: int) -> Iterator[tuple[HitLayer, np.ndarray]]:
    """The cascade's factors zipped with particle 0's tree tables 1..n, since the cascade grows no tree.

    The factors are listed first, so the cascade's struck path weights and
    partner states are gone before the walk builds any lambda table.
    """
    tree = itertools.islice(conditioned_prefix_state_layers(circuit, (0,)), 1, None)
    return zip(list(cascade_hits(circuit, budget)), tree, strict=True)


def hit_stream(circuit: Circuit) -> HitStream:
    """The (0,) producer the particle count allows: the paper's cascade for three particles, particle 0's prefix tree otherwise.

    The tree's stream yields its own tables, so `verify`'s tree grows once.
    """
    if circuit.particles == 3:
        return HitStream(cascade_hits, cascade_hit_charges, hit_factor_charges, _cascade_beside_tree)
    return HitStream(tree_hits, tree_hit_charges, tree_factor_charges, tree_layers)


def hit_block_charges(circuit: Circuit) -> list[Charge]:
    """What `hit_blocks` adds to the stream's charges: the kept hit factors, then particle 0's 2^n path amplitudes.

    Past the last layer with a hit the stream holds nothing more, but each
    pair sum reads the amplitudes over every n-mode path, so a circuit with
    few early hits is stopped by its layer count.
    """
    return hit_stream(circuit).kept(circuit) + [(1 << circuit.n, "subsystem path amplitudes")]


def hit_blocks(circuit: Circuit, layers: Iterable[HitLayer]) -> Iterator[tuple[tuple[int, ...], LambdaBlock]]:
    """((j,), block) for both endpoints of particle 0, over every layer's hit factors.

    `layers` is what a `HitStream` yielded, or a list of it; each block
    holds them all (`HitFactors`, shared by both endpoints) with the rows of
    its endpoint's paths, and particle 0's path amplitudes at those rows.
    """
    hits = HitFactors(layers)
    amps = prefix_amplitudes(circuit, 0)
    for j in (0, 1):
        rows = endpoint_rows(circuit.n, j)
        yield (j,), LambdaBlock(amps[rows], hits=hits, rows=rows)


def lambda_blocks(
    circuit: Circuit, subsystem: Sequence[int], budget: int
) -> Iterator[tuple[tuple[int, ...], LambdaBlock]]:
    """(outcome, block) for every subsystem outcome, by the route the subsystem takes.

    The subsystem (0,) gets `hit_blocks` over its `hit_stream`, at every
    particle count: the stream checks its own charges, then the kept factors
    and amplitudes are checked (`hit_block_charges`), all before the first
    layer is built, and no lambda table is built until a block's `lam` is
    read. Every other subsystem gets `conditioned_blocks`, whose Gram-factor
    blocks hold no lambda until one is read. Blocks are yielded one at a
    time, so a caller that drops each before asking for the next holds one
    dense lambda at a time.
    """
    particles = normalize_subsystem(circuit, subsystem)
    if particles != (0,):
        yield from conditioned_blocks(circuit, particles, budget)
        return
    layers = hit_stream(circuit).hits(circuit, budget)
    check_charges(hit_block_charges(circuit), budget)
    yield from hit_blocks(circuit, layers)
