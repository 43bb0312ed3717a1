"""Marginals of an M-particle subsystem of an N-particle circuit.

Subsystem paths are configuration-space paths (one single-particle path per
subsystem member). The hidden variable of an ordered pair of configuration
paths with equal endpoint tuples is the overlap of the conditioned external
evolutions. Every outcome of a subsystem reads the same conditioned
evolution, so `conditioned_blocks` builds the prefix-shared evolution
`paths.conditioned_prefix_states` once and yields each outcome's overlaps as
a Gram factor: that outcome's rows of the final table, whose pair sum
|S^T a|^2 needs no lambda matrix. One pair's lambda, built up hit by hit,
is `twoparticle.lambda_accumulate`, the per-pair reference for every
subsystem.

Phase gates wholly inside the subsystem belong to the configuration
amplitude; gates wholly outside stay in the conditioned evolution; straddling
gates are conditioned on the subsystem path.

`lambda_blocks` is where every lambda marginal picks its route, written
once: the cascade for the subsystem (0,) of three particles, the hit stream
for (0,) at every other particle count, and `conditioned_blocks` for every
other subsystem. Each yields (outcome, block) pairs one at a time.
"""
from __future__ import annotations

import functools
import itertools
from typing import Iterator, Sequence

import numpy as np

from .circuits import Circuit
from .common import DEFAULT_BUDGET, Charge, LambdaBlock, check_charges
from .paths import conditioned_prefix_states, endpoint_rows, normalize_subsystem, pair_phases, prefix_amplitudes
from .threeparticle import lambda3_tables
from .twoparticle import lambda_tables, layer_hits, prefix_tree


def conditioned_charges(circuit: Circuit, particles: tuple[int, ...]) -> list[Charge]:
    """What `conditioned_blocks` charges for a normalized subsystem: one outcome's lambda pairs, then the tree's final table.

    The pairs are the ceiling a dense lambda would need. The blocks hold Gram
    factors and build no pair table, but the charge stays, so no exit-3
    point moves.
    """
    n, size = circuit.n, len(particles)
    count = (1 << max(n - 1, 0)) ** size
    return [
        (count * count, "configuration path pairs"),
        (1 << (size * n + circuit.particles - size), "conditioned external states"),
    ]


def conditioned_blocks(
    circuit: Circuit, subsystem: Sequence[int], budget: int = DEFAULT_BUDGET
) -> Iterator[tuple[tuple[int, ...], LambdaBlock]]:
    """(outcome, block) for every subsystem outcome, all read off one conditioned prefix tree.

    An outcome's block is a Gram factor: the tree's final-table rows at its
    configuration paths, whose overlaps are its lambda. Its amplitudes are
    the members' path amplitudes times the intra-subsystem phases. The
    final table and the joint amplitude tensor are each built once and
    reordered once to (outcome, configuration path), so every block holds
    views and no outcome allocates anything of its own (past n = 1; below,
    an outcome has at most one path). The budget is
    charged `conditioned_charges` before anything is built. Outcomes come in
    `itertools.product((0, 1), repeat=M)` order.
    """
    particles = normalize_subsystem(circuit, subsystem)
    n, size = circuit.n, len(particles)
    check_charges(conditioned_charges(circuit, particles), budget)
    (states,) = conditioned_prefix_states(circuit, particles, first=n)  # the final table only
    outcomes = itertools.product((0, 1), repeat=size)
    amps = [prefix_amplitudes(circuit, p) for p in particles]
    pairs = [
        (a, b, pair_phases(circuit, (particles[a], particles[b]))) for a, b in itertools.combinations(range(size), 2)
    ]
    if n <= 1:
        # at most one configuration path per outcome (none at n = 0 once the outcome
        # has a 1); numpy rounds a one-element complex product differently from a
        # longer loop, so each outcome multiplies one-element arrays of its own
        for index, outcome in enumerate(outcomes):
            bare = functools.reduce(np.multiply.outer, [amp[j : j + 1] for amp, j in zip(amps, outcome)])
            intra = np.ones(bare.shape, dtype=complex)
            for a, b, (_, last) in pairs:
                if last is not None:
                    intra = intra * last[outcome[a], outcome[b]]
            yield outcome, LambdaBlock(amplitudes=(bare * intra).reshape(-1), factor=states[index : index + 1])
        return
    split = (1 << (n - 1), 2) * size  # each member's (n-1)-mode prefix, then its endpoint
    bare = functools.reduce(np.multiply.outer, amps)
    intra = np.ones(split, dtype=complex)
    for a, b, factors in pairs:
        for offset, factor in enumerate(factors):
            if factor is not None:  # the prefix factor, then the last layer's
                shape = [1] * len(split)
                shape[2 * a + offset], shape[2 * b + offset] = factor.shape
                intra = intra * factor.reshape(shape)
    # endpoints first, copied C-contiguous: a strided row would round the dense pair sum differently
    order = tuple(range(1, len(split), 2)) + tuple(range(0, len(split), 2))
    amplitudes = np.ascontiguousarray((bare.reshape(split) * intra).transpose(order)).reshape(1 << size, -1)
    external = 1 << (circuit.particles - size)
    states = np.ascontiguousarray(states.reshape(split + (external,)).transpose(order + (len(split),)))
    states = states.reshape(1 << size, -1, external)
    for index, outcome in enumerate(outcomes):
        yield outcome, LambdaBlock(amplitudes=amplitudes[index], factor=states[index])


def table_blocks(
    circuit: Circuit, lam: np.ndarray, tree: list[np.ndarray] | None = None
) -> Iterator[tuple[tuple[int, ...], LambdaBlock]]:
    """((j,), block) for both endpoints of particle 0, read off a lambda table over t-mode prefixes.

    `lam` is the circuit's final lambda table (t = n) or the table one layer
    short (t = n - 1). Then endpoint j's block is that table plus layer n's
    hit between two prefixes that both move to j, with each prefix amplitude
    times the last single's element from its mode to j: bit-identical to the
    final table's rows and columns that end at j. The hit reads the prefix
    tree's table n - 1 off `tree`; a last layer with no gate on particle 0
    adds none, so then the block is `lam` itself and no tree is needed.
    """
    t = lam.shape[0].bit_length() - 1
    amps = prefix_amplitudes(circuit, 0, upto=t)
    if t == circuit.n:
        for j in (0, 1):
            rows = endpoint_rows(t, j)
            yield (j,), LambdaBlock(amps[rows], lam[np.ix_(rows, rows)])
        return
    hits = layer_hits(circuit, circuit.n, None if tree is None else tree[t])
    for j in (0, 1):
        block = lam
        if hits is not None:
            block = hits(j, j)
            block += lam
        yield (j,), LambdaBlock(amps * circuit.single(circuit.n, 0)[j, np.arange(amps.size) % 2], block)
        del block  # the next endpoint's block is built without this one alive


def lambda_blocks(
    circuit: Circuit, subsystem: Sequence[int], budget: int
) -> Iterator[tuple[tuple[int, ...], LambdaBlock]]:
    """(outcome, block) for every subsystem outcome, by the route the particle count allows.

    The subsystem (0,) of three particles reads its two blocks off the last
    table of the cascade. At any other particle count it streams the hits
    over the first n - 1 layers (charged 4^(n-1)), and `table_blocks` folds
    layer n into both endpoint blocks. Every other subsystem gets
    `conditioned_blocks`, whose Gram-factor blocks hold no lambda until one
    is read. Blocks are yielded one at a time, so a caller that drops each
    before asking for the next holds one dense lambda at a time.
    """
    particles = normalize_subsystem(circuit, subsystem)
    if particles != (0,):
        yield from conditioned_blocks(circuit, particles, budget)
        return
    if circuit.particles == 3:
        tree, tables = None, lambda3_tables(circuit, budget)
    else:
        tree = prefix_tree(circuit, budget, layers=max(circuit.n - 1, 0))
        tables = lambda_tables(circuit, tree=tree)
    for lam in tables:  # keeps only the last table
        pass
    yield from table_blocks(circuit, lam, tree)
