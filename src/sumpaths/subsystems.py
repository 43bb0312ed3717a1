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
once: the cascade for the subsystem (0,) of three particles, the hit stream
for (0,) at every other particle count, and `conditioned_blocks` for every
other subsystem. Each yields (outcome, block) pairs one at a time. The
cascade's blocks (`cascade_blocks`) hold every layer's hit as low-rank
factors and no lambda table: their pair sum costs 2^r per factor column at
layer r, where a dense hit costs 4^r. The hit stream's last layer is folded
into the endpoint blocks by `table_blocks`, which takes that layer's tree
step from the tree table the stream yields last.
"""
from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator, Sequence

import numpy as np

from .circuits import Circuit
from .common import DEFAULT_BUDGET, Charge, LambdaBlock, check_charges
from .paths import conditioned_prefix_state_layers, endpoint_rows, normalize_subsystem, pair_phases
from .paths import prefix_amplitudes, tree_root, tree_step
from .threeparticle import CascadeHits, HitLayer, cascade_hits, hit_factor_charges
from .twoparticle import lambda_tables, layer_hits


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

    The hit stream of the subsystem (0,) holds its lambda dense and charges
    it itself. The cascade's blocks hold hit factors, whose `lam` is read off
    the final table they add up to, 4^n path pairs, built once for both
    endpoints. Every other block is a Gram factor, whose `lam` materializes
    count^2 pairs, count = 2^(M(n-1)) configuration paths per outcome, one
    block at a time.
    """
    if particles == (0,):
        return [(4**circuit.n, "path-pair table")] if circuit.particles == 3 else []
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


def table_blocks(
    circuit: Circuit, lam: np.ndarray, table: np.ndarray | None = None
) -> Iterator[tuple[tuple[int, ...], LambdaBlock]]:
    """((j,), block) for both endpoints of particle 0, read off a lambda table over t-mode prefixes.

    `lam` is the circuit's final lambda table (t = n) or the table one layer
    short (t = n - 1). Then endpoint j's block is that table plus layer n's
    hit between two prefixes that both move to j, with each prefix amplitude
    times the last single's element from its mode to j: bit-identical to the
    final table's rows and columns that end at j. The hit reads layer n's
    `paths.tree_step`, taken from the prefix tree's table n - 1 (`table`);
    a last layer with no gate on particle 0 adds none, so then the block is
    `lam` itself and no table is needed.
    """
    t = lam.shape[0].bit_length() - 1
    amps = prefix_amplitudes(circuit, 0, upto=t)
    if t == circuit.n:
        for j in (0, 1):
            rows = endpoint_rows(t, j)
            yield (j,), LambdaBlock(amps[rows], lam[np.ix_(rows, rows)])
        return
    hits = None
    if any(0 in gate.pair for gate in circuit.layer(circuit.n).phases):
        if table is None:
            raise ValueError("folding a last layer with a gate on particle 0 needs the prefix tree's table n - 1")
        hits = layer_hits(tree_step(circuit, (0,), circuit.n, table))
    for j in (0, 1):
        block = lam
        if hits is not None:
            block = hits(j, j)
            block += lam
        yield (j,), LambdaBlock(amps * circuit.single(circuit.n, 0)[j, np.arange(amps.size) % 2], block)
        del block  # the next endpoint's block is built without this one alive


def cascade_block_charges(circuit: Circuit) -> list[Charge]:
    """What the cascade's blocks add to the stream's charges: the kept hit factors, then the 2^n path amplitudes.

    The stream itself is charged `threeparticle.cascade_hit_charges`. Past
    the last hit layer h the stream holds nothing more, but each pair
    sum reads the amplitudes over every n-mode path, so a circuit with few
    early hits is stopped by its layer count, not by 4^h.
    """
    return hit_factor_charges(circuit) + [(1 << circuit.n, "subsystem path amplitudes")]


def cascade_blocks(circuit: Circuit, layers: Iterable[HitLayer]) -> Iterator[tuple[tuple[int, ...], LambdaBlock]]:
    """((j,), block) for both endpoints of particle 0 of three particles, over every layer's hit factors.

    `layers` is `threeparticle.cascade_hits` of the circuit, or a list of
    what it yielded; each block holds them all (`CascadeHits`, shared by both
    endpoints) with the rows of its endpoint's paths, and particle 0's path
    amplitudes at those rows.
    """
    hits = CascadeHits(layers)
    amps = prefix_amplitudes(circuit, 0)
    for j in (0, 1):
        rows = endpoint_rows(circuit.n, j)
        yield (j,), LambdaBlock(amps[rows], hits=hits, rows=rows)


def lambda_blocks(
    circuit: Circuit, subsystem: Sequence[int], budget: int
) -> Iterator[tuple[tuple[int, ...], LambdaBlock]]:
    """(outcome, block) for every subsystem outcome, by the route the particle count allows.

    The subsystem (0,) of three particles gets `cascade_blocks`, which hold
    the cascade's hit factors, charged the stream's charges and
    `cascade_block_charges`, and no lambda table until one is read. At any
    other particle count it streams the hits over the first n - 1 layers
    (charged 4^(n-1)), and `table_blocks` folds layer n into both endpoint
    blocks from the last tree table it yields. Every other subsystem gets
    `conditioned_blocks`, whose Gram-factor blocks hold no lambda until one
    is read. Blocks are yielded one at a time, so a caller that drops each
    before asking for the next holds one dense lambda at a time.
    """
    particles = normalize_subsystem(circuit, subsystem)
    if particles != (0,):
        yield from conditioned_blocks(circuit, particles, budget)
        return
    if circuit.particles == 3:
        layers = cascade_hits(circuit, budget)  # checks the stream's charges
        check_charges(cascade_block_charges(circuit), budget)
        yield from cascade_blocks(circuit, layers)
        return
    for lam, table in lambda_tables(circuit, budget, layers=max(circuit.n - 1, 0)):  # keeps only the last pair
        pass
    yield from table_blocks(circuit, lam, table)
