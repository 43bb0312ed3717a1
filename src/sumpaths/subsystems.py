"""Marginals of an M-particle subsystem of an N-particle circuit, by one hit stream and one streamed pair sum.

Subsystem paths are configuration-space paths (one single-particle path per
subsystem member). The hidden variable of an ordered pair of configuration
paths with equal endpoint tuples is the overlap of the conditioned external
evolutions. It starts at 1 and gains one hit per interaction layer, and
every subsystem's hits come in one low-rank form (`common.HitLayer`) from
one stream (`lambda_stream`): the paper's cascade
(`threeparticle.cascade_hits`) for the subsystem (0,) of three particles,
and the members' conditioned prefix tree (`twoparticle.tree_layers`) for
every other subsystem at every particle count. Layer t's tree hit is
(table t, +1) over t-mode rows and (the step's pre-gate states, -1) over
(t-1)-mode rows. Only the last layer decides where a path ends, so the
stream yields layers 1..n-1 whole and then each outcome's share of layer
n over its own (n-1)-mode rows: for the tree, the pre-gate states times
the outcome's straddling factors D[o] beside the pre-gate states, so table
n is never built; for the cascade, the rows side[o::2].
One pair's lambda, built up hit by hit, is
`twoparticle.lambda_accumulate`, the per-pair reference for every
subsystem.

Phase gates wholly inside the subsystem belong to the configuration
amplitude; gates wholly outside stay in the conditioned evolution; straddling
gates are conditioned on the subsystem path.

Two readers take the stream. `lambda_marginals`, behind `marginal`, sums
every outcome's pairs as the stream passes (`common.PairSums`) and keeps
no layer. `lambda_blocks`, behind `perturb`'s clamp alone, adds the
layers up to the dense lambda over n - 1 layers (`common.hit_tables`) and
each outcome's share of layer n to it, one outcome's block at a time.
"""
from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator, Sequence

import numpy as np

from .circuits import Circuit
from .common import DEFAULT_BUDGET, Charge, HitLayer, LambdaBlock, PairSums, check_charges, endpoint_shares, hit_tables
from .paths import normalize_subsystem, pair_phases, prefix_amplitudes, tree_root, tree_step
from .threeparticle import cascade_hit_charges, cascade_hits
from .twoparticle import tree_hit, tree_layers


def conditioned_charges(circuit: Circuit, particles: tuple[int, ...]) -> list[Charge]:
    """What the tree's stream holds for a normalized subsystem: three tables of external states, then the straddling factors.

    Table n - 1, layer n's pre-gate states and one outcome's share of layer
    n. Each has one row per (n-1)-mode configuration path prefix,
    2^(M(n-1)) of them, and one column per external basis state; the
    earlier tables and each layer's pre-gate states are smaller. Layer n's
    straddling factor table has one entry per joint basis state, 2^N; past
    n = 1 it is no larger than the tables, but at n = 1 it is 2^M times
    larger.
    """
    n, size = circuit.n, len(particles)
    states = 1 << (size * max(n - 1, 0) + circuit.particles - size)
    charges = [
        (states, "conditioned external states"),
        (states, "pre-gate external states"),
        (states, "one outcome's external states"),
    ]
    return charges + [(1 << circuit.particles, "straddling factor table")] if n else charges


def amplitude_charges(layers: int, size: int) -> list[Charge]:
    """What the pair sums read besides the stream: the joint path amplitudes of an M-member subsystem over `layers` layers, then their folds.

    `joint_amplitudes` holds 2^M outcomes of 2^(M(n-1)) paths each
    (2^(Mn) past n = 0), and `common.PairSums` folds them back to every
    shallower depth, fewer entries than the amplitudes themselves.
    """
    rows, outcomes = 1 << (size * max(layers - 1, 0)), 1 << size
    return [(outcomes * rows, "joint path amplitudes"), (outcomes * (rows - 1) // (outcomes - 1), "folded path amplitudes")]


def _takes_cascade(circuit: Circuit, particles: tuple[int, ...]) -> bool:
    """Whether the subsystem's hits come from the paper's cascade: the subsystem (0,) of three particles."""
    return circuit.particles == 3 and particles == (0,)


def lambda_charges(circuit: Circuit, particles: tuple[int, ...]) -> list[Charge]:
    """Every charge `lambda_stream` checks for a normalized subsystem: its producer's, then the amplitudes' its readers hold.

    `lambda_blocks` builds no folds, but their charge is below the
    amplitudes' and never stops it first.
    """
    stream = cascade_hit_charges(circuit) if _takes_cascade(circuit, particles) else conditioned_charges(circuit, particles)
    return stream + amplitude_charges(circuit.n, len(particles))


def dense_lambda_charges(circuit: Circuit, particles: tuple[int, ...]) -> list[Charge]:
    """What `lambda_blocks` adds for a normalized subsystem (`perturb`'s clamp): count^2 path pairs, count = 2^(M(n-1)).

    It holds lambda over the first n - 1 layers, one outcome's copy of it
    with layer n's share added, and the hit product being added, each over
    one outcome's count^2 pairs of configuration paths at most.
    """
    count = (1 << max(circuit.n - 1, 0)) ** len(particles)
    return [(count * count, "configuration path pairs")]


def lambda_stream(
    circuit: Circuit, particles: tuple[int, ...], budget: int = DEFAULT_BUDGET
) -> Iterator[tuple[int | None, HitLayer]]:
    """A normalized subsystem's hits: (None, layer t's factors) for t = 1..n-1, then (o, outcome o's share of layer n) for each outcome.

    Outcomes are indexed in `itertools.product((0, 1), repeat=M)` order, and
    a share's sides run over the outcome's (n-1)-mode rows. The cascade
    serves the subsystem (0,) of three particles, the members' prefix tree
    (`_tree_stream`) every other subsystem. Every `lambda_charges` charge
    is checked on the call, before anything is built. With no layers every
    outcome's share is empty.
    """
    check_charges(lambda_charges(circuit, particles), budget)
    n = circuit.n
    if _takes_cascade(circuit, particles):
        stream = _endpoint_last(cascade_hits(circuit, budget), n)
    else:
        stream = _tree_stream(circuit, particles)
    return stream if n else iter([(outcome, ()) for outcome in range(1 << len(particles))])


def _endpoint_last(layers: Iterable[HitLayer], n: int) -> Iterator[tuple[int | None, HitLayer]]:
    """A single particle's layers 1..n-1 whole, then each endpoint's share of layer n (`common.endpoint_shares`)."""
    for t, hits in enumerate(layers, start=1):
        if t < n:
            yield None, hits
        else:
            yield from enumerate(endpoint_shares(hits, n))


def _tree_stream(circuit: Circuit, particles: tuple[int, ...]) -> Iterator[tuple[int | None, HitLayer]]:
    """The prefix tree's layers 1..n-1 (`twoparticle.tree_layers`), then layer n taken once and shared out per outcome.

    Outcome o's share is `twoparticle.tree_hit` of its pre-gate states
    times D[o], the very products `TreeStep.grow` would make for its rows,
    beside the pre-gate states; with no straddling gate it is empty. Table
    n - 1 is dropped before any outcome's rows are built, and each
    outcome's rows are built only when it is reached.
    """
    n = circuit.n
    table = tree_root(circuit, particles)
    for hits, table in itertools.islice(tree_layers(circuit, particles), n - 1):
        yield None, hits
        del hits
    step = tree_step(circuit, particles, n, table)
    del table
    for outcome in range(1 << len(particles)):
        yield outcome, () if step.factors is None else tree_hit(step.pre * step.factors[outcome], step.pre)


def joint_amplitudes(circuit: Circuit, particles: tuple[int, ...]) -> np.ndarray:
    """Each outcome's configuration path amplitudes, indexed in `itertools.product((0, 1), repeat=M)` order.

    Row o holds outcome o's paths over their (n-1)-mode joint prefixes, first
    member most significant; with no layers the empty path ends at mode 0,
    so the all-zeros outcome holds 1 and every other outcome 0. A path's
    amplitude is the members' path amplitudes times the intra-subsystem
    phases. Past n = 1 the phases are multiplied in place
    into one tensor over (prefix, endpoint) per member, the bare amplitudes
    take them in place, and one copy reorders the tensor to (outcome,
    configuration path), so two 2^(Mn) tensors are alive at most. The
    multiplication order is fixed: it sets the last bits of every marginal.
    """
    n, size = circuit.n, len(particles)
    if n == 0:
        return np.eye(1 << size, 1, dtype=complex)
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
        return np.array(amplitudes)
    split = (1 << (n - 1), 2) * size  # each member's (n-1)-mode prefix, then its endpoint
    joint = functools.reduce(np.multiply.outer, amps).reshape(split)
    if pairs:
        intra = np.ones(split, dtype=complex)
        for a, b, factors in pairs:
            for offset, factor in enumerate(factors):
                if factor is not None:  # the prefix factor, then the last layer's
                    shape = [1] * len(split)
                    shape[2 * a + offset], shape[2 * b + offset] = factor.shape
                    intra *= factor.reshape(shape)
        joint *= intra
        del intra
    # endpoints first, copied C-contiguous: a strided row would round the dense pair sum differently
    order = tuple(range(1, len(split), 2)) + tuple(range(0, len(split), 2))
    return np.ascontiguousarray(joint.transpose(order)).reshape(1 << size, -1)


def lambda_marginals(
    circuit: Circuit, subsystem: Sequence[int], budget: int = DEFAULT_BUDGET
) -> dict[tuple[int, ...], float]:
    """{outcome: probability} for every subsystem outcome, in one pass of the subsystem's `lambda_stream`.

    The stream checks every charge before anything is built. The pair sums
    (`common.PairSums`) read each layer as it passes and keep none, so no
    lambda table is built. Outcomes come in
    `itertools.product((0, 1), repeat=M)` order.
    """
    particles = normalize_subsystem(circuit, subsystem)
    stream = lambda_stream(circuit, particles, budget)
    sums = PairSums(joint_amplitudes(circuit, particles), len(particles))
    for outcome, hits in stream:
        sums.read(hits, outcome)
        del hits  # the next layer or share is built without this one alive
    return dict(zip(itertools.product((0, 1), repeat=len(particles)), sums.totals.tolist()))


def lambda_blocks(
    circuit: Circuit, subsystem: Sequence[int], budget: int = DEFAULT_BUDGET
) -> Iterator[tuple[tuple[int, ...], LambdaBlock]]:
    """(outcome, block) with each outcome's dense lambda, for `perturb`'s clamp, off one pass of `lambda_stream`.

    lambda over the first n - 1 layers is added up as the stream passes
    (`common.hit_tables`); each outcome's block is a copy of it with the
    outcome's share of layer n added. The caller checks
    `dense_lambda_charges`; the stream checks its own before anything is
    built. Blocks come one at a time, so a caller that drops each before
    asking for the next holds one at a time.
    """
    particles = normalize_subsystem(circuit, subsystem)
    stream = lambda_stream(circuit, particles, budget)
    amplitudes = joint_amplitudes(circuit, particles)
    head = (hits for _, hits in itertools.islice(stream, max(circuit.n - 1, 0)))
    for lam in hit_tables(head, len(particles)):
        pass  # keeps only lambda over n - 1 layers
    outcomes = list(itertools.product((0, 1), repeat=len(particles)))
    for outcome, share in stream:
        block = lam.copy()
        for side, signed in share:
            block += (side.conj() * signed) @ side.T
        del share  # the next outcome's share is built without this one alive
        yield outcomes[outcome], LambdaBlock(amplitudes[outcome], block)
        del block
