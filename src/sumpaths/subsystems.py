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
(t-1)-mode rows. A pair of paths gains a hit only where the two meet an
interaction differently, and two paths that end at the same outcome meet
every gate of the last layer the same way: layer n's hit on them is
sum_x conj(pre_k) pre_l (|D_o(x)|^2 - 1) = 0. So the stream yields layers
1..n-1 and stops, and neither the cascade nor the tree builds layer n.
One pair's lambda, built up hit by hit, is
`twoparticle.lambda_accumulate`, the per-pair reference for every
subsystem.

Phase gates wholly inside the subsystem belong to the configuration
amplitude; gates wholly outside stay in the conditioned evolution; straddling
gates are conditioned on the subsystem path.

Two readers take the stream. `lambda_marginals`, behind `marginal`, sums
every outcome's pairs as the stream passes (`common.PairSums`) and keeps
no layer. `lambda_blocks`, behind `perturb`'s clamp alone, adds the
layers up to the dense lambda over n - 1 layers (`common.hit_tables`),
which every outcome's block shares.
"""
from __future__ import annotations

import functools
import itertools
from typing import Iterator, Sequence

import numpy as np

from .circuits import Circuit
from .common import DEFAULT_BUDGET, Charge, HitLayer, LambdaBlock, PairSums, check_charges, hit_tables
from .paths import normalize_subsystem, pair_phases, prefix_amplitudes
from .threeparticle import cascade_hit_charges, cascade_hits
from .twoparticle import tree_hit_charges, tree_layers


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


def _head(circuit: Circuit) -> Circuit:
    """The circuit without its last layer: the layers whose hits a pair of paths that end together can read."""
    return Circuit(particles=circuit.particles, layers=circuit.layers[: max(circuit.n - 1, 0)])


def lambda_charges(circuit: Circuit, particles: tuple[int, ...]) -> list[Charge]:
    """Every charge `lambda_stream` checks for a normalized subsystem: its producer's over layers 1..n-1, then the amplitudes' its readers hold.

    The producer runs on the circuit without its last layer: the cascade's
    struck path weights and partner states through its last hit layer
    there, or the tree's table n - 1 and pre-gate states
    (`twoparticle.tree_hit_charges`), 2^(M(n-1) + N - M) each. Layer n - 1's
    straddling factor table, 2^N entries, is never larger than table n - 1.
    `lambda_blocks` builds no folds, but their charge is below the
    amplitudes' and never stops it first.
    """
    head = _head(circuit)
    stream = cascade_hit_charges(head) if _takes_cascade(circuit, particles) else tree_hit_charges(head, particles)
    return stream + amplitude_charges(circuit.n, len(particles))


def dense_lambda_charges(circuit: Circuit, particles: tuple[int, ...]) -> list[Charge]:
    """What `lambda_blocks` adds for a normalized subsystem (`perturb`'s clamp): count^2 path pairs, count = 2^(M(n-1)).

    It holds lambda over the first n - 1 layers, which every outcome's
    block shares, and the hit product being added to it, each over count^2
    pairs of (n-1)-mode configuration path prefixes at most.
    """
    count = (1 << max(circuit.n - 1, 0)) ** len(particles)
    return [(count * count, "configuration path pairs")]


def lambda_stream(circuit: Circuit, particles: tuple[int, ...], budget: int = DEFAULT_BUDGET) -> Iterator[HitLayer]:
    """A normalized subsystem's hits: layer t's factors for t = 1..n-1, and nothing of layer n.

    Layer n's hit is exactly zero on every pair of paths that end at the
    same outcome, since there both paths meet each of its gates in the same
    mode, so no pair sum reads it. The cascade serves the subsystem (0,) of
    three particles, the members' prefix tree (`twoparticle.tree_layers`)
    every other subsystem, each run on the circuit without its last layer.
    Every `lambda_charges` charge is checked on the call, before anything
    is built.
    """
    check_charges(lambda_charges(circuit, particles), budget)
    head = _head(circuit)
    if _takes_cascade(circuit, particles):
        return cascade_hits(head, budget)
    return (hits for hits, _ in tree_layers(head, particles))


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
    for hits in stream:
        sums.read(hits)
        del hits  # the next layer is built without this one alive
    return dict(zip(itertools.product((0, 1), repeat=len(particles)), sums.totals.tolist()))


def lambda_blocks(
    circuit: Circuit, subsystem: Sequence[int], budget: int = DEFAULT_BUDGET
) -> Iterator[tuple[tuple[int, ...], LambdaBlock]]:
    """(outcome, block) for `perturb`'s clamp: each outcome's amplitudes beside one lambda, over n - 1 layers, that every block shares.

    lambda is added up as `lambda_stream` passes (`common.hit_tables`), and
    no outcome gets a copy of it: layer n adds nothing on the pairs of
    paths that end together. The caller checks `dense_lambda_charges`; the
    stream checks its own before anything is built.
    """
    particles = normalize_subsystem(circuit, subsystem)
    stream = lambda_stream(circuit, particles, budget)
    amplitudes = joint_amplitudes(circuit, particles)
    for lam in hit_tables(stream, len(particles)):
        pass  # keeps only lambda over n - 1 layers
    for outcome, row in zip(itertools.product((0, 1), repeat=len(particles)), amplitudes):
        yield outcome, LambdaBlock(row, lam)
