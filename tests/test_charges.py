"""Every budget charge names a structure its route holds: traced peaks stay within a fixed multiple of the charges.

Each charged builder runs under tracemalloc on hypothesis circuits of fixed
sizes whose charges sum to about 2^16-2^20 entries, where the tables dwarf
the slack. The sizes are listed rather than derived from the charges, so a
charge that drops a structure fails here instead of sizing a run past the
machine. The peak, above what was traced when the build started, must stay
within FACTOR x (the sum of the charges x 16 B) + SLACK. A charge that counts
work no code does still passes; a route that holds more than its charges
say does not.
"""
from __future__ import annotations

import tracemalloc
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumpaths.circuits import Circuit
from sumpaths.common import BudgetExceeded
from sumpaths.corpus import random_circuit
from sumpaths.density import density_charges, density_report
from sumpaths.oracle import oracle_charges, states
from sumpaths.paths import amplitudes_via_paths, member_paths_at, pathsum_charges
from sumpaths.subsystems import cascade_block_charges, conditioned_blocks, conditioned_charges, lambda_blocks
from sumpaths.threeparticle import cascade_charges, cascade_hit_charges, lambda3_tables
from sumpaths.twoparticle import lambda_accumulate, lambda_tables, pair_charges, prefix_tree_charges
from sumpaths.verify import verify_charges, verify_circuit

# A builder holds its tables while it makes the next one, and copies some once
# (the reordered blocks, the step beside its table): peaks read up to about 2.5x.
FACTOR = 3
ENTRY = 16  # bytes per complex entry
SLACK = 256 * 1024  # numpy's ufunc buffers, index arrays and the Python objects a build makes
BUDGET = 1 << 40  # no charge may stop a build; the gate reads the charges itself

# (particles, layers) per builder; conditioned_blocks draws layers by (particles, subsystem size)
SIZES = {
    "amplitudes_via_paths": [(1, 17), (1, 18), (2, 9), (2, 10), (3, 8), (3, 9), (4, 6), (4, 7), (5, 5), (6, 4)],
    "lambda_tables": [(2, 8), (2, 9), (4, 8), (4, 9), (5, 8), (5, 9), (6, 8), (6, 9)],
    "lambda3_tables": [(3, 7), (3, 8), (3, 9)],
    "cascade_blocks": [(3, 7), (3, 8), (3, 9)],
    "density_report": [(2, 16), (2, 17)],
    "lambda_accumulate": [(15, 3), (16, 2), (17, 3), (18, 2), (19, 1)],
    "states": [(14, 2), (15, 2), (16, 2), (17, 1), (18, 1)],
}
BLOCK_LAYERS = {
    (2, 1): 16, (3, 1): 15, (3, 2): 8, (4, 1): 14, (4, 2): 7, (4, 3): 5, (5, 1): 13, (5, 2): 7,
    (5, 3): 5, (5, 4): 4, (6, 1): 12, (6, 2): 6, (6, 3): 4, (6, 4): 3, (6, 5): 3,
}  # the most layers whose charges stay within 2^18 entries; one fewer is drawn too


def _stream(circuit: Circuit, subsystem: tuple[int, ...]) -> None:
    for _ in lambda_tables(circuit, BUDGET):  # keeps only the last pair, as `lambda_blocks` does
        pass


def _cascade(circuit: Circuit, subsystem: tuple[int, ...]) -> None:
    for _ in lambda3_tables(circuit, BUDGET):
        pass


def _factored(circuit: Circuit, subsystem: tuple[int, ...]) -> None:
    for _, block in lambda_blocks(circuit, subsystem, BUDGET):  # the (0,) marginal of three particles
        block.marginal()


def _oracle(circuit: Circuit, subsystem: tuple[int, ...]) -> None:
    for _ in states(circuit, budget=BUDGET):  # keeps only the last state, as `evolve` does
        pass


def _pair_reference(circuit: Circuit, subsystem: tuple[int, ...]) -> None:
    last = (1 << max(circuit.n - 1, 0)) ** len(subsystem) - 1
    p, q = (member_paths_at(circuit.n, (0,) * len(subsystem), index) for index in (0, last))
    lambda_accumulate(circuit, subsystem, p, q, BUDGET)


def _blocks(circuit: Circuit, subsystem: tuple[int, ...]) -> None:
    for _, block in conditioned_blocks(circuit, subsystem, BUDGET):
        block.marginal()


# name: (charges, build)
BUILDERS: dict[str, tuple[Callable, Callable]] = {
    "amplitudes_via_paths": (lambda c, s: pathsum_charges(c), lambda c, s: amplitudes_via_paths(c, BUDGET)),
    "conditioned_blocks": (conditioned_charges, _blocks),
    "lambda_tables": (lambda c, s: prefix_tree_charges(c), _stream),
    "lambda3_tables": (lambda c, s: cascade_charges(c), _cascade),
    "cascade_blocks": (lambda c, s: cascade_hit_charges(c) + cascade_block_charges(c), _factored),
    "density_report": (lambda c, s: density_charges(c), lambda c, s: density_report(c, BUDGET)),
    "lambda_accumulate": (pair_charges, _pair_reference),
    "states": (lambda c, s: oracle_charges(c), _oracle),
}


def traced_peak(build: Callable[[], object]) -> int:
    """Bytes tracemalloc saw at its peak during `build()`, above what was traced when it started."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        build()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", sorted(BUILDERS))
@settings(max_examples=16, deadline=None, derandomize=True)
@given(data=st.data())
def test_each_builder_holds_at_most_a_fixed_multiple_of_its_charges(name, data):
    charges, build = BUILDERS[name]
    if name == "conditioned_blocks":
        particles, size = data.draw(st.sampled_from(sorted(BLOCK_LAYERS)))
        subsystem = tuple(sorted(data.draw(st.permutations(range(particles)))[:size]))
        layers = BLOCK_LAYERS[particles, size] - data.draw(st.integers(0, 1))
    else:
        (particles, layers), subsystem = data.draw(st.sampled_from(SIZES[name])), (0,)
    density = data.draw(st.sampled_from([0.3, 1.0]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    circuit = random_circuit(rng, particles, layers, p_single=1.0, p_phase=density)
    charged = sum(count for count, _ in charges(circuit, subsystem))
    peak = traced_peak(lambda: build(circuit, subsystem))
    assert peak <= FACTOR * charged * ENTRY + SLACK, (peak, charged)


def test_kept_hit_factors_are_charged_before_the_cascade_runs():
    # four all-gate layers: the stream's own charges, the path amplitudes and every table
    # verify reads fit 4000 entries, but the factors kept for the marginal are charged
    # 2^8 * 17 = 4352, so both routes that keep them stop first
    circuit = random_circuit(np.random.default_rng(1), 3, 4, p_single=1.0, p_phase=1.0)
    assert max(count for count, what in verify_charges(circuit) if what != "hit factors") < 4000
    with pytest.raises(BudgetExceeded, match="^hit factors needs 4352 "):
        next(lambda_blocks(circuit, (0,), 4000))
    with pytest.raises(BudgetExceeded, match="^hit factors needs 4352 "):
        verify_circuit(circuit, 4000)
