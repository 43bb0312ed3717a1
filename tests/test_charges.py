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
from sumpaths.cli import _clamped
from sumpaths.common import BudgetExceeded, LambdaBlock
from sumpaths.corpus import random_circuit
from sumpaths.density import density_charges, density_report
from sumpaths.oracle import oracle_charges, states
from sumpaths.paths import amplitudes_via_paths, member_paths_at, pathsum_charges
from sumpaths.subsystems import dense_lambda_charges, lambda_blocks, lambda_charges, lambda_marginals
from sumpaths.twoparticle import lambda_accumulate, pair_charges
from sumpaths.verify import verify_charges, verify_circuit

from .reference import cascade_charges, lambda3_tables

# A builder holds its tables while it makes the next one, and copies some once
# (the reordered blocks, the step beside its table): peaks read up to about 2.5x.
FACTOR = 3
ENTRY = 16  # bytes per complex entry
SLACK = 256 * 1024  # numpy's ufunc buffers, index arrays and the Python objects a build makes
BUDGET = 1 << 40  # no charge may stop a build; the gate reads the charges itself

# (particles, layers) per builder; lambda_marginals draws layers by (particles, subsystem size)
SIZES = {
    "amplitudes_via_paths": [(1, 17), (1, 18), (2, 9), (2, 10), (3, 8), (3, 9), (4, 6), (4, 7), (5, 5), (6, 4)],
    "lambda3_tables": [(3, 7), (3, 8), (3, 9)],
    "lambda_blocks": [(2, 9), (2, 10), (3, 8), (3, 9), (4, 9), (4, 10), (5, 9), (6, 8)],
    "density_report": [(2, 16), (2, 17)],
    "lambda_accumulate": [(15, 3), (16, 2), (17, 3), (18, 2), (19, 1)],
    "states": [(14, 2), (15, 2), (16, 2), (17, 1), (18, 1)],
    "verify_circuit": [(2, 8), (2, 9), (3, 7), (3, 8), (4, 6), (4, 7)],
}
BLOCK_LAYERS = {
    (2, 1): 16, (3, 1): 15, (3, 2): 8, (4, 1): 14, (4, 2): 8, (4, 3): 5, (5, 1): 13, (5, 2): 7,
    (5, 3): 5, (5, 4): 4, (6, 1): 12, (6, 2): 7, (6, 3): 5, (6, 4): 4, (6, 5): 3,
}  # the most layers whose external-state tables and amplitudes stay within 2^18 entries; one fewer is drawn too
CASCADE_LAYERS = 9  # the (0,) of three particles takes the cascade: its 4^h structures reach 2^18 at h = 9


def _cascade(circuit: Circuit, subsystem: tuple[int, ...]) -> None:
    for _ in lambda3_tables(circuit, BUDGET):
        pass


def _dense(circuit: Circuit, subsystem: tuple[int, ...]) -> None:
    blocks = list(lambda_blocks(circuit, subsystem, BUDGET))  # perturb's blocks, by the cascade or the tree
    lam = _clamped(blocks[0][1].lam, 0.5)  # as perturb does: one clamped copy of the lambda every block shares
    for _, block in blocks:
        LambdaBlock(block.amplitudes, lam).marginal()


def _oracle(circuit: Circuit, subsystem: tuple[int, ...]) -> None:
    for _ in states(circuit, budget=BUDGET):  # keeps only the last state, as `evolve` does
        pass


def _pair_reference(circuit: Circuit, subsystem: tuple[int, ...]) -> None:
    last = (1 << max(circuit.n - 1, 0)) ** len(subsystem) - 1
    p, q = (member_paths_at(circuit.n, (0,) * len(subsystem), index) for index in (0, last))
    lambda_accumulate(circuit, subsystem, p, q, BUDGET)


def _marginals(circuit: Circuit, subsystem: tuple[int, ...]) -> None:
    lambda_marginals(circuit, subsystem, BUDGET)


# name: (charges, build)
BUILDERS: dict[str, tuple[Callable, Callable]] = {
    "amplitudes_via_paths": (lambda c, s: pathsum_charges(c), lambda c, s: amplitudes_via_paths(c, BUDGET)),
    "lambda_marginals": (lambda_charges, _marginals),
    "lambda3_tables": (lambda c, s: cascade_charges(c), _cascade),
    "lambda_blocks": (lambda c, s: lambda_charges(c, s) + dense_lambda_charges(c, s), _dense),
    "density_report": (lambda c, s: density_charges(c), lambda c, s: density_report(c, BUDGET)),
    "lambda_accumulate": (pair_charges, _pair_reference),
    "states": (lambda c, s: oracle_charges(c), _oracle),
    "verify_circuit": (lambda c, s: verify_charges(c), lambda c, s: verify_circuit(c, BUDGET)),
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
    if name == "lambda_marginals":  # one builder for every subsystem at N=2-6
        particles, size = data.draw(st.sampled_from(sorted(BLOCK_LAYERS)))
        subsystem = tuple(sorted(data.draw(st.permutations(range(particles)))[:size]))
        most = CASCADE_LAYERS if (particles, subsystem) == (3, (0,)) else BLOCK_LAYERS[particles, size]
        layers = most - data.draw(st.integers(0, 1))
    else:
        (particles, layers), subsystem = data.draw(st.sampled_from(SIZES[name])), (0,)
    density = data.draw(st.sampled_from([0.3, 1.0]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    circuit = random_circuit(rng, particles, layers, p_single=1.0, p_phase=density)
    charged = sum(count for count, _ in charges(circuit, subsystem))
    peak = traced_peak(lambda: build(circuit, subsystem))
    assert peak <= FACTOR * charged * ENTRY + SLACK, (peak, charged)


@pytest.mark.parametrize(
    "particles, subsystem, layers", [(3, (0, 1), 10), (4, (0, 1), 10), (2, (1,), 21), (2, (0,), 21)]
)
def test_the_reader_holds_at_most_a_fixed_multiple_of_its_charges_near_the_default_edge(particles, subsystem, layers):
    # one layer short of where the default budget stops the reader: its external-state
    # tables and amplitudes are 2^19-2^21 entries, past the sizes the hypothesis test draws
    circuit = random_circuit(np.random.default_rng(1), particles, layers, p_single=1.0, p_phase=1.0)
    charged = sum(count for count, _ in lambda_charges(circuit, subsystem))
    peak = traced_peak(lambda: _marginals(circuit, subsystem))
    assert peak <= FACTOR * charged * ENTRY + SLACK, (peak, charged)


def test_the_reader_charges_a_single_layers_straddling_factor_table():
    # at n = 2 the stream takes one tree step, off a root of one row, 2^(N - M) entries; the step's
    # straddling factors span all 2^N joint basis states, as many entries as table 1, whose charge
    # covers them
    circuit = random_circuit(np.random.default_rng(1), 18, 2, p_single=1.0, p_phase=1.0)
    charged = sum(count for count, _ in lambda_charges(circuit, (0, 1, 2)))
    peak = traced_peak(lambda: _marginals(circuit, (0, 1, 2)))
    assert peak <= FACTOR * charged * ENTRY + SLACK, (peak, charged)


@pytest.mark.parametrize("name", ["lambda_marginals", "lambda_blocks"])
@pytest.mark.parametrize("layers", [9, 10])
def test_the_cascade_readers_hold_at_most_a_fixed_multiple_of_their_charges(name, layers):
    # the subsystem (0,) of three particles runs the cascade through layer n - 1 alone: on all-gates
    # circuits its charges, and perturb's lambda over n - 1 layers, sum to 2^17-2^19.6 entries
    circuit = random_circuit(np.random.default_rng(1), 3, layers, p_single=1.0, p_phase=1.0)
    charges, build = BUILDERS[name]
    charged = sum(count for count, _ in charges(circuit, (0,)))
    peak = traced_peak(lambda: build(circuit, (0,)))
    assert peak <= FACTOR * charged * ENTRY + SLACK, (peak, charged)


def test_kept_hit_factors_are_charged_by_verify_alone():
    # four all-gate layers: the cascade's own charges, the path amplitudes and every table
    # verify reads fit 4000 entries, but the factors verify lists before its walk are charged
    # 2^8 * 17 = 4352, so verify stops first; the marginal and perturb read each layer as it
    # passes and answer
    circuit = random_circuit(np.random.default_rng(1), 3, 4, p_single=1.0, p_phase=1.0)
    assert max(count for count, what in verify_charges(circuit) if what != "hit factors") < 4000
    assert lambda_marginals(circuit, (0,), 4000).keys() == {(0,), (1,)}
    assert len(list(lambda_blocks(circuit, (0,), 4000))) == 2
    with pytest.raises(BudgetExceeded, match="^hit factors needs 4352 "):
        verify_circuit(circuit, 4000)
