"""Ground truth by full state-vector evolution: marginal distributions of any particle set, partial traces.

Basis convention: particle 0 is the most significant bit of the state index.
Everything else in the package is checked against this module, so it
imports no kernel from the routes it checks. Its own two lines apply each
single gate, one BLAS call on a reshaped view with the gate on the left. A
fault in `paths.apply_single` then shows as a gap between the routes and
the oracle, and cannot cancel out of the cross-check.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .circuits import Circuit
from .common import DEFAULT_BUDGET, Charge, check_charges

NORM_TOL = 1e-12
PROB_SUM_TOL = 1e-10


@dataclass(frozen=True)
class Distribution:
    """Probabilities over outcome tuples (ascending particle order within the subsystem)."""

    labels: tuple[tuple[int, ...], ...]
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probabilities, dtype=float)
        if probs.min() < -1e-12 or probs.max() > 1 + 1e-12:
            raise ValueError(f"probability outside [0, 1]: range {probs.min()}..{probs.max()}")
        if abs(probs.sum() - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {probs.sum()}, not 1")

    def as_mapping(self) -> dict[str, float]:
        return {
            "".join(str(b) for b in label): float(p)
            for label, p in zip(self.labels, self.probabilities)
        }

    def __getitem__(self, outcome: tuple[int, ...] | int) -> float:
        if isinstance(outcome, int):
            outcome = (outcome,)
        return float(self.probabilities[self.labels.index(tuple(outcome))])


def _outcome_labels(count: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.product((0, 1), repeat=count))


def _apply_layer(state: np.ndarray, circuit: Circuit, t: int) -> np.ndarray:
    layer = circuit.layer(t)
    n = circuit.particles
    for i, gate in enumerate(layer.singles):
        view = state.reshape(1 << i, 2, -1).transpose(1, 0, 2).reshape(2, -1)
        del state  # neither the last product nor its operand stays alive while the next is built
        state = np.dot(gate, view).reshape(2, 1 << i, -1).transpose(1, 0, 2)
        del view
    state = state.reshape((2,) * n)
    for gate in layer.phases:
        a, b = gate.pair
        shape = [2 if k in (a, b) else 1 for k in range(n)]
        state = state * gate.diagonal().reshape(2, 2).reshape(shape)
    return state


def oracle_charges(circuit: Circuit) -> list[Charge]:
    """What `states` holds while a single gate applies: three state vectors of 2^N amplitudes."""
    size = 1 << circuit.particles
    return [
        (size, "state-vector amplitudes"),
        (size, "running state vector of a layer"),
        (size, "state vector reordered for a gate"),
    ]


def states(circuit: Circuit, upto: int | None = None, budget: int = DEFAULT_BUDGET) -> Iterator[np.ndarray]:
    """State vectors after layers 0..upto applied to |0...0> (upto=None means all layers).

    No state is written after it is yielded. The `oracle_charges` are checked
    on the first `next()`, before the first state is built, and the norm after
    every layer.
    """
    n = circuit.particles
    check_charges(oracle_charges(circuit), budget)
    t_stop = circuit.n if upto is None else upto
    if not 0 <= t_stop <= circuit.n:
        raise IndexError(f"layer index {t_stop} out of range 0..{circuit.n}")
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    yield state
    for t in range(1, t_stop + 1):
        # flattened at once: a layer can leave a strided result, whose flat copy would sit beside it
        state = _apply_layer(state, circuit, t).reshape(-1)
        norm = np.linalg.norm(state)
        if abs(norm - 1.0) > NORM_TOL:
            raise ArithmeticError(f"state norm drifted to {norm} after layer {t}")
        yield state


def evolve(circuit: Circuit, upto: int | None = None, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """The last of `states(circuit, upto, budget)`."""
    for state in states(circuit, upto, budget):
        pass
    return state


def marginal_by_sum(circuit: Circuit, subsystem: Iterable[int], budget: int = DEFAULT_BUDGET) -> Distribution:
    """Classical sum of joint probabilities over the external outcomes."""
    members = sorted(set(subsystem))
    if not members:
        raise ValueError("subsystem must be non-empty")
    if members[0] < 0 or members[-1] >= circuit.particles:
        raise ValueError(f"subsystem {members} out of range for {circuit.particles} particles")
    return marginal_of(evolve(circuit, budget=budget), circuit.particles, members)


def marginal_of(state: np.ndarray, particles: int, members: Iterable[int]) -> Distribution:
    """`marginal_by_sum` of a state vector over `particles` particles, for valid `members`."""
    members = sorted(set(members))
    probs = (np.abs(state) ** 2).reshape((2,) * particles)
    probs = probs.sum(axis=tuple(i for i in range(particles) if i not in members))
    return Distribution(labels=_outcome_labels(len(members)), probabilities=probs.reshape(-1))

