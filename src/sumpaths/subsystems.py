"""Marginals of an M-particle subsystem of an N-particle circuit.

Subsystem paths are configuration-space paths (one single-particle path per
subsystem member). The hidden variable of an ordered pair of configuration
paths with equal endpoint tuples is the overlap of the conditioned external
evolutions. Every outcome of a subsystem reads the same conditioned
evolution, so `conditioned_blocks` builds the prefix-shared evolution
`paths.conditioned_prefix_states` once and yields each outcome's overlaps as
the Gram matrix of that outcome's rows of its final table. `lambda_general` and
`lambda_general_trajectory` evaluate single pairs with per-path
`condition_on_paths`, the independent reference; the trajectory exposes the
per-layer prefix increments (layers without a subsystem-external phase gate
contribute an exact zero because the shared external unitary cancels).

Phase gates wholly inside the subsystem belong to the configuration
amplitude; gates wholly outside stay in the conditioned evolution; straddling
gates are conditioned on the subsystem path.

`lambda_blocks` is where every lambda marginal picks its route: the
two-particle tables or the three-particle cascade where they apply,
`conditioned_blocks` otherwise. Both yield (outcome, block) pairs one at a
time.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .circuits import Circuit
from .common import DEFAULT_BUDGET, LambdaBlock, check_budget
from .paths import Path, _pairwise_phase_matrix, condition_on_paths, conditioned_prefix_states
from .paths import endpoint_rows, enumerate_paths, path_amplitude, path_mode_array, prefix_amplitudes
from .threeparticle import lambda3_tables
from .twoparticle import lambda_tables


@dataclass(frozen=True)
class ConfigPath:
    """One path per subsystem particle, in ascending particle order."""

    paths: tuple[Path, ...]

    @property
    def n(self) -> int:
        return self.paths[0].n

    @property
    def endpoints(self) -> tuple[int, ...]:
        return tuple(p.endpoint for p in self.paths)

    def modes(self, t: int) -> tuple[int, ...]:
        return tuple(p.mode(t) for p in self.paths)

    def bitstrings(self) -> tuple[str, ...]:
        return tuple(p.bitstring() for p in self.paths)


def normalize_subsystem(circuit: Circuit, subsystem: Sequence[int]) -> tuple[int, ...]:
    particles = tuple(sorted(set(subsystem)))
    if not particles:
        raise ValueError("subsystem must be non-empty")
    if particles[0] < 0 or particles[-1] >= circuit.particles:
        raise ValueError(f"subsystem {particles} out of range")
    if len(particles) == circuit.particles:
        raise ValueError("subsystem must leave at least one external particle")
    return particles


def enumerate_config_paths(
    n: int, endpoints: Sequence[int]
) -> list[ConfigPath]:
    """All configuration paths to the endpoint tuple, lexicographic per particle."""
    per_particle = [enumerate_paths(n, endpoint) for endpoint in endpoints]
    return [ConfigPath(paths=combo) for combo in itertools.product(*per_particle)]


def _intra_phase(circuit: Circuit, subsystem: tuple[int, ...], config: ConfigPath) -> complex:
    local = {p: k for k, p in enumerate(subsystem)}
    angle = 0.0
    for t in range(1, circuit.n + 1):
        for gate in circuit.layer(t).phases:
            a, b = gate.pair
            if a in local and b in local:
                angle += gate.theta(config.paths[local[a]].mode(t), config.paths[local[b]].mode(t))
    return complex(np.exp(1j * angle))


def config_path_amplitude(
    circuit: Circuit, subsystem: Sequence[int], config: ConfigPath
) -> complex:
    """Product of member path amplitudes times the intra-subsystem joint phase."""
    particles = normalize_subsystem(circuit, subsystem)
    if len(config.paths) != len(particles):
        raise ValueError("configuration path arity does not match the subsystem")
    value = 1.0 + 0.0j
    for particle, path in zip(particles, config.paths):
        value *= path_amplitude(circuit, particle, path)
    return value * _intra_phase(circuit, particles, config)


def _straddling_layers(circuit: Circuit, subsystem: tuple[int, ...]) -> list[bool]:
    """flags[t-1]: does layer t couple the subsystem to the external system."""
    inside = set(subsystem)
    flags = []
    for layer in circuit.layers:
        flags.append(
            any((g.pair[0] in inside) != (g.pair[1] in inside) for g in layer.phases)
        )
    return flags


def lambda_general_trajectory(
    circuit: Circuit, subsystem: Sequence[int], config_p: ConfigPath, config_q: ConfigPath
) -> tuple[complex, ...]:
    """Hidden-variable prefix values lambda^(0..n) for one ordered configuration pair.

    Non-interacting layers copy the previous value, so their increments are
    exact zeros.
    """
    particles = normalize_subsystem(circuit, subsystem)
    if config_p.endpoints != config_q.endpoints:
        raise ValueError("configuration paths must share their endpoint tuple")
    cond_p = condition_on_paths(circuit, dict(zip(particles, config_p.paths)))
    cond_q = condition_on_paths(circuit, dict(zip(particles, config_q.paths)))
    states_p = cond_p.state_trajectory()
    states_q = cond_q.state_trajectory()
    straddling = _straddling_layers(circuit, particles)
    values = [1.0 + 0.0j]
    for t in range(1, circuit.n + 1):
        if straddling[t - 1]:
            values.append(complex(np.vdot(states_p[t], states_q[t])))
        else:
            values.append(values[-1])
    return tuple(values)


def lambda_general(
    circuit: Circuit, subsystem: Sequence[int], config_p: ConfigPath, config_q: ConfigPath
) -> complex:
    """Final hidden variable: overlap of the two conditioned external evolutions."""
    particles = normalize_subsystem(circuit, subsystem)
    if config_p.endpoints != config_q.endpoints:
        raise ValueError("configuration paths must share their endpoint tuple")
    state_p = condition_on_paths(circuit, dict(zip(particles, config_p.paths))).state()
    state_q = condition_on_paths(circuit, dict(zip(particles, config_q.paths))).state()
    return complex(np.vdot(state_p, state_q))


def conditioned_blocks(
    circuit: Circuit, subsystem: Sequence[int], budget: int = DEFAULT_BUDGET
) -> Iterator[tuple[tuple[int, ...], LambdaBlock]]:
    """(outcome, block) for every subsystem outcome, all read off one conditioned prefix tree.

    An outcome's lambda is the Gram matrix of the tree's final-table rows at
    its configuration paths; its amplitudes are the members' path amplitudes
    times the intra-subsystem phases. The budget is charged the lambda pairs
    of one outcome and the tree's final table before anything is built.
    Outcomes come in `itertools.product((0, 1), repeat=M)` order, and each
    lambda is built only when its outcome is reached.
    """
    particles = normalize_subsystem(circuit, subsystem)
    n, size = circuit.n, len(particles)
    count = (1 << max(n - 1, 0)) ** size
    check_budget(count * count, budget, "configuration path pairs")
    check_budget(1 << (size * n + circuit.particles - size), budget, "conditioned external states")
    final = conditioned_prefix_states(circuit, particles)[n]
    amplitudes = [prefix_amplitudes(circuit, p) for p in particles]
    for outcome in itertools.product((0, 1), repeat=size):
        rows = [endpoint_rows(n, j) for j in outcome]
        joint = functools.reduce(lambda high, low: np.add.outer(high << n, low), rows).reshape(-1)
        states = final[joint]
        bare = functools.reduce(
            np.multiply.outer, [amps[r] for amps, r in zip(amplitudes, rows)]
        ).reshape(-1)
        intra = np.ones([len(r) for r in rows], dtype=complex)
        modes = [path_mode_array(n, j) for j in outcome]
        for a, b in itertools.combinations(range(size), 2):
            phases = _pairwise_phase_matrix(circuit, (particles[a], particles[b]), modes[a], modes[b])
            if phases is not None:
                shape = [1] * size
                shape[a], shape[b] = phases.shape
                intra = intra * phases.reshape(shape)
        # no local keeps the lambda across the yield
        yield outcome, LambdaBlock(amplitudes=bare * intra.reshape(-1), lam=states.conj() @ states.T)


def table_blocks(
    circuit: Circuit, lam: np.ndarray
) -> Iterator[tuple[tuple[int, ...], LambdaBlock]]:
    """((j,), block) for both endpoints of particle 0, read off a two- or three-particle table.

    `lam` is the circuit's final lambda table over path prefixes or, if the
    last layer adds no hit and so only repeats lambda over its new bit, the
    table one layer short. Then endpoint j's block is that table itself, with
    each prefix amplitude times the last single's element from its mode to j.
    """
    t = lam.shape[0].bit_length() - 1
    amps = prefix_amplitudes(circuit, 0, upto=t)
    for j in (0, 1):
        if t == circuit.n:
            rows = endpoint_rows(t, j)
            yield (j,), LambdaBlock(amps[rows], lam[np.ix_(rows, rows)])
        else:
            yield (j,), LambdaBlock(amps * circuit.single(circuit.n, 0)[j, np.arange(amps.size) % 2], lam)


def lambda_blocks(
    circuit: Circuit, subsystem: Sequence[int], budget: int
) -> Iterator[tuple[tuple[int, ...], LambdaBlock]]:
    """(outcome, block) for every subsystem outcome, by the route the particle count allows.

    A single-particle subsystem (0,) of two or three particles reads its two
    blocks off the last table of one two- or three-particle stream; every
    other subsystem gets `conditioned_blocks`. When a two-particle circuit's
    last layer has no 0-1 gate, the stream stops one layer short (charged
    4^(n-1)) and `table_blocks` folds that layer into the amplitudes. Blocks
    are yielded one at a time, so a caller that drops each before asking for
    the next holds one lambda at a time.
    """
    particles = normalize_subsystem(circuit, subsystem)
    if particles == (0,) and circuit.particles == 2:
        folds = circuit.n and circuit.phase(circuit.n, (0, 1)) is None  # the last layer adds no hit
        tables = lambda_tables(Circuit(particles=2, layers=circuit.layers[:-1]) if folds else circuit, budget)
    elif particles == (0,) and circuit.particles == 3:
        tables = lambda3_tables(circuit, budget)
    else:
        yield from conditioned_blocks(circuit, particles, budget)
        return
    for lam in tables:  # keeps only the last table
        pass
    yield from table_blocks(circuit, lam)
