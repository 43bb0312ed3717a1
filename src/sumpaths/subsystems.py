"""Marginals of an M-particle subsystem of an N-particle circuit.

Subsystem paths are configuration-space paths (one single-particle path per
subsystem member). The hidden variable of an ordered pair of configuration
paths with equal endpoint tuples is the overlap of the conditioned external
evolutions; here it is evaluated as that direct inner product, with per-layer
prefix increments exposed (layers without a subsystem-external phase gate
contribute an exact zero because the shared external unitary cancels).

Phase gates wholly inside the subsystem belong to the configuration
amplitude; gates wholly outside stay in the conditioned evolution; straddling
gates are conditioned on the subsystem path.

`lambda_blocks` is where every lambda marginal picks its route: the
two-particle tables or the three-particle cascade where they apply, these
conditioned overlaps otherwise.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuits import Circuit
from .common import DEFAULT_BUDGET, LambdaBlock, check_budget
from .oracle import Distribution
from .paths import Path, condition_on_paths, enumerate_paths, path_amplitude
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


def _conditioned_states_block(
    circuit: Circuit, subsystem: tuple[int, ...], configs: list[ConfigPath]
) -> np.ndarray:
    """Conditioned external final states for a batch of configuration paths."""
    external = tuple(i for i in range(circuit.particles) if i not in subsystem)
    ext_local = {p: k for k, p in enumerate(external)}
    width = len(external)
    dim = 1 << width
    count = len(configs)
    sub_local = {p: k for k, p in enumerate(subsystem)}

    # modes[c, k, t-1]: mode of subsystem member k of config c after layer t
    modes = np.array([[list(p.modes) for p in cfg.paths] for cfg in configs], dtype=int)

    states = np.zeros((count, dim), dtype=complex)
    states[:, 0] = 1.0
    basis_bits = (np.arange(dim)[:, None] >> np.arange(width - 1, -1, -1)[None, :]) & 1
    for t in range(1, circuit.n + 1):
        layer = circuit.layer(t)
        # free part of the layer: external singles and internal phase gates
        op = np.eye(1, dtype=complex)
        for p in external:
            op = np.kron(op, layer.singles[p])
        diag = np.ones(dim, dtype=complex)
        for gate in layer.phases:
            a, b = gate.pair
            if a in ext_local and b in ext_local:
                thetas = np.asarray(gate.thetas).reshape(2, 2)
                diag *= np.exp(
                    1j * thetas[basis_bits[:, ext_local[a]], basis_bits[:, ext_local[b]]]
                )
        states = states @ (diag[:, None] * op).T
        # straddling gates, conditioned per configuration
        for gate in layer.phases:
            a, b = gate.pair
            a_in, b_in = a in sub_local, b in sub_local
            if a_in == b_in:
                continue
            thetas = np.asarray(gate.thetas).reshape(2, 2)
            if a_in:
                controller_modes = modes[:, sub_local[a], t - 1]
                target_bits = basis_bits[:, ext_local[b]]
                factors = np.exp(1j * thetas[controller_modes[:, None], target_bits[None, :]])
            else:
                controller_modes = modes[:, sub_local[b], t - 1]
                target_bits = basis_bits[:, ext_local[a]]
                factors = np.exp(1j * thetas[target_bits[None, :], controller_modes[:, None]])
            states = states * factors
    return states


def lambda_block(
    circuit: Circuit,
    subsystem: Sequence[int],
    outcome: Sequence[int],
    budget: int = DEFAULT_BUDGET,
    intra_in_amplitude: bool = True,
) -> LambdaBlock:
    """Amplitudes and lambda matrix over the configuration paths of one subsystem outcome.

    With intra_in_amplitude=False the intra-subsystem phases move from the
    amplitudes onto the hidden variables; the marginal is unchanged.
    """
    particles = normalize_subsystem(circuit, subsystem)
    if len(outcome) != len(particles):
        raise ValueError("need one outcome mode per subsystem particle")
    if circuit.n < 1:
        raise ValueError("need at least one layer")
    count = (1 << (circuit.n - 1)) ** len(particles)
    check_budget(count * count, budget, "configuration path pairs")
    configs = enumerate_config_paths(circuit.n, outcome)
    bare = np.array(
        [
            np.prod([path_amplitude(circuit, p, path) for p, path in zip(particles, cfg.paths)])
            for cfg in configs
        ],
        dtype=complex,
    )
    intra = np.array([_intra_phase(circuit, particles, cfg) for cfg in configs], dtype=complex)
    states = _conditioned_states_block(circuit, particles, configs)
    lam = states.conj() @ states.T
    if intra_in_amplitude:
        return LambdaBlock(amplitudes=bare * intra, lam=lam)
    return LambdaBlock(amplitudes=bare, lam=lam * np.outer(intra.conj(), intra))


def lambda_blocks(
    circuit: Circuit, subsystem: Sequence[int], budget: int
) -> dict[tuple[int, ...], LambdaBlock]:
    """The lambda block of every subsystem outcome, by the route the particle count allows.

    A single-particle subsystem (0,) of two or three particles reads its
    blocks off one two- or three-particle table build; every other subsystem
    gets the conditioned-overlap block of each outcome.
    """
    particles = normalize_subsystem(circuit, subsystem)
    if particles == (0,) and circuit.particles == 2:
        tables = lambda_tables(circuit, budget, keep_trajectory=False)
    elif particles == (0,) and circuit.particles == 3:
        tables = lambda3_tables(circuit, budget)
    else:
        return {
            outcome: lambda_block(circuit, particles, outcome, budget)
            for outcome in itertools.product((0, 1), repeat=len(particles))
        }
    return {(j,): tables.block(j) for j in (0, 1)}


def marginal_general(
    circuit: Circuit,
    subsystem: Sequence[int],
    outcome: Sequence[int],
    budget: int = DEFAULT_BUDGET,
    intra_in_amplitude: bool = True,
) -> float:
    """Probability of one subsystem outcome tuple via the conditioned decomposition."""
    return lambda_block(circuit, subsystem, outcome, budget, intra_in_amplitude).marginal()


def subsystem_distribution(
    circuit: Circuit, subsystem: Sequence[int], budget: int = DEFAULT_BUDGET
) -> Distribution:
    """Full subsystem distribution via marginal_general, one outcome at a time."""
    particles = normalize_subsystem(circuit, subsystem)
    labels = tuple(itertools.product((0, 1), repeat=len(particles)))
    probs = np.array(
        [marginal_general(circuit, particles, outcome, budget) for outcome in labels]
    )
    return Distribution(labels=labels, probabilities=probs)
