"""Independent brute-force references the library is checked against, and test circuits.

The references are built from explicit Kronecker products and raw path
enumeration so they share no evolution or bookkeeping code with the package.
The circuit helpers after them make the seeded corpora and the reduced or
trimmed circuits that the tests compare. The stream helpers at the end read
the per-layer lambda tables of `lambda_tables` and `lambda3_tables`: one pair's
trajectory, the final endpoint blocks, and the Gram tables of the package's
conditioned prefix states that every layer must match.
"""
from __future__ import annotations

import itertools
import math
from functools import reduce
from typing import Iterator

import numpy as np

from sumpaths.circuits import IDENTITY, Circuit, PhaseGate, make_circuit
from sumpaths.corpus import random_circuit, random_single
from sumpaths.common import LambdaBlock
from sumpaths.paths import Path, conditioned_prefix_states, prefix_index
from sumpaths.subsystems import table_blocks


def kron_layer_operator(circuit: Circuit, t: int) -> np.ndarray:
    """Dense 2^N x 2^N operator of layer t: tensor of singles, then each phase diagonal."""
    layer = circuit.layer(t)
    n = circuit.particles
    op = reduce(np.kron, layer.singles)
    diag = np.ones(1 << n, dtype=complex)
    for gate in layer.phases:
        a, b = gate.pair
        for index in range(1 << n):
            ma = (index >> (n - 1 - a)) & 1
            mb = (index >> (n - 1 - b)) & 1
            diag[index] *= np.exp(1j * gate.theta(ma, mb))
    return diag[:, None] * op


def kron_evolve(circuit: Circuit, upto: int | None = None) -> np.ndarray:
    t_stop = circuit.n if upto is None else upto
    state = np.zeros(1 << circuit.particles, dtype=complex)
    state[0] = 1.0
    for t in range(1, t_stop + 1):
        state = kron_layer_operator(circuit, t) @ state
    return state


def brute_amplitude(circuit: Circuit, outcome: tuple[int, ...]) -> complex:
    """Raw loop over every per-particle mode sequence ending at the outcome."""
    n, particles = circuit.n, circuit.particles
    total = 0.0 + 0.0j
    per_particle = [
        [seq + (outcome[i],) for seq in itertools.product((0, 1), repeat=n - 1)]
        for i in range(particles)
    ]
    for assignment in itertools.product(*per_particle):
        term = 1.0 + 0.0j
        for i in range(particles):
            prev = 0
            for t in range(1, n + 1):
                term *= circuit.single(t, i)[assignment[i][t - 1], prev]
                prev = assignment[i][t - 1]
        for t in range(1, n + 1):
            for gate in circuit.layer(t).phases:
                a, b = gate.pair
                term *= np.exp(1j * gate.theta(assignment[a][t - 1], assignment[b][t - 1]))
        total += term
    return total


def conditioned_external_matrix(
    circuit: Circuit, conditioning: dict[int, Path], upto: int | None = None
) -> np.ndarray:
    """External-system unitary with straddling phase gates fixed by the given paths.

    Built layer by layer from scratch: external singles via Kronecker products,
    then every surviving phase factor applied as an explicit diagonal.
    """
    external = [i for i in range(circuit.particles) if i not in conditioning]
    width = len(external)
    dim = 1 << width
    t_stop = circuit.n if upto is None else upto
    op = np.eye(dim, dtype=complex)
    for t in range(1, t_stop + 1):
        layer = circuit.layer(t)
        layer_op = reduce(np.kron, [layer.singles[i] for i in external])
        diag = np.ones(dim, dtype=complex)
        for gate in layer.phases:
            a, b = gate.pair
            if a in conditioning and b in conditioning:
                continue
            for index in range(dim):
                modes = {
                    p: (index >> (width - 1 - k)) & 1 for k, p in enumerate(external)
                }
                for p, path in conditioning.items():
                    modes[p] = path.mode(t)
                if a in modes and b in modes:
                    diag[index] *= np.exp(1j * gate.theta(modes[a], modes[b]))
        op = (diag[:, None] * layer_op) @ op
    return op


def random_corpus(
    count: int, particles: int, max_layers: int, seed: int
) -> Iterator[tuple[int, Circuit]]:
    """Stream of (layer_count, circuit); layer counts drawn uniformly from 1..max_layers."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        layers = int(rng.integers(1, max_layers + 1))
        yield layers, random_circuit(rng, particles, layers)


def decoupled_three_particle(rng: np.random.Generator, layers: int) -> Circuit:
    """Three-particle circuit whose third particle never interacts (no A-C or B-C gates)."""
    specs = []
    for _ in range(layers):
        singles = {i: random_single(rng) for i in range(3) if rng.random() < 0.9}
        phases = (
            [PhaseGate(pair=(0, 1), thetas=tuple(rng.uniform(0.0, 2.0 * math.pi, 4).tolist()))]
            if rng.random() < 0.85
            else []
        )
        specs.append((singles, phases))
    return make_circuit(3, specs)


def drop_particle(circuit: Circuit, particle: int) -> Circuit:
    """Remove one particle and every phase gate touching it; remaining indices shift down."""
    keep = [i for i in range(circuit.particles) if i != particle]
    local = {p: k for k, p in enumerate(keep)}
    specs = []
    for layer in circuit.layers:
        singles = {local[i]: layer.singles[i] for i in keep}
        phases = [
            PhaseGate(pair=(local[g.pair[0]], local[g.pair[1]]), thetas=g.thetas)
            for g in layer.phases
            if particle not in g.pair
        ]
        specs.append((singles, phases))
    return make_circuit(circuit.particles - 1, specs)


def remove_trailing_external_gate(circuit: Circuit, atol: float = 1e-12) -> Circuit:
    """Drop a final layer that acts only on external particles; subsystem marginals keep."""
    if circuit.n < 1:
        raise ValueError("circuit has no layers to remove")
    last = circuit.layers[-1]
    if any(0 in gate.pair for gate in last.phases):
        raise ValueError("final layer couples the subsystem via a phase gate")
    if np.max(np.abs(last.singles[0] - IDENTITY)) > atol:
        raise ValueError("final layer applies a non-identity gate to the subsystem")
    specs = [
        (dict(enumerate(layer.singles)), list(layer.phases)) for layer in circuit.layers[:-1]
    ]
    return make_circuit(circuit.particles, specs)


def table_trajectory(tables: list[np.ndarray], p: Path, q: Path) -> tuple[complex, ...]:
    """lambda^(0..n) of the ordered pair (p, q), read off per-layer prefix tables."""
    return tuple(
        complex(table[prefix_index(p, t), prefix_index(q, t)]) for t, table in enumerate(tables)
    )


def final_blocks(circuit: Circuit, tables: Iterator[np.ndarray]) -> dict[int, LambdaBlock]:
    """{j: endpoint-j block} read off the last table of a lambda stream."""
    *_, final = tables
    return {j: block for (j,), block in table_blocks(circuit, final)}


def gram_tables(circuit: Circuit) -> list[np.ndarray]:
    """G_t: overlaps of the external states conditioned on every t-mode prefix of particle 0."""
    return [u.conj() @ u.T for u in conditioned_prefix_states(circuit, (0,))]
