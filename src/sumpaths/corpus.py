"""Seeded, versioned random circuit generation and the shipped verification corpus."""
from __future__ import annotations

import itertools
import json
import math
from pathlib import Path as FsPath

import numpy as np

from .circuits import Circuit, PhaseGate, circuit_digest, dumps_canonical, make_circuit

GENERATOR_VERSION = 1

# One (particles, layers, samples) row per shipped corpus block.
SHIPPED_BLOCKS = (
    [(2, n, 3) for n in range(1, 9)]
    + [(3, n, 3) for n in range(1, 6)]
    + [(4, n, 3) for n in range(1, 5)]
)
SHIPPED_BASE_SEED = 755000


def random_single(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish 2x2 unitary: Gram-Schmidt orthonormalization of a complex Gaussian draw."""
    while True:
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        n0 = np.linalg.norm(z[:, 0])
        if n0 < 1e-6:
            continue
        c0 = z[:, 0] / n0
        c1 = z[:, 1] - (c0.conj() @ z[:, 1]) * c0
        n1 = np.linalg.norm(c1)
        if n1 < 1e-6:
            continue
        return np.column_stack([c0, c1 / n1])


def random_circuit(
    rng: np.random.Generator,
    particles: int,
    layers: int,
    p_single: float = 0.9,
    p_phase: float = 0.75,
) -> Circuit:
    """Random normal-form circuit; gates are absent with fixed probability so
    interaction-free layers occur in every corpus."""
    specs = []
    for _ in range(layers):
        singles = {
            i: random_single(rng) for i in range(particles) if rng.random() < p_single
        }
        phases = [
            PhaseGate(pair=(a, b), thetas=tuple(rng.uniform(0.0, 2.0 * math.pi, 4).tolist()))
            for a, b in itertools.combinations(range(particles), 2)
            if rng.random() < p_phase
        ]
        specs.append((singles, phases))
    return make_circuit(particles, specs)


def append_external_layer(
    circuit: Circuit, rng: np.random.Generator, subsystem: tuple[int, ...] = (0,)
) -> Circuit:
    """Append one layer acting only on particles outside `subsystem` (random singles,
    plus a random phase gate between two external particles when possible)."""
    external = [i for i in range(circuit.particles) if i not in subsystem]
    if not external:
        raise ValueError("no external particles to act on")
    singles = {i: random_single(rng) for i in external}
    phases = []
    if len(external) >= 2:
        a, b = external[0], external[1]
        phases.append(
            PhaseGate(pair=(a, b), thetas=tuple(rng.uniform(0.0, 2.0 * math.pi, 4).tolist()))
        )
    specs = [(dict(enumerate(layer.singles)), list(layer.phases)) for layer in circuit.layers]
    specs.append((singles, phases))
    return make_circuit(circuit.particles, specs)


def shipped_corpus() -> list[tuple[str, int, Circuit]]:
    """The checked-in corpus: (name, seed, circuit) rows, fully seed-determined."""
    rows = []
    index = 0
    for particles, layers, samples in SHIPPED_BLOCKS:
        for sample in range(samples):
            seed = SHIPPED_BASE_SEED + index
            rng = np.random.default_rng(seed)
            circuit = random_circuit(rng, particles, layers)
            rows.append((f"n{particles}_l{layers}_s{sample}", seed, circuit))
            index += 1
    return rows


def write_corpus(root: str | FsPath) -> dict:
    """Write the shipped corpus and its manifest under `root`; returns the manifest."""
    root = FsPath(root)
    root.mkdir(parents=True, exist_ok=True)
    entries = []
    for name, seed, circuit in shipped_corpus():
        filename = f"{name}.json"
        (root / filename).write_text(dumps_canonical(circuit), encoding="utf-8")
        entries.append(
            {
                "file": filename,
                "particles": circuit.particles,
                "layers": circuit.n,
                "seed": seed,
                "digest": circuit_digest(circuit),
            }
        )
    manifest = {
        "schema": 1,
        "generator_version": GENERATOR_VERSION,
        "circuits": entries,
    }
    (root / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return manifest


if __name__ == "__main__":  # regeneration tooling: python3 -m sumpaths.corpus [DIR] [--seed N]
    import argparse

    parser = argparse.ArgumentParser(description="regenerate the verification corpus")
    parser.add_argument("directory", nargs="?", default="corpus")
    parser.add_argument(
        "--seed",
        type=int,
        default=SHIPPED_BASE_SEED,
        help="base seed (the shipped corpus uses the default)",
    )
    cli = parser.parse_args()
    SHIPPED_BASE_SEED = cli.seed
    manifest = write_corpus(cli.directory)
    print(f"wrote {len(manifest['circuits'])} circuits to {cli.directory}/ (base seed {cli.seed})")
