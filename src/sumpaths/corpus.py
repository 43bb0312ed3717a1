"""Seeded, versioned random circuit generation and the shipped verification corpus."""
from __future__ import annotations

import itertools
import json
import math
from pathlib import Path as FsPath

import numpy as np

from .circuits import Circuit, PhaseGate, circuit_digest, dumps_canonical, make_circuit, random_single

GENERATOR_VERSION = 1

# One (particles, layers, samples) row per shipped corpus block.
SHIPPED_BLOCKS = (
    [(2, n, 3) for n in range(1, 9)]
    + [(3, n, 3) for n in range(1, 6)]
    + [(4, n, 3) for n in range(1, 5)]
)
SHIPPED_BASE_SEED = 755000


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
