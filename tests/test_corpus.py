"""Corpus generator determinism and the checked-in corpus files."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import sumpaths
from sumpaths.circuits import circuit_digest, dumps_canonical, load_circuit, random_single, unitarity_defect
from sumpaths.corpus import (
    GENERATOR_VERSION,
    random_circuit,
    shipped_corpus,
)

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


def test_random_single_is_unitary():
    rng = np.random.default_rng(1)
    for _ in range(50):
        assert unitarity_defect(random_single(rng)) < 1e-12


def test_random_circuit_is_reproducible():
    one = random_circuit(np.random.default_rng(9), 3, 4)
    two = random_circuit(np.random.default_rng(9), 3, 4)
    assert dumps_canonical(one) == dumps_canonical(two)


def test_corpus_spans_the_required_grid():
    rows = shipped_corpus()
    assert len(rows) >= 50
    seen = {(c.particles, c.n) for _, _, c in rows}
    assert {(2, n) for n in range(1, 9)} <= seen
    assert {(3, n) for n in range(1, 6)} <= seen
    assert {(4, n) for n in range(1, 5)} <= seen


def test_checked_in_corpus_matches_generator():
    manifest = json.loads((CORPUS_DIR / "manifest.json").read_text())
    assert manifest["generator_version"] == GENERATOR_VERSION
    rows = {name: circuit for name, _, circuit in shipped_corpus()}
    assert len(manifest["circuits"]) == len(rows)
    for entry in manifest["circuits"]:
        name = entry["file"].removesuffix(".json")
        regenerated = rows[name]
        on_disk = (CORPUS_DIR / entry["file"]).read_text()
        assert on_disk == dumps_canonical(regenerated)
        assert entry["digest"] == circuit_digest(regenerated)
        reread = load_circuit(str(CORPUS_DIR / entry["file"]))
        assert dumps_canonical(reread) == on_disk
        assert circuit_digest(reread) == entry["digest"]


def test_corpus_contains_interaction_free_layers():
    # the generator must leave some layers without phase gates so the
    # exact-zero-hit property is actually exercised
    gateless = 0
    for _, _, circuit in shipped_corpus():
        gateless += sum(1 for layer in circuit.layers if not layer.phases)
    assert gateless > 10


def test_regeneration_module_runs_warning_free(tmp_path):
    # `import sumpaths` must not load sumpaths.corpus, or runpy warns that the
    # module is already in sys.modules and two copies of it run
    src = str(Path(sumpaths.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "sumpaths.corpus", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert (result.returncode, result.stderr) == (0, "")
    for entry in json.loads((CORPUS_DIR / "manifest.json").read_text())["circuits"]:
        assert (tmp_path / entry["file"]).read_bytes() == (CORPUS_DIR / entry["file"]).read_bytes()
    assert (tmp_path / "manifest.json").read_bytes() == (CORPUS_DIR / "manifest.json").read_bytes()
