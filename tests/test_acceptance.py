"""Acceptance suite: one test per criterion, each printing its pass/fail line.

Every tolerance is pinned here; the seeded corpora are regenerated in place
by the versioned generator, so the numbers are identical run to run.
"""
from __future__ import annotations

import io
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from sumpaths.circuits import append_external_layer, build_epr_circuit, random_single, save_circuit
from sumpaths.cli import main as cli_main
from sumpaths.corpus import random_circuit
from sumpaths.density import normalized_phase_form
from sumpaths.oracle import evolve, marginal_by_sum
from sumpaths.paths import amplitudes_via_paths
from sumpaths.subsystems import conditioned_blocks
from sumpaths.threeparticle import lambda3_tables
from sumpaths.twoparticle import lambda_accumulate, lambda_tables, marginal_deviation
from sumpaths.paths import Path as SPath

from .reference import (
    collapse_amplitude_direct,
    decoupled_three_particle,
    density_step,
    drop_particle,
    final_blocks,
    gram_tables,
    hit_lambdas,
    hit_offdiagonal,
    hit_pathsum_amplitude,
    random_corpus,
    reduced_density,
)

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


def report(criterion: int, label: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion:2d}] {label}: {status} ({detail})")
    assert passed, f"criterion {criterion} failed: {detail}"


def test_criterion_01_epr_reproduction():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_marginal = 0.0
    worst_lambda = 0.0
    worst_hits = 0.0
    for _ in range(20):
        circuit = build_epr_circuit(random_single(rng), random_single(rng))
        oracle = marginal_by_sum(circuit, {0})
        blocks = final_blocks(circuit, hit_lambdas(circuit))
        amplitudes = amplitudes_via_paths(circuit)
        for j in (0, 1):
            pathsum_prob = sum(abs(amplitudes[2 * j + k]) ** 2 for k in (0, 1))
            for value in (oracle[j], blocks[j].marginal(), pathsum_prob):
                worst_marginal = max(worst_marginal, abs(value - 0.5))
        cross = lambda_accumulate(circuit, (0,), (SPath((0, 0)),), (SPath((1, 0)),))
        worst_lambda = max(worst_lambda, abs(cross.final))
        worst_hits = max(worst_hits, abs(cross.hits[0] + 1.0), abs(cross.hits[1]))
    elapsed = time.perf_counter() - start
    passed = worst_marginal < 1e-10 and worst_lambda < 1e-12 and worst_hits < 1e-12 and elapsed < 1.0
    report(
        1,
        "EPR-B reproduction",
        passed,
        f"marginal {worst_marginal:.2e}, lambda {worst_lambda:.2e}, "
        f"hits {worst_hits:.2e}, {elapsed:.2f}s < 1s",
    )


def _two_particle_corpus():
    return list(random_corpus(200, particles=2, max_layers=8, seed=202))


def test_criterion_02_two_particle_oracle_equivalence():
    start = time.perf_counter()
    worst_oracle = 0.0
    worst_forms = 0.0
    for _, circuit in _two_particle_corpus():
        oracle = marginal_by_sum(circuit, {0})
        blocks = final_blocks(circuit, hit_lambdas(circuit))
        for j in (0, 1):
            lam = blocks[j].marginal()
            worst_oracle = max(worst_oracle, abs(lam - oracle[j]))
            worst_forms = max(worst_forms, abs(lam - marginal_deviation(circuit, j, blocks[j])))
    elapsed = time.perf_counter() - start
    passed = worst_oracle < 1e-9 and worst_forms < 1e-10 and elapsed < 30.0
    report(
        2,
        "two-particle oracle equivalence",
        passed,
        f"vs oracle {worst_oracle:.2e}, form gap {worst_forms:.2e}, {elapsed:.1f}s < 30s",
    )


def test_criterion_03_telescoping_closure():
    worst = 0.0
    zero_layer_violations = 0
    for _, circuit in _two_particle_corpus():
        tables = hit_lambdas(circuit)
        for lam, gram in zip(tables, gram_tables(circuit), strict=True):
            worst = max(worst, float(np.max(np.abs(lam - gram))))
        for t in range(1, circuit.n + 1):
            if circuit.phase(t, (0, 1)) is None:
                expanded = np.repeat(np.repeat(tables[t - 1], 2, axis=0), 2, axis=1)
                if not np.array_equal(tables[t], expanded):
                    zero_layer_violations += 1
    passed = worst < 1e-10 and zero_layer_violations == 0
    report(
        3,
        "telescoping closure",
        passed,
        f"prefix error {worst:.2e}, exact-zero violations {zero_layer_violations}",
    )


def test_criterion_04_three_particle_closure():
    start = time.perf_counter()
    worst_closure = 0.0
    worst_marginal = 0.0
    for _, circuit in random_corpus(100, particles=3, max_layers=5, seed=404):
        *_, final = lambda3_tables(circuit)
        worst_closure = max(
            worst_closure, float(np.max(np.abs(final - gram_tables(circuit)[circuit.n])))
        )
        oracle = marginal_by_sum(circuit, {0})
        blocks = final_blocks(circuit, [final])
        for j in (0, 1):
            worst_marginal = max(worst_marginal, abs(blocks[j].marginal() - oracle[j]))
    elapsed = time.perf_counter() - start
    passed = worst_closure < 1e-9 and worst_marginal < 1e-9 and elapsed < 60.0
    report(
        4,
        "three-particle closure",
        passed,
        f"closure {worst_closure:.2e}, marginal {worst_marginal:.2e}, {elapsed:.1f}s < 60s",
    )


def test_criterion_05_reduction_to_two_particles():
    rng = np.random.default_rng(505)
    worst_lambda = 0.0
    worst_marginal = 0.0
    for _ in range(50):
        layers = int(rng.integers(1, 5))
        circuit = decoupled_three_particle(rng, layers)
        reduced = drop_particle(circuit, 2)
        *_, three_final = lambda3_tables(circuit)
        *_, (two_final, _) = lambda_tables(reduced)
        worst_lambda = max(worst_lambda, float(np.max(np.abs(three_final - two_final))))
        three, two = final_blocks(circuit, [three_final]), final_blocks(reduced, [two_final])
        for j in (0, 1):
            worst_marginal = max(worst_marginal, abs(three[j].marginal() - two[j].marginal()))
    passed = worst_lambda < 1e-10 and worst_marginal < 1e-10
    report(
        5,
        "decoupled reduction",
        passed,
        f"lambda gap {worst_lambda:.2e}, marginal gap {worst_marginal:.2e}",
    )


def test_criterion_06_no_signaling():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(50):
        layers = int(rng.integers(1, 5))
        circuit = random_circuit(rng, 3, layers)
        extended = append_external_layer(circuit, rng)
        base_oracle = marginal_by_sum(circuit, {0})
        ext_oracle = marginal_by_sum(extended, {0})
        base = final_blocks(circuit, lambda3_tables(circuit))
        ext = final_blocks(extended, lambda3_tables(extended))
        for j in (0, 1):
            worst = max(worst, abs(base_oracle[j] - ext_oracle[j]))
            worst = max(worst, abs(base[j].marginal() - ext[j].marginal()))
    passed = worst < 1e-12
    report(6, "no-signaling", passed, f"max marginal shift {worst:.2e}")


def test_criterion_07_general_subsystem():
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    worst = 0.0
    singles = [(0,), (1,), (2,), (3,)]
    pairs = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3), (0, 2)]
    for index in range(50):
        layers = int(rng.integers(1, 5))
        circuit = random_circuit(rng, 4, layers)
        for subsystem in (singles[index % 4], pairs[index % 6]):
            oracle = marginal_by_sum(circuit, subsystem)
            for outcome, block in conditioned_blocks(circuit, subsystem):
                worst = max(worst, abs(block.marginal() - oracle[outcome]))
    elapsed = time.perf_counter() - start
    passed = worst < 1e-9 and elapsed < 60.0
    report(
        7,
        "general subsystem marginals",
        passed,
        f"vs oracle {worst:.2e}, {elapsed:.1f}s < 60s",
    )


def test_criterion_08_density_decomposition():
    rng = np.random.default_rng(808)
    worst_recon = 0.0
    worst_diag = 0.0
    worst_form = 0.0
    worst_pathsum = 0.0
    for _ in range(100):
        layers = int(rng.integers(1, 7))
        circuit = normalized_phase_form(random_circuit(rng, 2, layers))
        for t in range(1, layers + 1):
            psi = evolve(circuit, t - 1)
            prev_joint = np.outer(psi, psi.conj())
            pair = density_step(circuit, t, prev_joint)
            oracle = reduced_density(circuit, 0, t)
            worst_recon = max(worst_recon, float(np.linalg.norm(pair.total - oracle)))
            worst_diag = max(worst_diag, float(np.max(np.abs(np.diag(pair.hit)))))
            off = hit_offdiagonal(circuit, t, prev_joint)
            worst_form = max(worst_form, float(np.max(np.abs(off - pair.hit))))
            worst_pathsum = max(
                worst_pathsum,
                abs(hit_pathsum_amplitude(circuit, t) - collapse_amplitude_direct(circuit, t)),
            )
    passed = (
        worst_recon < 1e-10
        and worst_diag < 1e-12
        and worst_form < 1e-12
        and worst_pathsum < 1e-10
    )
    report(
        8,
        "density decomposition",
        passed,
        f"reconstruction {worst_recon:.2e}, diag {worst_diag:.2e}, "
        f"form {worst_form:.2e}, pathsum {worst_pathsum:.2e}",
    )


def test_criterion_09_pathsum_completeness():
    rng = np.random.default_rng(909)
    errors = [0.0]
    for particles in (1, 2, 3):
        for layers in range(1, 7):
            for _ in range(3):
                circuit = random_circuit(rng, particles, layers)
                errors.append(np.max(np.abs(amplitudes_via_paths(circuit) - evolve(circuit))))
    worst = float(np.max(errors))
    passed = worst < 1e-10
    report(9, "path-sum completeness", passed, f"max amplitude error {worst:.2e}")


def test_criterion_10_structural_properties(tmp_path):
    rng = np.random.default_rng(1010)
    worst_hermitian = 0.0
    worst_bound = 0.0
    worst_norm = 0.0
    for _ in range(20):
        circuit2 = random_circuit(rng, 2, int(rng.integers(1, 9)))
        tables2 = hit_lambdas(circuit2)
        final = tables2[circuit2.n]
        worst_hermitian = max(worst_hermitian, float(np.max(np.abs(final - final.conj().T))))
        worst_bound = max(
            worst_bound, max(float(np.max(np.abs(t_))) for t_ in tables2) - 1.0
        )
        blocks2 = final_blocks(circuit2, tables2)
        worst_norm = max(
            worst_norm, abs(blocks2[0].marginal() + blocks2[1].marginal() - 1.0)
        )
        circuit3 = random_circuit(rng, 3, int(rng.integers(1, 5)))
        tables3 = list(lambda3_tables(circuit3))
        final3 = tables3[circuit3.n]
        worst_hermitian = max(worst_hermitian, float(np.max(np.abs(final3 - final3.conj().T))))
        worst_bound = max(
            worst_bound, max(float(np.max(np.abs(t_))) for t_ in tables3) - 1.0
        )
        blocks3 = final_blocks(circuit3, tables3)
        worst_norm = max(
            worst_norm, abs(blocks3[0].marginal() + blocks3[1].marginal() - 1.0)
        )

    # byte-identical reports across repeated runs
    path = tmp_path / "c.json"
    save_circuit(random_circuit(rng, 3, 3), str(path))
    outputs = []
    for _ in range(2):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(["verify", "--circuit", str(path)])
        assert code == 0
        outputs.append(out.getvalue())
    deterministic = outputs[0] == outputs[1]

    passed = (
        worst_hermitian < 1e-12
        and worst_bound < 1e-10
        and worst_norm < 1e-9
        and deterministic
    )
    report(
        10,
        "structural properties",
        passed,
        f"hermitian {worst_hermitian:.2e}, bound excess {max(worst_bound, 0.0):.2e}, "
        f"normalization {worst_norm:.2e}, byte-identical={deterministic}",
    )


def test_shipped_corpus_verifies_end_to_end():
    # the full shipped corpus passes the CLI verify command
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(["verify", "--manifest", str(CORPUS_DIR / "manifest.json")])
    assert code == 0, err.getvalue()
    import json

    payload = json.loads(out.getvalue())
    assert payload["pass"] is True
    assert len(payload["circuits"]) >= 50
    print(f"[corpus] shipped corpus: PASS ({len(payload['circuits'])} circuits)")
