"""Cross-method invariant suite behind the CLI verify command.

Every check applicable to the circuit's particle count runs at a stated
tolerance and reports its worst error; the report is deterministic for a
given input (the no-signaling probe layer is seeded from the circuit
digest).
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, circuit_digest
from .common import DEFAULT_BUDGET
from .corpus import append_external_layer
from .density import density_report
from .oracle import evolve, marginal_by_sum
from .paths import Path, amplitude_via_paths
from .subsystems import lambda_block, marginal_general
from .threeparticle import Lambda3Tables, lambda3_tables
from .twoparticle import lambda_tables, marginal_lambda

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_error: float
    tolerance: float
    passed: bool
    timing_ms: float

    def to_json(self, with_timings: bool) -> dict:
        record = {
            "name": self.name,
            "max_error": self.max_error,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }
        if with_timings:
            record["timing_ms"] = self.timing_ms
        return record


@dataclass(frozen=True)
class VerificationReport:
    digest: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_json(self, with_timings: bool = False) -> dict:
        return {
            "schema": 1,
            "circuit": self.digest,
            "checks": [check.to_json(with_timings) for check in self.checks],
            "pass": self.passed,
        }


class _Runner:
    def __init__(self) -> None:
        self.checks: list[CheckResult] = []

    def run(self, name: str, tolerance: float, fn) -> None:
        start = time.perf_counter()
        error = float(fn())
        elapsed = (time.perf_counter() - start) * 1000.0
        self.checks.append(
            CheckResult(
                name=name,
                max_error=error,
                tolerance=tolerance,
                passed=error <= tolerance,
                timing_ms=elapsed,
            )
        )


def _norm_preservation(circuit: Circuit) -> float:
    return max(
        abs(np.linalg.norm(evolve(circuit, t)) - 1.0) for t in range(circuit.n + 1)
    )


def _pathsum_completeness(circuit: Circuit, budget: int) -> float:
    state = evolve(circuit)
    worst = 0.0
    for index, outcome in enumerate(itertools.product((0, 1), repeat=circuit.particles)):
        worst = max(worst, abs(amplitude_via_paths(circuit, outcome, budget) - state[index]))
    return worst


def _lambda_marginals(
    circuit: Circuit, budget: int, tables3: Lambda3Tables | None
) -> list[float]:
    if circuit.particles == 2:
        return [marginal_lambda(circuit, j, budget) for j in (0, 1)]
    if tables3 is not None:
        return [tables3.marginal(j) for j in (0, 1)]
    return [marginal_general(circuit, (0,), (j,), budget) for j in (0, 1)]


def verify_circuit(
    circuit: Circuit, tol: float = DEFAULT_TOL, budget: int = DEFAULT_BUDGET
) -> VerificationReport:
    """Run every applicable invariant; raises BudgetExceeded if the circuit is too big."""
    digest = circuit_digest(circuit)
    runner = _Runner()
    n = circuit.particles

    runner.run("norm_preservation", 1e-12, lambda: _norm_preservation(circuit))
    if circuit.n >= 1:
        runner.run("pathsum_completeness", 1e-10, lambda: _pathsum_completeness(circuit, budget))

    if n >= 2 and circuit.n >= 1:
        oracle = marginal_by_sum(circuit, {0})
        # one three-particle build serves the marginals and every table check
        tables3 = lambda3_tables(circuit, budget) if n == 3 else None
        lam_marginals = _lambda_marginals(circuit, budget, tables3)
        runner.run(
            "oracle_equivalence",
            tol,
            lambda: max(abs(lam_marginals[j] - oracle[j]) for j in (0, 1)),
        )
        runner.run(
            "marginal_normalization", tol, lambda: abs(sum(lam_marginals) - 1.0)
        )

        if n == 2:
            tables = lambda_tables(circuit, budget, keep_trajectory=False)
            runner.run("telescoping", 1e-10, lambda: tables.telescoping_error)
            runner.run("zero_hit_layers", 0.0, lambda: _zero_hit_error(circuit, budget))
            runner.run(
                "two_form_equivalence",
                1e-10,
                lambda: max(
                    abs(tables.marginal(j) - tables.marginal_deviation(j)) for j in (0, 1)
                ),
            )
            final = tables.final
            runner.run(
                "hermitian_pairing",
                1e-12,
                lambda: float(np.max(np.abs(final - final.conj().T))),
            )
            runner.run("lambda_bound", 1e-10, lambda: max(0.0, tables.max_abs - 1.0))
            records = density_report(circuit)
            runner.run(
                "density_reconstruction",
                1e-10,
                lambda: max(r["frobenius_error"] for r in records),
            )
            runner.run(
                "density_hit_diagonal",
                1e-12,
                lambda: max(r["hit_diagonal_max"] for r in records),
            )
            runner.run(
                "density_offdiagonal_form",
                1e-12,
                lambda: max(r["offdiagonal_error"] for r in records),
            )
            runner.run(
                "density_pathsum", 1e-10, lambda: max(r["pathsum_error"] for r in records)
            )
        elif n == 3:
            runner.run(
                "three_closure",
                tol,
                lambda: max(
                    float(np.max(np.abs(tables3.lam[t] - tables3.direct[t])))
                    for t in range(circuit.n + 1)
                ),
            )
            final = tables3.lam[circuit.n]
            runner.run(
                "hermitian_pairing",
                1e-12,
                lambda: float(np.max(np.abs(final - final.conj().T))),
            )
            runner.run(
                "lambda_bound",
                1e-10,
                lambda: max(0.0, max(float(np.max(np.abs(t_))) for t_ in tables3.lam) - 1.0),
            )
        else:
            blocks = [
                lambda_block(circuit, (0,), (j,), budget) for j in (0, 1)
            ]
            runner.run(
                "hermitian_pairing",
                1e-12,
                lambda: max(
                    float(np.max(np.abs(b.lam - b.lam.conj().T))) for b in blocks
                ),
            )
            runner.run(
                "lambda_bound",
                1e-10,
                lambda: max(
                    0.0, max(float(np.max(np.abs(b.lam))) for b in blocks) - 1.0
                ),
            )

        if n >= 3:
            pair = (0, 1)
            oracle_pair = marginal_by_sum(circuit, pair)
            runner.run(
                "general_subsystem",
                tol,
                lambda: max(
                    abs(marginal_general(circuit, pair, outcome, budget) - oracle_pair[outcome])
                    for outcome in itertools.product((0, 1), repeat=2)
                ),
            )

        runner.run("no_signaling", 1e-12, lambda: _no_signaling_error(circuit, digest, budget))

    return VerificationReport(digest=digest, checks=tuple(runner.checks))


def _zero_hit_error(circuit: Circuit, budget: int) -> float:
    """Hits at interaction-free layers must be bit-exact zeros, table and scalar alike."""
    from .twoparticle import hit

    worst = 0.0
    if circuit.n <= 8:  # full trajectory comparison only at sizes where it is cheap
        tables = lambda_tables(circuit, budget, keep_trajectory=True)
        for t in range(1, tables.n + 1):
            if tables.hits[t] is None:
                expanded = np.repeat(np.repeat(tables.lam[t - 1], 2, axis=0), 2, axis=1)
                if not np.array_equal(tables.lam[t], expanded):
                    worst = max(worst, float(np.max(np.abs(tables.lam[t] - expanded))))
    gateless = [t for t in range(1, circuit.n + 1) if circuit.phase(t, (0, 1)) is None]
    if gateless:
        p = Path(modes=(0,) * circuit.n)
        q = Path(modes=(1,) * (circuit.n - 1) + (0,)) if circuit.n > 1 else p
        for t in gateless:
            value = hit(circuit, p, q, t)
            if value != 0j:
                worst = max(worst, abs(value))
    return worst


def _no_signaling_error(circuit: Circuit, digest: str, budget: int) -> float:
    # The probe layer lengthens the circuit, so the three-particle cascade
    # table can outgrow the budget here; the conditioned inner-product form
    # of the lambda marginal scales and is used for N >= 3 instead.
    def lam_marginals(c: Circuit) -> list[float]:
        if c.particles == 2:
            return [marginal_lambda(c, j, budget) for j in (0, 1)]
        return [marginal_general(c, (0,), (j,), budget) for j in (0, 1)]

    rng = np.random.default_rng(int(digest[:8], 16))
    extended = append_external_layer(circuit, rng, subsystem=(0,))
    base_oracle = marginal_by_sum(circuit, {0})
    ext_oracle = marginal_by_sum(extended, {0})
    base_lam = lam_marginals(circuit)
    ext_lam = lam_marginals(extended)
    return max(
        max(abs(base_oracle[j] - ext_oracle[j]) for j in (0, 1)),
        max(abs(base_lam[j] - ext_lam[j]) for j in (0, 1)),
    )
