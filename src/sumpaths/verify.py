"""Cross-method invariant suite behind the CLI verify command.

Every check applicable to the circuit's particle count runs at a stated
tolerance and reports its worst error; the report is deterministic for a
given input (the no-signaling probe layer is seeded from the circuit
digest).

The lambda route of the subsystem (0,) is built once per circuit: one
two-particle or three-particle stream of per-layer tables, or, for more
particles, one conditioned prefix tree whose blocks are read one at a time.
One walk over the stream, holding at most the previous table, computes every
per-layer check: the gap to the Gram matrix of the conditioned external
states (telescoping, three_closure), the largest |lambda| (lambda_bound),
and, for two particles, the bit-exact repeat at layers without a 0-1 gate
(zero_hit_layers). The final table's blocks serve the marginal checks and
the base side of no_signaling; the extended side is one more build, made
after the base one is released. general_subsystem reads the pair (0, 1) off
one more tree. Each check is charged the time since the previous check
ended, so a shared build counts in the first check that needs it and the
timings add up to the verify's wall time. Every reduction keeps a NaN error,
so a non-finite result fails its check.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from time import perf_counter
from typing import Container, Iterable, Iterator

import numpy as np

from .circuits import Circuit, circuit_digest
from .common import DEFAULT_BUDGET
from .corpus import append_external_layer
from .density import density_report
from .oracle import Distribution, evolve, marginal_by_sum
from .paths import Path, amplitude_via_paths, conditioned_prefix_states
from .subsystems import conditioned_blocks, lambda_blocks, table_blocks
from .threeparticle import lambda3_tables
from .twoparticle import hit, lambda_tables, marginal_deviation

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
    """Runs checks in order, charging each with the time since the previous one ended."""

    def __init__(self) -> None:
        self.checks: list[CheckResult] = []
        self.mark = perf_counter()

    def run(self, name: str, tolerance: float, fn) -> None:
        error = float(fn())
        now = perf_counter()
        self.checks.append(
            CheckResult(
                name=name,
                max_error=error,
                tolerance=tolerance,
                passed=error <= tolerance,
                timing_ms=(now - self.mark) * 1000.0,
            )
        )
        self.mark = now


def _worst(errors: Iterable[float]) -> float:
    """The largest error, or NaN if any error is NaN (the builtin max may drop a NaN)."""
    return float(np.max(list(errors)))


def _norm_preservation(circuit: Circuit) -> float:
    return _worst(abs(np.linalg.norm(evolve(circuit, t)) - 1.0) for t in range(circuit.n + 1))


def _pathsum_completeness(circuit: Circuit, budget: int) -> float:
    state = evolve(circuit)
    return _worst(
        abs(amplitude_via_paths(circuit, outcome, budget) - state[index])
        for index, outcome in enumerate(itertools.product((0, 1), repeat=circuit.particles))
    )


def _marginal_checks(
    runner: _Runner, marginals: list[float], oracle: Distribution, tol: float
) -> None:
    """oracle_equivalence and marginal_normalization of the lambda marginals."""
    runner.run(
        "oracle_equivalence", tol, lambda: _worst(abs(marginals[j] - oracle[j]) for j in (0, 1))
    )
    runner.run("marginal_normalization", tol, lambda: abs(sum(marginals) - 1.0))


def _walk_layers(
    circuit: Circuit, tables: Iterator[np.ndarray], gateless: Container[int] = ()
) -> tuple[np.ndarray, float, float, float]:
    """Per-layer checks of a lambda stream, holding at most the previous table.

    Returns the final table, the worst gap |lambda_t - G_t| to the Gram
    matrix G_t of the conditioned external states after layer t, the largest
    |lambda_t|, and the worst zero-hit error at the `gateless` layers of a
    two-particle circuit, where the table must repeat the previous one over
    the new bit and one path pair's scalar `hit` must be 0, both bit-exact.
    """
    states = conditioned_prefix_states(circuit, (0,))
    p = Path(modes=(0,) * circuit.n)
    q = Path(modes=(1,) * (circuit.n - 1) + (0,)) if circuit.n > 1 else p
    gaps, largest, zero_hit = [], [], [0.0]
    previous = None
    for t, lam in enumerate(tables):
        gram = states[t].conj() @ states[t].T
        gaps.append(float(np.max(np.abs(np.subtract(lam, gram, out=gram)))))
        largest.append(float(np.max(np.abs(lam))))
        if t in gateless:
            size = previous.shape[0]
            grown = lam.reshape(size, 2, size, 2)
            repeated = previous[:, None, :, None]
            if not np.array_equal(grown, np.broadcast_to(repeated, grown.shape)):
                zero_hit.append(float(np.max(np.abs(grown - repeated))))
            zero_hit.append(abs(hit(circuit, p, q, t)))
        previous = lam
    return previous, _worst(gaps), _worst(largest), _worst(zero_hit)


def _two_particle_checks(
    runner: _Runner, circuit: Circuit, budget: int, oracle: Distribution, tol: float
) -> list[float]:
    gateless = [t for t in range(1, circuit.n + 1) if circuit.phase(t, (0, 1)) is None]
    final, gap, largest, zero_hit = _walk_layers(circuit, lambda_tables(circuit, budget), gateless)
    blocks = [block for _, block in table_blocks(circuit, final)]
    marginals = [block.marginal() for block in blocks]
    _marginal_checks(runner, marginals, oracle, tol)
    runner.run("telescoping", 1e-10, lambda: gap)
    runner.run("zero_hit_layers", 0.0, lambda: zero_hit)
    runner.run(
        "two_form_equivalence",
        1e-10,
        lambda: _worst(abs(marginals[j] - marginal_deviation(circuit, j, blocks[j])) for j in (0, 1)),
    )
    runner.run("hermitian_pairing", 1e-12, lambda: float(np.max(np.abs(final - final.conj().T))))
    runner.run("lambda_bound", 1e-10, lambda: _worst([0.0, largest - 1.0]))
    records = density_report(circuit)
    runner.run(
        "density_reconstruction", 1e-10, lambda: _worst(r["frobenius_error"] for r in records)
    )
    runner.run("density_hit_diagonal", 1e-12, lambda: _worst(r["hit_diagonal_max"] for r in records))
    runner.run(
        "density_offdiagonal_form", 1e-12, lambda: _worst(r["offdiagonal_error"] for r in records)
    )
    runner.run("density_pathsum", 1e-10, lambda: _worst(r["pathsum_error"] for r in records))
    return marginals


def _three_particle_checks(
    runner: _Runner, circuit: Circuit, budget: int, oracle: Distribution, tol: float
) -> list[float]:
    final, gap, largest, _ = _walk_layers(circuit, lambda3_tables(circuit, budget))
    marginals = [block.marginal() for _, block in table_blocks(circuit, final)]
    _marginal_checks(runner, marginals, oracle, tol)
    runner.run("three_closure", tol, lambda: gap)
    runner.run("hermitian_pairing", 1e-12, lambda: float(np.max(np.abs(final - final.conj().T))))
    runner.run("lambda_bound", 1e-10, lambda: _worst([0.0, largest - 1.0]))
    return marginals


def _general_checks(
    runner: _Runner, circuit: Circuit, budget: int, oracle: Distribution, tol: float
) -> list[float]:
    # every check reads a block before the next one is built
    marginals, asymmetry, largest = [], [], []
    for _, block in lambda_blocks(circuit, (0,), budget):
        marginals.append(block.marginal())
        asymmetry.append(float(np.max(np.abs(block.lam - block.lam.conj().T))))
        largest.append(float(np.max(np.abs(block.lam))))
        del block  # the next outcome's lambda is built without this one alive
    _marginal_checks(runner, marginals, oracle, tol)
    runner.run("hermitian_pairing", 1e-12, lambda: _worst(asymmetry))
    runner.run("lambda_bound", 1e-10, lambda: _worst([0.0, _worst(largest) - 1.0]))
    return marginals


def verify_circuit(
    circuit: Circuit, tol: float = DEFAULT_TOL, budget: int = DEFAULT_BUDGET
) -> VerificationReport:
    """Run every applicable invariant; raises BudgetExceeded if the circuit is too big."""
    runner = _Runner()
    digest = circuit_digest(circuit)
    n = circuit.particles

    runner.run("norm_preservation", 1e-12, lambda: _norm_preservation(circuit))
    if circuit.n >= 1:
        runner.run("pathsum_completeness", 1e-10, lambda: _pathsum_completeness(circuit, budget))

    if n >= 2 and circuit.n >= 1:
        oracle = marginal_by_sum(circuit, {0})
        # each route's tables live only inside its checks, so they are
        # released before no_signaling builds the extended circuit's
        route_checks = {2: _two_particle_checks, 3: _three_particle_checks}.get(n, _general_checks)
        base_lam = route_checks(runner, circuit, budget, oracle, tol)

        if n >= 3:
            runner.run("general_subsystem", tol, lambda: _general_subsystem_error(circuit, budget))

        runner.run(
            "no_signaling",
            1e-12,
            lambda: _no_signaling_error(circuit, digest, budget, oracle, base_lam),
        )

    return VerificationReport(digest=digest, checks=tuple(runner.checks))


def _general_subsystem_error(circuit: Circuit, budget: int) -> float:
    """The pair (0, 1) by the general route against the oracle."""
    oracle = marginal_by_sum(circuit, (0, 1))
    errors = []
    for outcome, block in conditioned_blocks(circuit, (0, 1), budget):
        errors.append(abs(block.marginal() - oracle[outcome]))
        del block  # the next outcome's lambda is built without this one alive
    return _worst(errors)


def _no_signaling_error(
    circuit: Circuit, digest: str, budget: int, base_oracle: Distribution, base_lam: list[float]
) -> float:
    """Appending an external layer must move neither the oracle nor the lambda marginal."""
    rng = np.random.default_rng(int(digest[:8], 16))
    extended = append_external_layer(circuit, rng, subsystem=(0,))
    ext_oracle = marginal_by_sum(extended, {0})
    ext_lam = [block.marginal() for _, block in lambda_blocks(extended, (0,), budget)]
    return _worst(
        [abs(base_oracle[j] - ext_oracle[j]) for j in (0, 1)]
        + [abs(base_lam[j] - ext_lam[j]) for j in (0, 1)]
    )
