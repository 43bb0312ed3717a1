"""Cross-method invariant suite behind the CLI verify command.

Every check applicable to the circuit's particle count runs at a stated
tolerance and reports its worst error; the report is deterministic for a
given input (the no-signaling probe layer is seeded from the circuit
digest). The oracle evolves the no-signaling circuit (this one plus an
external layer) once, holding at most two states; its first n + 1 states
are this circuit's, the last of which every other oracle check reads.

The lambda route of the subsystem (0,) is built once per circuit: the hit
stream of `twoparticle`, or for three particles the cascade, each a stream
of per-layer tables. One conditioned prefix tree serves both the hit stream
and the walk that checks it. One walk over the stream, holding at most the
previous table, computes every per-layer check: the gap to the Gram matrix
of the tree's conditioned external states (telescoping, three_closure), the
largest |lambda| (lambda_bound), and, for the hit stream, the bit-exact
repeat at layers without a gate on particle 0 (zero_hit_layers). The final
table's blocks serve the marginal checks and both sides of no_signaling:
the appended layer has no gate on particle 0, so `table_blocks` folds it
into the amplitudes. The density checks run for two particles only.
general_subsystem reads the pair (0, 1) off one more tree, as Gram
factors whose pair sums build no lambda matrix. Each check is
charged the time since the previous check ended, so a shared build counts
in the first check that needs it and the timings add up to the verify's
wall time. Every reduction keeps a NaN error, so a non-finite result fails
its check. Every budget charge the checks will make (`verify_charges`) is
checked before the first one runs, so a circuit too big for any of them
exits before any work.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from time import perf_counter
from typing import Container, Iterable, Iterator

import numpy as np

from .circuits import Circuit, append_external_layer, circuit_digest
from .common import DEFAULT_BUDGET, Charge, check_charges
from .density import density_charges, density_report
from .oracle import Distribution, check_particles, marginal_of, states
from .paths import Path, amplitudes_via_paths, conditioned_prefix_states, pathsum_charges
from .subsystems import conditioned_blocks, conditioned_charges, table_blocks
from .threeparticle import cascade_charges, lambda3_tables
from .twoparticle import hit, lambda_tables, marginal_deviation, prefix_tree, prefix_tree_charges

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


def _hermitian_gap(table: np.ndarray) -> float:
    """max |A - A^H|, over slabs of 64 rows so each transposed read stays small; a NaN still fails."""
    return _worst(
        np.max(np.abs(table[start : start + 64] - table[:, start : start + 64].conj().T))
        for start in range(0, table.shape[0], 64)
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
    circuit: Circuit,
    tables: Iterator[np.ndarray],
    tree: list[np.ndarray],
    gateless: Container[int] = (),
) -> tuple[np.ndarray, float, float, float]:
    """Per-layer checks of a lambda stream, holding at most the previous table.

    Returns the final table, the worst gap |lambda_t - G_t| to the Gram
    matrix G_t of the conditioned external states `tree[t]` after layer t,
    the largest |lambda_t|, and the worst zero-hit error at the `gateless`
    layers of the hit stream, where the table must repeat the previous one
    over the new bit and one path pair's scalar `hit` must be 0, both
    bit-exact.
    """
    p = Path(modes=(0,) * circuit.n)
    q = Path(modes=(1,) * (circuit.n - 1) + (0,)) if circuit.n > 1 else p
    gaps, largest, zero_hit = [], [], [0.0]
    previous = None
    for t, lam in enumerate(tables):
        gram = tree[t].conj() @ tree[t].T
        gaps.append(float(np.max(np.abs(np.subtract(lam, gram, out=gram)))))
        largest.append(float(np.max(np.abs(lam))))
        if t in gateless:
            size = previous.shape[0]
            grown = lam.reshape(size, 2, size, 2)
            repeated = previous[:, None, :, None]
            if not np.array_equal(grown, np.broadcast_to(repeated, grown.shape)):
                zero_hit.append(float(np.max(np.abs(grown - repeated))))
            zero_hit.append(abs(hit(circuit, (0,), (p,), (q,), t)))
        previous = lam
    return previous, _worst(gaps), _worst(largest), _worst(zero_hit)


def _stream_checks(
    runner: _Runner, circuit: Circuit, budget: int, oracle: Distribution, tol: float
) -> tuple[list[float], np.ndarray]:
    """The hit stream's checks, at every particle count but three; density only for two."""
    layers = enumerate(circuit.layers, start=1)
    gateless = [t for t, layer in layers if all(gate.pair[0] != 0 for gate in layer.phases)]
    tree = prefix_tree(circuit, budget)
    final, gap, largest, zero_hit = _walk_layers(circuit, lambda_tables(circuit, tree=tree), tree, gateless)
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
    runner.run("hermitian_pairing", 1e-12, lambda: _hermitian_gap(final))
    runner.run("lambda_bound", 1e-10, lambda: _worst([0.0, largest - 1.0]))
    if circuit.particles == 2:
        records = density_report(circuit, budget)
        runner.run(
            "density_reconstruction", 1e-10, lambda: _worst(r["frobenius_error"] for r in records)
        )
        runner.run("density_hit_diagonal", 1e-12, lambda: _worst(r["hit_diagonal_max"] for r in records))
        runner.run(
            "density_offdiagonal_form", 1e-12, lambda: _worst(r["offdiagonal_error"] for r in records)
        )
        runner.run("density_pathsum", 1e-10, lambda: _worst(r["pathsum_error"] for r in records))
    return marginals, final


def _three_particle_checks(
    runner: _Runner, circuit: Circuit, budget: int, oracle: Distribution, tol: float
) -> tuple[list[float], np.ndarray]:
    tree = conditioned_prefix_states(circuit, (0,))
    final, gap, largest, _ = _walk_layers(circuit, lambda3_tables(circuit, budget), tree)
    marginals = [block.marginal() for _, block in table_blocks(circuit, final)]
    _marginal_checks(runner, marginals, oracle, tol)
    runner.run("three_closure", tol, lambda: gap)
    runner.run("hermitian_pairing", 1e-12, lambda: _hermitian_gap(final))
    runner.run("lambda_bound", 1e-10, lambda: _worst([0.0, largest - 1.0]))
    return marginals, final


def verify_charges(circuit: Circuit) -> list[Charge]:
    """Every budget charge `verify_circuit` makes, in the order its checks make them."""
    charges = pathsum_charges(circuit) if circuit.n >= 1 else []
    n = circuit.particles
    if n >= 2 and circuit.n >= 1:
        if n == 3:
            charges += cascade_charges(circuit)
        else:
            charges += prefix_tree_charges(circuit)
        if n == 2:
            charges += density_charges(circuit)
        if n >= 3:
            charges += conditioned_charges(circuit, (0, 1))
    return charges


def verify_circuit(
    circuit: Circuit, tol: float = DEFAULT_TOL, budget: int = DEFAULT_BUDGET
) -> VerificationReport:
    """Run every applicable invariant; raises BudgetExceeded if the circuit is too big.

    The oracle's particle cap and every `verify_charges` charge are checked
    before any check runs, in the order the checks would meet them.
    """
    check_particles(circuit.particles)
    check_charges(verify_charges(circuit), budget)
    runner = _Runner()
    digest = circuit_digest(circuit)
    n = circuit.particles
    probed = n >= 2 and circuit.n >= 1
    extended = append_external_layer(circuit, np.random.default_rng(int(digest[:8], 16))) if probed else circuit
    stream, norm_errors = states(extended), []
    for final in itertools.islice(stream, circuit.n + 1):  # no_signaling reads the next state
        norm_errors.append(abs(np.linalg.norm(final) - 1.0))
    runner.run("norm_preservation", 1e-12, lambda: _worst(norm_errors))
    if circuit.n >= 1:
        runner.run(
            "pathsum_completeness", 1e-10, lambda: _worst(np.abs(amplitudes_via_paths(circuit, budget) - final))
        )

    if probed:
        oracle = marginal_of(final, n, {0})
        route_checks = _three_particle_checks if n == 3 else _stream_checks
        base_lam, table = route_checks(runner, circuit, budget, oracle, tol)

        if n >= 3:
            runner.run("general_subsystem", tol, lambda: _general_subsystem_error(circuit, final, budget))

        # read when no_signaling runs: the appended layer has no gate on particle 0, so it folds
        ext_blocks = table_blocks(extended, table)
        runner.run(
            "no_signaling",
            1e-12,
            lambda: _no_signaling_error(oracle, base_lam, marginal_of(next(stream), n, {0}), ext_blocks),
        )

    return VerificationReport(digest=digest, checks=tuple(runner.checks))


def _general_subsystem_error(circuit: Circuit, final: np.ndarray, budget: int) -> float:
    """The pair (0, 1) by the general route against the oracle's final state."""
    oracle = marginal_of(final, circuit.particles, (0, 1))
    blocks = conditioned_blocks(circuit, (0, 1), budget)
    return _worst(abs(block.marginal() - oracle[outcome]) for outcome, block in blocks)


def _no_signaling_error(
    base_oracle: Distribution, base_lam: list[float], ext_oracle: Distribution, ext_blocks: Iterable
) -> float:
    """Appending an external layer must move neither the oracle nor the lambda marginal."""
    ext_lam = [block.marginal() for _, block in ext_blocks]
    return _worst(
        [abs(base_oracle[j] - ext_oracle[j]) for j in (0, 1)]
        + [abs(base_lam[j] - ext_lam[j]) for j in (0, 1)]
    )
