"""Cross-method invariant suite behind the CLI verify command.

Every check applicable to the circuit's particle count runs at a stated
tolerance and reports its worst error; the report is deterministic for a
given input (the no-signaling probe layer is seeded from the circuit
digest). The oracle evolves the no-signaling circuit (this one plus an
external layer) once, holding at most two states past two particles; its
first n + 1 states are this circuit's, the last of which every other
oracle check reads, and at two particles the density report reads them
all.

The lambda route of the subsystem (0,) is built once per circuit: the hit
stream of `twoparticle`, or for three particles the cascade, each a stream
of per-layer tables. The walk reads each lambda beside particle 0's
conditioned prefix-tree table of the same layer: the hit stream yields
that table itself, grown by the step whose pre-gate states and straddling
factors its hits read, and the cascade is zipped with
`paths.conditioned_prefix_state_layers`. The hits stay per-layer sums over
those states, never a difference of the tree's Gram matrices, so the walk
is no restatement of the stream. One walk over the pairs, holding at most
the previous lambda, computes every per-layer check: the gap to the Gram
matrix of the tree table (telescoping, three_closure), the largest
|lambda| (lambda_bound), and, for the hit stream, the bit-exact repeat at
layers without a gate on particle 0 (zero_hit_layers). For the hit stream
the final lambda table's blocks serve the marginal checks and both sides
of no_signaling: the appended layer has no gate on particle 0, so
`table_blocks` folds it into the amplitudes. For the cascade the dense
tables, added up by `hit_tables` from a list of every layer's hit
factors, serve three_closure, hermitian_pairing and lambda_bound, while
the marginal checks and no_signaling read `cascade_blocks` over that same
list, the route `marginal` prints; the appended layer books no hit. The
density checks run for two particles only, on one `density_report`: the
hit/miss recursion over the stacked layers, against the reduced densities
of the states the oracle checks evolved.
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
import math
from dataclasses import dataclass
from time import perf_counter
from typing import Container, Iterable, Iterator

import numpy as np

from .circuits import Circuit, append_external_layer, circuit_digest
from .common import DEFAULT_BUDGET, Charge, LambdaBlock, check_charges
from .density import density_charges, density_report
from .oracle import Distribution, marginal_of, oracle_charges, states
from .paths import Path, amplitudes_via_paths, conditioned_prefix_state_layers, pathsum_charges
from .subsystems import cascade_blocks, conditioned_blocks, conditioned_charges, table_blocks
from .threeparticle import cascade_charges, cascade_hits, hit_factor_charges, hit_tables
from .twoparticle import hit, lambda_tables, marginal_deviation, prefix_tree_charges

MARGINAL_TOL = 1e-9  # oracle_equivalence, marginal_normalization, three_closure, general_subsystem


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
    """Records checks in order, each charged the time since the previous one ended, its error's computation included."""

    def __init__(self) -> None:
        self.checks: list[CheckResult] = []
        self.mark = perf_counter()

    def run(self, name: str, tolerance: float, error: float) -> None:
        error = float(error)
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
    """The largest error, or NaN if any error is NaN (the builtin max alone may drop a NaN)."""
    errors = list(errors)
    largest = max(errors)
    return math.nan if any(error != error for error in errors) else float(largest)


def _hermitian_gap(table: np.ndarray) -> float:
    """max |A - A^H|, over slabs of 64 rows so each transposed read stays small; a NaN still fails."""
    return _worst(
        np.max(np.abs(table[start : start + 64] - table[:, start : start + 64].conj().T))
        for start in range(0, table.shape[0], 64)
    )


def _walk_layers(
    circuit: Circuit, pairs: Iterable[tuple[np.ndarray, np.ndarray]], gateless: Container[int]
) -> tuple[np.ndarray, float, float, float]:
    """Per-layer checks of (lambda_t, tree table t) pairs, holding at most the previous lambda.

    Returns the final lambda, the worst gap |lambda_t - G_t| to the Gram
    matrix G_t of the conditioned external states in tree table t, the
    largest |lambda_t|, and the worst zero-hit error at the `gateless`
    layers of the hit stream, where the table must repeat the previous one
    over the new bit and one path pair's scalar `hit` must be 0, both
    bit-exact.
    """
    p = Path(modes=(0,) * circuit.n)
    q = Path(modes=(1,) * (circuit.n - 1) + (0,)) if circuit.n > 1 else p
    gaps, largest, zero_hit = [], [], [0.0]
    previous = None
    for t, (lam, table) in enumerate(pairs):
        gram = table.conj() @ table.T
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


def _lambda_checks(
    runner: _Runner, circuit: Circuit, extended: Circuit, budget: int, oracle: Distribution, history: list[np.ndarray]
) -> tuple[list[float], Iterator[tuple[tuple[int, ...], LambdaBlock]]]:
    """The (0,) route's checks: the cascade's at three particles, else the hit stream's; density only for two.

    Returns the marginals and the `extended` circuit's blocks, for no_signaling.
    """
    cascade = circuit.particles == 3
    if cascade:  # every layer's hit factors, kept for the marginal checks
        hits = list(cascade_hits(circuit, budget))
        pairs = zip(hit_tables(hits), conditioned_prefix_state_layers(circuit, (0,)), strict=True)
    else:
        pairs = lambda_tables(circuit, budget)
    layers = enumerate(circuit.layers, start=1)
    gateless = [] if cascade else [t for t, layer in layers if all(gate.pair[0] != 0 for gate in layer.phases)]
    final, gap, largest, zero_hit = _walk_layers(circuit, pairs, gateless)
    if cascade:  # the appended layer has no gate on particle 0, so it books no hit
        blocks = [block for _, block in cascade_blocks(circuit, hits)]
        ext_blocks = cascade_blocks(extended, hits + [()])
    else:  # the appended layer has no gate on particle 0, so the final table folds it
        blocks = [block for _, block in table_blocks(circuit, final)]
        ext_blocks = table_blocks(extended, final)
    marginals = [block.marginal() for block in blocks]
    runner.run("oracle_equivalence", MARGINAL_TOL, _worst(abs(marginals[j] - oracle[j]) for j in (0, 1)))
    runner.run("marginal_normalization", MARGINAL_TOL, abs(sum(marginals) - 1.0))
    if cascade:
        runner.run("three_closure", MARGINAL_TOL, gap)
    else:
        runner.run("telescoping", 1e-10, gap)
        runner.run("zero_hit_layers", 0.0, zero_hit)
        runner.run(
            "two_form_equivalence",
            1e-10,
            _worst(abs(marginals[j] - marginal_deviation(circuit, j, blocks[j])) for j in (0, 1)),
        )
    runner.run("hermitian_pairing", 1e-12, _hermitian_gap(final))
    runner.run("lambda_bound", 1e-10, _worst([0.0, largest - 1.0]))
    if circuit.particles == 2:
        records = density_report(circuit, budget, history)
        runner.run("density_reconstruction", 1e-10, _worst(r["frobenius_error"] for r in records))
        runner.run("density_hit_diagonal", 1e-12, _worst(r["hit_diagonal_max"] for r in records))
        runner.run("density_offdiagonal_form", 1e-12, _worst(r["offdiagonal_error"] for r in records))
        runner.run("density_pathsum", 1e-10, _worst(r["pathsum_error"] for r in records))
    return marginals, ext_blocks


def verify_charges(circuit: Circuit) -> list[Charge]:
    """Every budget charge `verify_circuit` makes, in the order its checks make them."""
    charges = oracle_charges(circuit) + (pathsum_charges(circuit) if circuit.n >= 1 else [])
    n = circuit.particles
    if n >= 2 and circuit.n >= 1:
        if n == 3:
            charges += cascade_charges(circuit) + hit_factor_charges(circuit)
        else:
            charges += prefix_tree_charges(circuit)
        if n == 2:
            charges += density_charges(circuit)
        if n >= 3:
            charges += conditioned_charges(circuit, (0, 1))
    return charges


def verify_circuit(circuit: Circuit, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Run every applicable invariant; raises BudgetExceeded if the circuit is too big.

    Every `verify_charges` charge, the oracle's first, is checked before any
    check runs, in the order the checks would meet them.
    """
    check_charges(verify_charges(circuit), budget)
    runner = _Runner()
    digest = circuit_digest(circuit)
    n = circuit.particles
    probed = n >= 2 and circuit.n >= 1
    extended = append_external_layer(circuit, np.random.default_rng(int(digest[:8], 16))) if probed else circuit
    stream, norm_errors, history = states(extended, budget=budget), [], []
    for final in itertools.islice(stream, circuit.n + 1):  # no_signaling reads the next state
        norm_errors.append(abs(np.linalg.norm(final) - 1.0))
        if n == 2:  # the density report reads every state
            history.append(final)
    runner.run("norm_preservation", 1e-12, _worst(norm_errors))
    if circuit.n >= 1:
        runner.run("pathsum_completeness", 1e-10, _worst(np.abs(amplitudes_via_paths(circuit, budget) - final)))

    if probed:
        oracle = marginal_of(final, n, {0})
        base_lam, ext_blocks = _lambda_checks(runner, circuit, extended, budget, oracle, history)

        if n >= 3:
            runner.run("general_subsystem", MARGINAL_TOL, _general_subsystem_error(circuit, final, budget))

        ext_oracle = marginal_of(next(stream), n, {0})
        runner.run("no_signaling", 1e-12, _no_signaling_error(oracle, base_lam, ext_oracle, ext_blocks))

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
