"""Cross-method invariant suite behind the CLI verify command.

Every check applicable to the circuit's particle count runs at a stated
tolerance and reports its worst error; the report is deterministic for a
given input (the no-signaling probe layer is seeded from the circuit
digest). The oracle evolves the no-signaling circuit (this one plus an
external layer) once, holding at most two states past two particles; its
first n + 1 states are this circuit's, the last of which every other
oracle check reads, and at two particles the density report reads them
all.

The lambda route of the subsystem (0,) is built once per circuit, by one
walk at every particle count. Its producer yields each layer's hit as
low-rank factors beside particle 0's tree table of the same layer: the
cascade of `threeparticle` for three particles, listed first and zipped
with `paths.conditioned_prefix_state_layers`, or particle 0's prefix tree
(`twoparticle.tree_layers`) for any other count, which yields the table
its step grew beside the factors it read off that step, so the tree grows
once. The walk adds each layer's factors to the last lambda
(`common.add_hit`), reads it beside the tree table of the same layer, and
passes the layer on to two pair sums (`common.PairSums`, the reader
`marginal` prints through), which keep none of it: the no-signaling
circuit's reads every layer, and the base circuit's layers 1..n-1 alone,
as `subsystems.lambda_marginals` does, since layer n's hit is zero on
every pair of paths that end together. So oracle_equivalence checks the
very bits `marginal` prints. Every layer still reaches lambda, for
three_closure, telescoping, hermitian_pairing and two_form_equivalence.
The marginals sum the factors layer by layer, never the closed form the
hits telescope to, the Gram matrix of the last tree table, so
oracle_equivalence stays no restatement of the tree.
Holding at most the previous lambda, the walk computes every per-layer
check: the gap to the Gram matrix of the tree table (three_closure at
three particles, telescoping otherwise), the largest |lambda|
(lambda_bound), and, for the tree's stream, the bit-exact repeat at layers
without a gate on particle 0 (zero_hit_layers). The final lambda serves
hermitian_pairing, and its endpoint rows final[j::2, j::2] serve
two_form_equivalence. The appended no-signaling layer has no gate on
particle 0, so it books no hit. The density checks run for two particles
only, on one `density_report`: the hit/miss recursion over the stacked
layers, against the reduced densities of the states the oracle checks
evolved. general_subsystem reads the pair (0, 1) through
`subsystems.lambda_marginals`, off one more tree grown to table n - 1,
whose pair sums build no lambda matrix. Each check is charged the time
since the previous check ended, so a shared build counts in the first
check that needs it and the timings add up to the verify's wall time. Every
reduction keeps a NaN error, so a non-finite result fails its check.
Every budget charge the checks will make (`verify_charges`) is checked
before the first one runs, so a circuit too big for any of them exits
before any work.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from time import perf_counter
from typing import Container, Iterable

import numpy as np

from .circuits import Circuit, append_external_layer, circuit_digest
from .common import DEFAULT_BUDGET, Charge, HitLayer, LambdaBlock, PairSums, add_hit, check_charges
from .density import density_charges, density_report
from .oracle import Distribution, marginal_of, oracle_charges, states
from .paths import Path, amplitudes_via_paths, conditioned_prefix_state_layers, pathsum_charges
from .subsystems import amplitude_charges, joint_amplitudes, lambda_charges, lambda_marginals
from .threeparticle import cascade_hit_charges, cascade_hits, hit_factor_charges
from .twoparticle import hit, marginal_deviation, tree_hit_charges, tree_layers

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
    circuit: Circuit,
    pairs: Iterable[tuple[HitLayer, np.ndarray]],
    gateless: Container[int],
    base: PairSums,
    extended: PairSums,
) -> tuple[np.ndarray, float, float, float]:
    """Per-layer checks of (layer t's hit factors, tree table t) pairs, adding each hit to lambda and holding at most the previous lambda.

    Each layer is passed on to both pair sums and kept by neither: the
    `extended` circuit's reads every layer, the base circuit's layers
    1..n-1, as `subsystems.lambda_marginals` does. Returns the final
    lambda, the worst gap |lambda_t - G_t| to the Gram matrix G_t of the
    conditioned external states in tree table t, the largest |lambda_t|,
    and the worst zero-hit error at the `gateless` layers of the tree's
    stream, where the table must repeat the previous one over the new bit
    and one path pair's scalar `hit` must be 0, both bit-exact. Table 0 is the tree's root, whose Gram
    matrix is lambda_0 = 1.
    """
    n = circuit.n
    p = Path(modes=(0,) * n)
    q = Path(modes=(1,) * (n - 1) + (0,)) if n > 1 else p
    lam = np.ones((1, 1), dtype=complex)
    gaps, largest, zero_hit = [0.0], [1.0], [0.0]
    for t, (hits, table) in enumerate(pairs, start=1):
        previous, lam = lam, add_hit(lam, hits)
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
        extended.read(hits)
        if t < n:  # layer n adds nothing on the pairs of paths that end together
            base.read(hits)
    return lam, _worst(gaps), _worst(largest), _worst(zero_hit)


def _lambda_checks(
    runner: _Runner, circuit: Circuit, extended: Circuit, budget: int, oracle: Distribution, history: list[np.ndarray]
) -> tuple[list[float], list[float]]:
    """The (0,) hit stream's checks, by one walk at every particle count; density only for two.

    The walk reads the cascade's factors at three particles, listed first so
    the cascade's struck path weights and partner states are gone before
    any lambda table is built, beside particle 0's tree tables; at any other
    count it reads `twoparticle.tree_layers`, whose tree grows once. It
    passes layers 1..n-1 to the base circuit's pair sums, which the marginal
    checks and no_signaling read, and every layer to the extended circuit's:
    the appended layer has no gate on particle 0, so it books no hit. Three
    particles check three_closure where the tree's stream checks
    telescoping, zero_hit_layers and two_form_equivalence, which reads the
    endpoint rows of the final lambda. Returns the base and the `extended`
    circuit's lambda marginals, for no_signaling.
    """
    cascade = circuit.particles == 3
    if cascade:
        tree = itertools.islice(conditioned_prefix_state_layers(circuit, (0,)), 1, None)
        pairs = zip(list(cascade_hits(circuit, budget)), tree, strict=True)
        gateless = []
    else:
        pairs = tree_layers(circuit, (0,))
        gateless = [t for t, layer in enumerate(circuit.layers, start=1) if all(0 not in g.pair for g in layer.phases)]
    base = PairSums(joint_amplitudes(circuit, (0,)), 1)
    ext = PairSums(joint_amplitudes(extended, (0,)), 1)
    final, gap, largest, zero_hit = _walk_layers(circuit, pairs, gateless, base, ext)
    marginals = base.totals.tolist()
    runner.run("oracle_equivalence", MARGINAL_TOL, _worst(abs(marginals[j] - oracle[j]) for j in (0, 1)))
    runner.run("marginal_normalization", MARGINAL_TOL, abs(sum(marginals) - 1.0))
    if cascade:
        runner.run("three_closure", MARGINAL_TOL, gap)
    else:
        runner.run("telescoping", 1e-10, gap)
        runner.run("zero_hit_layers", 0.0, zero_hit)
        blocks = [LambdaBlock(base.amplitudes[j], final[j::2, j::2]) for j in (0, 1)]
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
    return marginals, ext.totals.tolist()


def verify_charges(circuit: Circuit) -> list[Charge]:
    """Every budget charge `verify_circuit` makes, in the order its checks make them.

    The (0,) walk charges its last lambda table, 4^n path pairs, then what
    its producer holds: the cascade's struck path weights and partner
    states and the hit factors listed before the walk, or the tree's table
    and pre-gate states. The pair sums charge the extended circuit's path
    amplitudes and their folds, which cover the base circuit's.
    general_subsystem charges what `subsystems.lambda_marginals` holds for
    (0, 1).
    """
    charges = oracle_charges(circuit) + (pathsum_charges(circuit) if circuit.n >= 1 else [])
    n = circuit.particles
    if n >= 2 and circuit.n >= 1:
        charges += [(4**circuit.n, "path-pair table")]
        charges += cascade_hit_charges(circuit) + hit_factor_charges(circuit) if n == 3 else tree_hit_charges(circuit, (0,))
        charges += amplitude_charges(circuit.n + 1, 1)
        if n == 2:
            charges += density_charges(circuit)
        if n >= 3:
            charges += lambda_charges(circuit, (0, 1))
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
        base_lam, ext_lam = _lambda_checks(runner, circuit, extended, budget, oracle, history)

        if n >= 3:
            runner.run("general_subsystem", MARGINAL_TOL, _general_subsystem_error(circuit, final, budget))

        ext_oracle = marginal_of(next(stream), n, {0})
        runner.run("no_signaling", 1e-12, _no_signaling_error(oracle, base_lam, ext_oracle, ext_lam))

    return VerificationReport(digest=digest, checks=tuple(runner.checks))


def _general_subsystem_error(circuit: Circuit, final: np.ndarray, budget: int) -> float:
    """The pair (0, 1) by `subsystems.lambda_marginals` against the oracle's final state."""
    oracle = marginal_of(final, circuit.particles, (0, 1))
    return _worst(abs(probability - oracle[outcome]) for outcome, probability in lambda_marginals(circuit, (0, 1), budget).items())


def _no_signaling_error(
    base_oracle: Distribution, base_lam: list[float], ext_oracle: Distribution, ext_lam: list[float]
) -> float:
    """Appending an external layer must move neither the oracle nor the lambda marginal."""
    return _worst(
        [abs(base_oracle[j] - ext_oracle[j]) for j in (0, 1)]
        + [abs(base_lam[j] - ext_lam[j]) for j in (0, 1)]
    )
