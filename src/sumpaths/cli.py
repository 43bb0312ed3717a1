"""Command line interface: marginals, traces, verification, demos, perturbation probes.

All results go to standard output as canonically serialized JSON (sorted
keys, repr floats), so identical inputs produce byte-identical reports;
diagnostics go to standard error. Exit codes: 0 success, 1 invariant or
assertion failure (a NaN or infinite result included, which neither JSON
nor CSV output holds), 2 invalid input, 3 path budget exceeded.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from pathlib import Path as FsPath

import numpy as np

from . import oracle as oracle_module
from .circuits import (
    Circuit,
    CircuitError,
    CircuitFormatError,
    _unique_keys,
    build_epr_circuit,
    circuit_digest,
    load_circuit,
)
from .common import DEFAULT_BUDGET, BudgetExceeded, LambdaBlock, check_budget
from .density import density_report
from .oracle import marginal_by_sum
from .paths import Path, amplitudes_via_paths, enumerate_paths, member_paths_at, normalize_subsystem, path_amplitude
from .subsystems import lambda_blocks
from .threeparticle import lambda_three
from .twoparticle import lambda_accumulate
from .verify import DEFAULT_TOL, verify_circuit


def _emit(obj: dict) -> None:
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:  # NaN and infinity have no JSON form
        raise ArithmeticError("result is not finite") from None
    sys.stdout.write(text + "\n")


def _emit_csv(rows: list[tuple], header: tuple) -> None:
    """Rows of raw cells, floats in repr form; a non-finite float fails before anything is written."""
    if not all(math.isfinite(cell) for row in rows for cell in row if isinstance(cell, float)):
        raise ArithmeticError("result is not finite")
    lines = [",".join(header)]
    lines += [",".join(repr(float(c)) if isinstance(c, float) else str(c) for c in row) for row in rows]
    sys.stdout.write("\n".join(lines) + "\n")


def _c(value: complex) -> list[float]:
    return [float(value.real), float(value.imag)]


def _matrix(m: np.ndarray) -> list:
    return [[_c(cell) for cell in row] for row in np.asarray(m, dtype=complex)]


def _parse_subsystem(text: str, circuit: Circuit) -> tuple[int, ...]:
    try:
        indices = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise CircuitError(f"bad subsystem spec {text!r}") from None
    return normalize_subsystem(circuit, indices)


def _label(outcome: tuple[int, ...]) -> str:
    return "".join(str(b) for b in outcome)


def _lambda_distribution(circuit: Circuit, subsystem: tuple[int, ...], budget: int) -> dict[str, float]:
    probs = {}
    for outcome, block in lambda_blocks(circuit, subsystem, budget):
        probs[_label(outcome)] = block.marginal()
        del block  # a folded endpoint block is dense: the next is built without this one alive
    return probs


def _pathsum_distribution(circuit: Circuit, subsystem: tuple[int, ...], budget: int) -> dict[str, float]:
    joint = np.abs(amplitudes_via_paths(circuit, budget).reshape((2,) * circuit.particles)) ** 2
    external = tuple(i for i in range(circuit.particles) if i not in subsystem)
    marginal = joint.sum(axis=external)  # axes left in ascending subsystem order
    return {
        _label(outcome): float(marginal[outcome])
        for outcome in itertools.product((0, 1), repeat=len(subsystem))
    }


def cmd_marginal(args: argparse.Namespace) -> int:
    circuit = load_circuit(args.circuit)
    subsystem = _parse_subsystem(args.subsystem, circuit)
    if args.method == "oracle":
        probs = marginal_by_sum(circuit, subsystem).as_mapping()
    elif args.method == "pathsum":
        probs = _pathsum_distribution(circuit, subsystem, args.budget)
    else:
        probs = _lambda_distribution(circuit, subsystem, args.budget)
    if args.format == "csv":
        _emit_csv(
            sorted(probs.items()),
            ("outcome", "probability"),
        )
        return 0
    _emit(
        {
            "schema": 1,
            "circuit": circuit_digest(circuit),
            "method": args.method,
            "subsystem": list(subsystem),
            "probabilities": probs,
        }
    )
    return 0


def _parse_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise CircuitError(f"pair must be two comma-separated indices, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise CircuitError(f"bad pair spec {text!r}") from None


def _branch_json(terms) -> list[dict]:
    return [
        {
            "endpoint": term.endpoint,
            "left": term.left.bitstring(),
            "right": term.right.bitstring(),
            "delta": _c(term.delta),
            "gamma_sum": _c(term.gamma_sum),
            "chi_sum": _c(term.chi_sum),
            "value": _c(term.value),
        }
        for term in terms
    ]


def cmd_trace(args: argparse.Namespace) -> int:
    circuit = load_circuit(args.circuit)
    subsystem = _parse_subsystem(args.subsystem, circuit)
    endpoints = tuple(int(part) for part in str(args.endpoint).split(","))
    if len(endpoints) != len(subsystem):
        raise CircuitError("need one endpoint per subsystem particle")
    first, second = _parse_pair(args.pair)
    check_budget((1 << max(circuit.n - 1, 0)) ** len(subsystem), args.budget, "path enumeration")
    cascade = subsystem == (0,) and circuit.particles == 3
    # the cascade charges its own branch pairs; the (0,) of two particles never paid for its 2-amplitude state
    if not cascade and (subsystem != (0,) or circuit.particles > 2):
        check_budget(1 << (circuit.particles - len(subsystem)), args.budget, "conditioned external states")
    p, q = (_select(circuit.n, endpoints, index) for index in (first, second))

    report: dict = {
        "schema": 1,
        "circuit": circuit_digest(circuit),
        "subsystem": list(subsystem),
        "endpoint": list(endpoints),
        "pair": [first, second],
    }
    if subsystem == (0,):
        report["paths"] = [p[0].bitstring(), q[0].bitstring()]
    else:
        report["paths"] = [[path.bitstring() for path in paths] for paths in (p, q)]
    if cascade:
        entry = lambda_three(circuit, p[0], q[0], args.budget)
        hits = [b.total for b in entry.breakdowns]
        report["breakdowns"] = [
            {
                "layer": b.layer,
                "total": _c(b.total),
                "ab_branch": _branch_json(b.ab_branch),
                "ac_branch": _branch_json(b.ac_branch),
            }
            for b in entry.breakdowns
        ]
    else:
        entry = lambda_accumulate(circuit, subsystem, p, q)
        hits = entry.hits
    report["trajectory"] = [_c(v) for v in entry.trajectory]
    report["hits"] = [_c(v) for v in hits]
    if args.format == "csv":
        rows = []
        for t, value in enumerate(report["trajectory"]):
            hit_value = [0.0, 0.0] if t == 0 else report["hits"][t - 1]
            rows.append((t, *value, *hit_value))
        _emit_csv(rows, ("layer", "lambda_re", "lambda_im", "hit_re", "hit_im"))
        return 0
    _emit(report)
    return 0


def _select(n: int, endpoints: tuple[int, ...], index: int) -> tuple[Path, ...]:
    """The member paths at `index`, built from its bits; no other path is made."""
    try:
        return member_paths_at(n, endpoints, index)
    except IndexError:
        count = (1 << (n - 1)) ** len(endpoints)
        raise CircuitError(f"pair index {index} out of range 0..{count - 1}") from None


def _verify_one(circuit: Circuit, args: argparse.Namespace) -> dict:
    report = verify_circuit(circuit, tol=args.tol, budget=args.budget)
    return report.to_json(with_timings=args.timings)


def cmd_verify(args: argparse.Namespace) -> int:
    if (args.circuit is None) == (args.manifest is None):
        raise CircuitError("verify needs exactly one of --circuit or --manifest")
    if not math.isfinite(args.tol) or args.tol < 0:
        raise CircuitError(f"tol must be finite and non-negative, got {args.tol}")
    if args.circuit is not None:
        report = _verify_one(load_circuit(args.circuit), args)
        if args.format == "csv":
            _emit_csv(
                [
                    (c["name"], c["max_error"], c["tolerance"], c["pass"])
                    for c in report["checks"]
                ],
                ("check", "max_error", "tolerance", "pass"),
            )
        else:
            _emit(report)
        failed = [c["name"] for c in report["checks"] if not c["pass"]]
        if failed:
            raise ArithmeticError(f"checks failed: {', '.join(failed)}")
        return 0

    manifest_path = FsPath(args.manifest)
    with open(manifest_path, encoding="utf-8") as handle:
        try:
            manifest = json.load(handle, object_pairs_hook=_unique_keys)
        except RecursionError:  # the decoder recurses once per nesting level
            raise CircuitFormatError(f"{manifest_path}: invalid JSON (nested too deeply)") from None
        except CircuitFormatError as err:
            raise CircuitFormatError(f"{manifest_path}: {err}") from None
    entries = manifest.get("circuits") if isinstance(manifest, dict) else None
    if not isinstance(entries, list) or not all(
        isinstance(entry, dict) and isinstance(entry.get("file"), str) for entry in entries
    ):
        raise CircuitError("manifest needs a 'circuits' list of objects, each with a 'file' name")
    reports = []
    for entry in entries:
        circuit = load_circuit(str(manifest_path.parent / entry["file"]))
        report = _verify_one(circuit, args)
        if "digest" in entry and entry["digest"] != report["circuit"]:
            raise CircuitError(f"{entry['file']}: digest differs from its manifest entry")
        report["file"] = entry["file"]
        reports.append(report)
    overall = all(r["pass"] for r in reports)
    _emit({"schema": 1, "pass": overall, "circuits": reports})
    if not overall:
        raise ArithmeticError(f"circuits failed: {', '.join(r['file'] for r in reports if not r['pass'])}")
    return 0


def _parse_gate_spec(text: str) -> np.ndarray:
    """A rotation angle in radians, or an explicit 2x2 matrix of [re, im] pairs."""
    try:
        angle = float(text)
        return np.array(
            [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]],
            dtype=complex,
        )
    except ValueError:
        pass
    try:
        entries = json.loads(text)
    except (json.JSONDecodeError, RecursionError):  # the decoder recurses once per nesting level
        raise CircuitError(f"gate spec {text!r} is neither an angle nor a JSON matrix") from None
    try:
        return np.array([[complex(re, im) for re, im in row] for row in entries])
    except (TypeError, ValueError):
        raise CircuitError(f"gate spec {text!r} is not a matrix of [re, im] pairs") from None


def cmd_epr(args: argparse.Namespace) -> int:
    a2 = _parse_gate_spec(args.a2)
    b2 = _parse_gate_spec(args.b2)
    circuit = build_epr_circuit(a2, b2)
    oracle = marginal_by_sum(circuit, {0}).as_mapping()
    pathsum = _pathsum_distribution(circuit, (0,), args.budget)
    lam_probs = _lambda_distribution(circuit, (0,), args.budget)
    cross = lambda_accumulate(circuit, (0,), (Path((0, 0)),), (Path((1, 0)),))

    max_marginal_error = max(
        abs(probs[key] - 0.5)
        for probs in (oracle, pathsum, lam_probs)
        for key in ("0", "1")
    )
    hit_error = max(abs(cross.hits[0] + 1.0), abs(cross.hits[1]))
    passed = (
        max_marginal_error < 1e-10 and abs(cross.final) < 1e-12 and hit_error < 1e-12
    )
    if args.format == "csv":
        rows = [
            (method, outcome, probs[outcome])
            for method, probs in (("oracle", oracle), ("pathsum", pathsum), ("lambda", lam_probs))
            for outcome in ("0", "1")
        ]
        _emit_csv(rows, ("method", "outcome", "probability"))
        return 0 if passed else 1
    _emit(
        {
            "schema": 1,
            "circuit": circuit_digest(circuit),
            "marginals": {"oracle": oracle, "pathsum": pathsum, "lambda": lam_probs},
            "cross_pair_lambda": _c(cross.final),
            "cross_pair_hits": [_c(v) for v in cross.hits],
            "max_marginal_error": max_marginal_error,
            "pass": passed,
        }
    )
    return 0 if passed else 1


def _clamped(block: LambdaBlock, clamp: float) -> LambdaBlock:
    """The block with every hidden-variable magnitude above `clamp` scaled down to it."""
    magnitude = np.abs(block.lam)
    scale = np.ones_like(magnitude)
    over = magnitude > clamp
    scale[over] = clamp / magnitude[over]
    return LambdaBlock(block.amplitudes, block.lam * scale)


def cmd_perturb(args: argparse.Namespace) -> int:
    if not math.isfinite(args.clamp):
        raise CircuitError(f"clamp must be finite, got {args.clamp}")
    if args.clamp < 0:
        raise CircuitError("clamp must be non-negative")
    circuit = load_circuit(args.circuit)
    subsystem = _parse_subsystem(args.subsystem, circuit)
    oracle = marginal_by_sum(circuit, subsystem).as_mapping()

    raw = {}
    for outcome, block in lambda_blocks(circuit, subsystem, args.budget):
        raw[_label(outcome)] = _clamped(block, args.clamp).marginal()
        del block  # the block keeps its dense lambda: the next is built without this one alive
    raw_total = sum(raw.values())
    probabilities = {key: value / raw_total for key, value in raw.items()}
    deviations = {key: probabilities[key] - oracle[key] for key in raw}
    if args.format == "csv":
        _emit_csv(
            [
                (key, raw[key], probabilities[key], oracle[key], deviations[key])
                for key in sorted(raw)
            ],
            ("outcome", "raw", "probability", "oracle", "deviation"),
        )
        return 0
    _emit(
        {
            "schema": 1,
            "circuit": circuit_digest(circuit),
            "subsystem": list(subsystem),
            "clamp": args.clamp,
            "raw": raw,
            "raw_total": raw_total,
            "probabilities": probabilities,
            "oracle": oracle,
            "deviation": deviations,
            "max_deviation": max(abs(v) for v in deviations.values()),
        }
    )
    return 0


def cmd_paths(args: argparse.Namespace) -> int:
    circuit = load_circuit(args.circuit)
    if not 0 <= args.particle < circuit.particles:
        raise CircuitError(f"particle {args.particle} out of range")
    if args.endpoint not in (0, 1):
        raise CircuitError("endpoint must be 0 or 1")
    check_budget(1 << max(circuit.n - 1, 0), args.budget, "path enumeration")
    rows = []
    for index, path in enumerate(enumerate_paths(circuit.n, args.endpoint)):
        rows.append((index, path, path_amplitude(circuit, args.particle, path)))
    if args.format == "csv":
        _emit_csv(
            [(i, p.bitstring(), a.real, a.imag) for i, p, a in rows],
            ("index", "modes", "re", "im"),
        )
        return 0
    _emit(
        {
            "schema": 1,
            "circuit": circuit_digest(circuit),
            "particle": args.particle,
            "endpoint": args.endpoint,
            "paths": [
                {"index": i, "modes": p.bitstring(), "amplitude": _c(a)} for i, p, a in rows
            ],
        }
    )
    return 0


def cmd_density(args: argparse.Namespace) -> int:
    circuit = load_circuit(args.circuit)
    records = density_report(circuit, args.budget)
    if args.format == "csv":
        _emit_csv(
            [
                (r["layer"], r["frobenius_error"], r["hit_diagonal_max"],
                 r["offdiagonal_error"], r["pathsum_error"])
                for r in records
            ],
            ("t", "frobeniusError", "hitDiagonalMax", "offdiagonalError", "pathsumError"),
        )
        return 0
    _emit(
        {
            "schema": 1,
            "circuit": circuit_digest(circuit),
            "layers": [
                {
                    "t": r["layer"],
                    "miss": _matrix(r["miss"]),
                    "hit": _matrix(r["hit"]),
                    "sum": _matrix(r["total"]),
                    "oracle": _matrix(r["oracle"]),
                    "frobeniusError": r["frobenius_error"],
                }
                for r in records
            ],
        }
    )
    return 0


def _add_common(parser: argparse.ArgumentParser, circuit: bool = True) -> None:
    if circuit:
        parser.add_argument("--circuit", required=True, help="circuit JSON file")
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="path budget")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument(
        "--oracle-cap",
        type=int,
        default=None,
        help="override the state-vector oracle's particle ceiling (default 12)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="sumpaths",
        description="Subsystem marginals by state vector, raw path sums, and the "
        "hidden-variable decomposition, with cross-method verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("marginal", help="subsystem marginal distribution")
    _add_common(p)
    p.add_argument("--subsystem", default="0", help="comma-separated particle indices")
    p.add_argument("--method", choices=("oracle", "pathsum", "lambda"), default="lambda")
    p.set_defaults(func=cmd_marginal)

    p = sub.add_parser("trace", help="hidden-variable trajectory for one path pair")
    _add_common(p)
    p.add_argument("--subsystem", default="0")
    p.add_argument("--endpoint", default="0", help="endpoint mode(s), comma-separated")
    p.add_argument("--pair", required=True, help="two lexicographic path indices, e.g. 0,1")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--circuit", help="circuit JSON file")
    p.add_argument("--manifest", help="corpus manifest JSON file")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--oracle-cap", type=int, default=None)
    p.add_argument(
        "--timings",
        action="store_true",
        help="include per-check timings (reports are no longer byte-stable)",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("epr", help="EPR-B demo: uniform marginals, vanished interference")
    p.add_argument("--a2", default="0.0", help="rotation angle or 2x2 [re,im] matrix JSON")
    p.add_argument("--b2", default="0.0", help="rotation angle or 2x2 [re,im] matrix JSON")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_epr)

    p = sub.add_parser("perturb", help="clamp hidden-variable magnitudes and compare")
    _add_common(p)
    p.add_argument("--subsystem", default="0")
    p.add_argument("--clamp", type=float, required=True, help="magnitude ceiling c >= 0")
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("paths", help="dump enumerated paths with amplitudes")
    _add_common(p)
    p.add_argument("--particle", type=int, required=True)
    p.add_argument("--endpoint", type=int, required=True)
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("density", help="per-layer reduced-density hit/miss split")
    _add_common(p)
    p.set_defaults(func=cmd_density)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cap = oracle_module.MAX_ORACLE_PARTICLES
    try:
        if args.budget <= 0:
            raise CircuitError(f"budget must be positive, got {args.budget}")
        if getattr(args, "oracle_cap", None) is not None:
            if args.oracle_cap < 1:
                raise CircuitError(f"oracle cap must be at least 1, got {args.oracle_cap}")
            oracle_module.MAX_ORACLE_PARTICLES = args.oracle_cap
        with np.errstate(all="ignore"):  # a non-finite result gets one error line from _emit
            return args.func(args)
    except BudgetExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except ArithmeticError as err:  # norm drift in the oracle, a complex pair sum
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (CircuitError, OSError, json.JSONDecodeError, KeyError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        oracle_module.MAX_ORACLE_PARTICLES = cap  # the override lasts one call


if __name__ == "__main__":
    sys.exit(main())
