"""Command line interface: marginals, traces, verification, demos, perturbation probes.

All results go to standard output through one writer, `_write`: canonically
serialized JSON (sorted keys, repr floats: the text of json.dumps(...,
sort_keys=True, indent=2), written directly by `_json`) or, with `--format
csv`, flat rows, so identical inputs produce byte-identical reports;
diagnostics go to standard error. Exit codes: 0 success, 1 invariant or
assertion failure (a NaN or infinite result included, which neither JSON
nor CSV output holds), 2 invalid input, 3 budget exceeded: `--budget`
bounds every table a command builds, the oracle's state vectors included.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path as FsPath
from typing import Iterable

import numpy as np

from .circuits import (
    Circuit,
    CircuitError,
    _parse_complex_matrix,
    _read_json,
    build_epr_circuit,
    circuit_digest,
    load_circuit,
)
from .common import DEFAULT_BUDGET, BudgetExceeded, LambdaBlock, check_budget, check_charges
from .density import density_report
from .oracle import marginal_by_sum
from .paths import Path, amplitudes_via_paths, enumerate_paths, member_paths_at, normalize_subsystem, path_amplitude
from .subsystems import dense_lambda_charges, lambda_blocks, lambda_marginals
from .threeparticle import lambda_three
from .twoparticle import lambda_accumulate
from .verify import verify_circuit


def _json(value, indent: str = "\n") -> str:
    """The text json.dumps(value, sort_keys=True, indent=2, allow_nan=False) writes, at the
    nesting whose line break and indent is `indent`, for the value types reports hold: dict
    (str keys), list, str, int, float, bool and None, tested in the order reports hold them
    most. A NaN or infinite float raises ArithmeticError: JSON has no form for it."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ArithmeticError("result is not finite")
        return float.__repr__(value)
    if isinstance(value, str):
        return _encode_str(value)
    inner = indent + "  "
    if isinstance(value, list):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_json(item, inner) for item in value]) + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_encode_str(key) + ": " + _json(item, inner) for key, item in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write(
    args: argparse.Namespace,
    report: dict,
    header: tuple[str, ...],
    rows: Iterable[tuple],
    circuit: Circuit | None = None,
    failure: str = "",
) -> int:
    """Write a command's result to stdout as `--format` asks, then raise `failure`, if any.

    JSON is `report` in the schema envelope, with `circuit`'s digest when one
    is given. CSV is `header` and `rows` of raw cells, floats in repr form. A
    non-finite float fails before anything is written. A command that failed
    still writes its result; `failure` then raises ArithmeticError (exit 1).
    """
    if args.format == "csv":
        rows = list(rows)
        if not all(math.isfinite(cell) for row in rows for cell in row if isinstance(cell, float)):
            raise ArithmeticError("result is not finite")
        lines = [",".join(header)]
        lines += [",".join(repr(float(c)) if isinstance(c, float) else str(c) for c in row) for row in rows]
        text = "\n".join(lines)
    else:
        report = {"schema": 1, **report}
        if circuit is not None:
            report["circuit"] = circuit_digest(circuit)
        text = _json(report)
    sys.stdout.write(text + "\n")
    if failure:
        raise ArithmeticError(failure)
    return 0


def _c(value: complex) -> list[float]:
    return [float(value.real), float(value.imag)]


def _matrix(m: np.ndarray) -> list:
    return [[_c(cell) for cell in row] for row in np.asarray(m, dtype=complex)]


def _parse_indices(text: str, what: str) -> tuple[int, ...]:
    """Comma-separated integers, as `--subsystem`, `--endpoint` and `--pair` take them."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise CircuitError(f"bad {what} spec {text!r}") from None


def _label(outcome: tuple[int, ...]) -> str:
    return "".join(str(b) for b in outcome)


def _lambda_distribution(circuit: Circuit, subsystem: tuple[int, ...], budget: int) -> dict[str, float]:
    return {_label(outcome): p for outcome, p in lambda_marginals(circuit, subsystem, budget).items()}


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
    subsystem = normalize_subsystem(circuit, _parse_indices(args.subsystem, "subsystem"))
    if args.method == "oracle":
        probs = marginal_by_sum(circuit, subsystem, args.budget).as_mapping()
    elif args.method == "pathsum":
        probs = _pathsum_distribution(circuit, subsystem, args.budget)
    else:
        probs = _lambda_distribution(circuit, subsystem, args.budget)
    report = {"method": args.method, "subsystem": list(subsystem), "probabilities": probs}
    return _write(args, report, ("outcome", "probability"), sorted(probs.items()), circuit)


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
    subsystem = normalize_subsystem(circuit, _parse_indices(args.subsystem, "subsystem"))
    endpoints = _parse_indices(args.endpoint, "endpoint")
    if len(endpoints) != len(subsystem):
        raise CircuitError("need one endpoint per subsystem particle")
    if args.pair.count(",") != 1:
        raise CircuitError(f"pair must be two comma-separated indices, got {args.pair!r}")
    first, second = _parse_indices(args.pair, "pair")
    cascade = subsystem == (0,) and circuit.particles == 3
    p, q = (_select(circuit.n, endpoints, index) for index in (first, second))

    report: dict = {
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
        entry = lambda_accumulate(circuit, subsystem, p, q, args.budget)
        hits = entry.hits
    report["trajectory"] = [_c(v) for v in entry.trajectory]
    report["hits"] = [_c(v) for v in hits]
    rows = (
        (t, *value, *([0.0, 0.0] if t == 0 else report["hits"][t - 1]))
        for t, value in enumerate(report["trajectory"])
    )
    return _write(args, report, ("layer", "lambda_re", "lambda_im", "hit_re", "hit_im"), rows, circuit)


def _select(n: int, endpoints: tuple[int, ...], index: int) -> tuple[Path, ...]:
    """The member paths at `index`, built from its bits; no other path is made."""
    try:
        return member_paths_at(n, endpoints, index)
    except IndexError:
        count = (1 << (n - 1)) ** len(endpoints)
        raise CircuitError(f"pair index {index} out of range 0..{count - 1}") from None


def _verify_one(circuit: Circuit, args: argparse.Namespace) -> dict:
    return verify_circuit(circuit, args.budget).to_json(with_timings=args.timings)


def cmd_verify(args: argparse.Namespace) -> int:
    if (args.circuit is None) == (args.manifest is None):
        raise CircuitError("verify needs exactly one of --circuit or --manifest")
    fields = ("name", "max_error", "tolerance", "pass") + (("timing_ms",) if args.timings else ())
    header = ("check", *fields[1:])
    if args.circuit is not None:
        report = _verify_one(load_circuit(args.circuit), args)
        rows = (tuple(c[field] for field in fields) for c in report["checks"])
        failed = [c["name"] for c in report["checks"] if not c["pass"]]
        failure = f"checks failed: {', '.join(failed)}" if failed else ""
        return _write(args, report, header, rows, failure=failure)

    manifest_path = FsPath(args.manifest)
    manifest = _read_json(manifest_path)
    entries = manifest.get("circuits") if isinstance(manifest, dict) else None
    if not isinstance(entries, list) or not all(
        isinstance(entry, dict) and isinstance(entry.get("file"), str) for entry in entries
    ):
        raise CircuitError(f"{manifest_path}: manifest needs a 'circuits' list of objects, each with a 'file' name")
    reports = []
    for entry in entries:
        circuit = load_circuit(str(manifest_path.parent / entry["file"]))
        report = _verify_one(circuit, args)
        if "digest" in entry and entry["digest"] != report["circuit"]:
            raise CircuitError(f"{entry['file']}: digest differs from its manifest entry")
        report["file"] = entry["file"]
        reports.append(report)
    rows = ((r["file"], *(c[field] for field in fields)) for r in reports for c in r["checks"])
    failed = [r["file"] for r in reports if not r["pass"]]
    failure = f"circuits failed: {', '.join(failed)}" if failed else ""
    report = {"pass": not failed, "circuits": reports}
    return _write(args, report, ("file", *header), rows, failure=failure)


def _parse_gate_spec(text: str, option: str) -> np.ndarray:
    """A rotation angle in radians, or an explicit 2x2 matrix of [re, im] pairs read as circuit files read theirs."""
    try:
        angle = float(text)
    except ValueError:
        try:
            entries = json.loads(text)
        except (json.JSONDecodeError, RecursionError):  # the decoder recurses once per nesting level
            raise CircuitError(f"gate spec {text!r} is neither an angle nor a JSON matrix") from None
        return np.array(_parse_complex_matrix(entries, f"gate spec {option}")).reshape(2, 2)
    if not math.isfinite(angle):
        raise CircuitError(f"gate spec {option}: angle {text!r} is not finite")
    return np.array(
        [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]],
        dtype=complex,
    )


def cmd_epr(args: argparse.Namespace) -> int:
    a2 = _parse_gate_spec(args.a2, "--a2")
    b2 = _parse_gate_spec(args.b2, "--b2")
    circuit = build_epr_circuit(a2, b2)
    oracle = marginal_by_sum(circuit, {0}, args.budget).as_mapping()
    pathsum = _pathsum_distribution(circuit, (0,), args.budget)
    lam_probs = _lambda_distribution(circuit, (0,), args.budget)
    cross = lambda_accumulate(circuit, (0,), (Path((0, 0)),), (Path((1, 0)),), args.budget)

    max_marginal_error = max(
        abs(probs[key] - 0.5)
        for probs in (oracle, pathsum, lam_probs)
        for key in ("0", "1")
    )
    hit_error = max(abs(cross.hits[0] + 1.0), abs(cross.hits[1]))
    checks = {
        "uniform_marginals": max_marginal_error < 1e-10,
        "cross_pair_lambda": abs(cross.final) < 1e-12,
        "cross_pair_hits": hit_error < 1e-12,
    }
    failed = [name for name, passed in checks.items() if not passed]
    marginals = {"oracle": oracle, "pathsum": pathsum, "lambda": lam_probs}
    report = {
        "marginals": marginals,
        "cross_pair_lambda": _c(cross.final),
        "cross_pair_hits": [_c(v) for v in cross.hits],
        "max_marginal_error": max_marginal_error,
        "pass": not failed,
    }
    rows = ((method, outcome, probs[outcome]) for method, probs in marginals.items() for outcome in ("0", "1"))
    failure = f"checks failed: {', '.join(failed)}" if failed else ""
    return _write(args, report, ("method", "outcome", "probability"), rows, circuit, failure)


def _clamped(lam: np.ndarray, clamp: float) -> np.ndarray:
    """lambda with every hidden-variable magnitude above `clamp` scaled down to it."""
    magnitude = np.abs(lam)
    scale = np.ones_like(magnitude)
    over = magnitude > clamp
    scale[over] = clamp / magnitude[over]
    return lam * scale


def cmd_perturb(args: argparse.Namespace) -> int:
    if not math.isfinite(args.clamp):
        raise CircuitError(f"clamp must be finite, got {args.clamp}")
    if args.clamp < 0:
        raise CircuitError("clamp must be non-negative")
    circuit = load_circuit(args.circuit)
    subsystem = normalize_subsystem(circuit, _parse_indices(args.subsystem, "subsystem"))
    oracle = marginal_by_sum(circuit, subsystem, args.budget).as_mapping()

    check_charges(dense_lambda_charges(circuit, subsystem), args.budget)  # the clamp reads the blocks' lambda
    blocks = list(lambda_blocks(circuit, subsystem, args.budget))
    lam = _clamped(blocks[0][1].lam, args.clamp)  # every outcome's block shares one lambda: clamped once
    raw = {_label(outcome): LambdaBlock(block.amplitudes, lam).marginal() for outcome, block in blocks}
    raw_total = sum(raw.values())
    probabilities = {key: value / raw_total for key, value in raw.items()}
    deviations = {key: probabilities[key] - oracle[key] for key in raw}
    report = {
        "subsystem": list(subsystem),
        "clamp": args.clamp,
        "raw": raw,
        "raw_total": raw_total,
        "probabilities": probabilities,
        "oracle": oracle,
        "deviation": deviations,
        "max_deviation": max(abs(v) for v in deviations.values()),
    }
    rows = ((key, raw[key], probabilities[key], oracle[key], deviations[key]) for key in sorted(raw))
    return _write(args, report, ("outcome", "raw", "probability", "oracle", "deviation"), rows, circuit)


def cmd_paths(args: argparse.Namespace) -> int:
    circuit = load_circuit(args.circuit)
    if not 0 <= args.particle < circuit.particles:
        raise CircuitError(f"particle {args.particle} out of range")
    if args.endpoint not in (0, 1):
        raise CircuitError("endpoint must be 0 or 1")
    check_budget(1 << max(circuit.n - 1, 0), args.budget, "path enumeration")
    paths = enumerate_paths(circuit.n, args.endpoint)
    rows = [(i, p, path_amplitude(circuit, args.particle, p)) for i, p in enumerate(paths)]
    report = {
        "particle": args.particle,
        "endpoint": args.endpoint,
        "paths": [{"index": i, "modes": p.bitstring(), "amplitude": _c(a)} for i, p, a in rows],
    }
    csv_rows = ((i, p.bitstring(), a.real, a.imag) for i, p, a in rows)
    return _write(args, report, ("index", "modes", "re", "im"), csv_rows, circuit)


def cmd_density(args: argparse.Namespace) -> int:
    circuit = load_circuit(args.circuit)
    records = density_report(circuit, args.budget)
    report = {
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
    rows = (
        (r["layer"], r["frobenius_error"], r["hit_diagonal_max"], r["offdiagonal_error"], r["pathsum_error"])
        for r in records
    )
    header = ("t", "frobeniusError", "hitDiagonalMax", "offdiagonalError", "pathsumError")
    return _write(args, report, header, rows, circuit)


def _add_common(parser: argparse.ArgumentParser, circuit: bool = True) -> None:
    if circuit:
        parser.add_argument("--circuit", required=True, help="circuit JSON file")
    parser.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET, help="most entries any one table or state vector may hold"
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json")


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
    _add_common(p, circuit=False)
    p.add_argument(
        "--timings",
        action="store_true",
        help="include per-check timings (reports are no longer byte-stable)",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("epr", help="EPR-B demo: uniform marginals, vanished interference")
    p.add_argument("--a2", default="0.0", help="rotation angle or 2x2 [re,im] matrix JSON")
    p.add_argument("--b2", default="0.0", help="rotation angle or 2x2 [re,im] matrix JSON")
    _add_common(p, circuit=False)
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
    try:
        if args.budget <= 0:
            raise CircuitError(f"budget must be positive, got {args.budget}")
        with np.errstate(all="ignore"):  # a non-finite result gets one error line from _write
            return args.func(args)
    except BudgetExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except ArithmeticError as err:  # norm drift in the oracle, a complex pair sum
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (CircuitError, OSError, KeyError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
