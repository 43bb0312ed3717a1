"""The benchmark's workloads, the in-process op runner and the correctness gate.

Each workload is one closed-loop client that calls ``sumpaths.cli.main``
in-process, one op after the other, over a fixed list of generated circuit
files. The program only sees those files; the seed stays in the benchmark.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from sumpaths import cli
from sumpaths.circuits import circuit_digest, load_circuit, save_circuit
from sumpaths.corpus import SHIPPED_BASE_SEED, random_circuit
from sumpaths.oracle import marginal_by_sum

MARGINAL_TOL = 1e-9
REACH_CAP = 12


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output must say."""

    argv: tuple[str, ...]
    digest: str
    reference: dict[str, float] | None = None  # oracle marginal; None for verify


def call(argv) -> tuple[int | None, str, float]:
    """Run ``cli.main`` in-process; returns (exit code, stdout, seconds).

    An exception escaping ``main`` is a failed op (exit code None) with the
    traceback as its output.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception:  # the benchmark keeps going and counts the op as failed
            code = None
            out.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


def check(op: Op, code: int | None, stdout: str) -> str | None:
    """Why the op's output is wrong, or None when it is right."""
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not JSON"
    if report.get("circuit") != op.digest:
        return "report names another circuit digest"
    if op.reference is None:
        return None if report.get("pass") is True else "verify report without pass: true"
    probs = report.get("probabilities")
    if not isinstance(probs, dict) or probs.keys() != op.reference.keys():
        return "marginal has other outcomes than the oracle"
    error = max(abs(probs[key] - value) for key, value in op.reference.items())
    return None if error <= MARGINAL_TOL else f"marginal off the oracle by {error:.3e}"


class Gate:
    """Checks every op's output and that repeated ops print the same bytes."""

    def __init__(self) -> None:
        self.first_stdout: dict[tuple[str, ...], str] = {}
        self.failures: list[str] = []

    def admit(self, op: Op, code: int | None, stdout: str) -> bool:
        reason = check(op, code, stdout)
        first = self.first_stdout.setdefault(op.argv, stdout)
        if reason is None and stdout != first:
            reason = "stdout differs from the first run of the same op"
        if reason is not None:
            self.failures.append(f"{' '.join(op.argv)}: {reason}")
        return reason is None


def verify_op(path: Path) -> Op:
    return Op(("verify", "--circuit", str(path)), circuit_digest(load_circuit(str(path))))


def lambda_marginal_op(path: Path) -> Op:
    circuit = load_circuit(str(path))
    reference = marginal_by_sum(circuit, (0,)).as_mapping()
    argv = ("marginal", "--circuit", str(path), "--subsystem", "0", "--method", "lambda")
    return Op(argv, circuit_digest(circuit), reference)


def all_gates_circuits(seed: int, particles: int, layers: int, count: int, workdir: Path) -> list[Path]:
    rng = np.random.default_rng(seed)
    paths = []
    for index in range(count):
        path = workdir / f"n{particles}_l{layers}_{index}.json"
        save_circuit(random_circuit(rng, particles, layers, p_single=1.0, p_phase=1.0), str(path))
        paths.append(path)
    return paths


def corpus_ops(seed: int, workdir: Path, shipped: Path) -> list[Op]:
    """`verify` on each circuit of the shipped corpus, in an order drawn from `seed`.

    The corpus is regenerated by the program's own tool and must equal the
    checked-in files byte for byte and match their manifest digests; otherwise
    ValueError is raised. Corpora of other base seeds mix circuit sizes
    differently, which moved the median op by 17% between seeds, so the
    timed inputs stay fixed and the seed only orders them.
    """
    target = workdir / "corpus"
    subprocess.run(
        [sys.executable, "-m", "sumpaths.corpus", str(target), "--seed", str(SHIPPED_BASE_SEED)],
        env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])),
        check=True,
        capture_output=True,
    )
    manifest = json.loads((target / "manifest.json").read_text(encoding="utf-8"))
    for name in ["manifest.json"] + [entry["file"] for entry in manifest["circuits"]]:
        if (target / name).read_bytes() != (shipped / name).read_bytes():
            raise ValueError(f"generated {name} differs from the checked-in corpus")
    ops = []
    for entry in manifest["circuits"]:
        op = verify_op(target / entry["file"])
        if op.digest != entry["digest"]:
            raise ValueError(f"{entry['file']} does not match its manifest digest")
        ops.append(op)
    order = np.random.default_rng(seed).permutation(len(ops))
    return [ops[i] for i in order]


def lambda_n3_ops(seed: int, workdir: Path, shipped: Path) -> list[Op]:
    return [lambda_marginal_op(p) for p in all_gates_circuits(seed, 3, 5, 4, workdir)]


def verify_n4_ops(seed: int, workdir: Path, shipped: Path) -> list[Op]:
    return [verify_op(p) for p in all_gates_circuits(seed, 4, 5, 8, workdir)]


@dataclass(frozen=True)
class Workload:
    name: str
    make_ops: Callable[[int, Path, Path], list[Op]]  # (seed, workdir, shipped corpus dir)
    probe: Callable[[Path], Op]  # the op whose reach is measured
    particles: int  # of the circuits the probe runs on

    def reach(self, seed: int, workdir: Path) -> int:
        """Largest n <= REACH_CAP at which the probe op answers correctly on an
        all-gates circuit of this workload's particle count."""
        rng = np.random.default_rng(seed)
        reached = 0
        for layers in range(1, REACH_CAP + 1):
            path = workdir / f"reach_{layers}.json"
            save_circuit(random_circuit(rng, self.particles, layers, p_single=1.0, p_phase=1.0), str(path))
            op = self.probe(path)
            code, stdout, _ = call(op.argv)
            if check(op, code, stdout) is not None:
                break
            reached = layers
        return reached


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-corpus", corpus_ops, verify_op, particles=3),
        Workload("lambda-n3", lambda_n3_ops, lambda_marginal_op, particles=3),
        Workload("verify-n4", verify_n4_ops, verify_op, particles=4),
    )
}


@dataclass
class Loop:
    """Outcome of running whole cycles of a workload's ops."""

    latencies: list[float]
    cycles: int
    attempted: int
    failed: int

    @property
    def ops_per_s(self) -> float:
        """Ops completed per second of busy time; the loop only ends on a cycle boundary."""
        return len(self.latencies) / sum(self.latencies)


def run_cycles(
    ops: list[Op],
    gate: Gate,
    seconds: float,
    between: Callable[["Loop"], None] | None = None,
    every: float = 1.0,
) -> Loop:
    """Closed loop over whole cycles of `ops` until `seconds` have passed.

    Only ``cli.main`` is timed; every output is checked between ops. With
    `between`, it is also called with the loop so far between ops, at most
    once every `every` seconds, so that what it samples is spread over the
    whole loop.
    """
    loop = Loop([], 0, 0, 0)
    deadline = time.perf_counter() + seconds
    last_between = float("-inf")
    while True:
        for op in ops:
            code, stdout, elapsed = call(op.argv)
            loop.latencies.append(elapsed)
            loop.attempted += 1
            if not gate.admit(op, code, stdout):
                loop.failed += 1
            if between is not None and time.perf_counter() - last_between >= every:
                last_between = time.perf_counter()
                between(loop)
        loop.cycles += 1
        if time.perf_counter() >= deadline:
            return loop
