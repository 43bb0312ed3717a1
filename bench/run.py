"""Benchmark of the sumpaths CLI: one workload per run, metrics as JSON on the last line.

Run from the root of a sumpaths checkout:

    python3 bench/run.py --workload verify-corpus --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics with tracing off. ``--trace 1``
reports per-layer metrics from a traced run of the same workload, timed by
spans around the public functions of each ``src/sumpaths`` module.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing

WORKLOAD_NAMES = ("verify-corpus", "lambda-n3", "verify-n4")

# One BLAS thread: on a small machine more threads raise CPU use and
# run-to-run spread without lowering wall time. Set before numpy loads.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# A fixed string-hash seed and no address-space randomization give every run
# the same allocation sequence and layout, so page-fault counts repeat exactly.
FIXED_ENV = dict(THREAD_ENV, PYTHONHASHSEED="0")
ADDR_NO_RANDOMIZE = 0x0040000

SETUP_SNIPPET = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import sumpaths, sumpaths.cli\n"
    "sumpaths.cli.build_parser()\n"
    "print(time.perf_counter() - start)\n"
)

# The host lends its cores to other machines and runs up to 1.7x slower for
# tens of seconds at a time, which moved raw op rates by 10-25% between runs
# of the same code. So the gated timings are scaled to a reference speed,
# REFERENCE_PROBE_S, the speed probe's median on the 2.1 GHz Xeon host the
# bounds were set on. Probes run between ops, outside the timed region, at
# most once every PROBE_EVERY_S. The op rate is scaled by the run's median
# probe time; each latency by the probes that ran nearest it, because the
# tail follows the host's slow spells, which the run's median does not see.
REFERENCE_PROBE_S = 0.045
PROBE_EVERY_S = 0.5

# One cycle of a workload's ops, in a fresh interpreter, in a fixed order; prints
# the interpreter's peak RSS in KiB. The ops' output is checked in the main loop.
RSS_SNIPPET = (
    "import contextlib, io, json, resource, sys\n"
    "from sumpaths import cli\n"
    "for argv in json.load(sys.stdin):\n"
    "    with contextlib.redirect_stdout(io.StringIO()):\n"
    "        code = cli.main(argv)\n"
    "    if code != 0:\n"
    "        sys.exit(f'{argv}: exit code {code}')\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
)

UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "ref_ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "reach_layers": "layers",
}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    for suffix, suffix_unit in (("_ms", "ms"), ("_mb", "MB"), ("_pct", "%")):
        if name.endswith(suffix):
            return suffix_unit
    return "count"


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with at least pct% of values at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def local_slowdowns(probes: list[tuple[int, float]], count: int, nearest: int = 3) -> list[float]:
    """Slowdown of the machine during each of `count` ops: the median time of
    the `nearest` probes that ran closest to the op, over REFERENCE_PROBE_S.
    Each probe is (number of ops done before it, seconds)."""
    slowdowns = []
    for index in range(count):
        near = sorted(probes, key=lambda probe: abs(probe[0] - index - 0.5))[:nearest]
        slowdowns.append(statistics.median(seconds for _, seconds in near) / REFERENCE_PROBE_S)
    return slowdowns


def beyond(values: list[float], threshold: float) -> int:
    return sum(1 for v in values if v > threshold)


def reexec_fixed() -> None:
    """Restart this script with FIXED_ENV and address randomization off, unless already so."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    persona = libc.personality(0xFFFFFFFF)
    randomized = persona != -1 and not persona & ADDR_NO_RANDOMIZE
    if randomized:
        randomized = libc.personality(persona | ADDR_NO_RANDOMIZE) != -1
    if randomized or any(os.environ.get(k) != v for k, v in FIXED_ENV.items()):
        os.execve(sys.executable, [sys.executable] + sys.argv, dict(os.environ, **FIXED_ENV))


def child_env(root: Path) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def measure_setup(root: Path) -> float:
    """Import plus parser build time in a fresh interpreter."""
    result = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET],
        env=child_env(root),
        cwd=root,
        check=True,
        capture_output=True,
        text=True,
    )
    return float(result.stdout)


def measure_peak_rss_mb(root: Path, ops) -> float:
    """Peak RSS of a fresh interpreter that runs each op once, sorted by argv.

    A fresh process keeps the benchmark's own arrays, the speed probes and the
    allocator state left by earlier cycles out of the figure, and the fixed
    order makes it independent of the seed's op order."""
    result = subprocess.run(
        [sys.executable, "-c", RSS_SNIPPET],
        input=json.dumps(sorted(list(op.argv) for op in ops)),
        env=child_env(root),
        cwd=root,
        check=True,
        capture_output=True,
        text=True,
    )
    return int(result.stdout) / 1024.0


def cpu_times() -> list[int] | None:
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            return [int(field) for field in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before: list[int] | None, after: list[int] | None) -> float | None:
    """Share of CPU time the hypervisor gave to others (field 8 of /proc/stat's cpu line)."""
    if before is None or after is None or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else None


def speed_probe() -> float:
    """Seconds for a fixed kernel: an interpreter loop, then 8 MB of normals
    made into ten new 8 MB arrays. It calls no sumpaths code, so a change to
    the program leaves it alone, while a host that runs slower makes it
    slower. Of the kernels tried (interpreter loop, dense matmuls, small-array
    numpy, large arrays), this sum's time tracked the ops' time most closely."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for k in range(150_000):
        total += k * k
    values = np.random.default_rng(2).standard_normal(1 << 20)
    for _ in range(10):
        values = values * 1.0000001 + 1e-9
    return time.perf_counter() - start


def calibration_ms() -> float:
    """Median of five speed probes, in ms, to tell machine drift from program change."""
    return statistics.median(speed_probe() for _ in range(5)) * 1000.0


def machine_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "env": {key: os.environ.get(key) for key in FIXED_ENV},
    }


def untraced_cycles(ops, gate, seconds: float, **hooks):
    """``run_cycles`` with a check that no tracing wrapper is installed around it."""
    from workloads import run_cycles

    if tracing.installed_wrappers():
        raise RuntimeError("tracing wrappers installed before an untraced loop")
    loop = run_cycles(ops, gate, seconds, **hooks)
    if tracing.installed_wrappers():
        raise RuntimeError("tracing wrappers installed during an untraced loop")
    return loop


def end_to_end(workload, seed: int, seconds: float, root: Path, workdir: Path):
    """Untraced run: (metrics, record printed next to them, ops attempted, ops failed)."""
    from workloads import Gate

    # Set-up samples are split around the timed loop, so that they see more
    # than one state of the machine. The first interpreter may compile
    # bytecode, so its time is dropped.
    setup = [measure_setup(root) for _ in range(11)][1:]
    ops = workload.make_ops(seed, workdir, root / "corpus")
    gate = Gate()
    untraced_cycles(ops, gate, 0.0)  # warm-up cycle; also records each op's first stdout
    calibration_before = calibration_ms()
    probes: list[tuple[int, float]] = []  # (ops done before the probe, seconds)

    def probe(so_far) -> None:
        probes.append((len(so_far.latencies), speed_probe()))

    loop = untraced_cycles(ops, gate, seconds, between=probe, every=PROBE_EVERY_S)
    setup += [measure_setup(root) for _ in range(11)]
    latencies_ms = [v * 1000.0 for v in loop.latencies]
    p50, p90 = percentile(latencies_ms, 50), percentile(latencies_ms, 90)
    slowdown = statistics.median(seconds for _, seconds in probes) / REFERENCE_PROBE_S
    scaled_ms = [v / s for v, s in zip(latencies_ms, local_slowdowns(probes, len(latencies_ms)))]
    ref_p90 = percentile(scaled_ms, 90)
    metrics = {
        "setup_s": statistics.median(setup),
        "ref_ops_per_s": loop.ops_per_s * slowdown,
        "ref_latency_p90_ms": ref_p90,
        "peak_rss_mb": measure_peak_rss_mb(root, ops),
        "success_rate": 1.0 - loop.failed / loop.attempted,
        "reach_layers": workload.reach(seed, workdir),
    }
    record = {
        "samples": len(latencies_ms),
        "beyond_ref_p90": beyond(scaled_ms, ref_p90),
        "ops_per_s": loop.ops_per_s,
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "ref_latency_p50_ms": percentile(scaled_ms, 50),
        "slowdown": slowdown,
        "probes": len(probes),
        "cycles": loop.cycles,
        "ops_per_cycle": len(ops),
        "setup_samples": len(setup),
        "error_rate": loop.failed / loop.attempted,
        "failures": gate.failures[:5],
        "calibration_ms": [calibration_before, calibration_ms()],
    }
    return metrics, record, loop.attempted, loop.failed


def traced(workload, seed: int, seconds: float, root: Path, workdir: Path):
    """Traced run: (per-op layer metrics, record, ops attempted, ops failed).

    Counts come from one traced cycle right after the warm-up, at the same
    point of every run's history, so that page-fault counts repeat exactly.
    Self times come from a longer traced loop, which follows an untraced loop
    of equal length; their ops rates give the tracing overhead.
    """
    from workloads import Gate, run_cycles

    ops = workload.make_ops(seed, workdir, root / "corpus")
    gate = Gate()
    untraced_cycles(ops, gate, 0.0)
    with tracing.Tracer() as counter:
        counted = run_cycles(ops, gate, 0.0)
    # After the counted cycle: the probe's large arrays move the allocator's
    # mmap threshold, which would change the page-fault counts.
    calibration_before = calibration_ms()
    plain = untraced_cycles(ops, gate, seconds / 2)
    with tracing.Tracer() as timer:
        timed = run_cycles(ops, gate, seconds / 2)
    with tracing.Tracer(track_alloc=True) as alloc_tracer:
        alloc = run_cycles(ops, gate, 0.0)
    timer.write_spans(workdir.parent / f"spans-{workload.name}-{seed}.jsonl")

    metrics = timer.self_ms(timed.attempted)
    metrics.update(counter.counts(counted.attempted))
    metrics.update(alloc_tracer.peak_alloc_mb())
    metrics["trace.overhead_pct"] = 100.0 * (plain.ops_per_s - timed.ops_per_s) / plain.ops_per_s
    loops = (counted, plain, timed, alloc)
    record = {
        "traced_ops": timed.attempted,
        "spans": len(timer.spans),
        "failures": gate.failures[:5],
        "calibration_ms": [calibration_before, calibration_ms()],
    }
    return metrics, record, sum(l.attempted for l in loops), sum(l.failed for l in loops)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sumpaths" / "cli.py").is_file() or not (root / "corpus").is_dir():
        print("error: run from the root of a sumpaths checkout (src/sumpaths and corpus/ needed)", file=sys.stderr)
        return 2
    reexec_fixed()
    sys.path.insert(0, str(root / "src"))

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    (root / ".bench_run").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / ".bench_run"))
    stat_before = cpu_times()
    try:
        measure = traced if args.trace else end_to_end
        values, record, attempted, failed = measure(workload, args.seed, args.seconds, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["steal_share"] = steal_share(stat_before, cpu_times())
    print("machine " + json.dumps(machine_record(), sort_keys=True))
    print("record " + json.dumps(record, sort_keys=True))
    metrics = {name: {"value": value, "unit": unit(name)} for name, value in values.items()}
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    # Printed by name and unit, but not gated: the raw timings follow the
    # host's speed, and the median op falls between op sizes on verify-corpus.
    for name in ("ref_latency_p50_ms", "ops_per_s", "latency_p50_ms", "latency_p90_ms"):
        if name in record:
            print(f"{args.workload} {name} = {record[name]:.6g} {unit(name)} (not gated)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
