"""Layered normal-form circuits: single-particle gates plus diagonal controlled-phase gates.

Every circuit acts on qubits prepared in |0...0> and is a sequence of layers.
Within a layer the single-particle gates act first (as a tensor product),
followed by the diagonal controlled-phase gates; since all phase gates are
diagonal they commute with each other, so their relative order only matters
for hit bookkeeping, never for the physics.

The JSON file format is strict: unknown keys and repeated keys are rejected,
a "singles" key is a particle index written as `str(i)`, complex entries are
[re, im] pairs, and particles absent from a layer's "singles" get the
identity. A circuit's explicit singles are checked for finiteness and
unitarity in one batched pass, and the first failing gate in file order is
reported.

The canonical text of a circuit is what `json.dumps(circuit_to_raw(c),
sort_keys=True, indent=2)` writes, plus a newline: the bytes of the corpus
files and the input of `circuit_digest`. `dumps_canonical` writes those
bytes directly, one template per gate filled with `repr` floats, instead of
running the standard library's pure-Python indenting encoder over every
token.
"""
from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterator, Mapping

import numpy as np

UNITARITY_TOL = 1e-12
# every layer holds one gate reference per particle: these cap a layer at 512 KiB and the whole
# gate table at 8 MiB; no route answers past a few dozen particles, but larger counts still
# reach their budget charge
MAX_PARTICLES = 1 << 16
MAX_GATE_SLOTS = 1 << 20

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
IDENTITY = np.eye(2, dtype=complex)


class CircuitError(ValueError):
    """Base class for circuit construction and validation failures."""


class CircuitFormatError(CircuitError):
    """Malformed circuit description (unknown keys, wrong shapes, non-finite numbers)."""


class NonUnitaryGate(CircuitError):
    """A single-particle gate deviates from unitarity beyond tolerance."""


class DuplicatePhasePair(CircuitError):
    """Two phase gates on the same particle pair within one layer."""


class BadParticleIndex(CircuitError):
    """A particle index is out of range or a pair is not strictly increasing."""


_IDENTITY_FROZEN = IDENTITY.copy()
_IDENTITY_FROZEN.flags.writeable = False


@dataclass(frozen=True, eq=False)
class PhaseGate:
    """Diagonal two-particle gate: joint mode (ma, mb) acquires phase e^{i theta}."""

    pair: tuple[int, int]
    thetas: tuple[float, float, float, float]  # joint modes (0,0),(0,1),(1,0),(1,1)

    def theta(self, mode_first: int, mode_second: int) -> float:
        return self.thetas[2 * mode_first + mode_second]

    def diagonal(self) -> np.ndarray:
        """Length-4 diagonal of the induced two-particle operator: one read-only array per gate."""
        return self._diagonal

    @cached_property
    def _diagonal(self) -> np.ndarray:
        diagonal = np.exp(1j * np.asarray(self.thetas))
        diagonal.flags.writeable = False
        return diagonal

    @cached_property
    def table(self) -> np.ndarray:
        """The diagonal as a read-only 2x2 table indexed (mode of the first particle, mode of the second)."""
        return self._diagonal.reshape(2, 2)


@dataclass(frozen=True, eq=False)
class Layer:
    """One circuit layer: a single gate per particle, then diagonal phase gates."""

    singles: tuple[np.ndarray, ...]
    phases: tuple[PhaseGate, ...]

    def phase_on(self, pair: tuple[int, int]) -> PhaseGate | None:
        return self._phase_by_pair.get(pair)

    @cached_property
    def _phase_by_pair(self) -> dict[tuple[int, int], PhaseGate]:
        """Each pair's gate, built once per layer; the first gate wins, as a scan in order would find it."""
        return {gate.pair: gate for gate in reversed(self.phases)}


@dataclass(frozen=True, eq=False)
class Circuit:
    """Validated layered circuit on `particles` qubits, initial state |0...0>."""

    particles: int
    layers: tuple[Layer, ...]

    @property
    def n(self) -> int:
        return len(self.layers)

    def layer(self, t: int) -> Layer:
        """Layer at 1-based position t."""
        if not 1 <= t <= self.n:
            raise IndexError(f"layer {t} out of range 1..{self.n}")
        return self.layers[t - 1]

    def single(self, t: int, particle: int) -> np.ndarray:
        return self.layer(t).singles[particle]

    def phase(self, t: int, pair: tuple[int, int]) -> PhaseGate | None:
        return self.layer(t).phase_on(pair)


def unitarity_defect(matrix: np.ndarray) -> float | np.ndarray:
    """Max absolute entry of U^dag U - I; for a stack of matrices, one value per matrix."""
    matrix = np.asarray(matrix, dtype=complex)
    gram = np.swapaxes(matrix.conj(), -1, -2) @ matrix
    defect = np.abs(gram - np.eye(matrix.shape[-1])).max(axis=(-2, -1))
    return float(defect) if matrix.ndim == 2 else defect


def _assemble(
    particles: int,
    layers: list[tuple[dict[int, int], list[PhaseGate]]],
    singles: list,
    wheres: list[str],
) -> Circuit:
    """The circuit of `layers`, each a map from particle to row of `singles` plus its phase
    gates, once every explicit single has passed one batched finiteness and unitarity check.

    The check reports the first failing gate in file order; the checked stack is frozen once
    and each layer holds views of it."""
    stack = np.array(singles, dtype=complex).reshape(-1, 2, 2)
    finite = np.isfinite(stack.view(float)).all(axis=(1, 2))
    clean = len(wheres) if finite.all() else int(finite.argmin())
    defects = unitarity_defect(stack[:clean])
    over = np.flatnonzero(defects > UNITARITY_TOL)
    if over.size:
        row = over[0]
        raise NonUnitaryGate(f"{wheres[row]}: unitarity defect {defects[row]:.3e} exceeds {UNITARITY_TOL}")
    if clean < len(wheres):
        raise CircuitFormatError(f"{wheres[clean]}: non-finite gate entry")
    stack.flags.writeable = False
    built = []
    for rows, phases in layers:
        gates = [_IDENTITY_FROZEN] * particles
        for idx, row in rows.items():
            gates[idx] = stack[row]
        built.append(Layer(singles=tuple(gates), phases=tuple(sorted(phases, key=lambda g: g.pair))))
    return Circuit(particles=particles, layers=tuple(built))


_INF = math.inf
_LAYER_KEYS = frozenset({"singles", "phases"})


def _is_number(value: Any) -> bool:
    """JSON numbers a float can hold: booleans are ints to Python but never a valid number here."""
    if isinstance(value, float):
        return True
    return isinstance(value, int) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _is_index(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_complex_matrix(entries: Any, where: str) -> list[complex]:
    """The four entries of a 2x2 matrix of [re, im] pairs, row by row.

    Eight floats in lists nested the right way, the form every canonical file
    has, are taken after one unpacking and one type test per element;
    anything else takes the element walk, which also reads ints and raises
    for the first bad element.
    """
    try:
        top, bottom = entries
        (c0, c1), (c2, c3) = top, bottom
        (a, b), (c, d), (e, f), (g, h) = c0, c1, c2, c3
    except (TypeError, ValueError):
        pass
    else:
        if (
            type(entries) is type(top) is type(bottom) is type(c0) is type(c1) is type(c2) is type(c3) is list
            and type(a) is type(b) is type(c) is type(d) is type(e) is type(f) is type(g) is type(h) is float
        ):
            return [complex(a, b), complex(c, d), complex(e, f), complex(g, h)]
    if (
        not isinstance(entries, list)
        or len(entries) != 2
        or any(not isinstance(row, list) or len(row) != 2 for row in entries)
    ):
        raise CircuitFormatError(f"{where}: expected a 2x2 matrix of [re, im] pairs")
    out = []
    for i, row in enumerate(entries):
        for j, cell in enumerate(row):
            if not isinstance(cell, list) or len(cell) != 2:
                raise CircuitFormatError(f"{where}[{i}][{j}]: expected [re, im]")
            re, im = cell
            if not _is_number(re) or not _is_number(im):
                raise CircuitFormatError(f"{where}[{i}][{j}]: entries must be numbers")
            out.append(complex(re, im))
    return out


def _parse_phase(raw: Any, particles: int, where: str) -> PhaseGate:
    """A phase gate; a gate of two in-range ints and four finite floats is tested inline,
    anything else takes the walk that raises for the first bad field."""
    if type(raw) is dict and len(raw) == 2:
        pair, theta = raw.get("pair"), raw.get("theta")
        if type(pair) is list and type(theta) is list and len(pair) == 2 and len(theta) == 4:
            (a, b), (t0, t1, t2, t3) = pair, theta
            if (
                type(a) is type(b) is int  # a bool's type is bool, not int
                and 0 <= a < b < particles
                and type(t0) is type(t1) is type(t2) is type(t3) is float
                and -_INF < t0 < _INF  # false for NaN too
                and -_INF < t1 < _INF
                and -_INF < t2 < _INF
                and -_INF < t3 < _INF
            ):
                return PhaseGate(pair=(a, b), thetas=(t0, t1, t2, t3))
    if not isinstance(raw, dict):
        raise CircuitFormatError(f"{where}: phase gate must be an object")
    unknown = set(raw) - {"pair", "theta"}
    if unknown:
        raise CircuitFormatError(f"{where}: unknown keys {sorted(unknown)}")
    pair = raw.get("pair")
    theta = raw.get("theta")
    if not isinstance(pair, list) or len(pair) != 2 or not all(_is_index(x) for x in pair):
        raise CircuitFormatError(f"{where}: 'pair' must be two particle indices")
    a, b = pair
    if not (0 <= a < particles and 0 <= b < particles):
        raise BadParticleIndex(f"{where}: pair {pair} out of range for {particles} particles")
    if a >= b:
        raise BadParticleIndex(f"{where}: pair must be strictly increasing, got {pair}")
    if not isinstance(theta, list) or len(theta) != 4:
        raise CircuitFormatError(f"{where}: 'theta' must be four angles")
    angles = []
    for k, value in enumerate(theta):
        if not _is_number(value) or not math.isfinite(value):
            raise CircuitFormatError(f"{where}: theta[{k}] must be a finite number")
        angles.append(float(value))
    return PhaseGate(pair=(a, b), thetas=tuple(angles))


def validate_circuit(raw: Mapping[str, Any]) -> Circuit:
    """Validate a parsed circuit description and return an immutable Circuit."""
    if not isinstance(raw, Mapping):
        raise CircuitFormatError("circuit description must be an object")
    unknown = set(raw) - {"particles", "layers"}
    if unknown:
        raise CircuitFormatError(f"unknown top-level keys {sorted(unknown)}")
    particles = raw.get("particles")
    if not _is_index(particles) or particles < 1:
        raise CircuitFormatError("'particles' must be a positive integer")
    if particles > MAX_PARTICLES:
        raise CircuitFormatError(f"'particles' must be at most {MAX_PARTICLES}")
    raw_layers = raw.get("layers")
    if not isinstance(raw_layers, list):
        raise CircuitFormatError("'layers' must be a list")
    if particles * len(raw_layers) > MAX_GATE_SLOTS:
        raise CircuitFormatError(f"'particles' times the layer count must be at most {MAX_GATE_SLOTS}")

    layers: list[tuple[dict[int, int], list[PhaseGate]]] = []
    singles: list[list[complex]] = []
    wheres: list[str] = []
    for t, raw_layer in enumerate(raw_layers, start=1):
        where = f"layer {t}"
        if not isinstance(raw_layer, dict):
            raise CircuitFormatError(f"{where}: must be an object")
        if not raw_layer.keys() <= _LAYER_KEYS:
            raise CircuitFormatError(f"{where}: unknown keys {sorted(raw_layer.keys() - _LAYER_KEYS)}")

        rows: dict[int, int] = {}
        raw_singles = raw_layer.get("singles", {})
        if not isinstance(raw_singles, dict):
            raise CircuitFormatError(f"{where}: 'singles' must map particle index to matrix")
        for key, entries in raw_singles.items():
            try:
                idx = int(key)
            except (TypeError, ValueError):
                raise CircuitFormatError(f"{where}: singles key {key!r} is not an index") from None
            if key != str(idx):  # int() also reads "01", " 1", "+1" and "1_0"
                raise CircuitFormatError(f"{where}: singles key {key!r} is not written as {str(idx)!r}")
            if not 0 <= idx < particles:
                raise BadParticleIndex(f"{where}: singles index {idx} out of range")
            rows[idx] = len(singles)
            wheres.append(f"{where} singles[{idx}]")
            singles.append(_parse_complex_matrix(entries, wheres[-1]))

        raw_phases = raw_layer.get("phases", [])
        if not isinstance(raw_phases, list):
            raise CircuitFormatError(f"{where}: 'phases' must be a list")
        phases: list[PhaseGate] = []
        seen_pairs: set[tuple[int, int]] = set()
        for k, raw_phase in enumerate(raw_phases):
            gate = _parse_phase(raw_phase, particles, f"{where} phases[{k}]")
            if gate.pair in seen_pairs:
                raise DuplicatePhasePair(f"{where}: duplicate phase gate on pair {gate.pair}")
            seen_pairs.add(gate.pair)
            phases.append(gate)
        layers.append((rows, phases))

    return _assemble(particles, layers, singles, wheres)


def make_circuit(
    particles: int,
    layers: Iterator[tuple[Mapping[int, np.ndarray], list[PhaseGate]]] | list,
) -> Circuit:
    """Build a Circuit from in-memory gates: [(singles_by_index, [PhaseGate, ...]), ...]."""
    specs: list[tuple[dict[int, int], list[PhaseGate]]] = []
    singles: list[np.ndarray] = []
    wheres: list[str] = []
    for t, (singles_map, phases) in enumerate(layers, start=1):
        rows: dict[int, int] = {}
        for idx, matrix in singles_map.items():
            if not 0 <= idx < particles:
                raise BadParticleIndex(f"layer {t}: singles index {idx} out of range")
            where = f"layer {t} singles[{idx}]"
            arr = np.asarray(matrix, dtype=complex)
            if arr.shape != (2, 2):
                raise CircuitFormatError(f"{where}: single gate must be 2x2, got shape {arr.shape}")
            rows[idx] = len(singles)
            singles.append(arr)
            wheres.append(where)
        seen: set[tuple[int, int]] = set()
        for gate in phases:
            a, b = gate.pair
            if not (0 <= a < b < particles):
                raise BadParticleIndex(f"layer {t}: bad phase pair {gate.pair}")
            if gate.pair in seen:
                raise DuplicatePhasePair(f"layer {t}: duplicate phase gate on pair {gate.pair}")
            seen.add(gate.pair)
        specs.append((rows, list(phases)))
    return _assemble(particles, specs, singles, wheres)


def conditioned_diagonal(gate: PhaseGate, controller: int, mode: int) -> np.ndarray:
    """Fix one member of the pair to `mode`; returns the length-2 diagonal of the gate on the other."""
    if mode not in (0, 1):
        raise ValueError(f"mode must be 0 or 1, got {mode}")
    if controller == gate.pair[0]:
        angles = (gate.theta(mode, 0), gate.theta(mode, 1))
    elif controller == gate.pair[1]:
        angles = (gate.theta(0, mode), gate.theta(1, mode))
    else:
        raise BadParticleIndex(f"controller {controller} not in pair {gate.pair}")
    return np.exp(1j * np.asarray(angles))


@dataclass(frozen=True)
class PhaseFactorization:
    """diag(e^{i t1..t4}) = global * (Z_local_first x Z_local_second) * CZ_residual."""

    global_phase: complex
    local_first: float
    local_second: float
    residual: float


def factor_phase_gate(gate: PhaseGate) -> PhaseFactorization:
    """Split a 4-angle phase gate into a global phase, two local Z rotations and a CZ core."""
    t1, t2, t3, t4 = gate.thetas
    return PhaseFactorization(
        global_phase=complex(np.exp(1j * t1)),
        local_first=t3 - t1,
        local_second=t2 - t1,
        residual=t1 + t4 - t2 - t3,
    )


def build_epr_circuit(a2: np.ndarray, b2: np.ndarray) -> Circuit:
    """Bell-state preparation followed by local measurement rotations a2, b2."""
    bell_phase = PhaseGate(pair=(0, 1), thetas=(0.0, 0.0, 0.0, math.pi))
    return make_circuit(
        2,
        [
            ({0: HADAMARD, 1: HADAMARD}, [bell_phase]),
            ({0: a2, 1: b2}, []),
        ],
    )


def random_single(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish 2x2 unitary: Gram-Schmidt orthonormalization of a complex Gaussian draw."""
    while True:
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        n0 = np.linalg.norm(z[:, 0])
        if n0 < 1e-6:
            continue
        c0 = z[:, 0] / n0
        c1 = z[:, 1] - (c0.conj() @ z[:, 1]) * c0
        n1 = np.linalg.norm(c1)
        if n1 < 1e-6:
            continue
        return np.column_stack([c0, c1 / n1])


def append_external_layer(
    circuit: Circuit, rng: np.random.Generator, subsystem: tuple[int, ...] = (0,)
) -> Circuit:
    """Append one layer acting only on particles outside `subsystem` (random singles,
    plus a random phase gate between two external particles when possible)."""
    external = [i for i in range(circuit.particles) if i not in subsystem]
    if not external:
        raise ValueError("no external particles to act on")
    singles = {i: random_single(rng) for i in external}
    phases = []
    if len(external) >= 2:
        a, b = external[0], external[1]
        phases.append(
            PhaseGate(pair=(a, b), thetas=tuple(rng.uniform(0.0, 2.0 * math.pi, 4).tolist()))
        )
    added = make_circuit(circuit.particles, [(singles, phases)]).layers
    return Circuit(particles=circuit.particles, layers=circuit.layers + added)


def _entry_list(matrix: np.ndarray) -> list:
    return [[[float(cell.real), float(cell.imag)] for cell in row] for row in matrix]


def circuit_to_raw(circuit: Circuit) -> dict:
    """Canonical JSON-ready description; identity singles are omitted."""
    layers = []
    for layer in circuit.layers:
        entry: dict[str, Any] = {}
        singles = {
            str(i): _entry_list(gate)
            for i, gate in enumerate(layer.singles)
            if not np.array_equal(gate, IDENTITY)
        }
        if singles:
            entry["singles"] = singles
        if layer.phases:
            entry["phases"] = [
                {"pair": list(g.pair), "theta": list(g.thetas)} for g in layer.phases
            ]
        layers.append(entry)
    return {"particles": circuit.particles, "layers": layers}


# Per-gate pieces of the canonical text at their nesting depth, as json.dumps
# with indent=2 lays them out; every number is filled in as json writes it.
_PHASE_TEMPLATE = """\
        {
          "pair": [
            %d,
            %d
          ],
          "theta": [
            %s,
            %s,
            %s,
            %s
          ]
        }"""
_SINGLE_TEMPLATE = """\
        "%d": [
          [
            [
              %s,
              %s
            ],
            [
              %s,
              %s
            ]
          ],
          [
            [
              %s,
              %s
            ],
            [
              %s,
              %s
            ]
          ]
        ]"""


def _number(value: float) -> str:
    """A number as json writes it: repr for a finite float, json's own form otherwise."""
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)


def _layer_text(layer: Layer, order: list[int]) -> str:
    parts = []
    if layer.phases:
        gates = ",\n".join(_PHASE_TEMPLATE % (*g.pair, *map(_number, g.thetas)) for g in layer.phases)
        parts.append(f'      "phases": [\n{gates}\n      ]')
    singles = []
    for i in order:
        (a, b), (c, d) = layer.singles[i].tolist()
        if (a, b, c, d) == (1, 0, 0, 1):  # identity singles are omitted
            continue
        numbers = (a.real, a.imag, b.real, b.imag, c.real, c.imag, d.real, d.imag)
        singles.append(_SINGLE_TEMPLATE % (i, *map(float.__repr__, numbers)))
    if singles:
        parts.append('      "singles": {\n' + ",\n".join(singles) + "\n      }")
    return "    {\n" + ",\n".join(parts) + "\n    }" if parts else "    {}"


def dumps_canonical(circuit: Circuit) -> str:
    """The canonical text: json.dumps(circuit_to_raw(circuit), sort_keys=True, indent=2)
    plus a newline, byte for byte."""
    order = sorted(range(circuit.particles), key=str)  # keys sort as text: "10" before "2"
    layers = ",\n".join(_layer_text(layer, order) for layer in circuit.layers)
    layers = f"[\n{layers}\n  ]" if circuit.layers else "[]"
    return f'{{\n  "layers": {layers},\n  "particles": {circuit.particles}\n}}\n'


def circuit_digest(circuit: Circuit) -> str:
    """SHA-256 of the canonical text."""
    return hashlib.sha256(dumps_canonical(circuit).encode()).hexdigest()


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object's pairs as a dict; a repeated key is an error, not a silent overwrite."""
    out = dict(pairs)
    if len(out) != len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise CircuitFormatError(f"repeated key {key!r}")
            seen.add(key)
    return out


def load_circuit(path: str) -> Circuit:
    with open(path, encoding="utf-8") as handle:
        try:
            raw = json.load(handle, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as err:
            raise CircuitFormatError(f"{path}: invalid JSON ({err})") from None
        except RecursionError:  # the decoder recurses once per nesting level
            raise CircuitFormatError(f"{path}: invalid JSON (nested too deeply)") from None
        except CircuitFormatError as err:
            raise CircuitFormatError(f"{path}: {err}") from None
    return validate_circuit(raw)


def save_circuit(circuit: Circuit, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_canonical(circuit))
