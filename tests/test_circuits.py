"""Circuit model: validation, gate conditioning, factoring, serialization."""
from __future__ import annotations

import copy
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumpaths.circuits import (
    HADAMARD,
    IDENTITY,
    BadParticleIndex,
    CircuitError,
    CircuitFormatError,
    DuplicatePhasePair,
    Layer,
    NonUnitaryGate,
    PhaseGate,
    append_external_layer,
    build_epr_circuit,
    circuit_digest,
    circuit_to_raw,
    conditioned_diagonal,
    dumps_canonical,
    factor_phase_gate,
    load_circuit,
    make_circuit,
    random_single,
    validate_circuit,
)
from sumpaths.corpus import random_circuit
from sumpaths.density import normalized_phase_form

from .reference import reference_validate_circuit

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
CZ = PhaseGate(pair=(0, 1), thetas=(0.0, 0.0, 0.0, math.pi))


def single_raw(matrix) -> list:
    return [[[float(c.real), float(c.imag)] for c in row] for row in np.asarray(matrix, dtype=complex)]


def test_single_hadamard_layer_is_valid():
    c = validate_circuit({"particles": 1, "layers": [{"singles": {"0": single_raw(HADAMARD)}}]})
    assert c.n == 1
    assert np.allclose(c.single(1, 0), HADAMARD)


def test_nonunitary_single_rejected():
    bad = [[1, 0], [0, 2]]
    raw = {"particles": 1, "layers": [{"singles": {"0": single_raw(np.array(bad, dtype=complex))}}]}
    with pytest.raises(NonUnitaryGate):
        validate_circuit(raw)


def test_epr_circuit_validates_with_two_layers():
    c = build_epr_circuit(np.eye(2), np.eye(2))
    assert c.particles == 2 and c.n == 2
    assert np.allclose(c.single(1, 0), HADAMARD)
    gate = c.phase(1, (0, 1))
    assert gate is not None
    assert np.allclose(gate.diagonal(), [1, 1, 1, -1])
    assert c.phase(2, (0, 1)) is None


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4))
def test_phase_diagonal_is_one_read_only_array(thetas):
    gate = PhaseGate(pair=(0, 1), thetas=tuple(thetas))
    diagonal = gate.diagonal()
    assert gate.diagonal() is diagonal
    assert np.array_equal(diagonal, np.exp(1j * np.asarray(thetas)))
    with pytest.raises(ValueError):
        diagonal[0] = 1.0
    with pytest.raises(ValueError):
        diagonal.reshape(2, 2)[1, 1] = 1.0


def _assert_phase_tables_are_the_per_gate_exp(circuit):
    for gate in (gate for layer in circuit.layers for gate in layer.phases):
        diagonal = gate.diagonal()
        assert not diagonal.flags.writeable and not gate.table.flags.writeable
        assert diagonal.tobytes() == np.exp(1j * np.asarray(gate.thetas)).tobytes()
        assert gate.table.tobytes() == diagonal.tobytes() and gate.table.shape == (2, 2)


@pytest.mark.parametrize("name", ["n2_l8_s0.json", "n3_l5_s1.json", "n4_l4_s2.json"])
def test_loaded_circuits_hold_each_gates_own_phase_table(name):
    _assert_phase_tables_are_the_per_gate_exp(load_circuit(str(CORPUS / name)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(2, 5), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_built_circuits_hold_each_gates_own_phase_table(particles, layers, seed):
    rng = np.random.default_rng(seed)
    circuit = random_circuit(rng, particles, layers, p_single=0.5, p_phase=1.0)  # make_circuit
    _assert_phase_tables_are_the_per_gate_exp(circuit)
    _assert_phase_tables_are_the_per_gate_exp(append_external_layer(circuit, rng))
    if particles == 2:
        _assert_phase_tables_are_the_per_gate_exp(normalized_phase_form(circuit))


def test_a_gate_outside_any_circuit_computes_its_own_table():
    gate = PhaseGate(pair=(0, 1), thetas=(0.1, -2.0, 3.5, 7.25))
    expected = np.exp(1j * np.asarray(gate.thetas))
    assert gate.diagonal().tobytes() == expected.tobytes()
    assert gate.table.tobytes() == expected.tobytes() and gate.table.shape == (2, 2)
    # a gate that already has its table keeps it when a circuit is built from it
    circuit = make_circuit(2, [({}, [gate])])
    assert circuit.phase(1, (0, 1)).diagonal() is gate.diagonal()


def test_phase_lookup_finds_what_a_scan_of_the_layer_finds():
    # the pair map is built once per layer, and a layer built directly may repeat a pair
    first, second = PhaseGate((0, 2), (0.1, 0.2, 0.3, 0.4)), PhaseGate((0, 2), (0.5, 0.6, 0.7, 0.8))
    layers = [Layer(singles=(IDENTITY,) * 3, phases=(CZ, first, second))]
    layers += [layer for n in (3, 5) for layer in random_circuit(np.random.default_rng(n), n, 4).layers]
    for layer in layers:
        for pair in itertools.combinations(range(len(layer.singles)), 2):
            scanned = next((gate for gate in layer.phases if gate.pair == pair), None)
            assert layer.phase_on(pair) is scanned
    assert layers[0].phase_on((0, 2)) is first


def test_unknown_keys_rejected():
    with pytest.raises(CircuitFormatError):
        validate_circuit({"particles": 1, "layers": [], "extra": 1})
    with pytest.raises(CircuitFormatError):
        validate_circuit({"particles": 1, "layers": [{"singles": {}, "bogus": []}]})
    with pytest.raises(CircuitFormatError):
        validate_circuit(
            {"particles": 2, "layers": [{"phases": [{"pair": [0, 1], "theta": [0, 0, 0, 0], "x": 1}]}]}
        )


def test_duplicate_phase_pair_rejected():
    raw = {
        "particles": 2,
        "layers": [
            {
                "phases": [
                    {"pair": [0, 1], "theta": [0.0, 0.0, 0.0, 1.0]},
                    {"pair": [0, 1], "theta": [0.0, 0.0, 0.0, 2.0]},
                ]
            }
        ],
    }
    with pytest.raises(DuplicatePhasePair):
        validate_circuit(raw)


def test_bad_particle_indices_rejected():
    with pytest.raises(BadParticleIndex):
        validate_circuit({"particles": 2, "layers": [{"phases": [{"pair": [0, 2], "theta": [0, 0, 0, 0]}]}]})
    with pytest.raises(BadParticleIndex):
        validate_circuit({"particles": 2, "layers": [{"phases": [{"pair": [1, 0], "theta": [0, 0, 0, 0]}]}]})
    with pytest.raises(BadParticleIndex):
        validate_circuit({"particles": 1, "layers": [{"singles": {"3": single_raw(np.eye(2))}}]})


def test_nonfinite_theta_rejected():
    raw = {"particles": 2, "layers": [{"phases": [{"pair": [0, 1], "theta": [0.0, 0.0, 0.0, math.inf]}]}]}
    with pytest.raises(CircuitFormatError):
        validate_circuit(raw)


def test_condition_cz_on_first_member():
    assert np.allclose(np.diag(conditioned_diagonal(CZ, controller=0, mode=0)), np.eye(2))
    assert np.allclose(np.diag(conditioned_diagonal(CZ, controller=0, mode=1)), np.diag([1, -1]))


def test_condition_respects_controller_side():
    gate = PhaseGate(pair=(0, 1), thetas=(0.1, 0.2, 0.3, 0.4))
    assert np.allclose(
        conditioned_diagonal(gate, controller=1, mode=1),
        np.exp(1j * np.array([0.2, 0.4])),
    )


def test_condition_zero_thetas_is_identity():
    gate = PhaseGate(pair=(0, 1), thetas=(0.0, 0.0, 0.0, 0.0))
    for controller in (0, 1):
        for mode in (0, 1):
            assert np.allclose(np.diag(conditioned_diagonal(gate, controller, mode)), np.eye(2))


def test_condition_rejects_foreign_controller():
    with pytest.raises(BadParticleIndex):
        conditioned_diagonal(CZ, controller=5, mode=0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.floats(-8, 8), min_size=4, max_size=4), st.sampled_from([0, 1]))
def test_conditioning_reassembles_the_gate(thetas, controller):
    gate = PhaseGate(pair=(0, 1), thetas=tuple(thetas))
    reassembled = np.zeros((4, 4), dtype=complex)
    for mode in (0, 1):
        block = np.diag(conditioned_diagonal(gate, controller=controller, mode=mode))
        projector = np.zeros((2, 2))
        projector[mode, mode] = 1.0
        if controller == 0:
            reassembled += np.kron(projector, block)
        else:
            reassembled += np.kron(block, projector)
    assert np.allclose(np.diag(reassembled), gate.diagonal(), atol=1e-15)


def _reconstruct(factored, gate: PhaseGate) -> np.ndarray:
    z_first = np.diag([1.0, factored.local_first])
    z_second = np.diag([1.0, factored.local_second])
    cz = np.diag([1.0, 1.0, 1.0, np.exp(1j * factored.residual)])
    return factored.global_phase * np.kron(z_first, z_second) @ cz


def test_factor_cz_is_already_core_form():
    f = factor_phase_gate(CZ)
    assert f.global_phase == 1.0 and f.local_first == 1.0 and f.local_second == 1.0
    assert f.residual == math.pi


def test_factor_identity_gate():
    f = factor_phase_gate(PhaseGate(pair=(0, 1), thetas=(0.0, 0.0, 0.0, 0.0)))
    assert (f.global_phase, f.local_first, f.local_second, f.residual) == (1.0, 1.0, 1.0, 0.0)


def test_factor_roundtrip_specific_angles():
    gate = PhaseGate(pair=(0, 1), thetas=(math.pi / 3, math.pi / 5, math.pi / 7, math.pi / 2))
    product = _reconstruct(factor_phase_gate(gate), gate)
    assert np.max(np.abs(product - np.diag(gate.diagonal()))) < 1e-12


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.lists(
        st.floats(-10, 10) | st.floats(-1e16, 1e16) | st.sampled_from([1.7e308, -1.7e308]), min_size=4, max_size=4
    )
)
@example([1.7e308, -1.7e308, -1.7e308, 1.7e308])  # the angle sum t1 + t4 - t2 - t3 overflows
def test_factor_roundtrip_random_angles(thetas):
    # the split reads the gate's table, so no angles are added: none overflows or rounds by radians
    gate = PhaseGate(pair=(0, 1), thetas=tuple(thetas))
    product = _reconstruct(factor_phase_gate(gate), gate)
    assert np.max(np.abs(product - np.diag(gate.diagonal()))) < 1e-12


def test_serialization_roundtrip_is_bit_identical():
    circuit = build_epr_circuit(HADAMARD, np.eye(2))
    text = dumps_canonical(circuit)
    reloaded = validate_circuit(json.loads(text))
    assert dumps_canonical(reloaded) == text
    assert circuit_digest(reloaded) == circuit_digest(circuit)


def test_identity_singles_are_omitted_from_serialization():
    circuit = make_circuit(2, [({}, [CZ])])
    raw = json.loads(dumps_canonical(circuit))
    assert "singles" not in raw["layers"][0]


def test_layer_accessor_bounds():
    circuit = make_circuit(1, [({}, [])])
    with pytest.raises(IndexError):
        circuit.layer(0)
    with pytest.raises(IndexError):
        circuit.layer(2)


# Floats whose text is easy to get wrong: signed zero, the smallest subnormal,
# tiny and near-overflow normals, and integral values.
_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1.7e308, -1.7e308, 1.0, -1.0, 2.0]
_EXACT_UNITARIES = [
    np.eye(2),
    np.array([[0, 1], [1, 0]]),
    np.array([[1, 0], [0, -1]]),
    np.array([[0, -1j], [1j, 0]]),
    HADAMARD,
    -np.eye(2),
]


@st.composite
def _single(draw) -> np.ndarray:
    if draw(st.booleans()):
        base = _EXACT_UNITARIES[draw(st.integers(0, len(_EXACT_UNITARIES) - 1))]
    else:
        base = random_single(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    # a zero part may become another zero or a subnormal: still unitary to 1e-12
    parts = np.array(base, dtype=complex).view(float).ravel()
    for k in np.flatnonzero(parts == 0.0):
        parts[k] = draw(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300]))
    return parts.view(complex).reshape(2, 2)


@st.composite
def _circuits(draw):
    particles = draw(st.integers(1, 12))
    pairs = list(itertools.combinations(range(particles), 2))
    angle = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
    layers = []
    for _ in range(draw(st.integers(0, 4))):
        singles = {
            i: draw(_single()) for i in draw(st.sets(st.integers(0, particles - 1), max_size=particles))
        }
        chosen = draw(st.sets(st.sampled_from(pairs), max_size=4)) if pairs else set()
        phases = [PhaseGate(pair, tuple(draw(st.lists(angle, min_size=4, max_size=4)))) for pair in chosen]
        layers.append((singles, phases))
    return make_circuit(particles, layers)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_circuits())
def test_direct_writer_matches_the_stdlib_writer(circuit):
    expected = json.dumps(circuit_to_raw(circuit), sort_keys=True, indent=2) + "\n"
    assert dumps_canonical(circuit) == expected
    assert dumps_canonical(validate_circuit(json.loads(expected))) == expected


def test_direct_writer_matches_the_stdlib_writer_on_edge_layers():
    gate = PhaseGate((0, 11), (-0.0, 5e-324, 1.7e308, -1.7e308))
    singles = {2: np.array([[1.0, 1e-300], [-0.0, 1.0]]), 10: HADAMARD, 1: np.eye(2)}
    for layers in ([], [({}, [])], [({}, [gate])], [(singles, [])], [({}, []), (singles, [gate, CZ])]):
        circuit = make_circuit(12, layers)
        assert dumps_canonical(circuit) == json.dumps(circuit_to_raw(circuit), sort_keys=True, indent=2) + "\n"


def test_external_layer_reuses_the_base_layers():
    circuit = make_circuit(3, [({0: HADAMARD, 2: HADAMARD}, [CZ]), ({}, []), ({1: HADAMARD}, [])])
    extended = append_external_layer(circuit, np.random.default_rng(4))
    assert all(new is old for new, old in zip(extended.layers[:-1], circuit.layers, strict=True))
    added = extended.layers[-1]
    rebuilt = make_circuit(
        3,
        [(dict(enumerate(layer.singles)), list(layer.phases)) for layer in circuit.layers]
        + [({i: added.singles[i] for i in (1, 2)}, list(added.phases))],
    )
    assert circuit_digest(extended) == circuit_digest(rebuilt)


def test_gate_errors_name_the_first_bad_gate_in_file_order():
    bad, worse = single_raw(np.diag([1.0, 1.1])), single_raw(np.diag([1.0, 2.0]))
    layers = [{"singles": {"1": bad}}, {"singles": {"0": single_raw(HADAMARD)}}, {"singles": {"0": worse}}]
    with pytest.raises(NonUnitaryGate, match="^layer 1 singles\\[1\\]: unitarity defect 2.100e-01"):
        validate_circuit({"particles": 2, "layers": layers})
    with pytest.raises(NonUnitaryGate, match="^layer 1 singles\\[1\\]: unitarity defect 2.100e-01"):
        make_circuit(2, [({1: np.diag([1.0, 1.1])}, []), ({}, []), ({0: np.diag([1.0, 2.0])}, [])])
    infinite = single_raw(np.diag([1.0, 1.0]))
    infinite[1][1][0] = math.inf
    for first, second in ((infinite, bad), (bad, infinite)):
        raw = {"particles": 2, "layers": [{"singles": {"0": first}}, {"singles": {"0": second}}]}
        with pytest.raises(CircuitError, match="^layer 1 singles\\[0\\]: "):
            validate_circuit(raw)
    raw = {"particles": 2, "layers": [{"singles": {"0": single_raw(HADAMARD)}}, {"singles": {"1": infinite}}]}
    with pytest.raises(CircuitFormatError, match="^layer 2 singles\\[1\\]: non-finite gate entry$"):
        validate_circuit(raw)


def _gate_cells(draw) -> list:
    """A unitary's cells as parsed JSON: floats, or the ints a hand-written identity or swap has."""
    kind = draw(st.sampled_from(["random", "identity", "swap"]))
    if kind == "identity":
        return [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    if kind == "swap":
        return [[[0, 0], [1.0, 0]], [[1, 0], [0.0, -0.0]]]
    return single_raw(random_single(np.random.default_rng(draw(st.integers(0, 2**32 - 1)))))


@st.composite
def _raw_circuits(draw) -> dict:
    """Valid parsed circuit files, with the optional fields and int forms a hand-written file may use."""
    particles = draw(st.integers(1, 4))
    pairs = list(itertools.combinations(range(particles), 2))
    floats = st.floats(allow_nan=False, allow_infinity=False)
    angle = st.one_of(floats, st.sampled_from([0, -3, 2**53 + 1, int(1.7e308), -0.0]))
    layers = []
    for _ in range(draw(st.integers(1, 3))):
        layer = {}
        members = draw(st.sets(st.integers(0, particles - 1)))
        if members or draw(st.booleans()):
            layer["singles"] = {str(i): _gate_cells(draw) for i in sorted(members)}
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3)) if pairs else []
        if chosen or draw(st.booleans()):
            layer["phases"] = [
                {"pair": list(pair), "theta": draw(st.lists(draw(st.sampled_from([floats, angle])), min_size=4, max_size=4))}
                for pair in chosen
            ]
        layers.append(layer)
    return {"particles": particles, "layers": layers}


def _parts(raw: dict) -> tuple[dict, list, list]:
    """Of a parsed circuit, possibly mutated already, in file order: the (container, key) of
    every number and index the validator reads, grouped by kind, every object, and the
    (layer, key) of every single; malformed parts are skipped."""
    def items(node, key, kind):
        value = node.get(key) if isinstance(node, dict) else None
        return value if isinstance(value, kind) else kind()

    slots: dict[str, list] = {"cell": [], "pair": [], "theta": [], "particles": [(raw, "particles")]}
    objects, singles = [raw], []
    for layer in items(raw, "layers", list):
        objects.append(layer)
        for key, cells in items(layer, "singles", dict).items():
            singles.append((layer, key))
            rows = cells if isinstance(cells, list) else []
            pairs = [cell for row in rows if isinstance(row, list) for cell in row if isinstance(cell, list)]
            slots["cell"] += [(cell, k) for cell in pairs for k in range(len(cell))]
        for gate in items(layer, "phases", list):
            objects.append(gate)
            for field in ("pair", "theta"):
                values = items(gate, field, list)
                slots[field] += [(values, k) for k in range(len(values))]
    return slots, [node for node in objects if isinstance(node, dict)], singles


def _mutate_raw(draw, raw: dict) -> None:
    """One mutation of a parsed circuit, in place; some leave it valid."""
    kind = draw(st.sampled_from([
        "bool", "huge int", "01", "²", "None", "non-finite", "missing key", "extra key",
        "out of range", "duplicate pair", "non-unitary",
    ]))
    slots, objects, singles = _parts(raw)
    slot, index = draw(st.sampled_from(draw(st.sampled_from([group for group in slots.values() if group]))))
    if kind == "bool":
        slot[index] = draw(st.booleans())
    elif kind == "huge int":
        slot[index] = draw(st.sampled_from([10**400, -(2**1024), int(sys.float_info.max), -int(sys.float_info.max)]))
    elif kind in ("01", "²") and singles and draw(st.booleans()):
        layer, key = draw(st.sampled_from(singles))
        layer["singles"][{"01": "0" + key, "²": "²"}[kind]] = layer["singles"].pop(key)
    elif kind in ("01", "²", "None"):
        slot[index] = {"01": "01", "²": "²", "None": None}[kind]
    elif kind == "non-finite":
        slot[index] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif kind == "extra key":
        draw(st.sampled_from(objects))[draw(st.sampled_from(["x", "pair", "singles", "layers"]))] = 0
    elif kind == "missing key":
        node = draw(st.sampled_from(objects))
        if node:
            del node[draw(st.sampled_from(sorted(node)))]
    elif kind == "out of range":
        slot[index] = draw(st.sampled_from([-1, 3, 9, 0, 1]))  # 0 and 1 also make pairs that do not increase
    elif kind == "duplicate pair":
        layers = [layer for layer in objects[1:] if isinstance(layer.get("phases"), list) and layer["phases"]]
        if layers:
            phases = draw(st.sampled_from(layers))["phases"]
            phases.append(copy.deepcopy(draw(st.sampled_from(phases))))
    elif singles:  # non-unitary: one entry of one single moved off a unitary value
        layer, key = draw(st.sampled_from(singles))
        cells = _parts({"layers": [{"singles": {key: layer["singles"][key]}}]})[0]["cell"]
        if cells:
            cell, k = draw(st.sampled_from(cells))
            cell[k] = draw(st.sampled_from([1.5, 2, 1 + 2e-12]))


def _validated(validate, raw) -> tuple:
    """The circuit bit for bit, or the class and message of the error raised."""
    try:
        with np.errstate(all="ignore"):  # entries near the float maximum overflow the unitarity check
            circuit = validate(copy.deepcopy(raw))
    except Exception as err:  # the class is compared too
        return type(err), str(err)
    return circuit.particles, [
        (
            [(gate.dtype, gate.shape, gate.tobytes()) for gate in layer.singles],
            [(gate.pair, [type(x) for x in gate.pair], [x.hex() for x in gate.thetas]) for gate in layer.phases],
        )
        for layer in circuit.layers
    ]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_raw_circuits())
def test_inline_validation_gives_the_reference_circuits(raw):
    built = _validated(validate_circuit, raw)
    assert isinstance(built[0], int), built
    assert built == _validated(reference_validate_circuit, raw)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_raw_circuits(), st.data())
def test_inline_validation_raises_the_reference_errors(raw, data):
    for _ in range(data.draw(st.integers(1, 2))):
        _mutate_raw(data.draw, raw)
    assert _validated(validate_circuit, raw) == _validated(reference_validate_circuit, raw)


@pytest.mark.parametrize("value", [True, 10**400, int(sys.float_info.max), "01", "²", None, math.nan, -math.inf, -1, 0, 3])
def test_inline_validation_raises_the_reference_errors_at_every_number(value):
    # each number and index of an all-gates corpus circuit in turn, so every position of every field is hit
    raw = json.loads((CORPUS / "n3_l3_s0.json").read_text(encoding="utf-8"))
    slots, _, _ = _parts(raw)
    for container, key in [slot for group in slots.values() for slot in group]:
        before, container[key] = container[key], value
        assert _validated(validate_circuit, raw) == _validated(reference_validate_circuit, raw)
        container[key] = before
