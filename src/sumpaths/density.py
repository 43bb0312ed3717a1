"""Reduced-density recursion for two-particle circuits: the hit/miss split.

Each layer's update of the subsystem density matrix splits into the
interaction-free rotation of the previous reduced state (miss) and a purely
off-diagonal correction (hit) that restores the exact partial trace. The
split assumes the layer's phase gate is in core form diag(1, 1, 1, e^{i phi});
`normalized_phase_form` rewrites any circuit into that form by absorbing the
local factors into the layer's singles and dropping the global phase, which
leaves every density matrix unchanged.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, PhaseGate, factor_phase_gate, make_circuit
from .common import DEFAULT_BUDGET, Charge, check_charges
from .oracle import reduced_density_of, states
from .paths import conditioned_prefix_state_layers, prefix_amplitude_layers


class PhaseGateNotNormalized(ValueError):
    """Layer's phase gate is not in core form; run normalized_phase_form first."""


def _require_two_particles(circuit: Circuit) -> None:
    if circuit.particles != 2:
        raise ValueError("density decomposition handles 2-particle circuits")


def normalized_phase_form(circuit: Circuit) -> Circuit:
    """Equivalent circuit whose phase gates are all diag(1, 1, 1, e^{i phi}).

    Local Z factors move into the layer's singles; the global phase is
    dropped (it cancels in every density matrix).
    """
    _require_two_particles(circuit)
    specs = []
    for layer in circuit.layers:
        gate = layer.phase_on((0, 1))
        if gate is None:
            specs.append((dict(enumerate(layer.singles)), []))
            continue
        f = factor_phase_gate(gate)
        singles = {
            0: np.diag([1.0, np.exp(1j * f.local_first)]) @ layer.singles[0],
            1: np.diag([1.0, np.exp(1j * f.local_second)]) @ layer.singles[1],
        }
        specs.append((singles, [PhaseGate((0, 1), (0.0, 0.0, 0.0, f.residual))]))
    return make_circuit(2, specs)


def _core_angle(circuit: Circuit, t: int) -> float | None:
    """Residual angle phi of the layer-t gate, or None when no gate is present."""
    gate = circuit.phase(t, (0, 1))
    if gate is None:
        return None
    if gate.thetas[:3] != (0.0, 0.0, 0.0):
        raise PhaseGateNotNormalized(
            f"layer {t} gate has angles {gate.thetas}; expected (0, 0, 0, phi)"
        )
    return gate.thetas[3]


@dataclass(frozen=True)
class DensityPair:
    """Hit/miss split of the subsystem reduced density matrix at one layer."""

    layer: int
    miss: np.ndarray
    hit: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.miss + self.hit


def _singles(circuit: Circuit, t: int) -> np.ndarray:
    """A^(t) x B^(t) as a 4 x 4 matrix: the Kronecker product as one broadcast product."""
    gate_a, gate_b = circuit.single(t, 0), circuit.single(t, 1)
    return (gate_a[:, None, :, None] * gate_b[None, :, None, :]).reshape(4, 4)


def _evolved(singles: np.ndarray, phi: float | None, prev_joint: np.ndarray) -> np.ndarray | None:
    """The joint density matrix after the layer's singles; None when the layer has no gate to read it."""
    return None if phi is None else singles @ prev_joint @ singles.conj().T


def _step(
    circuit: Circuit, t: int, phi: float | None, prev_joint: np.ndarray, evolved: np.ndarray | None
) -> DensityPair:
    """One recursion step from the joint density matrix at layer t-1, the core angle and `_evolved`."""
    gate_a = circuit.single(t, 0)
    rho_prev = prev_joint.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
    miss = gate_a @ rho_prev @ gate_a.conj().T
    if phi is None:
        return DensityPair(layer=t, miss=miss, hit=np.zeros((2, 2), dtype=complex))
    block = evolved.reshape(2, 2, 2, 2)[:, 1, :, 1]  # <1|_B ... |1>_B, indices (a, a')
    z_phi = np.array([1.0, np.exp(1j * phi)])
    hit = z_phi[:, None] * block * z_phi.conj()[None, :] - block
    return DensityPair(layer=t, miss=miss, hit=hit)


def _offdiagonal(phi: float | None, evolved: np.ndarray | None) -> np.ndarray:
    """Independent off-diagonal formula for the hit term (its diagonal cancels exactly), from `_step`'s operands."""
    out = np.zeros((2, 2), dtype=complex)
    if phi is not None:
        out[0, 1] = (np.exp(-1j * phi) - 1.0) * evolved[1, 3]  # <01|...|11>
        out[1, 0] = (np.exp(1j * phi) - 1.0) * evolved[3, 1]  # <11|...|01>
    return out


def _pathsum_collapse(circuit: Circuit, t: int, amps: np.ndarray, table: np.ndarray) -> complex:
    """The collapse amplitude <01| singles |psi(t-1)> rebuilt as a subsystem path sum.

    Each subsystem path to mode 0 carries its bare amplitude (particle 0's
    prefix amplitudes through layer t) times the conditioned external
    transition <1|B^(t) B_P^(t-1)|0> (tree table t - 1).
    """
    return complex(np.sum(amps[::2] * (table @ circuit.single(t, 1)[1])))  # row 2k + 0 extends prefix k


def _collapse_direct(singles: np.ndarray, psi: np.ndarray) -> complex:
    """<01| (A^(t) x B^(t)) |psi(t-1)>, straight from the layer's `_singles` and the state vector psi(t-1)."""
    return complex((singles @ psi)[1])


def density_charges(circuit: Circuit) -> list[Charge]:
    """What `density_report` holds at its last layer: prefix-tree table n - 1, then particle 0's prefix amplitudes.

    The table is 2^(n-1) rows of two external amplitudes, and the prefix
    amplitudes through layer n are as many. No earlier layer holds more.
    """
    return [(1 << circuit.n, "conditioned external states"), (1 << circuit.n, "subsystem path amplitudes")]


def density_report(circuit: Circuit, budget: int = DEFAULT_BUDGET) -> list[dict]:
    """Per-layer records of the recursion for the CLI: errors against the oracle.

    The budget is charged once, with `density_charges`. Every layer reads one
    oracle state stream, one stream of prefix-tree tables and one stream of
    particle 0's prefix amplitudes of the normalized circuit, and builds its
    singles' Kronecker product and evolved joint matrix once for the step,
    the off-diagonal formula and the direct collapse. Layer t reads tree
    table t - 1, so the tree stops before table n and holds one table at a
    time beside the one it grows.
    """
    normalized = normalized_phase_form(circuit)
    check_charges(density_charges(normalized), budget)
    tables = itertools.islice(conditioned_prefix_state_layers(normalized, (0,)), normalized.n)
    amplitudes = itertools.islice(prefix_amplitude_layers(normalized, 0), 1, None)
    layers = zip(itertools.pairwise(states(normalized)), tables, amplitudes)
    records = []
    for t, ((psi, after), table, amps) in enumerate(layers, start=1):
        phi = _core_angle(normalized, t)
        prev_joint = np.outer(psi, psi.conj())
        singles = _singles(normalized, t)
        evolved = _evolved(singles, phi, prev_joint)
        pair = _step(normalized, t, phi, prev_joint, evolved)
        oracle = reduced_density_of(after, 2, 0)
        off = _offdiagonal(phi, evolved)
        pathsum = _pathsum_collapse(normalized, t, amps, table)
        direct = _collapse_direct(singles, psi)
        records.append(
            {
                "layer": t,
                "miss": pair.miss,
                "hit": pair.hit,
                "total": pair.total,
                "oracle": oracle,
                "frobenius_error": float(np.linalg.norm(pair.total - oracle)),
                "hit_diagonal_max": float(np.max(np.abs(np.diag(pair.hit)))),
                "offdiagonal_error": float(np.max(np.abs(off - pair.hit))),
                "pathsum_amplitude": pathsum,
                "pathsum_error": abs(pathsum - direct),
            }
        )
    return records
