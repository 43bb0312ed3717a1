"""Reduced-density recursion for two-particle circuits: the hit/miss split.

Each layer's update of the subsystem density matrix splits into the
interaction-free rotation of the previous reduced state (miss) and a purely
off-diagonal correction (hit) that restores the exact partial trace. The
split assumes the layer's phase gate is in core form diag(1, 1, 1, e^{i phi});
`normalized_phase_form` rewrites any circuit into that form by absorbing the
local factors, read off the gate's exp(i theta) table, into the layer's
singles and dropping the global phase, which leaves every density matrix
unchanged.

`density_report` runs the recursion over the stacked layers. The states,
both particles' singles and the core angles of the normalized circuit are
stacked once, and so are the given circuit's states, whose reduced
densities are the oracle matrices: a fault in the normalization shows as a
gap between the two. The joint, evolved, miss, hit and oracle matrices
of every layer are then (n, 4, 4) and (n, 2, 2) broadcasts and batched
products, each bit-equal to its one-layer form (the per-layer references
live with the tests). Only what a batch would round differently runs layer
by layer: the Frobenius norm, the off-diagonal formula's scalar products
and the collapse path sum over particle 0's prefix tree.
"""
from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .circuits import Circuit, PhaseGate, factor_phase_gate, make_circuit
from .common import DEFAULT_BUDGET, Charge, check_charges
from .oracle import states
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
        singles = {  # diag(1, z) @ single, as a scaling of the single's mode-1 row
            0: np.array([[1.0], [f.local_first]]) * layer.singles[0],
            1: np.array([[1.0], [f.local_second]]) * layer.singles[1],
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


def _offdiagonal(phi: float | None, evolved: np.ndarray | None) -> np.ndarray:
    """Independent off-diagonal formula for the hit term (its diagonal cancels exactly), from the evolved joint matrix."""
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


def density_charges(circuit: Circuit) -> list[Charge]:
    """What `density_report` holds at its last layer: prefix-tree table n - 1, then particle 0's prefix amplitudes.

    The table is 2^(n-1) rows of two external amplitudes, and the prefix
    amplitudes through layer n are as many. No earlier layer holds more.
    """
    return [(1 << circuit.n, "conditioned external states"), (1 << circuit.n, "subsystem path amplitudes")]


def density_report(
    circuit: Circuit, budget: int = DEFAULT_BUDGET, given: Sequence[np.ndarray] | None = None
) -> list[dict]:
    """Per-layer records of the recursion for the CLI: errors against the oracle.

    The oracle matrices are the reduced densities of the given circuit's
    states psi(0) .. psi(n): `given`, when the caller has evolved them
    (`verify`), else evolved here. The recursion and the direct collapse
    amplitude read the normalized circuit's states, which carry the
    dropped global phases the collapse path sum needs. The budget is
    charged `density_charges`, then the oracle's charges for the normalized
    circuit's states and, unless `given`, the given circuit's. Every
    matrix, the direct collapse amplitude and the error maxima come from
    the stacked layers (see the module docstring); the loop over layers
    takes the Frobenius norms and the collapse path sums, which read one
    stream of prefix-tree tables and one of particle 0's prefix amplitudes.
    Layer t reads tree table t - 1, so the tree stops before table n and
    holds one table at a time beside the one it grows.
    """
    normalized = normalized_phase_form(circuit)
    check_charges(density_charges(normalized), budget)
    n = normalized.n
    psi = np.array(list(states(normalized, budget=budget)))  # psi(0) .. psi(n), one row each
    if given is None:
        given = list(states(circuit, budget=budget))
    first, second = (
        np.array([layer.singles[i] for layer in normalized.layers], dtype=complex).reshape(n, 2, 2) for i in (0, 1)
    )
    angles = [_core_angle(normalized, t) for t in range(1, n + 1)]
    phis = np.array([0.0 if phi is None else phi for phi in angles])

    prev = psi[:-1]
    joint = prev[:, :, None] * prev.conj()[:, None, :]
    singles = (first[:, :, None, :, None] * second[:, None, :, None, :]).reshape(n, 4, 4)  # A^(t) x B^(t)
    evolved = singles @ joint @ singles.conj().swapaxes(1, 2)
    rho_prev = joint.reshape(n, 2, 2, 2, 2).trace(axis1=2, axis2=4)
    miss = first @ rho_prev @ first.conj().swapaxes(1, 2)
    block = evolved.reshape(n, 2, 2, 2, 2)[:, :, 1, :, 1]  # <1|_B ... |1>_B, indices (a, a')
    z_phi = np.ones((n, 2), dtype=complex)
    z_phi[:, 1] = np.exp(1j * phis)
    hit = z_phi[:, :, None] * block * z_phi.conj()[:, None, :] - block
    hit[np.array([phi is None for phi in angles], dtype=bool)] = 0.0  # no gate, no hit
    total = miss + hit
    after = np.array(given[1:]).reshape(n, 2, 2)  # (particle 0, particle 1)
    oracle = after @ after.conj().swapaxes(1, 2)
    off = np.array([_offdiagonal(phi, layer) for phi, layer in zip(angles, evolved)]).reshape(n, 2, 2)
    hit_diagonal_max = np.abs(np.diagonal(hit, axis1=1, axis2=2)).max(axis=1)
    offdiagonal_error = np.abs(off - hit).max(axis=(1, 2))
    direct = (singles @ prev[:, :, None])[:, 1, 0]  # <01| (A^(t) x B^(t)) |psi(t-1)>
    gap = total - oracle

    tables = itertools.islice(conditioned_prefix_state_layers(normalized, (0,)), n)
    amplitudes = itertools.islice(prefix_amplitude_layers(normalized, 0), 1, None)
    records = []
    for k, (table, amps) in enumerate(zip(tables, amplitudes)):
        pathsum = _pathsum_collapse(normalized, k + 1, amps, table)
        records.append(
            {
                "layer": k + 1,
                "miss": miss[k],
                "hit": hit[k],
                "total": total[k],
                "oracle": oracle[k],
                "frobenius_error": float(np.linalg.norm(gap[k])),
                "hit_diagonal_max": float(hit_diagonal_max[k]),
                "offdiagonal_error": float(offdiagonal_error[k]),
                "pathsum_amplitude": pathsum,
                "pathsum_error": abs(pathsum - complex(direct[k])),
            }
        )
    return records
