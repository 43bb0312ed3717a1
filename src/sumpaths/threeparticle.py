"""Three-particle decomposition of the subsystem hidden variables.

Subsystem is particle 0 (A); particles 1 (B) and 2 (C) are external. The
hidden variable for an ordered pair of subsystem paths equals the overlap of
the two-particle external evolutions conditioned on each path, and it is
rebuilt layer by layer out of three families of factors:

  delta  - `delta(circuit, struck, ...)`, booked at the layer of an A-struck
           interaction (struck 1 on the A-B branch, 2 on the A-C branch),
           over pairs of the struck particle's paths meeting there;
  gamma  - interactions of the partner, 3 - struck, with the subsystem;
  chi    - B-C interactions between the partner and the struck particle.

`gamma_chi(circuit, particle, ...)` gives the partner's gamma and chi terms
of one layer. Both branches run one code path. Bookkeeping order inside a
layer is B-C, then A-B, then A-C, so an A-B hit is booked before the layer's
A-C gate: its gamma sums stop at the previous layer, while its chi sums and
both sums of an A-C hit run through the booking layer.
Layers without the relevant gate contribute exact zeros (no arithmetic
happens).

`hit_three`/`lambda_three` evaluate single pairs; `lambda3_tables` runs the
same literal cascade vectorized over every path-prefix pair and streams one
lambda table per layer. `verify`'s `three_closure` checks each streamed
table against the Gram matrix of the conditioned external-pair states of
`paths.conditioned_prefix_states`, not of the cascade's own columns.

Each gamma or chi increment is sum_l conj(f_l(p, m)) f_l(q, n), separable
across the (p, m) | (q, n) split of subsystem and external prefixes. The
tables therefore keep each branch's running sums as a stack of signed
columns over (p, m), four per booked increment, never as a dense
(p, q, m, n) table. Layer r costs O(columns * 4^r) time and memory, with up
to eight columns per layer on a branch. The budget is charged with the
largest stack, 4^r prefix pairs times its columns, so all-gates circuits
reach n = 8 under the default budget of 2^22.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .circuits import Circuit
from .common import DEFAULT_BUDGET, check_budget
from .paths import Path, apply_single, enumerate_paths, path_amplitude, prefix_amplitude_layers

AB, AC, BC = (0, 1), (0, 2), (1, 2)


def _require_three_particles(circuit: Circuit, external: int = 1) -> None:
    if circuit.particles != 3:
        raise ValueError("three-particle decomposition needs exactly 3 particles")
    if external not in (1, 2):
        raise ValueError(f"external particle must be 1 (B) or 2 (C), got {external}")


def _thetas(circuit: Circuit, pair: tuple[int, int], t: int) -> np.ndarray | None:
    gate = circuit.phase(t, pair)
    return None if gate is None else np.asarray(gate.thetas).reshape(2, 2)


def _straddle_phase(circuit: Circuit, pair: tuple[int, int], a: Path, b: Path, upto: int) -> float:
    """Accumulated angle of `pair` gates through layer `upto` along paths (a, b)."""
    angle = 0.0
    for t in range(1, upto + 1):
        th = _thetas(circuit, pair, t)
        if th is not None:
            angle += th[a.mode(t), b.mode(t)]
    return angle


def _phases(circuit: Circuit, pair: tuple[int, int], t: int) -> np.ndarray | None:
    """The gate's factors exp(1j * theta) on `pair` at layer t, read-only, shaped like `_thetas`."""
    gate = circuit.phase(t, pair)
    return None if gate is None else gate.diagonal().reshape(2, 2)


def _toward(particle: int, table: np.ndarray | None) -> np.ndarray | None:
    """A B-C table indexed [mode of the other external particle, mode of `particle`]."""
    return table if table is None or particle == 2 else table.T


def _bc_thetas(circuit: Circuit, particle: int, t: int) -> np.ndarray | None:
    """B-C angles at layer t, `_toward` `particle`."""
    return _toward(particle, _thetas(circuit, BC, t))


def _external_state(circuit: Circuit, particle: int, a_path: Path, other: Path, upto: int) -> np.ndarray:
    """External `particle`'s state after `upto` layers, conditioned on the subsystem
    path and the other external particle's path."""
    state = np.array([1.0, 0.0], dtype=complex)
    for s in range(1, upto + 1):
        state = circuit.single(s, particle) @ state
        th_bc = _bc_thetas(circuit, particle, s)
        if th_bc is not None:
            state = np.exp(1j * th_bc[other.mode(s)]) * state
        th_a = _thetas(circuit, (0, particle), s)
        if th_a is not None:
            state = np.exp(1j * th_a[a_path.mode(s)]) * state
    return state


def _check_common_endpoint(left: Path, right: Path) -> int:
    if left.n != right.n:
        raise ValueError("external paths must have equal length")
    if left.endpoint != right.endpoint:
        raise ValueError(f"external paths end at {left.endpoint} vs {right.endpoint}")
    return left.endpoint


def delta(circuit: Circuit, struck: int, p: Path, q: Path, e: Path, f: Path, r: int) -> complex:
    """Booking factor of the A-`struck` interaction at layer r over struck-particle paths (e, f)."""
    _require_three_particles(circuit, struck)
    k = _check_common_endpoint(e, f)
    pair = (0, struck)
    th = _thetas(circuit, pair, r)
    if th is None:
        return 0j
    factor = np.exp(1j * (th[q.mode(r), k] - th[p.mode(r), k])) - 1.0
    cumulative = np.exp(
        1j
        * (
            _straddle_phase(circuit, pair, q, f, r - 1)
            - _straddle_phase(circuit, pair, p, e, r - 1)
        )
    )
    return complex(
        factor * np.conj(path_amplitude(circuit, struck, e)) * path_amplitude(circuit, struck, f) * cumulative
    )


def gamma_chi(
    circuit: Circuit, particle: int, p: Path, q: Path, e: Path, f: Path, t: int
) -> tuple[complex, complex]:
    """Layer-t split-off terms of external `particle`'s conditioned overlap, on the
    branch where the other external particle, with paths (e, f), is struck.

    gamma carries the A-`particle` phase difference, chi the B-C difference;
    both are exact zeros when the corresponding gate is absent at layer t.
    """
    _require_three_particles(circuit, particle)
    _check_common_endpoint(e, f)
    w_p = circuit.single(t, particle) @ _external_state(circuit, particle, p, e, t - 1)
    w_q = circuit.single(t, particle) @ _external_state(circuit, particle, q, f, t - 1)

    th_bc = _bc_thetas(circuit, particle, t)
    if th_bc is None:
        chi = 0j
        y_p, y_q = w_p, w_q
    else:
        d = np.exp(1j * (th_bc[f.mode(t)] - th_bc[e.mode(t)])) - 1.0
        chi = complex(np.sum(d * w_p.conj() * w_q))
        y_p = np.exp(1j * th_bc[e.mode(t)]) * w_p
        y_q = np.exp(1j * th_bc[f.mode(t)]) * w_q

    th_a = _thetas(circuit, (0, particle), t)
    if th_a is None:
        gamma = 0j
    else:
        d = np.exp(1j * (th_a[q.mode(t)] - th_a[p.mode(t)])) - 1.0
        gamma = complex(np.sum(d * y_p.conj() * y_q))
    return gamma, chi


@dataclass(frozen=True)
class BranchTerm:
    """One (endpoint, left path, right path) contribution inside a hit."""

    endpoint: int
    left: Path
    right: Path
    delta: complex
    gamma_sum: complex
    chi_sum: complex

    @property
    def value(self) -> complex:
        return self.delta * (1.0 + self.gamma_sum + self.chi_sum)


@dataclass(frozen=True)
class HitBreakdown:
    """Everything booked at one layer: both branches and the resulting hit total."""

    layer: int
    ab_branch: tuple[BranchTerm, ...]
    ac_branch: tuple[BranchTerm, ...]
    total: complex


def hit_three(
    circuit: Circuit, p: Path, q: Path, r: int, budget: int = DEFAULT_BUDGET
) -> HitBreakdown:
    """Hit of information at layer r with its full per-branch breakdown."""
    _require_three_particles(circuit)
    if p.n != circuit.n or q.n != circuit.n:
        raise ValueError("subsystem paths must span every circuit layer")
    check_budget(4**r, budget, "branch path pairs")

    branches = []
    for struck in (1, 2):  # A-B, then A-C
        terms = []
        if _thetas(circuit, (0, struck), r) is not None:
            for k in (0, 1):
                paths = enumerate_paths(r, k)
                for e in paths:
                    for f in paths:
                        booked = delta(circuit, struck, p, q, e, f, r)
                        gamma_sum = 0j
                        chi_sum = 0j
                        for t in range(1, r + 1):
                            gamma, chi = gamma_chi(circuit, 3 - struck, p, q, e, f, t)
                            if struck == 2 or t <= r - 1:  # A-B books before the layer-r A-C gate
                                gamma_sum += gamma
                            chi_sum += chi
                        terms.append(BranchTerm(k, e, f, booked, gamma_sum, chi_sum))
        branches.append(tuple(terms))
    ab_terms, ac_terms = branches

    total = sum((term.value for term in ab_terms), 0j) + sum(
        (term.value for term in ac_terms), 0j
    )
    return HitBreakdown(layer=r, ab_branch=ab_terms, ac_branch=ac_terms, total=total)


@dataclass(frozen=True)
class Lambda3Entry:
    """Hidden-variable trajectory with the per-layer breakdowns that built it."""

    trajectory: tuple[complex, ...]
    breakdowns: tuple[HitBreakdown, ...]

    @property
    def final(self) -> complex:
        return self.trajectory[-1]


def lambda_three(
    circuit: Circuit, p: Path, q: Path, budget: int = DEFAULT_BUDGET
) -> Lambda3Entry:
    """Accumulate the full cascade for one ordered subsystem path pair."""
    value = 1.0 + 0.0j
    trajectory = [value]
    breakdowns = []
    for r in range(1, circuit.n + 1):
        breakdown = hit_three(circuit, p, q, r, budget)
        breakdowns.append(breakdown)
        value = value + breakdown.total
        trajectory.append(value)
    return Lambda3Entry(trajectory=tuple(trajectory), breakdowns=tuple(breakdowns))


def _last_hit_layer(circuit: Circuit) -> int:
    """The last layer with an A-B or A-C gate, or 0; no hit reads the column stacks after it."""
    coupled = [
        r
        for r in range(1, circuit.n + 1)
        if _thetas(circuit, AB, r) is not None or _thetas(circuit, AC, r) is not None
    ]
    return max(coupled, default=0)


def _largest_table(circuit: Circuit) -> int:
    """Entries of the biggest array a `lambda3_tables` build holds.

    That is a column stack, 4^r prefix pairs by its column count after the
    increments booked at layer r <= `_last_hit_layer`, or the final 4^n
    lambda table if larger.
    """
    largest = 4**circuit.n
    c_columns = b_columns = 0
    for r in range(1, _last_hit_layer(circuit) + 1):
        bc, ab, ac = (_thetas(circuit, pair, r) is not None for pair in (BC, AB, AC))
        c_columns += 4 * (bc + ac)
        b_columns += 4 * (bc + ab)
        largest = max(largest, 4**r * max(c_columns, b_columns))
    return largest


def _refine(
    stack: np.ndarray, signs: np.ndarray, increments: list[tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """Resolve a column stack one layer finer and append this layer's increments.

    `stack[p, e, L]` holds separable columns over (subsystem prefix p,
    external prefix e); the accumulator it stands for is
    sum_L signs[L] * conj(stack[p, e, L]) * stack[q, f, L]. Every carried
    column is repeated over the new bit of both prefixes. An increment
    (plus, minus) of two (p, e, 2) state tables books
    sum_l conj(plus[p, e, l]) plus[q, f, l] - conj(minus[p, e, l]) minus[q, f, l]
    as four new columns.
    """
    half, ext_half, carried = stack.shape
    out = np.empty((half, 2, ext_half, 2, carried + 4 * len(increments)), dtype=complex)
    out[..., :carried] = stack[:, None, :, None, :]
    out = out.reshape(2 * half, 2 * ext_half, -1)
    for index, (plus, minus) in enumerate(increments):
        col = carried + 4 * index
        out[:, :, col : col + 2] = plus
        out[:, :, col + 2 : col + 4] = minus
    booked = np.tile([1.0, 1.0, -1.0, -1.0], len(increments))
    return out, np.concatenate([signs, booked])


def _branch_hit(
    left: np.ndarray, stack: np.ndarray, signs: np.ndarray, phases: np.ndarray
) -> np.ndarray:
    """One branch's share of the hit table, for every subsystem prefix pair.

    `left[p, e]` is the booked external path weight (bare amplitude times
    cumulative straddle phase), `stack`/`signs` the branch weight
    1 + gamma + chi in column form, and `phases[p, k]` the booking gate's
    phase for the subsystem at prefix p and external endpoint k. Summed over
    external path pairs (e, f) ending at k, the weight splits into
    outer(conj(B), B) for the 1 and (conj(X) * signs) @ X.T for the columns.
    """
    size = left.shape[0]
    left = left.reshape(size, -1, 2)  # external prefix split into (earlier modes, endpoint k)
    ones = left.sum(axis=1)
    cols = np.einsum("qnk,qnkL->qkL", left, stack.reshape(*left.shape, stack.shape[2]))
    hit = np.zeros((size, size), dtype=complex)
    for k in (0, 1):
        weight = np.outer(ones[:, k].conj(), ones[:, k]) + (cols[:, k].conj() * signs) @ cols[:, k].T
        hit += (np.outer(phases[:, k].conj(), phases[:, k]) - 1.0) * weight
    return hit


def lambda3_tables(circuit: Circuit, budget: int = DEFAULT_BUDGET) -> Iterator[np.ndarray]:
    """lambda^(t) over every pair of t-mode subsystem prefixes, for t = 0..n, by the literal cascade.

    All arrays are indexed by prefix integers with modes packed
    most-significant-first, exactly like the two-particle tables. The gamma
    and chi sums are kept per branch as separable column stacks (see
    `_refine`), never as dense (p, q, m, n) tables. Each lambda table is a
    fresh array, never written after it is yielded. The `_largest_table`
    budget charge and the particle count are checked on the first `next()`.
    """
    _require_three_particles(circuit)
    check_budget(_largest_table(circuit), budget, "three-particle cascade table")
    lam = np.ones((1, 1), dtype=complex)
    yield lam

    # Per branch, keyed by the struck particle: the partner's states conditioned
    # on (A, struck) prefixes, the partner's chi (B-C) and gamma columns over
    # those prefixes, and the cumulative A-struck straddle phases.
    states = {struck: np.array([1.0, 0.0], dtype=complex).reshape(1, 1, 2) for struck in (1, 2)}
    stacks = {struck: np.zeros((1, 1, 0), dtype=complex) for struck in (1, 2)}
    signs = {struck: np.zeros(0) for struck in (1, 2)}
    straddle = {struck: np.ones((1, 1), dtype=complex) for struck in (1, 2)}
    # the struck particle's prefix amplitudes, grown one layer at a time from layer 1
    amplitudes = {
        struck: itertools.islice(prefix_amplitude_layers(circuit, struck), 1, None) for struck in (1, 2)
    }
    last_hit = _last_hit_layer(circuit)

    for r in range(1, circuit.n + 1):
        bit = np.arange(1 << r) % 2
        hit_table = None
        for struck in (1, 2):  # A-B, then A-C
            partner = 3 - struck
            ph_book = _phases(circuit, (0, struck), r)
            ph_gamma = _phases(circuit, (0, partner), r)
            ph_bc = _toward(partner, _phases(circuit, BC, r))
            amps = next(amplitudes[struck])

            # the partner's conditioned states through this layer's gate sequence
            pre_bc = apply_single(states[struck], 2, circuit.single(r, partner))
            pre_bc = np.repeat(np.repeat(pre_bc, 2, axis=0), 2, axis=1)
            pre_gamma = pre_bc * ph_bc[bit][None, :, :] if ph_bc is not None else pre_bc
            if ph_gamma is not None:
                states[struck] = pre_gamma * ph_gamma[bit][:, None, :]
            else:
                states[struck] = pre_gamma

            # per-layer chi/gamma increments, as (after, before) gate pairs; an
            # absent gate books nothing
            increments = []
            if ph_bc is not None:
                increments.append((pre_gamma, pre_bc))
            if ph_gamma is not None:
                increments.append((states[struck], pre_gamma))
            if r <= last_hit:
                stacks[struck], signs[struck] = _refine(stacks[struck], signs[struck], increments)

            straddle[struck] = np.repeat(np.repeat(straddle[struck], 2, axis=0), 2, axis=1)
            if ph_book is not None:
                # A-B books before the layer-r A-C gate, whose gamma is the stack's last four columns
                columns = stacks[struck].shape[2] - 4 * (struck == 1 and ph_gamma is not None)
                branch = _branch_hit(
                    amps[None, :] * straddle[struck],
                    stacks[struck][:, :, :columns],
                    signs[struck][:columns],
                    ph_book[bit],
                )
                hit_table = branch if hit_table is None else hit_table + branch
                # straddle phases now cover layers 1..r, ready for the next layer's deltas
                straddle[struck] = straddle[struck] * ph_book[bit[:, None], bit[None, :]]

        lam = np.repeat(np.repeat(lam, 2, axis=0), 2, axis=1)
        if hit_table is not None:
            lam = lam + hit_table
        hit_table = branch = None  # not held while the caller reads lam
        yield lam
