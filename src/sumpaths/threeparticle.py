"""Three-particle decomposition of the subsystem hidden variables.

Subsystem is particle 0 (A); particles 1 (B) and 2 (C) are external. The
hidden variable for an ordered pair of subsystem paths equals the overlap of
the two-particle external evolutions conditioned on each path, and it is
rebuilt layer by layer out of three families of factors:

  delta  - booked at the layer of an A-B or A-C interaction, over pairs of
           external paths meeting at that interaction;
  gamma  - interactions of the struck particle's partner with the subsystem
           before the booking layer;
  chi    - B-C interactions feeding the struck particle.

Bookkeeping order inside a layer is B-C, then A-B, then A-C, so on the A-B
branch gamma sums stop at the previous layer while chi sums include the
booking layer; on the A-C branch both run through the booking layer. Layers
without the relevant gate contribute exact zeros (no arithmetic happens).

`hit_three`/`lambda_three` evaluate single pairs; `Lambda3Tables` runs the
same literal cascade vectorized over every path-prefix pair. Its `direct`
tables, which `three_closure` checks the cascade against, are the Gram
matrices of the conditioned external-pair states of
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

from dataclasses import dataclass

import numpy as np

from .circuits import Circuit
from .common import DEFAULT_BUDGET, LambdaBlock, check_budget
from .paths import Path, conditioned_prefix_states, endpoint_rows, enumerate_paths, path_amplitude
from .paths import prefix_amplitudes, prefix_index

AB, AC, BC = (0, 1), (0, 2), (1, 2)


def _require_three_particles(circuit: Circuit) -> None:
    if circuit.particles != 3:
        raise ValueError("three-particle decomposition needs exactly 3 particles")


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


def _b_state(circuit: Circuit, a_path: Path, c_path: Path, upto: int) -> np.ndarray:
    """Particle B's state after `upto` layers, conditioned on subsystem and C paths."""
    state = np.array([1.0, 0.0], dtype=complex)
    for s in range(1, upto + 1):
        state = circuit.single(s, 1) @ state
        th_bc = _thetas(circuit, BC, s)
        if th_bc is not None:
            state = np.exp(1j * th_bc[:, c_path.mode(s)]) * state
        th_ab = _thetas(circuit, AB, s)
        if th_ab is not None:
            state = np.exp(1j * th_ab[a_path.mode(s)]) * state
    return state


def _c_state(circuit: Circuit, a_path: Path, b_path: Path, upto: int) -> np.ndarray:
    """Particle C's state after `upto` layers, conditioned on subsystem and B paths."""
    state = np.array([1.0, 0.0], dtype=complex)
    for s in range(1, upto + 1):
        state = circuit.single(s, 2) @ state
        th_bc = _thetas(circuit, BC, s)
        if th_bc is not None:
            state = np.exp(1j * th_bc[b_path.mode(s)]) * state
        th_ac = _thetas(circuit, AC, s)
        if th_ac is not None:
            state = np.exp(1j * th_ac[a_path.mode(s)]) * state
    return state


def _check_common_endpoint(left: Path, right: Path) -> int:
    if left.n != right.n:
        raise ValueError("external paths must have equal length")
    if left.endpoint != right.endpoint:
        raise ValueError(f"external paths end at {left.endpoint} vs {right.endpoint}")
    return left.endpoint


def delta_ab(circuit: Circuit, p: Path, q: Path, m: Path, n_: Path, r: int) -> complex:
    """Booking factor of an A-B interaction at layer r over B-paths (m, n_)."""
    _require_three_particles(circuit)
    k = _check_common_endpoint(m, n_)
    th = _thetas(circuit, AB, r)
    if th is None:
        return 0j
    factor = np.exp(1j * (th[q.mode(r), k] - th[p.mode(r), k])) - 1.0
    cumulative = np.exp(
        1j
        * (
            _straddle_phase(circuit, AB, q, n_, r - 1)
            - _straddle_phase(circuit, AB, p, m, r - 1)
        )
    )
    return complex(
        factor * np.conj(path_amplitude(circuit, 1, m)) * path_amplitude(circuit, 1, n_) * cumulative
    )


def delta_ac(circuit: Circuit, p: Path, q: Path, s: Path, t_: Path, r: int) -> complex:
    """Booking factor of an A-C interaction at layer r over C-paths (s, t_)."""
    _require_three_particles(circuit)
    l = _check_common_endpoint(s, t_)
    th = _thetas(circuit, AC, r)
    if th is None:
        return 0j
    factor = np.exp(1j * (th[q.mode(r), l] - th[p.mode(r), l])) - 1.0
    cumulative = np.exp(
        1j
        * (
            _straddle_phase(circuit, AC, q, t_, r - 1)
            - _straddle_phase(circuit, AC, p, s, r - 1)
        )
    )
    return complex(
        factor * np.conj(path_amplitude(circuit, 2, s)) * path_amplitude(circuit, 2, t_) * cumulative
    )


def gamma_chi_b(
    circuit: Circuit, p: Path, q: Path, s: Path, t_: Path, t: int
) -> tuple[complex, complex]:
    """Layer-t split-off terms of particle B's conditioned overlap on the A-C branch.

    gamma carries the A-B phase difference, chi the B-C difference; both are
    exact zeros when the corresponding gate is absent at layer t.
    """
    _require_three_particles(circuit)
    _check_common_endpoint(s, t_)
    w_p = circuit.single(t, 1) @ _b_state(circuit, p, s, t - 1)
    w_q = circuit.single(t, 1) @ _b_state(circuit, q, t_, t - 1)

    th_bc = _thetas(circuit, BC, t)
    if th_bc is None:
        chi = 0j
        y_p, y_q = w_p, w_q
    else:
        d = np.exp(1j * (th_bc[:, t_.mode(t)] - th_bc[:, s.mode(t)])) - 1.0
        chi = complex(np.sum(d * w_p.conj() * w_q))
        y_p = np.exp(1j * th_bc[:, s.mode(t)]) * w_p
        y_q = np.exp(1j * th_bc[:, t_.mode(t)]) * w_q

    th_ab = _thetas(circuit, AB, t)
    if th_ab is None:
        gamma = 0j
    else:
        d = np.exp(1j * (th_ab[q.mode(t)] - th_ab[p.mode(t)])) - 1.0
        gamma = complex(np.sum(d * y_p.conj() * y_q))
    return gamma, chi


def gamma_chi_c(
    circuit: Circuit, p: Path, q: Path, m: Path, n_: Path, t: int
) -> tuple[complex, complex]:
    """Layer-t split-off terms of particle C's conditioned overlap on the A-B branch."""
    _require_three_particles(circuit)
    _check_common_endpoint(m, n_)
    v_p = circuit.single(t, 2) @ _c_state(circuit, p, m, t - 1)
    v_q = circuit.single(t, 2) @ _c_state(circuit, q, n_, t - 1)

    th_bc = _thetas(circuit, BC, t)
    if th_bc is None:
        chi = 0j
        y_p, y_q = v_p, v_q
    else:
        d = np.exp(1j * (th_bc[n_.mode(t)] - th_bc[m.mode(t)])) - 1.0
        chi = complex(np.sum(d * v_p.conj() * v_q))
        y_p = np.exp(1j * th_bc[m.mode(t)]) * v_p
        y_q = np.exp(1j * th_bc[n_.mode(t)]) * v_q

    th_ac = _thetas(circuit, AC, t)
    if th_ac is None:
        gamma = 0j
    else:
        d = np.exp(1j * (th_ac[q.mode(t)] - th_ac[p.mode(t)])) - 1.0
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

    ab_terms: list[BranchTerm] = []
    if _thetas(circuit, AB, r) is not None:
        for k in (0, 1):
            paths_b = enumerate_paths(r, k)
            for m in paths_b:
                for n_ in paths_b:
                    delta = delta_ab(circuit, p, q, m, n_, r)
                    gamma_sum = 0j
                    chi_sum = 0j
                    for t in range(1, r + 1):
                        gamma, chi = gamma_chi_c(circuit, p, q, m, n_, t)
                        if t <= r - 1:
                            gamma_sum += gamma
                        chi_sum += chi
                    ab_terms.append(BranchTerm(k, m, n_, delta, gamma_sum, chi_sum))

    ac_terms: list[BranchTerm] = []
    if _thetas(circuit, AC, r) is not None:
        for l in (0, 1):
            paths_c = enumerate_paths(r, l)
            for s in paths_c:
                for t_ in paths_c:
                    delta = delta_ac(circuit, p, q, s, t_, r)
                    gamma_sum = 0j
                    chi_sum = 0j
                    for t in range(1, r + 1):
                        gamma, chi = gamma_chi_b(circuit, p, q, s, t_, t)
                        gamma_sum += gamma
                        chi_sum += chi
                    ac_terms.append(BranchTerm(l, s, t_, delta, gamma_sum, chi_sum))

    total = sum((term.value for term in ab_terms), 0j) + sum(
        (term.value for term in ac_terms), 0j
    )
    return HitBreakdown(layer=r, ab_branch=tuple(ab_terms), ac_branch=tuple(ac_terms), total=total)


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
    """Entries of the biggest array a `Lambda3Tables` build holds.

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


class Lambda3Tables:
    """The literal cascade, vectorized over every (subsystem, external) prefix pair.

    All arrays are indexed by prefix integers with modes packed
    most-significant-first, exactly like the two-particle tables. The gamma
    and chi sums are kept per branch as separable column stacks (see
    `_refine`), never as dense (p, q, m, n) tables.
    """

    def __init__(self, circuit: Circuit, budget: int = DEFAULT_BUDGET):
        _require_three_particles(circuit)
        check_budget(_largest_table(circuit), budget, "three-particle cascade table")
        self.circuit = circuit
        n = self.n = circuit.n

        lam = np.ones((1, 1), dtype=complex)
        self.lam: list[np.ndarray] = [lam]
        self.hit_tables: list[np.ndarray | None] = [None]

        cv = np.array([1.0, 0.0], dtype=complex).reshape(1, 1, 2)  # C given (A, B) prefixes
        bv = np.array([1.0, 0.0], dtype=complex).reshape(1, 1, 2)  # B given (A, C) prefixes

        # A-B branch: C's overlap, chi (B-C) and gamma (A-C) columns over (A, B) prefixes
        c_stack = np.zeros((1, 1, 0), dtype=complex)
        c_signs = np.zeros(0)
        # A-C branch: B's overlap, chi (B-C) and gamma (A-B) columns over (A, C) prefixes
        b_stack = np.zeros((1, 1, 0), dtype=complex)
        b_signs = np.zeros(0)
        pab = np.ones((1, 1), dtype=complex)  # cumulative A-B straddle phases
        pac = np.ones((1, 1), dtype=complex)
        last_hit = _last_hit_layer(circuit)

        for r in range(1, n + 1):
            size = 1 << r
            bit = np.arange(size) % 2
            th_ab = _thetas(circuit, AB, r)
            th_ac = _thetas(circuit, AC, r)
            th_bc = _thetas(circuit, BC, r)

            # pab/pac keep their through-(r-1) content until after the assemblies
            pab = np.repeat(np.repeat(pab, 2, axis=0), 2, axis=1)
            pac = np.repeat(np.repeat(pac, 2, axis=0), 2, axis=1)

            # conditioned external states through this layer's gate sequence
            z_c = np.tensordot(cv, circuit.single(r, 2), axes=([2], [1]))
            z_c = np.repeat(np.repeat(z_c, 2, axis=0), 2, axis=1)  # pre-B-C view
            if th_bc is not None:
                v_c = z_c * np.exp(1j * th_bc)[bit][None, :, :]  # after B-C, before A-C
            else:
                v_c = z_c
            z_b = np.tensordot(bv, circuit.single(r, 1), axes=([2], [1]))
            z_b = np.repeat(np.repeat(z_b, 2, axis=0), 2, axis=1)
            if th_bc is not None:
                w_b = z_b * np.exp(1j * th_bc.T)[bit][None, :, :]  # after B-C, before A-B
            else:
                w_b = z_b
            cv = v_c * np.exp(1j * th_ac)[bit][:, None, :] if th_ac is not None else v_c
            bv = w_b * np.exp(1j * th_ab)[bit][:, None, :] if th_ab is not None else w_b

            # per-layer gamma/chi increments, as (after, before) gate pairs; an
            # absent gate books nothing. The A-C gamma goes last on C's stack:
            # the A-B branch sums gamma only through layer r-1.
            c_increments, b_increments = [], []
            if th_bc is not None:
                c_increments.append((v_c, z_c))
                b_increments.append((w_b, z_b))
            ab_columns = c_stack.shape[2] + 4 * len(c_increments)
            if th_ac is not None:
                c_increments.append((cv, v_c))
            if th_ab is not None:
                b_increments.append((bv, w_b))
            if r <= last_hit:
                c_stack, c_signs = _refine(c_stack, c_signs, c_increments)
                b_stack, b_signs = _refine(b_stack, b_signs, b_increments)

            hit_table = None
            if th_ab is not None:
                hit_table = _branch_hit(
                    prefix_amplitudes(circuit, 1, r)[None, :] * pab,
                    c_stack[:, :, :ab_columns],
                    c_signs[:ab_columns],
                    np.exp(1j * th_ab)[bit],
                )
            if th_ac is not None:
                ac_table = _branch_hit(
                    prefix_amplitudes(circuit, 2, r)[None, :] * pac, b_stack, b_signs, np.exp(1j * th_ac)[bit]
                )
                hit_table = ac_table if hit_table is None else hit_table + ac_table

            lam = np.repeat(np.repeat(lam, 2, axis=0), 2, axis=1)
            if hit_table is not None:
                lam = lam + hit_table
            self.lam.append(lam)
            self.hit_tables.append(hit_table)

            # straddle phases now cover layers 1..r, ready for the next layer's deltas
            if th_ab is not None:
                pab = pab * np.exp(1j * th_ab[bit[:, None], bit[None, :]])
            if th_ac is not None:
                pac = pac * np.exp(1j * th_ac[bit[:, None], bit[None, :]])

        # the oracle-side tables: overlaps of the conditioned external-pair states
        self.direct = [u.conj() @ u.T for u in conditioned_prefix_states(circuit, (0,))]
        self.amps = prefix_amplitudes(circuit, 0)

    def trajectory(self, p: Path, q: Path) -> tuple[complex, ...]:
        return tuple(
            complex(self.lam[t][prefix_index(p, t), prefix_index(q, t)])
            for t in range(self.n + 1)
        )

    def block(self, endpoint: int) -> LambdaBlock:
        """Amplitudes and final lambda of the paths ending at `endpoint`, in enumeration order."""
        rows = endpoint_rows(self.n, endpoint)
        return LambdaBlock(self.amps[rows], self.lam[self.n][np.ix_(rows, rows)])


def lambda3_tables(circuit: Circuit, budget: int = DEFAULT_BUDGET) -> Lambda3Tables:
    return Lambda3Tables(circuit, budget)

