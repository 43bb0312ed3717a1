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

`hit_three`/`lambda_three` evaluate single pairs; `cascade_hits` runs the
same literal cascade vectorized over every path-prefix pair and streams each
layer's hit as low-rank factors: (side, signed) pairs whose product
(conj(side) * signed) @ side^T is the hit over every pair of r-mode
prefixes: the `HitLayer` form of `common`, which the members' prefix tree
(`twoparticle.tree_layers`) yields for every other subsystem. The marginal
(`subsystems.lambda_marginals`) runs the cascade on the circuit without its
last layer, whose hit is zero on every pair of paths that end together,
sums each factor against the amplitudes as the stream passes,
sum_m signed_m |(side^T A)_m|^2 (`common.PairSums`), keeps no layer and
builds no table; `verify` lists the factors first, adds
each product to the last lambda table (`common.add_hit`) and its
`three_closure` checks each table against the Gram matrix of the
conditioned external-pair states of `paths.conditioned_prefix_state_layers`,
zipped layer by layer with the stream, not of the cascade's own columns.

Each gamma or chi increment is sum_l conj(f_l(p, m)) f_l(q, n), separable
across the (p, m) | (q, n) split of subsystem and struck prefixes, and a hit
sums it over struck path pairs (m, n) that end together, each side times
the struck particle's path weight: its bare amplitude times the booked
A-struck phases. An increment is the partner's conditioned state after its
gate minus the state before it, so a layer's B-C and A-partner increments
telescope into one: the state after every gate of the layer minus the
state before the first. `cascade_hits` books that as four signed columns
of the partner's conditioned states over (p, m), one pair per branch and
layer, and contracts them over m with the path weights once, at the booking
layer, into a (2^r, 2 endpoints, 4) block. The one exception is the A-B hit
at its own booking layer, which stops before that layer's A-C gate: it
reads the pair [after B-C, before B-C] in place of the layer's stored one.
Later layers carry the contracted columns forward by a 2x2 transfer
(`_carry`): a column only repeats over the new bits, while a path weight
gains the layer's booking factor and the struck particle's next single. A
path weight is the same for both modes of the subsystem's newest bit, so
it is held once per (r-1)-mode subsystem prefix: 2^(r-1) x 2^r weights per
branch. A layer costs O(4^r) for the partner's states, their weights and
the one contraction, and O(2^r * columns) for the carry and the hit
factors; no array holds 4^r * columns entries. Both branches advance in
one pass (`_cascade_layers`): their weights, partner states, contraction
and gate chain are each one array over a leading branch axis, with an
all-ones table for an absent gate, while each branch keeps its own
contracted columns, carry and hit factors, since the branches book
different numbers of columns where their gates differ. Adding a hit to a lambda table costs
O(4^r * columns), summing it against amplitudes O(2^r * columns). The
partner's states stay the literal (p, m)-conditioned ones: contracting them
earlier would turn the columns into the conditioned external-pair states
that `three_closure` checks the tables against.

The budget is charged with what each part holds at its largest, one
charge per structure: through the last layer h with an A-B or A-C gate,
both branches' struck path weights and partner states
(`cascade_hit_charges`, checked by the stream), and for `verify`, which
lists every layer's factors before its walk, those factors
(`hit_factor_charges`).
The marginal and `perturb` run it through layer n - 1 alone, so all-gates
circuits reach n = 12 under the default budget of 2^22, where the struck
path weights and the partner states are each exactly 2^22 entries; at
n = 13 they stop them. `verify` runs it through layer n: at n = 11 its
structures and the last lambda table it builds are each 2^22 entries, and
at n = 12 they stop it (the path sum's pair phase tables first).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterator

import numpy as np

from .circuits import Circuit, PhaseGate
from .common import DEFAULT_BUDGET, Charge, HitLayer, check_budget, check_charges
from .paths import Path, enumerate_paths, path_amplitude

AB, AC, BC = (0, 1), (0, 2), (1, 2)

# Two blocks of two columns, the first added and the second subtracted: a booked
# pair [after, before] over the partner's modes, and a hit's [phased, bare] sides.
_PLUS_MINUS = np.array([1.0, 1.0, -1.0, -1.0])
_PLUS_MINUS.flags.writeable = False
_NO_GATE = np.ones((2, 2), dtype=complex)  # an absent gate's factors in a stacked table
_NO_GATE.flags.writeable = False


def _require_three_particles(circuit: Circuit, external: int = 1) -> None:
    if circuit.particles != 3:
        raise ValueError("three-particle decomposition needs exactly 3 particles")
    if external not in (1, 2):
        raise ValueError(f"external particle must be 1 (B) or 2 (C), got {external}")


def _factors(gate: PhaseGate | None) -> np.ndarray | None:
    """The gate's factors exp(1j * theta), read-only, indexed [mode of first, mode of second]."""
    return None if gate is None else gate.table


def _toward(particle: int, table: np.ndarray | None) -> np.ndarray | None:
    """A B-C table indexed [mode of the other external particle, mode of `particle`]."""
    return table if table is None or particle == 2 else table.T


def _along(circuit: Circuit, pair: tuple[int, int], a: Path, b: Path, upto: int) -> complex:
    """Product of the `pair` gates' factors through layer `upto` along paths (a, b)."""
    product = 1.0 + 0.0j
    for t in range(1, upto + 1):
        table = _factors(circuit.phase(t, pair))
        if table is not None:
            product *= table[a.mode(t), b.mode(t)]
    return product


def _external_state(circuit: Circuit, particle: int, a_path: Path, other: Path, upto: int) -> np.ndarray:
    """External `particle`'s state after `upto` layers, conditioned on the subsystem
    path and the other external particle's path."""
    state = np.array([1.0, 0.0], dtype=complex)
    for s in range(1, upto + 1):
        state = circuit.single(s, particle) @ state
        bc = _toward(particle, _factors(circuit.phase(s, BC)))
        if bc is not None:
            state = bc[other.mode(s)] * state
        coupling = _factors(circuit.phase(s, (0, particle)))
        if coupling is not None:
            state = coupling[a_path.mode(s)] * state
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
    table = _factors(circuit.phase(r, pair))
    if table is None:
        return 0j
    factor = table[p.mode(r), k].conjugate() * table[q.mode(r), k] - 1.0
    cumulative = _along(circuit, pair, p, e, r - 1).conjugate() * _along(circuit, pair, q, f, r - 1)
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

    bc = _toward(particle, _factors(circuit.phase(t, BC)))
    if bc is None:
        chi = 0j
        y_p, y_q = w_p, w_q
    else:
        d = bc[e.mode(t)].conj() * bc[f.mode(t)] - 1.0
        chi = complex(np.sum(d * w_p.conj() * w_q))
        y_p = bc[e.mode(t)] * w_p
        y_q = bc[f.mode(t)] * w_q

    coupling = _factors(circuit.phase(t, (0, particle)))
    if coupling is None:
        gamma = 0j
    else:
        d = coupling[p.mode(t)].conj() * coupling[q.mode(t)] - 1.0
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
        if circuit.phase(r, (0, struck)) is not None:
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
    """Accumulate the full cascade for one ordered subsystem path pair.

    Every layer's 4^r branch path pairs are charged before layer 1, in
    layer order, so a circuit too long for them does no work and the error
    names the first layer `hit_three` would stop at.
    """
    _require_three_particles(circuit)
    for r in range(1, circuit.n + 1):
        check_budget(4**r, budget, "branch path pairs")
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
    """The last layer with an A-B or A-C gate, or 0; no hit reads the branches after it."""
    coupled = [
        r
        for r, layer in enumerate(circuit.layers, start=1)
        if layer.phase_on(AB) is not None or layer.phase_on(AC) is not None
    ]
    return max(coupled, default=0)


def cascade_hit_charges(circuit: Circuit) -> list[Charge]:
    """What `cascade_hits` holds at its largest, one charge per structure.

    Through the last hit layer h (`_last_hit_layer`) each branch grows its
    struck particle's path weights, held once per (h-1)-mode subsystem
    prefix for every h-mode struck prefix (a weight is the same for both
    modes of the subsystem's newest bit), 4^h / 2 of them, and its
    partner's conditioned states, two modes over each of 4^(h-1) prefix
    pairs: both branches together hold 4^h weights and 4^h states. After h
    no hit reads the branches, so nothing of theirs grows further. The contracted columns hold 2^(r+1) entries per booked
    column and a layer's hit factors 2^(r+2), with at most 4r + 1 columns
    per branch; a reader that lists them all is charged `hit_factor_charges`.
    """
    last_hit = _last_hit_layer(circuit)
    return [(4**last_hit, "struck path weights"), (4**last_hit, "partner states")]


def hit_factor_charges(circuit: Circuit) -> list[Charge]:
    """What listing every layer's hit factors holds (`verify`'s walk): at most 2^(h+4) (4h + 1) entries.

    Layer r <= h books at most 4r + 1 columns per branch, each 2^(r+2)
    side entries and four signs; summed over both branches and r = 1..h
    that stays within the bound, which is under two thirds of the struck
    path weights at h = 10. With no hit layer nothing is kept.
    """
    last_hit = _last_hit_layer(circuit)
    return [((1 << (last_hit + 4)) * (4 * last_hit + 1) if last_hit else 0, "hit factors")]


def _stacked_gates(circuit: Circuit, layers: int) -> tuple:
    """Both branches' gates at layers 1..`layers`, stacked once per circuit over [layer, branch].

    Branch 0 strikes B (A-B books, C is the partner), branch 1 strikes C.
    Returns which of the A-B, A-C and B-C gates each layer has; the struck
    particles' singles; the partners' singles; the booking tables [subsystem
    mode, struck mode]; the gamma (A-partner) tables [subsystem mode,
    partner mode]; the B-C tables [struck mode, partner mode]; and the
    factors that grow the partner states over a layer's new bits, [new
    subsystem mode, new struck mode, partner mode]. An absent gate has an
    all-ones table: multiplying by 1 + 0j is exact, so every product equals
    the one the branch makes alone.
    """
    kept = circuit.layers[:layers]
    gates = [[layer.phase_on(pair) for pair in (AB, AC, BC)] for layer in kept]
    present = [[gate is not None for gate in row] for row in gates]
    tables = np.array([[_NO_GATE if gate is None else gate.table for gate in row] for row in gates]).reshape(-1, 3, 2, 2)
    singles = np.array([layer.singles[1:] for layer in kept]).reshape(-1, 2, 2, 2)
    booking, gamma = tables[:, :2], tables[:, 1::-1]
    bc = np.stack([tables[:, 2], tables[:, 2].transpose(0, 2, 1)], axis=1)
    factors = bc[:, :, None] * gamma[:, :, :, None, :]
    return present, singles, singles[:, ::-1], booking, gamma, bc, factors


def _carry(columns: np.ndarray, single: np.ndarray, booking: np.ndarray | None) -> np.ndarray:
    """Contracted columns over (r-1)-mode subsystem prefixes, carried to r-mode prefixes.

    `columns[q, k, L]` is column L summed over the struck particle's
    prefixes that end at k, each times its path weight. A column only
    repeats over the new bits, while the weight gains layer r - 1's booking
    factor `booking[q_last, k]` (absent: ones) and the struck particle's
    single element `single[k', k]`. So the carried column is
    sum_k single[k', k] booking[q_last, k] columns[q, k, L], the same for
    both new subsystem modes: the 2x2 transfer `_grow_weights` applies to
    the weights themselves.
    """
    if booking is not None:
        size, _, count = columns.shape
        columns = (columns.reshape(size // 2, 2, 2, count) * booking[:, :, None]).reshape(size, 2, count)
    return (single @ columns).repeat(2, axis=0)


def _grow_weights(weights: np.ndarray, singles: np.ndarray, booking: np.ndarray | None) -> np.ndarray:
    """Both branches' struck path weights at layer r, from those at layer r - 1.

    `weights[j, p, e]` is branch j's bare amplitude of struck prefix e times
    the booked A-struck phases along (p, e). The subsystem's mode at layer r
    meets a weight only through layer r's booking factor, which joins at
    layer r + 1, so a weight is held once per (r-1)-mode subsystem prefix:
    2^(r-1) x 2^r entries per branch, half of the 4^r prefix pairs. Layer
    r - 1's booking factors `booking[j, p_last, e_last]` join first (none
    before layer 2), splitting p by its newest mode; then extending e by
    mode k takes `singles[j, k, e_last]`.
    """
    if booking is not None:
        branches, half, size = weights.shape
        weights = (weights.reshape(branches, half, 1, half, 2) * booking[:, None, :, None, :]).reshape(branches, size, size)
    size = weights.shape[1]
    steps = singles.transpose(0, 2, 1)[:, np.arange(size) % 2]  # [j, e, k]
    return (weights[..., None] * steps[:, None]).reshape(len(weights), size, 2 * size)


def _contract(weights: np.ndarray, states: np.ndarray) -> np.ndarray:
    """States over (r-1)-mode prefix pairs, repeated over both new subsystem bits, summed with r-mode path weights.

    The sum runs over the struck prefixes that end at k: entry [j, 2q + b, k, l]
    is sum_e weights[j, q, 2e + k] states[j, q, e, l], one batched
    (2, e) x (e, l) product per branch j and prefix q, repeated over b. Each
    product reads the same strides as a weight table held for both b would.
    """
    branches, size = weights.shape[:2]
    rows = weights.reshape(branches, size, size, 2).transpose(0, 1, 3, 2)
    return (rows @ states).repeat(2, axis=1)


@cache
def _signed(count: int) -> np.ndarray:
    """The signs of a hit's side columns over `count` contracted columns, read-only.

    Column 0, the 1 of the branch weight, is added, and each booked pair
    after it is [after, before]: signs 1, then [+, +, -, -] repeated. The
    side holds them four times, as [phased, bare] x two struck endpoints.
    """
    signs = np.concatenate([np.ones(1), np.tile(_PLUS_MINUS, (count - 1) // 4)])
    signed = np.multiply.outer(_PLUS_MINUS, signs).reshape(-1)
    signed.flags.writeable = False
    return signed


def _branch_factors(columns: np.ndarray, phases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One branch's share of the hit table, for every subsystem prefix pair, as (side, signed) factors.

    `columns[p, k, L]` with signs[L] (`_signed`) is the branch weight 1 + gamma + chi
    in contracted form (column 0 is the 1), and `phases[p, k]` the booking
    gate's phase for the subsystem at prefix p and struck endpoint k. The
    share is sum_k (conj(phases[p, k]) phases[q, k] - 1) W_k[p, q] with
    W_k = (conj(Y_k) * signs) @ Y_k.T, Y_k = columns[:, k], which is
    (conj(side) * signed) @ side.T over the phased and bare columns side by
    side.
    """
    phased = columns * phases[:, :, None]
    side = np.concatenate([phased, columns], axis=1).reshape(len(columns), -1)
    return side, _signed(columns.shape[2])


def cascade_hits(circuit: Circuit, budget: int = DEFAULT_BUDGET) -> Iterator[HitLayer]:
    """Each layer's hit as low-rank factors, for r = 1..n, by the literal cascade.

    Layer r's hit over every pair of r-mode subsystem prefixes is
    sum (conj(side) * signed) @ side.T over the (side, signed) pairs it
    yields: one per branch whose A-struck gate books at r (`_branch_factors`),
    none past the last hit layer. Prefixes are packed most-significant-first,
    exactly like the two-particle tables. Each branch books a layer's gamma
    and chi increments, telescoped into one pair, as columns of the partner's
    conditioned states over (subsystem, struck) prefix pairs, contracts them
    with the struck particle's path weights once, at the booking layer, and
    carries the contracted columns forward by `_carry`. No yielded array is
    written afterwards. The particle count and `cascade_hit_charges` are
    checked on the call, before any layer is built.
    """
    _require_three_particles(circuit)
    check_charges(cascade_hit_charges(circuit), budget)
    return _cascade_layers(circuit)


def _cascade_layers(circuit: Circuit) -> Iterator[HitLayer]:
    """The layers `cascade_hits` yields, unchecked: both branches in one pass, stacked as [A-B, A-C]."""
    last_hit = _last_hit_layer(circuit)
    present, singles, partner, booking, gamma, bc, factors = _stacked_gates(circuit, last_hit)
    # The partner's states conditioned on (A, struck) prefixes and the struck
    # particle's path weights, both branches at once; per branch the contracted
    # columns. Column 0 is the 1 of the branch weight 1 + gamma + chi: before
    # layer 1 the struck particle sits in mode 0 with weight 1.
    states = np.zeros((2, 1, 1, 2), dtype=complex)
    states[..., 0] = 1.0
    weights = np.ones((2, 1, 1), dtype=complex)
    columns = [np.array([[[1.0], [0.0]]], dtype=complex) for _ in range(2)]
    bits = np.arange(1 << last_hit) % 2

    for r in range(1, circuit.n + 1):
        if r > last_hit:  # no hit reads the branches again
            yield ()
            continue
        t = r - 1
        ab, ac, has_bc = present[t]
        before = booking[t - 1] if t else None
        bit = bits[: 1 << r]

        # The partner's conditioned states through this layer's gate sequence:
        # single, then B-C, then A-partner, contracted with the struck
        # particle's path weights now; a diagonal gate commutes with that
        # contraction, so one contraction serves the whole sequence.
        weights = _grow_weights(weights, singles[t], before)
        moved = (states.reshape(2, -1, 2) @ partner[t].transpose(0, 2, 1)).reshape(states.shape)
        del states  # the next layer reads only the states grown from `moved`
        first = _contract(weights, moved)
        after_bc = first * bc[t][:, None]
        last = after_bc * gamma[t][:, bit][:, :, None, :]
        if r < last_hit:  # only the next layer reads them: grown over both new bits
            size = moved.shape[1]
            states = (moved[:, :, None, :, None, :] * factors[t][:, None, :, None]).reshape(2, 2 * size, 2 * size, 2)

        # Each present gate's increment is the state after it minus the state
        # before it, so the layer's increments telescope: one signed pair,
        # [after every gate, before the first], stands for all of them.
        hits = []
        phases = booking[t][:, bit]
        for j, (books, gamma_gate) in enumerate(((ab, ac), (ac, ab))):
            carried = _carry(columns[j], singles[t, j], None if before is None else before[j])
            if has_bc or gamma_gate:
                columns[j] = np.concatenate([carried, last[j], first[j]], axis=2)
            else:
                columns[j] = carried
            if not books:
                continue
            hit_columns = columns[j]
            if j == 0 and gamma_gate:
                # A-B books before the layer-r A-C gate: its hit's pair stops at the state before that gate
                hit_columns = np.concatenate([carried, after_bc[0], first[0]], axis=2) if has_bc else carried
            hits.append(_branch_factors(hit_columns, phases[j]))
        yield tuple(hits)
