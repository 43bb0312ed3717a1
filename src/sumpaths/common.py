"""Shared numeric constants, guard errors, per-layer hit factors, the streamed pair sums and the dense lambda block."""
from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator

import numpy as np

DEFAULT_BUDGET = 2**22
REALITY_TOL = 1e-10


class BudgetExceeded(RuntimeError):
    """Raised when a table would hold more entries than the configured budget allows."""


class RealityError(ArithmeticError):
    """Raised when a quantity that must be real carries a non-negligible imaginary part."""


def _count_text(count: int) -> str:
    """`count` in decimal, or as a power of two past Python's int-to-str digit limit."""
    try:
        return str(count)
    except ValueError:
        power = count.bit_length() - 1
        return f"2^{power}" if count == 1 << power else f"more than 2^{power}"


def check_budget(count: int, budget: int, what: str) -> None:
    if count > budget:
        raise BudgetExceeded(
            f"{what} needs {_count_text(count)} combinations, budget is {_count_text(budget)};"
            " raise --budget to override"
        )


Charge = tuple[int, str]  # (count, what) for `check_budget`


def check_charges(charges: Iterable[Charge], budget: int) -> None:
    """`check_budget` on each charge in order, so the first one over the budget raises."""
    for count, what in charges:
        check_budget(count, budget, what)


HitLayer = tuple[tuple[np.ndarray, np.ndarray], ...]  # one layer's hit as (side, signed) factors


def _pair_axes(rows: int, members: int, new: int) -> tuple[int, ...]:
    """The shape of a pair table over `rows` joint prefixes with each member's prefix followed by a `new`-mode axis, on both sides."""
    return (1 << (rows.bit_length() - 1) // members, new) * (2 * members)


def add_hit(lam: np.ndarray, hits: HitLayer, members: int = 1) -> np.ndarray:
    """lambda^(t) from lambda^(t-1): the last table repeated over each member's new mode, plus each factor's (conj(side) * signed) @ side^T.

    A side's row count names the depth of prefix it reads: a side over
    t-mode prefixes adds its product as it is, a side over (t-1)-mode
    prefixes adds it repeated like the last table, in place. Rows join the
    members' prefixes, first member most significant.
    """
    rows = len(lam)
    grown = np.empty((rows << members,) * 2, dtype=complex)
    view = grown.reshape(_pair_axes(rows, members, 2))
    view[...] = lam.reshape(_pair_axes(rows, members, 1))
    for side, signed in hits:
        product = (side.conj() * signed) @ side.T
        if len(side) == rows:
            view += product.reshape(_pair_axes(rows, members, 1))
        else:
            grown += product
    return grown


def hit_tables(layers: Iterable[HitLayer], members: int = 1) -> Iterator[np.ndarray]:
    """lambda^(t) for t = 0, 1, ...: 1, then `add_hit` per layer; each table is a fresh array, never written after it is yielded."""
    return itertools.accumulate(layers, functools.partial(add_hit, members=members), initial=np.ones((1, 1), dtype=complex))


class PairSums:
    """Every outcome's pair sum a^dagger lambda a, added up layer by layer as a hit stream passes, no lambda built.

    `amplitudes[o]` holds outcome o's configuration path amplitudes over
    the (n-1)-mode joint prefixes of its paths (one row at n <= 1). lambda
    is 1 plus every layer's hit, so a^dagger lambda a is |sum a|^2 plus,
    for each factor (side, signed) of each layer,
    signed @ |A_d @ side|^2: A_d sums each path's amplitude over the
    suffixes of its d-mode prefix, and d is the depth the side's row count
    names. The folds A_d, d = 0..n-1, are built once, back from the
    amplitudes, and a layer costs 2^(M d) per factor column where its
    dense hit costs 4^(M d). The sum_i |a_i|^2 (1 - lambda_ii) term of
    `LambdaBlock.marginal` is dropped: every hit leaves lambda_ii = 1 up
    to rounding, since the phases it reads are unimodular. No layer is
    kept after it is read.
    """

    def __init__(self, amplitudes: np.ndarray, members: int) -> None:
        self.amplitudes = amplitudes
        self.folds = {amplitudes.shape[1]: amplitudes}
        fold = amplitudes
        while fold.shape[1] > 1:  # each member's newest mode summed out
            split = fold.reshape((len(fold),) + _pair_axes(fold.shape[1] >> members, members, 2)[: 2 * members])
            fold = split.sum(axis=tuple(range(2, 2 * members + 1, 2))).reshape(len(fold), -1)
            self.folds[fold.shape[1]] = fold
        self.totals = np.abs(fold[:, 0]) ** 2

    def read(self, hits: HitLayer) -> None:
        """Add one layer's factors to every outcome's sum."""
        for side, signed in hits:
            self.totals += np.abs(self.folds[len(side)] @ side) ** 2 @ signed


class LambdaBlock:
    """Path amplitudes and the dense pairwise hidden variables of one subsystem outcome, for `perturb`'s clamp.

    lambda holds one row and one column per configuration path of the
    outcome; `subsystems.lambda_blocks` builds one lambda from the hit
    stream that every outcome's block shares, and `perturb` clamps it once.
    """

    def __init__(self, amplitudes: np.ndarray, lam: np.ndarray) -> None:
        self.amplitudes = amplitudes
        self.lam = lam

    def marginal(self) -> float:
        """Classical sum of path probabilities plus the lambda-weighted interference of distinct pairs.

        That is sum_i |a_i|^2 + sum_(i != k) conj(a_i) lambda_ik a_k, summed
        as sum_i |a_i|^2 (1 - lambda_ii) + a^dagger lambda a; lambda is read
        in place and none of it is copied.
        """
        a = self.amplitudes
        total = complex(np.sum(np.abs(a) ** 2 * (1.0 - np.diagonal(self.lam)))) + complex(a.conj() @ self.lam @ a)
        if abs(total.imag) > REALITY_TOL:
            raise RealityError(f"pair sum has imaginary residue {total.imag:.3e}")
        return total.real
