"""Shared numeric constants, guard errors, per-layer hit factors and the lambda pair sum."""
from __future__ import annotations

import itertools
from functools import cached_property
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


def add_hit(lam: np.ndarray, hits: HitLayer) -> np.ndarray:
    """lambda^(t) from lambda^(t-1): the last table repeated over the new bit, plus each factor's (conj(side) * signed) @ side^T."""
    lam = lam.repeat(2, axis=0).repeat(2, axis=1)
    for side, signed in hits:
        lam += (side.conj() * signed) @ side.T
    return lam


def hit_tables(layers: Iterable[HitLayer]) -> Iterator[np.ndarray]:
    """lambda^(t) for t = 0, 1, ...: 1, then `add_hit` per layer; each table is a fresh array, never written after it is yielded."""
    return itertools.accumulate(layers, add_hit, initial=np.ones((1, 1), dtype=complex))


class HitFactors:
    """Every layer's factored hit from one pass of a hit stream, kept for the pair sums of both endpoints.

    Holding them is charged by the stream's kept-factor charge. No lambda
    table is built unless a block's `lam` is read: then `block` adds layer
    n's hit on the block's rows to lambda over the first n - 1 layers
    (`head`), which is built once and shared, so a reader holds 4^(n-1)
    entries per table where the whole last table holds 4^n.
    """

    def __init__(self, layers: Iterable[HitLayer]) -> None:
        self.layers = list(layers)

    @cached_property
    def head(self) -> np.ndarray:
        """lambda over every pair of (n-1)-mode prefixes (the 1 of no layers when n = 0), by `hit_tables`."""
        for lam in hit_tables(self.layers[:-1]):  # keeps only the last table
            pass
        return lam

    def block(self, rows: np.ndarray) -> np.ndarray:
        """lambda over the n-mode prefixes `rows`: `head` at their (n-1)-mode prefixes plus layer n's hit on them."""
        prefixes = rows >> 1
        lam = self.head[np.ix_(prefixes, prefixes)]
        for side, signed in self.layers[-1] if self.layers else ():
            picked = side[rows]
            lam += (picked.conj() * signed) @ picked.T
        return lam


class LambdaBlock:
    """Path amplitudes and pairwise hidden variables for one subsystem outcome.

    Every route ends in one of these; only the way lambda is held differs.
    General conditioned overlaps hold it as a Gram `factor` S: one row per
    configuration path of the outcome, one column per external basis state,
    with lambda = conj(S) S^T. The subsystem (0,) holds it as `hits`, every
    layer's hit in low-rank factors (`HitFactors`), whether the paper's
    cascade or particle 0's prefix tree made them: lambda is 1 plus, for
    each layer r and each of its (side, signed) pairs,
    (conj(side) * signed) @ side^T over r-mode prefixes, repeated over the
    later modes; the block's paths are the `rows` of that n-mode table.
    Reading `lam` off a factor or the hits materializes it once
    (`HitFactors.block` folds layer n in on the block's rows alone), for
    callers that read entries; `marginal` never does. A dense `lam` is what
    `perturb` builds from a clamped block.
    """

    def __init__(
        self,
        amplitudes: np.ndarray,
        lam: np.ndarray | None = None,
        *,
        factor: np.ndarray | None = None,
        hits: HitFactors | None = None,
        rows: np.ndarray | None = None,
    ) -> None:
        if [lam is None, factor is None, hits is None].count(False) != 1:
            raise ValueError("a lambda block holds exactly one of lam, factor and hits")
        if (hits is None) != (rows is None):
            raise ValueError("a block of hits needs the rows of its paths, and only it")
        self.amplitudes = amplitudes
        self.factor = factor
        self.hits = hits
        self.rows = rows
        if lam is not None:
            self.lam = lam

    @cached_property
    def lam(self) -> np.ndarray:
        """The dense lambda; off a factor, conj(S) S^T from a C-contiguous S; off the hits, their `block` at its rows."""
        if self.hits is not None:
            return self.hits.block(self.rows)
        factor = np.ascontiguousarray(self.factor)
        return factor.conj() @ factor.T

    def marginal(self) -> float:
        """Classical sum of path probabilities plus the lambda-weighted interference of distinct pairs.

        That is sum_i |a_i|^2 + sum_(i != k) conj(a_i) lambda_ik a_k, summed
        as sum_i |a_i|^2 (1 - lambda_ii) + a^dagger lambda a. A dense lambda
        is read in place and none of it is copied. Off a factor, lambda_ii is
        |s_i|^2 and a^dagger lambda a is |S^T a|^2, so nothing of size
        rows^2 is allocated. Off the hits, see `_hit_sum`.
        """
        a = self.amplitudes
        if self.hits is not None:
            return self._hit_sum()
        if self.factor is None:
            diagonal, pairs = np.diagonal(self.lam), a.conj() @ self.lam @ a
        else:
            projected = a @ self.factor
            diagonal, pairs = np.sum(np.abs(self.factor) ** 2, axis=1), np.vdot(projected, projected)
        total = complex(np.sum(np.abs(a) ** 2 * (1.0 - diagonal))) + complex(pairs)
        if abs(total.imag) > REALITY_TOL:
            raise RealityError(f"pair sum has imaginary residue {total.imag:.3e}")
        return total.real

    def _hit_sum(self) -> float:
        """a^dagger lambda a summed layer by layer: |sum_P a_P|^2 + sum_r sum_m signed_m |(side_r^T A_r)_m|^2.

        A_r is the block's amplitudes summed over the suffixes of each r-mode
        prefix, so a layer costs 2^r per factor column where its dense hit
        costs 4^r. The sum_i |a_i|^2 (1 - lambda_ii) term is dropped: every
        hit leaves lambda_ii = 1 up to rounding, since the phases it reads
        are unimodular.
        """
        paths = np.zeros(1 << len(self.hits.layers), dtype=complex)
        paths[self.rows] = self.amplitudes
        total = abs(paths.sum()) ** 2
        for r, hits in enumerate(self.hits.layers, start=1):
            if hits:
                folded = paths.reshape(1 << r, -1).sum(axis=1)
            for side, signed in hits:
                total += float(signed @ np.abs(folded @ side) ** 2)
        return float(total)
