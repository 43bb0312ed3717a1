"""Shared numeric constants, guard errors, and the lambda pair sum."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

DEFAULT_BUDGET = 2**22
REALITY_TOL = 1e-10


class BudgetExceeded(RuntimeError):
    """Raised when an enumeration would exceed the configured path budget."""


class RealityError(ArithmeticError):
    """Raised when a quantity that must be real carries a non-negligible imaginary part."""


def _count_text(count: int) -> str:
    """`count` in decimal, or as a power of two past Python's int-to-str digit limit."""
    try:
        return str(count)
    except ValueError:
        power = count.bit_length() - 1
        return f"2^{power}" if count == 1 << power else f"more than 2^{power}"


def check_budget(count: int, budget: int, what: str = "path lattice") -> None:
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


@dataclass(frozen=True)
class LambdaBlock:
    """Path amplitudes and pairwise hidden variables for one subsystem outcome.

    Every route (the hit stream, the three-particle cascade, general
    conditioned overlaps) ends in one of these; only the way `lam` is
    computed differs.
    """

    amplitudes: np.ndarray
    lam: np.ndarray

    def marginal(self) -> float:
        """Classical sum of path probabilities plus the lambda-weighted interference of distinct pairs.

        That is sum_i |a_i|^2 + sum_(i != k) conj(a_i) lambda_ik a_k, summed
        as sum_i |a_i|^2 (1 - lambda_ii) + a^dagger lambda a, which reads
        lambda in place and copies none of it.
        """
        a = self.amplitudes
        classical = np.sum(np.abs(a) ** 2 * (1.0 - np.diagonal(self.lam)))
        total = complex(classical) + complex(a.conj() @ self.lam @ a)
        if abs(total.imag) > REALITY_TOL:
            raise RealityError(f"pair sum has imaginary residue {total.imag:.3e}")
        return total.real
