"""Irreducible characters of the symmetric group.

Values come from the Murnaghan-Nakayama rim-hook recursion, memoized on the
pair (remaining shape, remaining cycle parts).  Shapes are manipulated through
their first-column hook lengths (beta numbers), which makes rim-hook removal a
single subtraction.
"""

from __future__ import annotations

from functools import cache
from math import factorial

from .errors import InvalidInputError
from .partitions import Partition, class_size, enumerate_partitions


def _beta_numbers(shape: tuple[int, ...]) -> tuple[int, ...]:
    ell = len(shape)
    return tuple(shape[i] + ell - 1 - i for i in range(ell))


def _shape_from_beta(beta: tuple[int, ...]) -> tuple[int, ...]:
    ell = len(beta)
    ordered = sorted(beta, reverse=True)
    shape = tuple(b - (ell - 1 - i) for i, b in enumerate(ordered))
    return tuple(p for p in shape if p > 0)


def _rim_hook_removals(shape: tuple[int, ...], length: int):
    """Yield (sign, smaller shape) for each removable rim hook of the length."""
    beta = set(_beta_numbers(shape))
    for b in sorted(beta, reverse=True):
        c = b - length
        if c < 0 or c in beta:
            continue
        crossed = sum(1 for x in beta if c < x < b)
        new_beta = tuple(sorted((beta - {b}) | {c}, reverse=True))
        yield (-1) ** crossed, _shape_from_beta(new_beta)


@cache
def _character_value(shape: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    if not cycles:
        return 1 if not shape else 0
    head, rest = cycles[0], cycles[1:]
    total = 0
    for sign, smaller in _rim_hook_removals(shape, head):
        total += sign * _character_value(smaller, rest)
    return total


def character(lam: Partition, nu: Partition) -> int:
    """Character chi_lam evaluated on the conjugacy class of cycle type nu."""
    if lam.n != nu.n:
        raise InvalidInputError(f"shape and cycle type disagree: {lam.parts} vs {nu.parts}")
    return _character_value(lam, tuple(sorted(nu, reverse=True)))


def character_degree(lam: Partition) -> int:
    """chi_lam at the identity (the number of standard Young tableaux)."""
    return character(lam, Partition([1] * lam.n))


class CharacterTable:
    """The full character table of the symmetric group on n letters.

    Rows are indexed by shapes, columns by cycle types, both in the canonical
    largest-first partition order.
    """

    def __init__(self, n: int):
        if n < 0:
            raise InvalidInputError(f"character table needs n >= 0, got {n}")
        self.n = n
        self.shapes = enumerate_partitions(n)
        self.rows = tuple(
            tuple(character(lam, nu) for nu in self.shapes) for lam in self.shapes
        )

    def check_orthogonality(self) -> None:
        """Raise if the rows fail the standard orthogonality relations."""
        n_fact = factorial(self.n)
        sizes = [class_size(nu) for nu in self.shapes]
        for i, row_i in enumerate(self.rows):
            for j, row_j in enumerate(self.rows):
                inner = sum(s * a * b for s, a, b in zip(sizes, row_i, row_j))
                expected = n_fact if i == j else 0
                if inner != expected:
                    raise ArithmeticError(
                        f"orthogonality fails for rows {self.shapes[i]} and {self.shapes[j]}"
                    )


@cache
def character_table(n: int) -> CharacterTable:
    return CharacterTable(n)
