"""Symmetric function bases as symmetric group class functions.

Each of the five classical bases (schur s, elementary e, homogeneous h,
power p, monomial m) corresponds under the Frobenius characteristic to a
class function on the symmetric group.  Those class functions, paired with
the part-multiplicity binomials from the partitions module, are what the
orientation census formulas consume.

Every value is read from exact integer tables built once per n, rows by
shape and columns by cycle type, both in canonical partition order:

- h_lam is the permutation character of the Young subgroup S_lam: on the
  class nu it counts the ways to place nu's cycles into lam's labelled
  blocks so that every block is filled exactly.  e_lam is that count times
  the sign of nu.
- The Kostka matrix is K[lam][mu] = <chi_lam, h_mu>, a class-size-weighted
  integer sum over the character table divided by n!.  Its inverse comes
  from back substitution over the integers, and m_lam is the
  inverse-Kostka-weighted sum of characters.
- The binomial pairings of every basis element of n are one product of
  the class table with the partition binomial matrix of n.

`kostka` still counts semistandard tableaux directly; no table is built
from it, and the tests hold the tables to it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache
from math import factorial
from operator import mul
from types import MappingProxyType

from .characters import character_table
from .errors import InvalidInputError
from .partitions import (
    Partition,
    centralizer_order,
    class_size,
    dominates,
    enumerate_partitions,
    partition_binomial,
)

BASES = ("s", "e", "h", "p", "m")

Table = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ClassFunction:
    """An integer-valued function on the conjugacy classes of S_n."""

    n: int
    values: tuple[tuple[Partition, int], ...]

    def __post_init__(self):
        classes = {nu for nu, _ in self.values}
        expected = set(enumerate_partitions(self.n))
        if classes != expected:
            raise InvalidInputError(f"class function must cover all cycle types of {self.n}")
        object.__setattr__(self, "_lookup", dict(self.values))

    def __call__(self, nu: Partition) -> int:
        try:
            return self._lookup[nu]
        except KeyError:
            raise InvalidInputError(f"{nu} is not a cycle type for n={self.n}") from None


def kostka(mu: Partition, lam: Partition) -> int:
    """Count semistandard tableaux of shape mu and content lam."""
    if mu.n != lam.n:
        raise InvalidInputError(f"shape and content disagree: {mu.parts} vs {lam.parts}")
    if not mu:
        return 1
    if not dominates(mu, lam):
        return 0
    shape = mu
    remaining = list(lam)
    nvals = len(remaining)
    above: list[list[int]] = [[0] * p for p in shape]

    def fill(r: int, c: int) -> int:
        if r == len(shape):
            return 1
        nr, nc = (r, c + 1) if c + 1 < shape[r] else (r + 1, 0)
        lo = above[r][c - 1] if c > 0 else 1
        if r > 0 and c < shape[r - 1]:
            lo = max(lo, above[r - 1][c] + 1)
        total = 0
        for v in range(lo, nvals + 1):
            if remaining[v - 1] == 0:
                continue
            remaining[v - 1] -= 1
            above[r][c] = v
            total += fill(nr, nc)
            remaining[v - 1] += 1
        return total

    return fill(0, 0)


@cache
def _shapes(n: int) -> tuple[Partition, ...]:
    """The partitions of n in canonical order, shared by every table of n."""
    return tuple(enumerate_partitions(n))


@cache
def _positions(n: int) -> dict[Partition, int]:
    return {lam: i for i, lam in enumerate(_shapes(n))}


def _young_characters(n: int) -> Table:
    """H[i][j] = h_{shape_i} on class_j: the Young subgroup's permutation character.

    Drops the cycles of class_j, largest first, into the labelled blocks of
    shape_i so that every block fills exactly.  Blocks with the same room
    left are interchangeable, so a state keeps only the sorted room left and
    one placement stands for every block of that room.  The memo lives for
    this one build.
    """
    memo: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}

    def fill(cycles: tuple[int, ...], room: tuple[int, ...]) -> int:
        if not cycles:
            return 1
        key = (cycles, room)
        if key in memo:
            return memo[key]
        head, rest = cycles[0], cycles[1:]
        total = 0
        for size in set(room):
            if size < head:
                continue
            i = room.index(size)
            left = room[:i] + room[i + 1 :]
            if size > head:
                left = tuple(sorted(left + (size - head,), reverse=True))
            total += room.count(size) * fill(rest, left)
        memo[key] = total
        return total

    shapes = _shapes(n)
    return tuple(tuple(fill(nu, lam) for nu in shapes) for lam in shapes)


@cache
def _class_table(basis: str, n: int) -> Table:
    """Row i is the class function of the basis element indexed by shape_i."""
    if basis not in BASES:
        raise InvalidInputError(f"unknown basis {basis!r}, expected one of {BASES}")
    shapes = _shapes(n)
    if basis == "s":
        return character_table(n).rows
    if basis == "p":
        return tuple(
            tuple(centralizer_order(lam) if nu == lam else 0 for nu in shapes) for lam in shapes
        )
    if basis == "h":
        return _young_characters(n)
    if basis == "e":
        signs = tuple((-1) ** (n - len(nu)) for nu in shapes)
        return tuple(tuple(map(mul, signs, row)) for row in _class_table("h", n))
    columns = tuple(zip(*character_table(n).rows))
    return tuple(
        tuple(sum(map(mul, row, col)) for col in columns) for row in _kostka_inverse(n)
    )


@cache
def _kostka_matrix(n: int) -> Table:
    """K[i][j] = <chi_{shape_i}, h_{content_j}>, the Kostka numbers in canonical order.

    The inner product weights each class by its size; the integer sum is
    exactly divisible by n!.
    """
    sizes = tuple(class_size(nu) for nu in _shapes(n))
    n_fact = factorial(n)
    young = _class_table("h", n)
    return tuple(
        tuple(sum(map(mul, weighted, row)) // n_fact for row in young)
        for weighted in (tuple(map(mul, sizes, chi)) for chi in character_table(n).rows)
    )


@cache
def _kostka_inverse(n: int) -> Table:
    """Integer inverse of the Kostka matrix.

    In canonical order the matrix is upper triangular with unit diagonal
    (nonzero entries require the row shape to dominate the column content),
    so back substitution stays in the integers.
    """
    k = _kostka_matrix(n)
    size = len(k)
    inv = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for j in range(size):
        for i in range(j - 1, -1, -1):
            inv[i][j] = -sum(k[i][t] * inv[t][j] for t in range(i + 1, j + 1))
    return tuple(tuple(row) for row in inv)


@cache
def inverse_frobenius(basis: str, lam: Partition) -> ClassFunction:
    """Class function whose Frobenius characteristic is the named basis element.

    basis "s" gives the irreducible character itself; "p" a scaled class
    indicator; "h" the permutation character of the Young subgroup S_lam;
    "e" that character times the sign; "m" the inverse-Kostka-weighted sum
    of characters.
    """
    row = _class_table(basis, lam.n)[_positions(lam.n)[lam]]
    return ClassFunction(lam.n, tuple(zip(_shapes(lam.n), row)))


@cache
def _binomial_matrix(n: int) -> Table:
    """B[k][j] = partition_binomial(shape_k, class_j), rows by orientation type."""
    shapes = _shapes(n)
    return tuple(tuple(partition_binomial(mu, nu) for nu in shapes) for mu in shapes)


@cache
def _binomial_table(basis: str, n: int) -> Table:
    """T[k][i] = basis_binomial(basis, shape_i, type_k), rows by orientation type.

    The class table times the partition binomial matrix, once per basis and
    n.  A census read as a vector c over the types gives every shape's value
    at once, as sum over k of c[k] * T[k].
    """
    f = _class_table(basis, n)
    return tuple(tuple(sum(map(mul, row, b)) for row in f) for b in _binomial_matrix(n))


@cache
def basis_binomial_row(basis: str, lam: Partition) -> Mapping[Partition, int]:
    """basis_binomial(basis, lam, mu) for every orientation type mu of lam.n.

    lam's column of the binomial table; the mapping is read-only because
    every caller shares it.
    """
    n = lam.n
    i = _positions(n)[lam]
    return MappingProxyType({mu: row[i] for mu, row in zip(_shapes(n), _binomial_table(basis, n))})


def basis_binomial(basis: str, lam: Partition, mu: Partition) -> int:
    """character_binomial with the character replaced by any basis class function."""
    if lam.n != mu.n:
        raise InvalidInputError(f"partitions of different integers: {lam.parts} vs {mu.parts}")
    return basis_binomial_row(basis, lam)[mu]


def character_binomial(lam: Partition, mu: Partition) -> int:
    """Binomial-weighted character sum pairing a shape with an orientation type.

    Sums chi_lam(nu) * partition_binomial(mu, nu) over all cycle types nu.
    The result is always nonnegative; that fact underpins every census
    comparison downstream, so it is checked here.
    """
    total = basis_binomial("s", lam, mu)
    if total < 0:
        raise ArithmeticError(f"negative character binomial for {lam.parts}, {mu.parts}")
    return total
