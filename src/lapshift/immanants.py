"""Exact immanants and immanantal polynomials of integer matrices.

The workhorse is an enumeration of the permutations whose diagonal product
can be nonzero: position i may map only to itself or to a column holding a
nonzero entry.  For Laplacians of sparse graphs that support is tiny, which
is what makes exact computation practical at desk scale.  The one walk
groups each permutation's term of imm(xI - m) by cycle type: an immanant
reads the constant terms, and polynomial_table weights the groups with a
basis's whole class table at once.

Two classical algorithms, fraction-free elimination for the determinant and
Ryser's inclusion-exclusion for the permanent, are implemented separately so
they can vouch for the permutation enumeration rather than share code with
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import mul

from .errors import InvalidInputError
from .partitions import Partition
from .symfunc import ClassFunction, _class_table, _positions, inverse_frobenius

Matrix = tuple[tuple[int, ...], ...]


def _check_square(m: Matrix) -> int:
    n = len(m)
    if any(len(row) != n for row in m):
        raise InvalidInputError("matrix must be square")
    return n


def _cycle_type(perm: tuple[int, ...]) -> Partition:
    n = len(perm)
    seen = [False] * n
    parts = []
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        parts.append(length)
    return Partition(sorted(parts, reverse=True))


def _poly_mul_linear(coeffs: list[int], c: int) -> list[int]:
    """Multiply a coefficient list (index = power) by (x - c)."""
    out = [0] * (len(coeffs) + 1)
    for i, a in enumerate(coeffs):
        out[i + 1] += a
        out[i] -= c * a
    return out


@lru_cache(maxsize=64)
def characteristic_type_polynomials(m: Matrix) -> dict[Partition, tuple[int, ...]]:
    """Per cycle type, the polynomial contribution to imm(xI - m).

    A permutation contributes the product of (x - m[i][i]) over its fixed
    points times the product of -m[i][j] along its cycles; entries are
    grouped by the permutation's full cycle type (fixed points included).
    The cache holds the last 64 matrices: verify's normalized-sandwich
    re-reads the 28 bipartite corpus walks after the table checks.
    """
    n = _check_square(m)
    allowed = [
        [j for j in range(n) if j == i or m[i][j] != 0] for i in range(n)
    ]
    totals: dict[Partition, list[int]] = {}
    perm = [0] * n
    used = [False] * n

    def assign(i: int, scalar: int, fixed: list[int]):
        if i == n:
            poly = [scalar]
            for v in fixed:
                poly = _poly_mul_linear(poly, m[v][v])
            key = _cycle_type(tuple(perm))
            acc = totals.setdefault(key, [0] * (n + 1))
            for p, a in enumerate(poly):
                acc[p] += a
            return
        for j in allowed[i]:
            if used[j]:
                continue
            used[j] = True
            perm[i] = j
            if j == i:
                fixed.append(i)
                assign(i + 1, scalar, fixed)
                fixed.pop()
            else:
                assign(i + 1, scalar * (-m[i][j]), fixed)
            used[j] = False

    assign(0, 1, [])
    return {key: tuple(val) for key, val in totals.items()}


def immanant(m: Matrix, f: ClassFunction) -> int:
    """Sum over permutations of f(cycle type) times the diagonal product."""
    n = _check_square(m)
    if f.n != n:
        raise InvalidInputError(f"class function lives on {f.n} letters, matrix on {n}")
    # a permutation's term in imm(xI - m) at x = 0 is (-1)^n times its
    # diagonal product in m
    polys = characteristic_type_polynomials(m)
    return (-1) ** n * sum(f(nu) * poly[0] for nu, poly in polys.items())


def immanant_by_shape(m: Matrix, lam: Partition) -> int:
    """Immanant with the irreducible character of the given shape."""
    return immanant(m, inverse_frobenius("s", lam))


def normalized_immanant(m: Matrix, lam: Partition) -> Fraction:
    """Immanant divided by the character degree, as an exact rational."""
    f = inverse_frobenius("s", lam)
    degree = f(Partition([1] * lam.n))
    return Fraction(immanant(m, f), degree)


@dataclass(frozen=True)
class ImmanantalPolynomial:
    """imm(xI - M) stored through its alternating coefficients.

    coefficient r holds the weight of x^(n-r) stripped of its sign, so the
    polynomial is sum over r of (-1)^r * coefficients[r] * x^(n-r).
    """

    n: int
    coefficients: tuple[int, ...]

    def polynomial_coefficients(self) -> tuple[int, ...]:
        """Plain coefficients indexed by power of x, constant term first."""
        out = [0] * (self.n + 1)
        for r, b in enumerate(self.coefficients):
            out[self.n - r] = (-1) ** r * b
        return tuple(out)

    def evaluate(self, x):
        total = 0
        for power, a in enumerate(self.polynomial_coefficients()):
            total += a * x**power
        return total


def immanantal_polynomial(m: Matrix, f: ClassFunction) -> ImmanantalPolynomial:
    """The polynomial imm(xI - m) for any class function weight."""
    n = _check_square(m)
    if f.n != n:
        raise InvalidInputError(f"class function lives on {f.n} letters, matrix on {n}")
    coeffs = [0] * (n + 1)
    for nu, poly in characteristic_type_polynomials(m).items():
        weight = f(nu)
        if weight:
            for power, a in enumerate(poly):
                coeffs[power] += weight * a
    b = tuple((-1) ** r * coeffs[n - r] for r in range(n + 1))
    return ImmanantalPolynomial(n, b)


def polynomial_table(m: Matrix, basis: str) -> tuple[tuple[int, ...], ...]:
    """immanantal_polynomial(m, inverse_frobenius(basis, shape)).coefficients
    for every shape of n, in canonical partition order.

    One permutation walk: each cycle type's contribution, signed and indexed
    by r, is read as a vector over the types, and the basis's class table
    multiplies all of them at once.
    """
    n = _check_square(m)
    position = _positions(n)
    columns = [[0] * len(position) for _ in range(n + 1)]
    for nu, poly in characteristic_type_polynomials(m).items():
        for r, col in enumerate(columns):
            col[position[nu]] = (-1) ** r * poly[n - r]
    return tuple(
        tuple(sum(map(mul, row, col)) for col in columns) for row in _class_table(basis, n)
    )


def determinant_exact(m: Matrix) -> int:
    """Fraction-free elimination; exact for integer input."""
    n = _check_square(m)
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def permanent_exact(m: Matrix) -> int:
    """Ryser's inclusion-exclusion over column subsets."""
    n = _check_square(m)
    if n == 0:
        return 1
    total = 0
    for size in range(1, n + 1):
        sign = (-1) ** (n - size)
        for cols in combinations(range(n), size):
            prod = 1
            for i in range(n):
                s = 0
                for j in cols:
                    s += m[i][j]
                prod *= s
                if prod == 0:
                    break
            total += sign * prod
    return total
