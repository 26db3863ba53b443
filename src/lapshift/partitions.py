"""Integer partitions and the multiplicity arithmetic built on them.

Partitions are stored as weakly decreasing tuples of positive parts.  All
counting here is exact integer arithmetic; nothing in this module touches
floats.
"""

from __future__ import annotations

from functools import cache
from math import comb, factorial, prod

from .errors import InvalidInputError


class Partition(tuple):
    """A weakly decreasing sequence of positive integers.

    A tuple of its parts, so hashing and equality run at tuple speed: a
    partition hashes, and compares equal, like the plain tuple of its parts.
    """

    __slots__ = ()

    def __new__(cls, parts=()):
        ps = tuple(map(int, parts))
        if ps and min(ps) <= 0:
            raise InvalidInputError(f"partition parts must be positive, got {ps}")
        if list(ps) != sorted(ps, reverse=True):
            raise InvalidInputError(f"partition parts must be weakly decreasing, got {ps}")
        return super().__new__(cls, ps)

    @property
    def parts(self) -> tuple[int, ...]:
        """The parts as a plain tuple (a copy)."""
        return tuple(self)

    @property
    def n(self) -> int:
        return sum(self)

    def __repr__(self):
        return f"Partition({list(self)})"

    def __str__(self):
        return format_partition(self)

    def multiplicity(self, i: int) -> int:
        """Number of parts equal to i."""
        return self.count(i)

    def multiplicities(self) -> dict[int, int]:
        """Map part value -> multiplicity, for the part values present."""
        out: dict[int, int] = {}
        for p in self:
            out[p] = out.get(p, 0) + 1
        return out

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram."""
        if not self:
            return Partition(())
        cols = [sum(1 for p in self if p > j) for j in range(self[0])]
        return Partition(cols)


@cache
def _partition_tuples(n: int, cap: int) -> tuple[tuple[int, ...], ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(cap, n), 0, -1):
        for rest in _partition_tuples(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n, largest-first (reverse lexicographic) order.

    The order is the canonical one used by every table emitted from this
    package: (n) first, (1^n) last.
    """
    if n < 0:
        raise InvalidInputError(f"cannot partition a negative integer: {n}")
    return [Partition(t) for t in _partition_tuples(n, n)]


def parse_partition(text: str) -> Partition:
    """Parse "3,1,1" or exponential "3,1^2" notation (mixes allowed).

    Parts are normalized into weakly decreasing order.
    """
    text = text.strip()
    if not text:
        return Partition(())
    parts: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise InvalidInputError(f"empty part in partition text {text!r}")
        if "^" in token:
            base_s, _, exp_s = token.partition("^")
            try:
                base, exp = int(base_s), int(exp_s)
            except ValueError:
                raise InvalidInputError(f"bad exponential part {token!r}") from None
            if exp < 0:
                raise InvalidInputError(f"negative multiplicity in {token!r}")
            parts.extend([base] * exp)
        else:
            try:
                parts.append(int(token))
            except ValueError:
                raise InvalidInputError(f"bad part {token!r}") from None
    return Partition(sorted(parts, reverse=True))


def format_partition(lam: Partition) -> str:
    """Comma form, e.g. "3,1,1".  The empty partition formats as ""."""
    return ",".join(str(p) for p in lam)


def _check_same_weight(a: Partition, b: Partition) -> None:
    if a.n != b.n:
        raise InvalidInputError(f"partitions of different integers: {a.parts} vs {b.parts}")


def partition_binomial(mu: Partition, nu: Partition) -> int:
    """Product of binomials choosing nu's parts from mu's, ignoring parts 1.

    For each part value i >= 2 this multiplies C(mult_i(mu), mult_i(nu)); the
    multiplicity of 1 on either side plays no role.  Zero whenever nu wants
    more copies of some part than mu has.
    """
    _check_same_weight(mu, nu)
    mm = mu.multiplicities()
    out = 1
    for i, m in nu.multiplicities().items():
        if i == 1:
            continue
        out *= comb(mm.get(i, 0), m)
        if out == 0:
            return 0
    return out


def centralizer_order(lam: Partition) -> int:
    """Order of the centralizer of a permutation with this cycle type.

    Equals prod_i i^{m_i} * m_i!; the conjugacy class it labels has size
    n! divided by this.
    """
    return prod(i**m * factorial(m) for i, m in lam.multiplicities().items())


def class_size(lam: Partition) -> int:
    """Number of permutations of cycle type lam."""
    return factorial(lam.n) // centralizer_order(lam)


def dominates(a: Partition, b: Partition) -> bool:
    """Dominance order: every prefix sum of a is >= the same prefix sum of b."""
    _check_same_weight(a, b)
    ta, tb = 0, 0
    for i in range(max(len(a), len(b))):
        ta += a[i] if i < len(a) else 0
        tb += b[i] if i < len(b) else 0
        if ta < tb:
            return False
    return True
