from fractions import Fraction

import pytest

from oracles import monomial_in_power, power_in_monomial

from lapshift import symfunc
from lapshift.characters import character, character_degree
from lapshift.errors import InvalidInputError
from lapshift.partitions import (
    Partition,
    centralizer_order,
    enumerate_partitions,
    partition_binomial,
)
from lapshift.symfunc import (
    BASES,
    ClassFunction,
    _kostka_inverse,
    _kostka_matrix,
    basis_binomial,
    basis_binomial_row,
    character_binomial,
    inverse_frobenius,
    kostka,
)

# Kostka matrix for n = 3, rows by shape and columns by content,
# both in canonical (3), (2,1), (1,1,1) order
KOSTKA_3 = (
    (1, 1, 1),
    (0, 1, 2),
    (0, 0, 1),
)

# the monomial-basis binomial table for n = 4, rows lam and columns mu,
# canonical order (4), (3,1), (2,2), (2,1,1), (1,1,1,1) both ways
MONOMIAL_BINOMIALS_4 = (
    (4, 0, 0, 0, 0),
    (-4, 3, 0, 0, 0),
    (-2, 0, 4, 0, 0),
    (4, -3, 0, 2, 0),
    (0, 2, 0, 0, 1),
)


def test_kostka_frozen_n3():
    shapes = enumerate_partitions(3)
    for i, mu in enumerate(shapes):
        for j, lam in enumerate(shapes):
            assert kostka(mu, lam) == KOSTKA_3[i][j]


def test_kostka_spot_values():
    assert kostka(Partition([2, 2]), Partition([2, 1, 1])) == 1
    assert kostka(Partition([2, 1, 1]), Partition([1, 1, 1, 1])) == 3
    assert kostka(Partition([3, 1]), Partition([1, 1, 1, 1])) == 3
    # content not dominated by shape gives zero
    assert kostka(Partition([2, 2]), Partition([3, 1])) == 0


def test_kostka_weight_mismatch():
    with pytest.raises(InvalidInputError):
        kostka(Partition([2]), Partition([1, 1, 1]))


def test_inverse_kostka_inverts():
    for n in range(1, 7):
        shapes = enumerate_partitions(n)
        for lam, row in zip(shapes, _kostka_inverse(n)):
            for content in shapes:
                total = sum(c * kostka(mu, content) for mu, c in zip(shapes, row))
                assert total == (1 if lam == content else 0)


def test_schur_basis_is_character():
    for n in range(1, 6):
        for lam in enumerate_partitions(n):
            f = inverse_frobenius("s", lam)
            for nu in enumerate_partitions(n):
                assert f(nu) == character(lam, nu)


def test_power_basis_is_scaled_indicator():
    for n in range(1, 6):
        for lam in enumerate_partitions(n):
            f = inverse_frobenius("p", lam)
            for nu in enumerate_partitions(n):
                expected = centralizer_order(lam) if nu == lam else 0
                assert f(nu) == expected


def test_complete_one_part_is_trivial_character():
    for n in range(1, 7):
        f = inverse_frobenius("h", Partition([n]))
        assert all(v == 1 for _, v in f.values)


def test_elementary_one_part_is_sign_character():
    for n in range(1, 7):
        f = inverse_frobenius("e", Partition([n]))
        for nu, v in f.values:
            assert v == (-1) ** (n - len(nu))


def test_all_ones_shape_gives_regular_character():
    # h, e and p at the all-ones partition all name the same symmetric
    # function, so the three class functions must coincide; the common
    # value is n! at the identity class and zero elsewhere
    for n in range(1, 6):
        ones = Partition([1] * n)
        by_p = inverse_frobenius("p", ones)
        assert inverse_frobenius("h", ones).values == by_p.values
        assert inverse_frobenius("e", ones).values == by_p.values


def test_monomial_basis_against_power_expansion():
    # writing m_lam = sum c_nu p_nu forces the class function of m_lam to
    # take the value c_nu * z_nu on the class nu
    for n in range(1, 6):
        expansions = monomial_in_power(n)
        for lam in enumerate_partitions(n):
            f = inverse_frobenius("m", lam)
            coeffs = expansions[lam.parts]
            for nu in enumerate_partitions(n):
                expected = coeffs.get(nu.parts, Fraction(0)) * centralizer_order(nu)
                assert expected.denominator == 1
                assert f(nu) == expected


def test_unknown_basis_rejected():
    with pytest.raises(InvalidInputError):
        inverse_frobenius("x", Partition([2, 1]))
    assert set(BASES) == {"s", "e", "h", "p", "m"}


def test_class_function_requires_full_domain():
    with pytest.raises(InvalidInputError):
        ClassFunction(3, ((Partition([3]), 1),))
    f = ClassFunction(2, ((Partition([2]), 5), (Partition([1, 1]), 7)))
    with pytest.raises(InvalidInputError):
        f(Partition([3]))


def test_character_binomial_at_all_ones_type():
    # the only cycle type with no part >= 2 contributing is 1^n itself,
    # so the binomial sum collapses to the character degree
    for n in range(1, 7):
        ones = Partition([1] * n)
        for lam in enumerate_partitions(n):
            assert character_binomial(lam, ones) == character_degree(lam)


def test_character_binomial_weight_mismatch():
    with pytest.raises(InvalidInputError):
        character_binomial(Partition([2, 1]), Partition([2]))
    with pytest.raises(InvalidInputError):
        basis_binomial("s", Partition([2, 1]), Partition([2]))


def test_schur_binomial_matches_character_binomial():
    for n in range(1, 6):
        for lam in enumerate_partitions(n):
            for mu in enumerate_partitions(n):
                assert basis_binomial("s", lam, mu) == character_binomial(lam, mu)


def test_monomial_binomial_table_n4():
    shapes = enumerate_partitions(4)
    for i, lam in enumerate(shapes):
        for j, mu in enumerate(shapes):
            assert basis_binomial("m", lam, mu) == MONOMIAL_BINOMIALS_4[i][j], (
                f"lam={lam.parts}, mu={mu.parts}"
            )


def test_monomial_binomial_table_matches_power_route():
    # independent derivation of the frozen table above: expand each m_lam
    # in power sums and push the expansion through the binomial pairing
    from lapshift.partitions import partition_binomial

    expansions = monomial_in_power(4)
    shapes = enumerate_partitions(4)
    for i, lam in enumerate(shapes):
        coeffs = expansions[lam.parts]
        for j, mu in enumerate(shapes):
            total = Fraction(0)
            for nu in shapes:
                c = coeffs.get(nu.parts, Fraction(0))
                if c:
                    total += c * centralizer_order(nu) * partition_binomial(mu, nu)
            assert total == MONOMIAL_BINOMIALS_4[i][j]


def test_positive_bases_binomials_nonnegative():
    for n in range(2, 6):
        for basis in ("s", "e", "h", "p"):
            for lam in enumerate_partitions(n):
                for mu in enumerate_partitions(n):
                    assert basis_binomial(basis, lam, mu) >= 0


# ---------------------------------------------------------------------------
# the tables against the tableau counts and the power-sum expansion


def _tableau_kostka(n):
    shapes = enumerate_partitions(n)
    return [[kostka(mu, lam) for lam in shapes] for mu in shapes]


def _unitriangular_inverse(k):
    size = len(k)
    inv = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for j in range(size):
        for i in range(j - 1, -1, -1):
            inv[i][j] = -sum(k[i][t] * inv[t][j] for t in range(i + 1, j + 1))
    return inv


def test_tables_match_kostka_weighted_character_sums():
    # h_lam = sum K[mu][lam] s_mu, e_lam = sum K[mu'][lam] s_mu, and
    # m_lam = sum Kinv[lam][mu] s_mu, with K counted as tableaux
    for n in range(1, 8):
        shapes = enumerate_partitions(n)
        k = _tableau_kostka(n)
        kinv = _unitriangular_inverse(k)
        index = {mu: i for i, mu in enumerate(shapes)}
        for j, lam in enumerate(shapes):
            h = inverse_frobenius("h", lam)
            e = inverse_frobenius("e", lam)
            m = inverse_frobenius("m", lam)
            for nu in shapes:
                chars = [character(mu, nu) for mu in shapes]
                assert h(nu) == sum(k[i][j] * c for i, c in enumerate(chars))
                assert e(nu) == sum(
                    k[index[mu.conjugate()]][j] * c for mu, c in zip(shapes, chars)
                )
                assert m(nu) == sum(kinv[j][i] * c for i, c in enumerate(chars))


def test_complete_is_power_sum_monomial_coefficient():
    # the Young permutation character h_lam(nu) is the coefficient of m_lam
    # in the power-sum product p_nu
    for n in range(1, 9):
        shapes = enumerate_partitions(n)
        for nu in shapes:
            expansion = power_in_monomial(nu.parts, n)
            for lam in shapes:
                assert inverse_frobenius("h", lam)(nu) == expansion.get(lam.parts, 0)


def test_kostka_matrix_matches_tableau_counts():
    for n in range(0, 9):
        assert _kostka_matrix(n) == tuple(tuple(row) for row in _tableau_kostka(n))


def test_basis_binomial_matches_per_class_loop():
    for n in range(1, 7):
        shapes = enumerate_partitions(n)
        for basis in BASES:
            for lam in shapes:
                f = inverse_frobenius(basis, lam)
                for mu in shapes:
                    loop = sum(f(nu) * partition_binomial(mu, nu) for nu in shapes)
                    assert basis_binomial(basis, lam, mu) == loop


def test_basis_binomial_row_is_read_only():
    lam = Partition([2, 1])
    row = basis_binomial_row("s", lam)
    assert dict(row) == {mu: character_binomial(lam, mu) for mu in enumerate_partitions(3)}
    with pytest.raises(TypeError):
        row[Partition([3])] = 0


def test_negative_character_binomial_raises(monkeypatch):
    # the check must survive python -O, so it is an exception, not an assert
    monkeypatch.setattr(symfunc, "basis_binomial", lambda basis, lam, mu: -1)
    with pytest.raises(ArithmeticError, match="negative character binomial"):
        character_binomial(Partition([2]), Partition([2]))
