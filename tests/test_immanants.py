import random
from fractions import Fraction

import pytest

from oracles import (
    characteristic_polynomial_fractions,
    coefficient_via_subsets,
    cycle_type_of,
    determinant_fractions,
    immanant_by_permutations,
)

from lapshift.characters import character
from lapshift.errors import InvalidInputError
from lapshift.graphs import laplacian, path_graph, star_graph
from lapshift.immanants import (
    ImmanantalPolynomial,
    characteristic_type_polynomials,
    determinant_exact,
    immanant,
    immanant_by_shape,
    immanantal_polynomial,
    normalized_immanant,
    permanent_exact,
)
from lapshift.partitions import Partition, enumerate_partitions
from lapshift.symfunc import inverse_frobenius


def _random_matrices(rng, count, n, lo=-3, hi=3):
    for _ in range(count):
        yield tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(n))


def test_determinant_matches_elimination():
    rng = random.Random(3)
    for n in (1, 2, 3, 4, 5):
        for m in _random_matrices(rng, 6, n):
            assert determinant_exact(m) == determinant_fractions(m)


def test_permanent_matches_permutation_sum():
    rng = random.Random(5)
    for n in (1, 2, 3, 4):
        for m in _random_matrices(rng, 5, n):
            assert permanent_exact(m) == immanant_by_permutations(m, lambda ct: 1)


def test_immanant_matches_permutation_sum():
    rng = random.Random(9)
    for n in (2, 3, 4, 5):
        for m in _random_matrices(rng, 3, n):
            for lam in enumerate_partitions(n):
                expected = immanant_by_permutations(
                    m, lambda ct, lam=lam: character(lam, Partition(ct))
                )
                assert immanant_by_shape(m, lam) == expected


def test_determinant_and_permanent_are_extreme_shapes():
    rng = random.Random(13)
    for m in _random_matrices(rng, 6, 4):
        assert immanant_by_shape(m, Partition([1, 1, 1, 1])) == determinant_exact(m)
        assert immanant_by_shape(m, Partition([4])) == permanent_exact(m)


def test_immanant_rejects_mismatched_weight():
    m = ((1, 0), (0, 1))
    with pytest.raises(InvalidInputError):
        immanant(m, inverse_frobenius("s", Partition([3])))
    with pytest.raises(InvalidInputError):
        immanant(((1, 0),), inverse_frobenius("s", Partition([1])))


def test_normalized_immanant_exact_rational():
    lap = laplacian(path_graph(3))
    value = normalized_immanant(lap, Partition([2, 1]))
    assert isinstance(value, Fraction)
    assert value == Fraction(immanant_by_shape(lap, Partition([2, 1])), 2)


def test_polynomial_against_interpolation_oracle():
    # the schur polynomial at shape 1^n is det(xI - M); compare the full
    # coefficient list against the Lagrange-interpolated characteristic
    # polynomial for random integer matrices
    rng = random.Random(17)
    for n in (2, 3, 4):
        for m in _random_matrices(rng, 4, n):
            poly = immanantal_polynomial(m, inverse_frobenius("s", Partition([1] * n)))
            got = poly.polynomial_coefficients()
            expected = characteristic_polynomial_fractions(m)
            assert list(got) == [Fraction(c) for c in expected]


def test_polynomial_coefficients_match_direct_evaluation():
    rng = random.Random(21)
    for n in (2, 3, 4):
        for m in _random_matrices(rng, 2, n):
            for lam in enumerate_partitions(n):
                f = inverse_frobenius("s", lam)
                poly = immanantal_polynomial(m, f)
                for x in (-2, -1, 0, 1, 2, 3):
                    shifted = tuple(
                        tuple((x if i == j else 0) - m[i][j] for j in range(n))
                        for i in range(n)
                    )
                    assert poly.evaluate(x) == immanant(shifted, f)


def test_coefficient_via_subsets_agrees_with_polynomial():
    rng = random.Random(25)
    for n in (2, 3, 4):
        for m in _random_matrices(rng, 2, n):
            for lam in enumerate_partitions(n):
                f = inverse_frobenius("s", lam)
                poly = immanantal_polynomial(m, f)
                # f reads the oracle's plain cycle-type tuples: a Partition
                # equals the tuple of its parts
                for r in range(n + 1):
                    assert coefficient_via_subsets(m, f, r) == poly.coefficients[r]


def test_laplacian_polynomial_rows_frozen():
    # coefficient rows of det(xI - L) for the 4-star and the 4-path
    star = immanantal_polynomial(
        laplacian(star_graph(4)), inverse_frobenius("s", Partition([1, 1, 1, 1]))
    )
    assert star.coefficients == (1, 6, 9, 4, 0)
    path = immanantal_polynomial(
        laplacian(path_graph(4)), inverse_frobenius("s", Partition([1, 1, 1, 1]))
    )
    assert path.coefficients == (1, 6, 10, 4, 0)
    perm2 = immanantal_polynomial(
        laplacian(path_graph(2)), inverse_frobenius("s", Partition([2]))
    )
    assert perm2.coefficients == (1, 2, 2)


def test_polynomial_coefficient_signs():
    poly = ImmanantalPolynomial(2, (1, 4, 3))
    assert poly.polynomial_coefficients() == (3, -4, 1)
    assert poly.evaluate(2) == 3 - 8 + 4


def test_cycle_type_cache_is_bounded():
    assert characteristic_type_polynomials.cache_info().maxsize is not None
