"""The coefficient tables of both routes against their per-coefficient APIs.

polynomial_table (the matrix route) and census_table (the census route) give
every shape's coefficients b_0..b_n at once; row i must equal what
immanantal_polynomial and census_transform give for shape i alone.
"""

import pytest

from lapshift.errors import DomainError, InvalidInputError
from lapshift.families import FamilySpec, connected_bipartite_graphs, family_members, free_trees
from lapshift.graphs import Graph, cycle_graph, laplacian, path_graph
from lapshift.immanants import immanantal_polynomial, polynomial_table
from lapshift.orientations import census_by_size, census_table, census_transform
from lapshift.partitions import Partition, enumerate_partitions
from lapshift.symfunc import BASES, inverse_frobenius


def _graphs():
    """The verify corpus (n <= 6), the nodes of the 7:4 and 7:6 families and
    the trees on at most 7 vertices."""
    graphs = [g for n in range(1, 7) for g in connected_bipartite_graphs(n)]
    graphs += family_members(FamilySpec("unicyclic", 7, 4))
    graphs += family_members(FamilySpec("unicyclic", 7, 6))
    graphs += [g for n in range(1, 8) for g in free_trees(n)]
    return graphs


@pytest.mark.parametrize("basis", BASES)
def test_tables_equal_per_coefficient_calls(basis):
    rows = 0
    for g in _graphs():
        matrix, censuses = laplacian(g), census_by_size(g)
        direct, via_census = polynomial_table(matrix, basis), census_table(g, censuses, basis)
        shapes = enumerate_partitions(g.n)
        assert len(direct) == len(via_census) == len(shapes)
        for lam, row_m, row_c in zip(shapes, direct, via_census):
            want = immanantal_polynomial(matrix, inverse_frobenius(basis, lam)).coefficients
            assert row_m == want, (g, lam)
            assert row_c == tuple(census_transform(g, c, lam, basis) for c in censuses), (g, lam)
            rows += 1
    assert rows == 586


def test_census_table_keeps_the_census_order():
    g = path_graph(5)
    censuses = census_by_size(g)
    table = census_table(g, censuses[::-1], "s")
    assert table == tuple(row[::-1] for row in census_table(g, censuses, "s"))
    assert census_table(g, [], "h") == ()


def test_tables_reject_bad_input():
    g = path_graph(4)
    censuses = census_by_size(g)
    with pytest.raises(InvalidInputError, match="unknown basis"):
        census_table(g, censuses, "q")
    with pytest.raises(InvalidInputError, match="not a partition of 4"):
        census_table(g, [{Partition([2, 1]): 1}], "s")
    with pytest.raises(DomainError, match="bipartite"):
        census_table(cycle_graph(3), census_by_size(cycle_graph(3)), "s")
    with pytest.raises(InvalidInputError, match="unknown basis"):
        polynomial_table(laplacian(g), "q")
    with pytest.raises(InvalidInputError, match="square"):
        polynomial_table(((1, 0),), "s")


def test_polynomial_table_off_the_laplacians():
    # zero diagonals, odd cycles and negative entries: the walk is not
    # restricted to bipartite Laplacians
    m = ((0, 2, -1), (1, 0, 3), (-2, 1, 0))
    for basis in BASES:
        for lam, row in zip(enumerate_partitions(3), polynomial_table(m, basis)):
            assert row == immanantal_polynomial(m, inverse_frobenius(basis, lam)).coefficients
    assert polynomial_table(laplacian(Graph(1)), "s") == ((1, 0),)
