"""Property test: on random bipartite graphs the census route, the matrix
route and the permutation-sum oracle agree in every basis and shape."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from oracles import immanant_by_permutations

from lapshift.graphs import Graph, laplacian
from lapshift.immanants import immanantal_polynomial
from lapshift.orientations import census_by_size, census_transform
from lapshift.partitions import enumerate_partitions
from lapshift.symfunc import BASES, inverse_frobenius


@st.composite
def bipartite_graphs(draw):
    """Any bipartite graph on at most 7 vertices, connected or not: edges
    between sides 1..a and a+1..n, then the labels shuffled."""
    n = draw(st.integers(1, 7))
    a = draw(st.integers(0, n // 2))
    cross = [(u, v) for u in range(1, a + 1) for v in range(a + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(cross), unique=True)) if cross else []
    label = draw(st.permutations(range(1, n + 1)))
    return Graph(n, [(label[u - 1], label[v - 1]) for u, v in edges])


@settings(max_examples=25, deadline=None)
@given(bipartite_graphs())
def test_census_matrix_and_permutation_routes_agree(g):
    lap = laplacian(g)
    shapes = enumerate_partitions(g.n)
    censuses = census_by_size(g)
    # the oracle is linear in its weight, so one call per cycle type gives
    # the sum of the permutation products of that type; every class function
    # is then a dot product with these sums
    by_type = {
        mu: immanant_by_permutations(lap, lambda ct, t=mu.parts: int(ct == t)) for mu in shapes
    }
    for basis in BASES:
        for lam in shapes:
            f = inverse_frobenius(basis, lam)
            direct = immanantal_polynomial(lap, f).coefficients
            via = tuple(census_transform(g, censuses[r], lam, basis) for r in range(g.n + 1))
            assert via == direct, (basis, lam)
            assert direct[g.n] == sum(f(mu) * value for mu, value in by_type.items())
