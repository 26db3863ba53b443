import pytest

from lapshift.errors import InvalidInputError
from lapshift.partitions import (
    Partition,
    centralizer_order,
    class_size,
    dominates,
    enumerate_partitions,
    format_partition,
    parse_partition,
    partition_binomial,
)


def test_partition_validation():
    assert Partition([3, 1, 1]).parts == (3, 1, 1)
    with pytest.raises(InvalidInputError):
        Partition([1, 3])
    with pytest.raises(InvalidInputError):
        Partition([2, 0])
    with pytest.raises(InvalidInputError):
        Partition([2, -1])


def test_enumeration_counts():
    # partition numbers p(0)..p(10)
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, count in enumerate(expected):
        assert len(enumerate_partitions(n)) == count


def test_enumeration_order():
    shapes = enumerate_partitions(4)
    assert shapes[0].parts == (4,)
    assert shapes[-1].parts == (1, 1, 1, 1)
    assert [s.parts for s in shapes] == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_canonical_order_is_descending_tuple_order():
    # the orientations command sorts a census's types this way
    for n in range(12):
        shapes = enumerate_partitions(n)
        assert sorted(shapes, reverse=True) == shapes


def test_parse_and_format():
    assert parse_partition("3,1,1").parts == (3, 1, 1)
    assert parse_partition("2,1^2").parts == (2, 1, 1)
    assert parse_partition("2^2").parts == (2, 2)
    assert parse_partition("1,3").parts == (3, 1)  # normalized on parse
    assert format_partition(Partition([2, 1, 1])) == "2,1,1"
    assert format_partition(Partition([])) == ""
    assert parse_partition("3,1^0").parts == (3,)  # zero copies vanish
    with pytest.raises(InvalidInputError):
        parse_partition("a,b")
    with pytest.raises(InvalidInputError):
        parse_partition("2^-1")


def test_conjugate_and_multiplicities():
    lam = Partition([4, 2, 1])
    assert lam.conjugate().parts == (3, 2, 1, 1)
    assert lam.conjugate().conjugate() == lam
    assert Partition([2, 2, 1]).multiplicity(2) == 2
    assert Partition([2, 2, 1]).multiplicity(3) == 0


def test_centralizer_and_class_size():
    # z_{(3)} = 3, z_{(1,1,1)} = 6, z_{(2,1)} = 2
    assert centralizer_order(Partition([3])) == 3
    assert centralizer_order(Partition([1, 1, 1])) == 6
    assert centralizer_order(Partition([2, 1])) == 2
    for n in range(1, 8):
        total = sum(class_size(nu) for nu in enumerate_partitions(n))
        import math

        assert total == math.factorial(n)


def test_partition_binomial_ignores_singletons():
    # parts equal to 1 never contribute factors
    mu = Partition([2, 2, 1, 1])
    nu = Partition([2, 1, 1, 1, 1])
    assert partition_binomial(mu, nu) == 2  # choose one of the two 2s
    assert partition_binomial(mu, Partition([1] * 6)) == 1
    assert partition_binomial(Partition([3, 1]), Partition([2, 1, 1])) == 0


def test_dominance():
    assert dominates(Partition([4]), Partition([2, 2]))
    assert dominates(Partition([2, 2]), Partition([2, 1, 1]))
    assert not dominates(Partition([2, 2]), Partition([3, 1]))
    assert dominates(Partition([3, 1]), Partition([3, 1]))


def test_partition_is_a_tuple_of_its_parts():
    lam = Partition([3, 1, 1])
    assert isinstance(lam, tuple)
    assert type(lam.parts) is tuple
    assert hash(lam) == hash((3, 1, 1))
    assert hash(Partition([])) == hash(())
    # deliberate: a partition equals the plain tuple of its parts, so either
    # one finds the other's entry in a dict or set
    assert Partition((2, 1)) == (2, 1)
    assert (2, 1) in {Partition((2, 1)): 0}
    assert Partition((2, 1)) != (1, 2)
    assert lam.n == 5 and len(lam) == 3 and lam[0] == 3 and list(lam) == [3, 1, 1]


def test_partition_messages_and_text_forms():
    with pytest.raises(InvalidInputError, match=r"must be positive, got \(2, 0\)$"):
        Partition([2, 0])
    with pytest.raises(InvalidInputError, match=r"must be positive, got \(1, -1, 2\)$"):
        Partition([1, -1, 2])
    with pytest.raises(InvalidInputError, match=r"weakly decreasing, got \(1, 3\)$"):
        Partition([1, 3])
    assert repr(Partition([3, 1, 1])) == "Partition([3, 1, 1])"
    assert repr(Partition([])) == "Partition([])"
    assert str(Partition([3, 1, 1])) == "3,1,1"
    assert f"{Partition([2, 2])}" == "2,2"


def test_partition_pickle_and_copy_round_trips():
    import copy
    import pickle

    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    for lam in (Partition([4, 2, 1]), Partition([])):
        pickled = [pickle.loads(pickle.dumps(lam, protocol)) for protocol in protocols]
        for back in [copy.copy(lam), copy.deepcopy(lam)] + pickled:
            assert type(back) is Partition
            assert back == lam and hash(back) == hash(lam)
            assert repr(back) == repr(lam)
