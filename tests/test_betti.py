from hypothesis import given, strategies as st

import chern_oracle as oracle
from charbound.bounds import _Chunk
from charbound.chern import betti_numbers, euler_characteristic
from charbound.cli import TABLE
from charbound.varieties import CompleteIntersection
from chern_oracle import genus


def test_genus_examples():
    # the test oracle's genus formula, which test_curve_betti_structure reads
    assert genus(1) == 0
    assert genus(2) == 0
    assert genus(3) == 1
    assert genus(4) == 3


def test_surface_betti_numbers():
    assert betti_numbers(CompleteIntersection(3, (2,))) == (1, 0, 2, 0, 1)
    assert betti_numbers(CompleteIntersection(3, (3,))) == (1, 0, 7, 0, 1)
    assert betti_numbers(CompleteIntersection(3, (4,))) == (1, 0, 22, 0, 1)


def test_threefold_betti_numbers():
    # middle numbers: 0 for the quadric, 10 for the cubic, 204 for the quintic
    assert betti_numbers(CompleteIntersection(4, (2,))) == (1, 0, 1, 0, 1, 0, 1)
    assert betti_numbers(CompleteIntersection(4, (3,))) == (1, 0, 1, 10, 1, 0, 1)
    assert betti_numbers(CompleteIntersection(4, (5,))) == (1, 0, 1, 204, 1, 0, 1)


def test_curve_betti_structure():
    for d in range(1, 10):
        ci = CompleteIntersection(2, (d,))
        g = genus(d)
        assert betti_numbers(ci) == (1, 2 * g, 1)
        assert sum(betti_numbers(ci)) == 2 + 2 * g


def test_total_betti_examples():
    assert sum(betti_numbers(CompleteIntersection(3, (2,)))) == 4
    assert sum(betti_numbers(CompleteIntersection(3, (4,)))) == 24


varieties = st.integers(min_value=2, max_value=8).flatmap(
    lambda m: st.lists(
        st.integers(min_value=1, max_value=5), min_size=1, max_size=m - 1
    ).map(lambda degs: CompleteIntersection(m, tuple(degs)))
)


@given(varieties)
def test_alternating_sum_recovers_euler_characteristic(ci):
    betti = betti_numbers(ci)
    alternating = sum(b if i % 2 == 0 else -b for i, b in enumerate(betti))
    assert alternating == euler_characteristic(ci)
    assert all(b >= 0 for b in betti)
    # off-middle values are the ambient ones
    n = ci.dimension
    for i, b in enumerate(betti):
        if i != n:
            assert b == (1 if i % 2 == 0 else 0)


@given(varieties)
def test_library_and_table_betti_numbers_match_the_oracle(ci):
    # the oracle's chi is d * a_n of its own tangent series, a product in a
    # truncated polynomial ring, and its Betti numbers an alternating sum
    n = ci.dimension
    chi = ci.degree * oracle.tangent(ci.ambient_dim, ci.multidegree, n)[n]
    want = oracle.betti(n, chi)
    assert betti_numbers(ci) == want
    assert TABLE["betti"](_Chunk(n, [ci.multidegree])) == want
