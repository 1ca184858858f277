"""Ring laws of the coefficient-list oracle ``series_ring.Series``.

The Chern tests trust this ring as the independent check of the integer
twist and Schur paths, so its arithmetic is tested on its own here.
"""

from hypothesis import given, strategies as st

from series_ring import Series


def zero(cap):
    return Series([], cap)


def one(cap):
    return Series([1], cap)


def truncate(a, low):
    return Series(a.coeffs, low)


# -- frozen examples ---------------------------------------------------------


def test_add_coefficientwise():
    assert Series([1, 2], 2) + Series([0, 3, 1], 2) == Series([1, 5, 1], 2)


def test_add_zero_is_identity():
    a = Series([3, -1, 7], 2)
    assert a + zero(2) == a


def test_mul_truncates():
    one_plus_h = Series([1, 1], 1)
    assert one_plus_h * one_plus_h == Series([1, 2], 1)


def test_mul_difference_of_squares():
    assert Series([1, 1], 2) * Series([1, -1], 2) == Series([1, 0, -1], 2)


def test_mul_one_is_identity():
    a = Series([2, 5, -3], 2)
    assert a * one(2) == a


def test_monomial_beyond_cap_is_zero():
    assert Series.monomial(5, 3, 2) == zero(2)


# -- properties --------------------------------------------------------------

coeff = st.integers(min_value=-40, max_value=40)


@st.composite
def class_triples(draw):
    cap = draw(st.integers(min_value=0, max_value=12))
    mk = lambda: Series(draw(st.lists(coeff, min_size=0, max_size=cap + 1)), cap)
    return mk(), mk(), mk()


@given(class_triples())
def test_ring_axioms(abc):
    a, b, c = abc
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + -a == zero(a.cap)


@given(class_triples(), st.integers(min_value=0, max_value=12))
def test_truncation_coherence(abc, low):
    a, b, _ = abc
    low = min(low, a.cap)
    assert truncate(a * b, low) == truncate(a, low) * truncate(b, low)
    assert truncate(a + b, low) == truncate(a, low) + truncate(b, low)
