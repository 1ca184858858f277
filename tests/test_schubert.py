"""Schubert-calculus tests.

The hand oracle for the Pieri rule: in G(2,4), multiplying sigma_1 by
sigma_1 adds one box to (1) in all ways that keep a partition inside the
2x2 box, giving (2) and (1,1). Intersection numbers are cross-checked
against the classical factorial degree formula, an independent route.
"""

import random
from fractions import Fraction
from itertools import permutations
from math import factorial
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from charbound.schubert import (
    BoxError,
    GradingError,
    Grassmannian,
    SchubertClass,
    _strip_shapes,
    giambelli_expand,
    grassmannian_degree,
    multiply,
    pieri,
    special_intersection_number,
)
from charbound.varieties import Partition
from intersection import intersection_number
from kostka import rectangle_kostka


def basis(q, N, *parts):
    return SchubertClass.basis(Grassmannian(q, N), Partition(parts))


def all_box_partitions(gr):
    def rec(row, largest):
        if row == gr.q:
            yield ()
            return
        for first in range(largest, -1, -1):
            for rest in rec(row + 1, first):
                yield (first,) + rest

    return [Partition(p) for p in rec(0, gr.cols)]


def box_complement(gr, shape):
    """The rest of the q x (N-q) box around ``shape``, turned half a turn:
    the shape whose Schubert class pairs with the class of ``shape`` to the
    point class."""
    padded = shape.parts + (0,) * (gr.q - len(shape))
    return Partition(tuple(gr.cols - p for p in reversed(padded)))


# -- pieri ---------------------------------------------------------------------


def test_pieri_square_of_sigma_one():
    product = pieri(basis(2, 4, 1), 1)
    assert product == basis(2, 4, 2) + basis(2, 4, 1, 1)


def test_pieri_zero_is_identity():
    cls = basis(2, 4, 2, 1)
    assert pieri(cls, 0) == cls


def test_pieri_full_box_vanishes():
    assert pieri(basis(2, 4, 2, 2), 1).is_zero()


def test_pieri_out_of_range():
    with pytest.raises(ValueError):
        pieri(basis(2, 4, 1), 3)


def test_pieri_projective_space_line():
    # G(1,4) is P^3: sigma_1^3 is the point class
    cls = SchubertClass.one(Grassmannian(1, 4))
    for _ in range(3):
        cls = pieri(cls, 1)
    assert cls == basis(1, 4, 3)


# -- giambelli -------------------------------------------------------------------


def test_giambelli_single_row():
    assert giambelli_expand(Partition((1,)), Grassmannian(2, 4)) == basis(2, 4, 1)


def test_giambelli_column():
    assert giambelli_expand(Partition((1, 1)), Grassmannian(2, 4)) == basis(2, 4, 1, 1)


def test_giambelli_hook():
    assert giambelli_expand(Partition((2, 1)), Grassmannian(2, 5)) == basis(2, 5, 2, 1)


def test_giambelli_outside_box():
    with pytest.raises(BoxError):
        giambelli_expand(Partition((3,)), Grassmannian(2, 4))


@pytest.mark.parametrize("q,N", [(1, 5), (2, 4), (2, 6), (3, 6)])
def test_giambelli_equals_basis_everywhere(q, N):
    gr = Grassmannian(q, N)
    for shape in all_box_partitions(gr):
        assert giambelli_expand(shape, gr) == SchubertClass.basis(gr, shape)


# -- intersection numbers ----------------------------------------------------------


def test_four_lines_meeting():
    s1 = basis(2, 4, 1)
    assert intersection_number([s1, s1, s1, s1]) == 2


def test_point_class_alone():
    assert intersection_number([basis(2, 4, 2, 2)]) == 1


def test_degree_mismatch_rejected():
    s1 = basis(2, 4, 1)
    with pytest.raises(GradingError):
        intersection_number([s1, s1, s1])


def test_mixed_degree_rejected():
    gr = Grassmannian(2, 4)
    mixed = basis(2, 4, 1) + basis(2, 4, 2)
    with pytest.raises(GradingError):
        intersection_number([mixed, basis(2, 4, 2)])


def test_zero_class_short_circuits():
    gr = Grassmannian(2, 4)
    assert intersection_number([SchubertClass.zero(gr)]) == 0


@pytest.mark.parametrize("q,N", [(2, 4), (2, 5), (3, 6)])
def test_poincare_duality_kronecker_delta(q, N):
    gr = Grassmannian(q, N)
    shapes = all_box_partitions(gr)
    for lam in shapes:
        comp = box_complement(gr, lam)
        for mu in shapes:
            if lam.size + mu.size != gr.total_codim:
                continue
            expected = 1 if mu == comp else 0
            actual = intersection_number(
                [SchubertClass.basis(gr, lam), SchubertClass.basis(gr, mu)]
            )
            assert actual == expected, (lam, mu)


@st.composite
def special_products(draw):
    """A Grassmannian up to G(4,9) and (k, e) pairs whose k*e fill its box."""
    q = draw(st.integers(min_value=1, max_value=4))
    N = draw(st.integers(min_value=q + 1, max_value=9))
    cols, left, factors = N - q, q * (N - q), []
    while left:
        k = draw(st.integers(min_value=1, max_value=min(cols, left)))
        e = draw(st.integers(min_value=1, max_value=left // k))
        factors.append((k, e))
        left -= k * e
    return Grassmannian(q, N), factors


@settings(max_examples=150, deadline=None)
@given(special_products())
@example((Grassmannian(2, 5), [(1, 1), (2, 1), (3, 1)]))  # three odd leftovers
@example((Grassmannian(3, 7), [(2, 3), (3, 1), (1, 3)]))  # two odd exponents above 1
@example((Grassmannian(1, 5), [(4, 1)]))  # a single factor, sigma_{N-q}
@example((Grassmannian(3, 6), [(3, 3)]))  # sigma_{N-q} to an odd power
@example((Grassmannian(4, 9), [(1, 20)]))  # the degree of G(4,9)
def test_duality_split_matches_forward_product_and_kostka(case):
    gr, factors = case
    reached = []

    def counted_pieri(cls, k):
        product = pieri(cls, k)
        reached.extend(product.codimensions())
        return product

    with mock.patch("charbound.schubert.pieri", counted_pieri):
        got = special_intersection_number(gr, factors)
    # the odd factors are dealt so that neither side passes the middle of the
    # box by more than half the largest index
    assert 2 * max(reached, default=0) <= gr.total_codim + max(k for k, _ in factors)
    classes = [
        SchubertClass.basis(gr, Partition((k,))) for k, e in factors for _ in range(e)
    ]
    assert got == intersection_number(classes), factors
    if gr.total_codim <= 12:
        content = [k for k, e in factors for _ in range(e)]
        assert got == rectangle_kostka(gr.q, gr.cols, content), factors


def test_kostka_oracle_hand_values():
    # standard tableaux of the 2x2 and 2x3 rectangles, the Catalan numbers 2 and 5
    assert rectangle_kostka(2, 2, [1, 1, 1, 1]) == 2
    assert rectangle_kostka(2, 3, [1] * 6) == 5
    assert rectangle_kostka(2, 2, [2, 1, 1]) == rectangle_kostka(2, 2, [1, 1, 2]) == 1
    assert rectangle_kostka(2, 2, [3, 1]) == 0  # three equal entries in a row of 2
    assert rectangle_kostka(2, 2, [1, 1, 1]) == 0  # too few entries


def test_duality_split_needs_the_top_codimension():
    gr = Grassmannian(2, 4)
    with pytest.raises(GradingError):
        special_intersection_number(gr, [(1, 3)])
    with pytest.raises(ValueError):
        special_intersection_number(gr, [(2, 3), (1, -2)])


# -- degree formula ------------------------------------------------------------------


def test_degree_examples():
    assert grassmannian_degree(2, 4) == 2
    assert grassmannian_degree(1, 3) == 1
    assert grassmannian_degree(2, 5) == 5
    assert grassmannian_degree(3, 6) == 42


@pytest.mark.parametrize("q", [1, 2, 3])
def test_degree_formula_matches_pieri_power(q):
    for N in range(q + 1, 8):
        gr = Grassmannian(q, N)
        s1 = SchubertClass.basis(gr, Partition((1,)))
        assert intersection_number([s1] * gr.total_codim) == grassmannian_degree(q, N)


# -- algebra sanity --------------------------------------------------------------------


@given(st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=5))
def test_pieri_chains_commute(ks):
    gr = Grassmannian(3, 7)
    forward = SchubertClass.one(gr)
    for k in ks:
        forward = pieri(forward, k)
    backward = SchubertClass.one(gr)
    for k in reversed(ks):
        backward = pieri(backward, k)
    assert forward == backward


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=10_000))
def test_multiply_commutes(seed):
    rng = random.Random(seed)
    gr = Grassmannian(2, 6)
    shapes = all_box_partitions(gr)
    a = SchubertClass(
        gr, {rng.choice(shapes): rng.randint(-3, 3) for _ in range(2)}
    )
    b = SchubertClass(
        gr, {rng.choice(shapes): rng.randint(-3, 3) for _ in range(2)}
    )
    assert multiply(a, b) == multiply(b, a)


def test_multiply_against_pieri():
    gr = Grassmannian(2, 5)
    s1 = SchubertClass.basis(gr, Partition((1,)))
    s21 = SchubertClass.basis(gr, Partition((2, 1)))
    assert multiply(s21, s1) == pieri(s21, 1)


# -- differential oracles ---------------------------------------------------------------
#
# Each oracle below is written out here, independently of the module's
# corner-row kernel and column-subset determinant.


def brute_pieri(cls, k):
    """Every box shape of size |lam| + k interlacing lam, for each term lam."""
    gr = cls.grassmannian
    shapes = all_box_partitions(gr)
    out = {}
    for key, coeff in cls.terms.items():
        lam = Partition(key)
        lam_padded = lam.parts + (0,) * (gr.q - len(lam))
        for mu in shapes:
            if mu.size != lam.size + k:
                continue
            mu_padded = mu.parts + (0,) * (gr.q - len(mu))
            # mu_1 >= lam_1 >= mu_2 >= lam_2 >= ...
            if all(mu_padded[i] >= lam_padded[i] for i in range(gr.q)) and all(
                lam_padded[i] >= mu_padded[i + 1] for i in range(gr.q - 1)
            ):
                out[mu] = out.get(mu, 0) + coeff
    return SchubertClass(gr, out)


def leibniz(a, shape):
    """a * det(sigma_{shape_i - i + j}) summed over all permutations."""
    gr = a.grassmannian
    r = len(shape)
    total = SchubertClass.zero(gr)
    for perm in permutations(range(r)):
        indices = [shape.parts[i] - i + perm[i] for i in range(r)]
        if any(k < 0 or k > gr.cols for k in indices):
            continue
        inversions = sum(perm[j] < perm[i] for i in range(r) for j in range(i, r))
        term = a
        for k in indices:
            term = brute_pieri(term, k)
        total = total + (-1) ** inversions * term
    return total


@st.composite
def small_grassmannians(draw, max_cells=20, min_q=1):
    q = draw(st.integers(min_value=min_q, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=max(1, max_cells // q)))
    return Grassmannian(q, q + cols)


@st.composite
def integer_classes(draw, gr, max_terms=4):
    shapes = all_box_partitions(gr)
    picked = draw(st.lists(st.sampled_from(shapes), min_size=1, max_size=max_terms))
    coeffs = st.integers(min_value=-5, max_value=5)
    return SchubertClass(gr, {shape: draw(coeffs) for shape in picked})


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pieri_matches_interlacing_oracle(data):
    gr = data.draw(small_grassmannians())
    cls = data.draw(integer_classes(gr))
    k = data.draw(st.integers(min_value=0, max_value=gr.cols))
    assert pieri(cls, k) == brute_pieri(cls, k)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sigma_one_steps_match_strip_shapes(data):
    # pieri takes k = 1 in a flat loop of its own; the strip compositions
    # serve every k >= 2 and must give the same successors
    gr = data.draw(small_grassmannians(max_cells=30))
    shape = data.draw(st.sampled_from(all_box_partitions(gr)))
    lam = shape.parts + (0,) * (gr.q - len(shape))
    step = pieri(SchubertClass.basis(gr, shape), 1).terms
    assert list(step) == _strip_shapes(lam, 1, gr.cols)
    assert set(step.values()) <= {1}
    cls = data.draw(integer_classes(gr, max_terms=6))
    expected = {}
    for key, coeff in cls.terms.items():
        for mu in _strip_shapes(key, 1, gr.cols):
            expected[mu] = expected.get(mu, 0) + coeff
    assert pieri(cls, 1).terms == {mu: c for mu, c in expected.items() if c}


def test_sigma_one_step_drops_cancelled_terms():
    # sigma[2] and -sigma[1,1] both reach sigma[2,1], which cancels
    assert pieri(basis(2, 5, 2) - basis(2, 5, 1, 1), 1).terms == {(3, 0): 1}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_giambelli_and_multiply_match_leibniz_expansion(data):
    gr = data.draw(small_grassmannians(max_cells=16))
    shapes = [s for s in all_box_partitions(gr) if len(s) <= 6]
    shape = data.draw(st.sampled_from(shapes))
    one = SchubertClass.one(gr)
    assert giambelli_expand(shape, gr) == leibniz(one, shape)
    a = data.draw(integer_classes(gr, max_terms=3))
    b = data.draw(integer_classes(gr, max_terms=2))
    expected = SchubertClass.zero(gr)
    for key, coeff in b.terms.items():
        expected = expected + coeff * leibniz(a, Partition(key))
    assert multiply(a, b) == expected


def test_degree_matches_fraction_product():
    for N in range(2, 24):
        for q in range(1, N):
            cols = N - q
            value = Fraction(factorial(q * cols))
            for i in range(q):
                value *= Fraction(factorial(i), factorial(cols + i))
            assert value.denominator == 1
            assert grassmannian_degree(q, N) == value.numerator, (q, N)


def test_classes_print_long_coefficients_in_full():
    gr = Grassmannian(2, 4)
    big = 7 * 10**5000
    text = str(SchubertClass(gr, {Partition(()): big, Partition((2, 1)): -big}))
    assert text == f"{'7' + '0' * 5000} + {'-7' + '0' * 5000}*sigma[2,1]"


def test_terms_are_padded_keys():
    cls = basis(3, 6, 2) + basis(3, 6, 1, 1)
    assert cls.terms == {(2, 0, 0): 1, (1, 1, 0): 1}
    assert cls.coefficient(Partition((1, 1))) == 1
    assert cls.coefficient(Partition((4,))) == 0
    with pytest.raises(BoxError):
        SchubertClass(Grassmannian(3, 6), {(4,): 1})
