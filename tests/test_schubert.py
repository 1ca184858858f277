"""Schubert-calculus tests.

The hand oracle for the Pieri rule: in G(2,4), multiplying sigma_1 by
sigma_1 adds one box to (1) in all ways that keep a partition inside the
2x2 box, giving (2) and (1,1). Intersection numbers are cross-checked
against the classical factorial degree formula, an independent route.
"""

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
    _shape,
    _strip,
    _word,
    giambelli_expand,
    grassmannian_degree,
    pieri,
    special_intersection_number,
)
from charbound.varieties import Partition
from intersection import intersection_number
from kostka import rectangle_kostka


def basis(q, N, *parts):
    return SchubertClass(Grassmannian(q, N), {Partition(parts): 1})


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
    assert product == SchubertClass(Grassmannian(2, 4), {(2,): 1, (1, 1): 1})


def test_pieri_zero_is_identity():
    cls = basis(2, 4, 2, 1)
    assert pieri(cls, 0) == cls


def test_pieri_full_box_vanishes():
    assert pieri(basis(2, 4, 2, 2), 1).terms == {}


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
        assert giambelli_expand(shape, gr) == SchubertClass(gr, {shape: 1})


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
    mixed = SchubertClass(Grassmannian(2, 4), {(1,): 1, (2,): 1})
    with pytest.raises(GradingError):
        intersection_number([mixed, basis(2, 4, 2)])


def test_zero_class_short_circuits():
    gr = Grassmannian(2, 4)
    assert intersection_number([SchubertClass(gr)]) == 0


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
                [SchubertClass(gr, {lam: 1}), SchubertClass(gr, {mu: 1})]
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

    def counted_strip(words, k, gr):
        product = _strip(words, k, gr)
        reached.extend(sum(_shape(word, gr.q)) for word in product)
        return product

    with mock.patch("charbound.schubert._strip", counted_strip):
        got = special_intersection_number(gr, factors)
    # the odd factors are dealt so that neither side passes the middle of the
    # box by more than half the largest index
    assert reached
    assert 2 * max(reached) <= gr.total_codim + max(k for k, _ in factors)
    classes = [
        SchubertClass(gr, {(k,): 1}) for k, e in factors for _ in range(e)
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
        s1 = SchubertClass(gr, {(1,): 1})
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


def leibniz(gr, shape):
    """det(sigma_{shape_i - i + j}) summed over all permutations."""
    r = len(shape)
    total = {}
    for perm in permutations(range(r)):
        indices = [shape.parts[i] - i + perm[i] for i in range(r)]
        if any(k < 0 or k > gr.cols for k in indices):
            continue
        inversions = sum(perm[j] < perm[i] for i in range(r) for j in range(i, r))
        term = SchubertClass.one(gr)
        for k in indices:
            term = brute_pieri(term, k)
        for key, coeff in term.terms.items():
            total[key] = total.get(key, 0) + (-1) ** inversions * coeff
    return SchubertClass(gr, total)


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


def test_words_encode_every_shape_and_reverse_into_its_complement():
    # row i's bit sits at lam_i + q - 1 - i, so the box complement, which
    # turns the shape half a turn inside the box, reads the N bits backwards
    for q in range(1, 31):
        for N in range(q + 1, q + 30 // q + 1):
            gr = Grassmannian(q, N)
            for shape in all_box_partitions(gr):
                lam = shape.parts + (0,) * (q - len(shape))
                word = _word(lam)
                assert _shape(word, q) == lam, (gr, lam)
                assert word.bit_count() == q and word < 1 << N
                dual = box_complement(gr, shape).parts
                reversed_word = int(format(word, f"0{N}b")[::-1], 2)
                assert _word(dual + (0,) * (q - len(dual))) == reversed_word, (gr, lam)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_strip_step_on_one_word_matches_interlacing_oracle(data):
    gr = data.draw(small_grassmannians(max_cells=30))
    shape = data.draw(st.sampled_from(all_box_partitions(gr)))
    lam = shape.parts + (0,) * (gr.q - len(shape))
    for k in range(gr.cols + 1):
        step = _strip({_word(lam): 1}, k, gr)
        got = {_shape(word, gr.q): coeff for word, coeff in step.items()}
        assert got == brute_pieri(SchubertClass(gr, {shape: 1}), k).terms, (lam, k)


def test_sigma_one_step_drops_cancelled_terms():
    # sigma[2] and -sigma[1,1] both reach sigma[2,1], which cancels
    cls = SchubertClass(Grassmannian(2, 5), {(2,): 1, (1, 1): -1})
    assert pieri(cls, 1).terms == {(3, 0): 1}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_giambelli_matches_leibniz_expansion(data):
    gr = data.draw(small_grassmannians(max_cells=16))
    shapes = [s for s in all_box_partitions(gr) if len(s) <= 6]
    shape = data.draw(st.sampled_from(shapes))
    assert giambelli_expand(shape, gr) == leibniz(gr, shape)


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
    cls = SchubertClass(Grassmannian(3, 6), {Partition((2,)): 1, (1, 1): 1})
    assert cls.terms == {(2, 0, 0): 1, (1, 1, 0): 1}
    with pytest.raises(BoxError):
        SchubertClass(Grassmannian(3, 6), {(4,): 1})
