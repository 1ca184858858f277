"""Chern-engine tests.

The derived expected values are frozen from the naive series oracle below:
plain list convolution of (1+h)^(m+1) against the geometric series of each
1/(1+d_j h), written without any of the package's ring machinery. The
integer twist and Schur paths are also compared with the same computation
run through a truncated polynomial ring of coefficient lists (``Series``
in ``series_ring.py``), and Giambelli's determinants with the long-side
Jacobi-Trudi determinant by Bareiss elimination (``determinants.py``),
itself checked against a plain Laplace expansion.
"""

from math import comb

import pytest
from hypothesis import given, strategies as st

from charbound.betti import genus_plane_curve
from charbound.chern import (
    ChernVector,
    DegreeError,
    ample_class,
    ample_degree_sequence,
    canonical_class,
    chern_number,
    cofactor_determinant,
    cotangent_chern,
    dual_sequence,
    euler_characteristic,
    giambelli,
    giambelli_plan,
    hook_classes,
    pontryagin_to_chern_index,
    schur_class,
    squared_chern_pairing,
    tangent_chern,
    twist_chern,
)
from charbound.varieties import CompleteIntersection, MultiIndex, Partition, partitions_of
from determinants import bareiss_determinant, laplace_determinant, long_side_schur
from series_ring import Series, convolve


# -- independent series oracle ----------------------------------------------


def oracle_tangent_multiples(ci):
    cap = ci.dimension
    series = [comb(ci.ambient_dim + 1, i) for i in range(cap + 1)]
    for d in ci.multidegree:
        series = convolve(series, [(-d) ** i for i in range(cap + 1)], cap)
    return tuple(series)


def ring_classes(e):
    # c_0..c_rank as classes of the truncated ring Z[h]/(h^(cap+1))
    return [Series.monomial(a, i, e.cap) for i, a in enumerate(e.h_multiples())]


def ring_twist(e, t):
    # c_i(E (x) L) = sum_j C(rank-j, i-j) t^(i-j) c_j(E), evaluated in the ring
    classes = ring_classes(e)
    out = []
    for i in range(e.rank + 1):
        acc = Series([], e.cap)
        for j in range(i + 1):
            scale = comb(e.rank - j, i - j) * t ** (i - j)
            acc = acc + Series.monomial(scale, i - j, e.cap) * classes[j]
        out.append(acc)
    return out


def ring_jacobi_trudi(e, shape):
    # det(c_{lambda_i - i + j}) expanded in the truncated ring
    classes = ring_classes(e)
    zero = Series([], e.cap)
    r = len(shape)
    if r == 0:
        return Series([1], e.cap)
    matrix = [
        [
            classes[k] if 0 <= k <= e.rank else zero
            for k in (shape.parts[i] - i + j for j in range(r))
        ]
        for i in range(r)
    ]
    return laplace_determinant(matrix)


# -- tangent / cotangent -----------------------------------------------------


def test_tangent_chern_quadric_surface():
    ci = CompleteIntersection(3, (2,))
    assert tangent_chern(ci).h_multiples() == (1, 2, 2)


def test_tangent_chern_cubic_surface():
    assert tangent_chern(CompleteIntersection(3, (3,))).h_multiples() == (1, 1, 3)


def test_tangent_chern_quartic_surface_has_trivial_canonical():
    assert tangent_chern(CompleteIntersection(3, (4,))).h_multiples() == (1, 0, 6)


varieties = st.integers(min_value=2, max_value=7).flatmap(
    lambda m: st.lists(
        st.integers(min_value=1, max_value=5), min_size=1, max_size=m - 1
    ).map(lambda degs: CompleteIntersection(m, tuple(degs)))
)


@given(varieties)
def test_tangent_chern_matches_series_oracle(ci):
    assert tangent_chern(ci).h_multiples() == oracle_tangent_multiples(ci)


@given(varieties)
def test_whitney_product_recovers_ambient(ci):
    # c(T) * prod(1 + d_j h) = (1+h)^(m+1), as integer series up to h^n
    n = ci.dimension
    total = list(tangent_chern(ci).h_multiples())
    for d in ci.multidegree:
        total = convolve(total, [1, d], n)
    assert total == [comb(ci.ambient_dim + 1, i) for i in range(n + 1)]


@given(varieties, st.integers(min_value=-3, max_value=3))
def test_classes_stay_pure_monomials(ci, t):
    # the twist evaluated in the general ring is a single multiple of h^i in
    # each degree, and that multiple is the integer twist's entry
    e = cotangent_chern(ci)
    twisted = twist_chern(e, t).h_multiples()
    for i, c in enumerate(ring_twist(e, t)):
        assert c == Series.monomial(twisted[i], i, e.cap)


def test_chern_vector_rejects_bad_input():
    with pytest.raises(ValueError):
        ChernVector(-1, (), 2)
    with pytest.raises(ValueError):
        ChernVector(2, (1, 2), 2)
    with pytest.raises(ValueError):
        ChernVector(1, (2, 2), 2)
    with pytest.raises(TypeError):
        ChernVector(1, (1, 2.0), 2)


def test_chern_vector_zero_above_cap():
    # c_i vanishes on a variety of dimension below i
    e = ChernVector.from_h_multiples((1, 4, 7, 6), cap=2)
    assert e.h_multiples() == (1, 4, 7, 0)
    assert e == ChernVector.from_h_multiples((1, 4, 7, 0), cap=2)


def test_cotangent_flips_odd_signs():
    ci = CompleteIntersection(3, (2,))
    assert cotangent_chern(ci).h_multiples() == (1, -2, 2)


def test_cotangent_plane_curve():
    for d in range(1, 8):
        ci = CompleteIntersection(2, (d,))
        assert cotangent_chern(ci).h_multiples() == (1, d - 3)


@given(varieties)
def test_cotangent_sign_rule_in_pairings(ci):
    n = ci.dimension
    tangent = tangent_chern(ci)
    cotangent = cotangent_chern(ci)
    for parts in [(1,), (n,), (1, 1)]:
        index = MultiIndex(parts)
        if index.weight > n:
            continue
        sign = (-1) ** index.weight
        assert chern_number(ci, cotangent, index) == sign * chern_number(
            ci, tangent, index
        )


# -- twists -------------------------------------------------------------------


def test_twist_rank_two_matches_split_roots():
    # roots a, b: c2(E (x) L) = (a+t)(b+t) = c2 + c1 t + t^2
    for c1, c2, t in [(3, 5, 2), (-1, 4, -3), (0, 7, 1)]:
        e = ChernVector.from_h_multiples((1, c1, c2), cap=4)
        twisted = twist_chern(e, t)
        assert twisted.h_multiples() == (1, c1 + 2 * t, c2 + c1 * t + t * t)


def test_twist_by_zero_is_identity():
    e = ChernVector.from_h_multiples((1, 4, 7, 6, 3), cap=4)
    assert twist_chern(e, 0) == e


def test_twisted_cotangent_of_quadric_surface():
    twisted = twist_chern(cotangent_chern(CompleteIntersection(3, (2,))), 2)
    assert twisted.h_multiples() == (1, 2, 2)


@given(varieties, st.integers(min_value=-5, max_value=5))
def test_twist_involution(ci, t):
    e = cotangent_chern(ci)
    assert twist_chern(twist_chern(e, t), -t) == e


# -- chern numbers ------------------------------------------------------------


def test_curve_cotangent_number_matches_genus():
    for d in range(1, 13):
        ci = CompleteIntersection(2, (d,))
        value = chern_number(ci, cotangent_chern(ci), MultiIndex((1,)))
        assert value == d * (d - 3)
        assert value == 2 * genus_plane_curve(d) - 2


def test_quadric_surface_top_tangent_number():
    ci = CompleteIntersection(3, (2,))
    assert chern_number(ci, tangent_chern(ci), MultiIndex((2,))) == 4


def test_empty_index_pairs_to_degree():
    ci = CompleteIntersection(4, (2, 3))
    assert chern_number(ci, tangent_chern(ci), MultiIndex(())) == 6


def test_overweight_index_rejected():
    ci = CompleteIntersection(3, (2,))
    with pytest.raises(DegreeError):
        chern_number(ci, tangent_chern(ci), MultiIndex((2, 1)))


def test_euler_characteristics():
    assert euler_characteristic(CompleteIntersection(3, (2,))) == 4
    assert euler_characteristic(CompleteIntersection(3, (3,))) == 9
    assert euler_characteristic(CompleteIntersection(3, (4,))) == 24
    # quintic threefold, the classic sanity value
    assert euler_characteristic(CompleteIntersection(4, (5,))) == -200


# -- canonical and ample classes ----------------------------------------------


def test_canonical_class_examples():
    assert canonical_class(CompleteIntersection(3, (4,))) == 0
    assert canonical_class(CompleteIntersection(3, (2,))) == -2
    assert canonical_class(CompleteIntersection(4, (2, 2))) == -1


def test_ample_class_examples():
    assert ample_class(CompleteIntersection(4, (2, 2))) == 3
    assert ample_class(CompleteIntersection(2, (3,))) == 3


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=6))
def test_ample_class_of_hypersurface_is_degree(m, d):
    assert ample_class(CompleteIntersection(m, (d,))) == d


def test_ample_degree_sequence_examples():
    assert ample_degree_sequence(CompleteIntersection(3, (2,))) == (2, 4, 8)
    assert ample_degree_sequence(CompleteIntersection(4, (2, 2))) == (4, 12, 36)


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=1, max_value=5))
def test_hypersurface_sequence_is_geometric(m, d):
    ci = CompleteIntersection(m, (d,))
    assert ample_degree_sequence(ci) == tuple(d ** (i + 1) for i in range(m))


# -- schur classes --------------------------------------------------------------


def test_schur_single_row_is_chern_class():
    e = ChernVector.from_h_multiples((1, 2, 3), cap=4)
    assert schur_class(e, Partition((1,))) == 2
    assert schur_class(e, Partition((2,))) == 3


def test_schur_column_two():
    # s_(1,1) = c_1^2 - c_2 = (4 - 3) h^2
    e = ChernVector.from_h_multiples((1, 2, 3), cap=4)
    assert schur_class(e, Partition((1, 1))) == 1


def test_schur_hook_rank_three():
    # s_(2,1) = c_2 c_1 - c_3 = (6 - 5) h^3
    e = ChernVector.from_h_multiples((1, 2, 3, 5), cap=6)
    assert schur_class(e, Partition((2, 1))) == 1


def test_schur_empty_shape_is_one():
    e = ChernVector.from_h_multiples((1, 2), cap=3)
    assert schur_class(e, Partition(())) == 1


def test_schur_above_cap_is_zero():
    e = ChernVector.from_h_multiples((1, 2, 3), cap=2)
    assert schur_class(e, Partition((2, 1))) == 0


@st.composite
def h_multiple_vectors_and_shapes(draw):
    rank = draw(st.integers(min_value=1, max_value=6))
    cap = draw(st.integers(min_value=0, max_value=8))
    tail = draw(st.lists(st.integers(-6, 6), min_size=rank, max_size=rank))
    e = ChernVector.from_h_multiples((1, *tail), cap)
    parts = draw(st.lists(st.integers(1, rank), min_size=0, max_size=5))
    return e, Partition(tuple(sorted(parts, reverse=True)))


@given(h_multiple_vectors_and_shapes())
def test_schur_class_matches_ring_jacobi_trudi(case):
    e, shape = case
    ring = ring_jacobi_trudi(e, shape)
    # the ring determinant is homogeneous: D * h^|lambda|, or 0 above the cap
    d = ring.coeffs[shape.size] if shape.size <= e.cap else 0
    assert ring == Series.monomial(d, shape.size, e.cap)
    assert schur_class(e, shape) == d


def durfee_size(parts):
    return sum(1 for i, p in enumerate(parts) if p > i)


def shapes_of_durfee_size(weight, r):
    return [parts for parts in partitions_of(weight) if durfee_size(parts) == r]


@st.composite
def sequences_and_shapes(draw):
    # a_0 = 1 and a_1..a_w for a shape of weight w <= 20 and Durfee size r:
    # r is drawn first, so the order-3 and order-4 Giambelli matrices, which
    # need w >= 9 and w >= 16, are drawn as often as the others
    r = draw(st.integers(min_value=1, max_value=4))
    weight = draw(st.integers(min_value=r * r, max_value=20))
    parts = draw(st.sampled_from(shapes_of_durfee_size(weight, r)))
    tail = draw(st.lists(st.integers(-9, 9), min_size=weight, max_size=weight))
    return [1, *tail], parts


@given(sequences_and_shapes())
def test_giambelli_matches_long_side_bareiss(case):
    a, parts = case
    plan = giambelli_plan(parts)
    assert plan[0] == durfee_size(parts)
    hooks = hook_classes(a, dual_sequence(a))
    assert giambelli(plan, hooks) == long_side_schur(a, parts)


def signed_inverse(a):
    # b with B(t) * A(-t) = 1, solved term by term
    b = [1]
    for k in range(1, len(a)):
        b.append(-sum((-1) ** i * a[i] * b[k - i] for i in range(1, k + 1)))
    return b


@given(st.lists(st.integers(-9, 9), min_size=0, max_size=14))
def test_hook_classes_are_the_alternating_sums(tail):
    a = [1, *tail]
    b = signed_inverse(a)
    hooks = hook_classes(a, b)
    expected = [
        sum((-1) ** k * a[w - q + k] * b[q - k] for k in range(q + 1))
        for w in range(1, len(a))
        for q in range(w)
    ]
    assert hooks == expected
    # s_(p|q) is the Schur class of the hook (p+1, 1^q)
    for w in range(1, len(a)):
        for q in range(w):
            hook = (w - q,) + (1,) * q
            assert hooks[w * (w - 1) // 2 + q] == long_side_schur(a, hook)


def test_schur_class_of_a_durfee_size_six_shape():
    # (7, 6, 6, 6, 6, 6, 2, 1): Giambelli's matrix has order 6, Jacobi-Trudi's 8
    shape = Partition((7, 6, 6, 6, 6, 6, 2, 1))
    assert durfee_size(shape.parts) == 6
    a = (1, 3, -2, 5, 1, -4, 2, 7)
    e = ChernVector.from_h_multiples(a, cap=shape.size)
    expected = long_side_schur(a, shape.parts)
    assert expected != 0
    assert schur_class(e, shape) == expected


def test_dual_sequence_inverts_the_signed_series():
    # B(t) * A(-t) = 1: (1 + 2t + t^2)(1 - 2t + 3t^2 - 4t^3) = 1 + O(t^4)
    assert dual_sequence([1, 2, 3, 4]) == [1, 2, 1, 0]
    assert dual_sequence([1]) == [1]


@st.composite
def matrices_with_zero_pivots(draw):
    r = draw(st.integers(min_value=1, max_value=7))
    rows = draw(
        st.lists(
            st.lists(st.integers(-(2**70), 2**70), min_size=r, max_size=r),
            min_size=r,
            max_size=r,
        )
    )
    # zero some leading entries, so elimination meets zero pivots and has
    # to swap rows (or finds a whole zero column below the diagonal)
    for i, k in enumerate(draw(st.lists(st.integers(0, r), min_size=r, max_size=r))):
        rows[i][:k] = [0] * k
    return rows


@given(matrices_with_zero_pivots())
def test_bareiss_matches_laplace(matrix):
    assert bareiss_determinant(matrix) == laplace_determinant(matrix)
    if len(matrix) > 1:
        flat = [x for row in matrix for x in row]
        assert cofactor_determinant(flat, len(matrix)) == bareiss_determinant(matrix)


def test_bareiss_swaps_for_zero_pivot():
    assert bareiss_determinant([[0, 1], [1, 0]]) == -1
    assert bareiss_determinant([[0, 2, 1], [0, 1, 3], [4, 0, 0]]) == 20
    assert bareiss_determinant([[0, 1], [0, 2]]) == 0
    assert bareiss_determinant([]) == 1
    with pytest.raises(ValueError):
        bareiss_determinant([[1, 2]])


def test_schur_part_above_rank_rejected():
    e = ChernVector.from_h_multiples((1, 2), cap=3)
    with pytest.raises(ValueError):
        schur_class(e, Partition((2,)))


# -- squared pairings ------------------------------------------


def test_pontryagin_index_doubles():
    assert pontryagin_to_chern_index(MultiIndex((1,))).entries == (2,)
    assert pontryagin_to_chern_index(MultiIndex((1, 1))).entries == (2, 2)
    assert pontryagin_to_chern_index(MultiIndex((2,))).entries == (4,)


def test_squared_pairing_quadric_fourfold():
    ci = CompleteIntersection(5, (2,))
    assert tangent_chern(ci).h_multiples() == (1, 4, 7, 6, 3)
    assert squared_chern_pairing(ci, tangent_chern(ci), MultiIndex((1,))) == 98


def test_squared_pairing_degree_mismatch():
    ci = CompleteIntersection(3, (2,))
    with pytest.raises(DegreeError):
        squared_chern_pairing(ci, tangent_chern(ci), MultiIndex((1,)))


def test_squared_pairing_empty_index_gives_degree():
    ci = CompleteIntersection(2, (4,))
    assert squared_chern_pairing(ci, tangent_chern(ci), MultiIndex(())) == 4
