"""Chern-engine tests.

Expected values are hand values, or come from the oracles of
``chern_oracle.py``: the tangent series as a product in a truncated
polynomial ring of coefficient lists (``Series`` in ``series_ring.py``), the
cotangent sign flip, the binomial twist, Chern numbers and the dual
sequence as a convolution inverse, all written without any of the
package's code. The twist is also compared with the same
computation run through that ring, and Giambelli's determinants with the
long-side Jacobi-Trudi determinant by Bareiss elimination
(``determinants.py``), itself checked against a plain Laplace expansion.
"""

import ast
from math import comb, prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from charbound.bounds import (
    _RULES,
    _Chunk,
    _chern_numbers,
    _tables,
    cotangent_chern_bound,
    signature_check,
)
from charbound.chern import (
    DegreeError,
    cofactor_determinant,
    euler_characteristic,
    giambelli,
    giambelli_plan,
    hook_classes,
    tangent_chern,
)
from charbound.cli import TABLE
from charbound.varieties import CompleteIntersection, MultiIndex, Partition, partitions_of
import chern_oracle as oracle
from determinants import bareiss_determinant, laplace_determinant, long_side_schur
from series_ring import Series, convolve

TESTS = Path(__file__).resolve().parent


def oracle_tangent(ci):
    return oracle.tangent(ci.ambient_dim, ci.multidegree, ci.dimension)


def record(ci):
    # the grid kernel's chunk of the one variety, as `table` builds it
    return _Chunk(ci.dimension, [ci.multidegree])


def kernel_rows(name, ci):
    """index -> value of the rows of the grid check ``name`` on the variety."""
    check, _, _, column = _RULES[name]
    values, _, _ = check(record(ci))
    return dict(zip(column(_tables(ci.dimension)), values[0]))


def table(ci, name):
    # the value `charbound table` prints for the quantity
    return TABLE[name](record(ci))


def kernel_schur(a, parts):
    """s_lambda of a non-empty shape, a_0 = 1 and a_i = 0 past the end of a,
    by the grid kernel's Giambelli determinant of hook classes."""
    weight = sum(parts)
    a = [*a[: weight + 1], *[0] * (weight + 1 - len(a))]
    return giambelli(giambelli_plan(parts), hook_classes(a, oracle.dual_sequence(a)))


def ring_classes(a, cap):
    # c_0..c_rank as classes of the truncated ring Z[h]/(h^(cap+1))
    return [Series.monomial(x, i, cap) for i, x in enumerate(a)]


def ring_twist(a, t, cap):
    # c_i(E (x) L) = sum_j C(rank-j, i-j) t^(i-j) c_j(E), evaluated in the ring
    classes, rank = ring_classes(a, cap), len(a) - 1
    out = []
    for i in range(rank + 1):
        acc = Series([], cap)
        for j in range(i + 1):
            scale = comb(rank - j, i - j) * t ** (i - j)
            acc = acc + Series.monomial(scale, i - j, cap) * classes[j]
        out.append(acc)
    return out


def ring_jacobi_trudi(a, cap, shape):
    # det(c_{lambda_i - i + j}) expanded in the truncated ring
    classes = ring_classes(a, cap)
    zero = Series([], cap)
    r = len(shape)
    matrix = [
        [
            classes[k] if 0 <= k < len(a) else zero
            for k in (shape.parts[i] - i + j for j in range(r))
        ]
        for i in range(r)
    ]
    return laplace_determinant(matrix)


def test_oracle_modules_import_nothing_from_charbound():
    # an oracle that shares code with the package cannot catch its faults
    for name in ("series_ring.py", "determinants.py", "chern_oracle.py", "kostka.py"):
        imported = set()
        for node in ast.walk(ast.parse((TESTS / name).read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
        assert not [m for m in imported if m.split(".")[0] == "charbound"], name
        if name == "chern_oracle.py":
            assert imported == {"math", "series_ring"}


# -- tangent / cotangent -----------------------------------------------------


def test_tangent_chern_quadric_surface():
    ci = CompleteIntersection(3, (2,))
    assert tangent_chern(ci) == (1, 2, 2)


def test_tangent_chern_cubic_surface():
    assert tangent_chern(CompleteIntersection(3, (3,))) == (1, 1, 3)


def test_tangent_chern_quartic_surface_has_trivial_canonical():
    assert tangent_chern(CompleteIntersection(3, (4,))) == (1, 0, 6)


varieties = st.integers(min_value=2, max_value=7).flatmap(
    lambda m: st.lists(
        st.integers(min_value=1, max_value=5), min_size=1, max_size=m - 1
    ).map(lambda degs: CompleteIntersection(m, tuple(degs)))
)


@given(varieties)
def test_tangent_chern_matches_series_oracle(ci):
    assert tangent_chern(ci) == oracle_tangent(ci)
    assert tuple(record(ci).tangent[0]) == oracle_tangent(ci)


@st.composite
def chunk_blocks(draw):
    """(n, multidegrees): the keys of one chunk of a block, as the sweep
    builds it. 1 to 30 sorted multidegrees of k factors of degree 2..9,
    and for k = 1 maybe the P^n key (1,) in front."""
    n, k = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    factors = st.lists(st.integers(2, 9), min_size=k, max_size=k).map(sorted).map(tuple)
    multidegrees = sorted(draw(st.lists(factors, min_size=1, max_size=30, unique=True)))
    if k == 1 and draw(st.booleans()):
        multidegrees.insert(0, (1,))
    return n, multidegrees


CHUNK_ATTRIBUTES = (
    "ds", "tangent", "twisted", "duals", "sequence", "degree_powers", "powers", "chi"
)


@settings(deadline=None)
@given(chunk_blocks())
def test_a_chunk_carries_nothing_from_one_key_to_the_next(block):
    # every key of a chunk gets the values of a chunk of that key alone,
    # and those are the oracle's: its tangent multiples, its twist of the
    # cotangent bundle by 2 and its degree sequence d (n + 2 - a_1)^i; the
    # chunk's product-form dual sequence is the convolution inverse
    # of the oracle's twist
    n, multidegrees = block
    c, m = _Chunk(n, multidegrees), n + len(multidegrees[0])
    for j, degrees in enumerate(multidegrees):
        alone = _Chunk(n, [degrees])
        for name in CHUNK_ATTRIBUTES:
            assert getattr(c, name)[j] == getattr(alone, name)[0], (name, degrees)
        assert [sums[j] for sums in c.betti_sums] == [sums[0] for sums in alone.betti_sums]
        tangent = oracle.tangent(m, degrees, n)
        twisted = oracle.twist(oracle.cotangent(tangent), 2)
        assert (tuple(c.tangent[j]), tuple(c.twisted[j])) == (tangent, twisted), degrees
        d = prod(degrees)
        assert c.sequence[j] == [d * (n + 2 - tangent[1]) ** i for i in range(n + 1)]
        assert c.duals[j] == oracle.dual_sequence(twisted)[:n], degrees


@given(varieties)
def test_whitney_product_recovers_ambient(ci):
    # c(T) * prod(1 + d_j h) = (1+h)^(m+1), as integer series up to h^n
    n = ci.dimension
    total = list(tangent_chern(ci))
    for d in ci.multidegree:
        total = convolve(total, [1, d], n)
    assert total == [comb(ci.ambient_dim + 1, i) for i in range(n + 1)]


@given(varieties, st.integers(min_value=-3, max_value=3))
def test_classes_stay_pure_monomials(ci, t):
    # the twist evaluated in the general ring is a single multiple of h^i in
    # each degree, and that multiple is the binomial twist's entry
    n = ci.dimension
    e = oracle.cotangent(oracle_tangent(ci))
    twisted = oracle.twist(e, t)
    for i, c in enumerate(ring_twist(e, t, n)):
        assert c == Series.monomial(twisted[i], i, n)


def test_cotangent_flips_odd_signs():
    ci = CompleteIntersection(3, (2,))
    assert oracle.cotangent(tangent_chern(ci)) == (1, -2, 2)
    # the kernel's cotangent Chern numbers: d times products of (1, -2, 2)
    assert kernel_rows("cotangent-chern", ci) == {(): 2, (1,): -4, (2,): 4, (1, 1): 8}


def test_cotangent_plane_curve():
    for d in range(1, 8):
        ci = CompleteIntersection(2, (d,))
        assert oracle.cotangent(tangent_chern(ci)) == (1, d - 3)
        assert kernel_rows("cotangent-chern", ci) == {(): d, (1,): d * (d - 3)}


@given(varieties)
def test_cotangent_sign_rule_in_pairings(ci):
    # every cotangent Chern number of the kernel is (-1)^|I| times the
    # oracle's tangent one
    tangent = oracle_tangent(ci)
    rows = kernel_rows("cotangent-chern", ci)
    assert len(rows) == 1 + sum(len(list(partitions_of(w))) for w in range(1, ci.dimension + 1))
    for parts, value in rows.items():
        assert value == (-1) ** sum(parts) * oracle.chern_number(ci.degree, tangent, parts)


# -- twists -------------------------------------------------------------------


def test_twist_rank_two_matches_split_roots():
    # roots a, b: c2(E (x) L) = (a+t)(b+t) = c2 + c1 t + t^2
    for c1, c2, t in [(3, 5, 2), (-1, 4, -3), (0, 7, 1)]:
        assert oracle.twist((1, c1, c2), t) == (1, c1 + 2 * t, c2 + c1 * t + t * t)


def test_twist_by_zero_is_identity():
    assert oracle.twist((1, 4, 7, 6, 3), 0) == (1, 4, 7, 6, 3)


def test_twisted_cotangent_of_quadric_surface():
    ci = CompleteIntersection(3, (2,))
    assert oracle.twist(oracle.cotangent(oracle_tangent(ci)), 2) == (1, 2, 2)
    assert record(ci).twisted[0] == [1, 2, 2]


@given(varieties, st.integers(min_value=-5, max_value=5))
def test_twist_involution(ci, t):
    e = oracle.cotangent(oracle_tangent(ci))
    assert oracle.twist(oracle.twist(e, t), -t) == e


# -- chern numbers ------------------------------------------------------------


def test_curve_cotangent_number_matches_genus():
    for d in range(1, 13):
        value = kernel_rows("cotangent-chern", CompleteIntersection(2, (d,)))[(1,)]
        assert value == d * (d - 3)
        assert value == 2 * oracle.genus(d) - 2


def test_quadric_surface_top_tangent_number():
    ci = CompleteIntersection(3, (2,))
    assert oracle.chern_number(ci.degree, tangent_chern(ci), (2,)) == 4
    assert table(ci, "chi") == 4


def test_empty_index_pairs_to_degree():
    ci = CompleteIntersection(4, (2, 3))
    assert kernel_rows("nef-chern", ci)[()] == 6
    assert _chern_numbers(_tables(2), 6, tangent_chern(ci))[0] == 6


def test_overweight_index_rejected():
    # the Chern-number bounds refuse an index of weight above the dimension
    with pytest.raises(DegreeError):
        cotangent_chern_bound(2, 3, MultiIndex((2, 1)))


def test_euler_characteristics():
    assert euler_characteristic(CompleteIntersection(3, (2,))) == 4
    assert euler_characteristic(CompleteIntersection(3, (3,))) == 9
    assert euler_characteristic(CompleteIntersection(3, (4,))) == 24
    # quintic threefold, the classic sanity value
    assert euler_characteristic(CompleteIntersection(4, (5,))) == -200


# -- canonical and ample classes, as `table` prints them ------------------------


def test_canonical_class_examples():
    assert table(CompleteIntersection(3, (4,)), "canonical") == 0
    assert table(CompleteIntersection(3, (2,)), "canonical") == -2
    assert table(CompleteIntersection(4, (2, 2)), "canonical") == -1


def test_ample_class_examples():
    assert table(CompleteIntersection(4, (2, 2)), "ample") == 3
    assert table(CompleteIntersection(2, (3,)), "ample") == 3


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=6))
def test_ample_class_of_hypersurface_is_degree(m, d):
    assert table(CompleteIntersection(m, (d,)), "ample") == d


def test_ample_degree_sequence_examples():
    assert table(CompleteIntersection(3, (2,)), "degree_sequence") == (2, 4, 8)
    assert table(CompleteIntersection(4, (2, 2)), "degree_sequence") == (4, 12, 36)


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=1, max_value=5))
def test_hypersurface_sequence_is_geometric(m, d):
    ci = CompleteIntersection(m, (d,))
    assert table(ci, "degree_sequence") == tuple(d ** (i + 1) for i in range(m))


# -- schur classes --------------------------------------------------------------


def test_schur_single_row_is_chern_class():
    assert kernel_schur((1, 2, 3), (1,)) == 2
    assert kernel_schur((1, 2, 3), (2,)) == 3


def test_schur_column_two():
    # s_(1,1) = c_1^2 - c_2 = (4 - 3) h^2
    assert kernel_schur((1, 2, 3), (1, 1)) == 1


def test_schur_hook_rank_three():
    # s_(2,1) = c_2 c_1 - c_3 = (6 - 5) h^3
    assert kernel_schur((1, 2, 3, 5), (2, 1)) == 1


def test_schur_above_cap_is_zero():
    # s_(2,1) of (1, 2, 3) vanishes on a surface, and a surface's Schur rows
    # stop at weight 2
    assert ring_jacobi_trudi((1, 2, 3), 2, Partition((2, 1))) == Series([], 2)
    rows = kernel_rows("schur-positivity", CompleteIntersection(3, (2,)))
    assert list(rows) == [(1,), (2,), (1, 1)]


@st.composite
def h_multiple_vectors_and_shapes(draw):
    rank = draw(st.integers(min_value=1, max_value=6))
    cap = draw(st.integers(min_value=0, max_value=8))
    tail = draw(st.lists(st.integers(-6, 6), min_size=rank, max_size=rank))
    parts = draw(st.lists(st.integers(1, rank), min_size=1, max_size=5))
    return (1, *tail), cap, Partition(tuple(sorted(parts, reverse=True)))


@given(h_multiple_vectors_and_shapes())
def test_schur_class_matches_ring_jacobi_trudi(case):
    a, cap, shape = case
    ring = ring_jacobi_trudi(a, cap, shape)
    # the ring determinant is homogeneous: D * h^|lambda|, or 0 above the cap
    d = ring.coeffs[shape.size] if shape.size <= cap else 0
    assert ring == Series.monomial(d, shape.size, cap)
    if shape.size <= cap:
        assert kernel_schur(a, shape.parts) == d


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
    hooks = hook_classes(a, oracle.dual_sequence(a))
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
    expected = long_side_schur(a, shape.parts)
    assert expected != 0
    assert kernel_schur(a, shape.parts) == expected


def test_dual_sequence_inverts_the_signed_series():
    # B(t) * A(-t) = 1: (1 + 2t + t^2)(1 - 2t + 3t^2 - 4t^3) = 1 + O(t^4)
    assert oracle.dual_sequence([1, 2, 3, 4]) == [1, 2, 1, 0]
    assert oracle.dual_sequence([1]) == [1]


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


# -- squared pairings ------------------------------------------


def test_pontryagin_index_doubles():
    # the Pontryagin index j reads the squared class c_2j of the nef twist:
    # (1,) reads c_2^2 on a fourfold, (2,) c_4^2 and (1, 1) c_2^4 on an eightfold
    doubled = {(1,): (2, 2), (2,): (4, 4), (1, 1): (2, 2, 2, 2)}
    for m, indices in ((5, [(1,)]), (9, [(2,), (1, 1)])):
        ci = CompleteIntersection(m, (2,))
        twisted = oracle.twist(oracle.cotangent(oracle_tangent(ci)), 2)
        rows = kernel_rows("pontryagin", ci)
        assert list(rows) == indices
        for j, value in rows.items():
            assert value == oracle.chern_number(ci.degree, twisted, doubled[j])


def test_squared_pairing_quadric_fourfold():
    ci = CompleteIntersection(5, (2,))
    assert tangent_chern(ci) == (1, 4, 7, 6, 3)
    assert signature_check(ci, 0).bound_value == 98


def test_squared_pairing_degree_mismatch():
    # c_2^2 is a top-degree class on fourfolds only
    with pytest.raises(ValueError, match="needs a 4-dimensional variety, got dimension 2"):
        signature_check(CompleteIntersection(3, (2,)), 0)
