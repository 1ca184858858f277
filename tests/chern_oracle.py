"""Chern-class oracles for the tests, written without any of the package's
code, from the textbook formulas (Fulton, *Intersection Theory*, 3.2):

- the tangent Chern classes of a complete intersection of degrees d_j in
  P^m as the product (1+h)^(m+1) * prod_j (1 + d_j h)^(-1), taken in the
  truncated ring of ``series_ring``;
- the dual bundle's classes, c_i(E*) = (-1)^i c_i(E);
- the twist by a line bundle of class t*h,
  c_i(E (x) L) = sum_j C(r-j, i-j) t^(i-j) c_j(E) for E of rank r;
- a Chern number as the degree times a product of h-multiples;
- the dual sequence b of a series a, B(t) = 1 / A(-t), by convolution;
- Betti numbers by Lefschetz, those of P^n off the middle, and the middle
  one from the Euler characteristic;
- the genus of a smooth plane curve.

A Chern vector is the tuple a_0..a_r with c_i = a_i h^i.
"""

from math import comb, prod

from series_ring import Series


def tangent(ambient_dim, degrees, n):
    """a_0..a_n of the tangent bundle of the n-dimensional complete
    intersection of ``degrees`` in P^ambient_dim."""
    total = Series([comb(ambient_dim + 1, i) for i in range(n + 1)], n)
    for d in degrees:
        # 1 / (1 + d h) is the geometric series of -d h
        total = total * Series([(-d) ** i for i in range(n + 1)], n)
    return tuple(total.coeffs)


def cotangent(a):
    return tuple((-1) ** i * x for i, x in enumerate(a))


def twist(a, t):
    """The Chern vector of E (x) O(t h), for E of rank len(a) - 1."""
    r = len(a) - 1
    return tuple(
        sum(comb(r - j, i - j) * t ** (i - j) * a[j] for j in range(i + 1))
        for i in range(r + 1)
    )


def dual_sequence(a):
    """b with B(t) = 1 / A(-t), as many terms as ``a`` has (a_0 = 1):
    b_k = sum_i (-1)^(i-1) a_i b_(k-i)."""
    b = [1]
    for k in range(1, len(a)):
        b.append(sum((-1) ** (i - 1) * a[i] * b[k - i] for i in range(1, k + 1)))
    return b


def chern_number(d, a, parts):
    """c_{i_1} ... c_{i_k} h^(n - |I|) paired with a degree-d variety."""
    return d * prod(a[i] for i in parts)


def betti(n, chi):
    """b_0..b_2n of a smooth n-dimensional complete intersection with Euler
    characteristic chi."""
    numbers = [1 - i % 2 for i in range(2 * n + 1)]
    numbers[n] = 0
    numbers[n] = (-1) ** n * (chi - sum((-1) ** i * b for i, b in enumerate(numbers)))
    return tuple(numbers)


def genus(d):
    """The genus of a smooth plane curve of degree d."""
    return (d - 1) * (d - 2) // 2
