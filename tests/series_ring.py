"""The truncated polynomial ring Z[h]/(h^(cap+1)) on plain coefficient lists.

An oracle for the Chern tests, written without any of the package's code;
``tests/test_series_ring.py`` checks its ring laws.
"""


def convolve(a, b, cap):
    out = [0] * (cap + 1)
    for i, x in enumerate(a[: cap + 1]):
        for j, y in enumerate(b[: cap + 1]):
            if i + j <= cap:
                out[i + j] += x * y
    return out


class Series:
    """Integer polynomial in h truncated above h^cap, as a coefficient list."""

    def __init__(self, coeffs, cap):
        self.coeffs = (list(coeffs) + [0] * (cap + 1))[: cap + 1]
        self.cap = cap

    @classmethod
    def monomial(cls, coeff, degree, cap):
        # coeff * h^degree; the zero series when the degree is above the cap
        return cls([0] * degree + [coeff], cap)

    def __add__(self, other):
        return Series([a + b for a, b in zip(self.coeffs, other.coeffs)], self.cap)

    def __neg__(self):
        return Series([-a for a in self.coeffs], self.cap)

    def __mul__(self, other):
        return Series(convolve(self.coeffs, other.coeffs, self.cap), self.cap)

    def __eq__(self, other):
        return (self.coeffs, self.cap) == (other.coeffs, other.cap)

    def __repr__(self):
        return f"Series({self.coeffs}, {self.cap})"
