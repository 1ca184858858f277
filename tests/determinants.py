"""Determinant oracles for the Schur tests, written without any of the
package's code: a Laplace expansion over any ring, Bareiss elimination over
the integers, and the long-side Jacobi-Trudi determinant built on it.
``tests/test_chern.py`` checks Bareiss against Laplace.
"""


def laplace_determinant(matrix):
    # expansion along the first row; works for any ring with + - * and zero
    if len(matrix) == 1:
        return matrix[0][0]
    total = None
    for col, entry in enumerate(matrix[0]):
        minor = [row[:col] + row[col + 1 :] for row in matrix[1:]]
        term = entry * laplace_determinant(minor)
        if col % 2:
            term = -term
        total = term if total is None else total + term
    return total


def bareiss_determinant(matrix):
    """Exact determinant of a square integer matrix in O(r^3) operations.

    Bareiss fraction-free elimination: every division is exact, so entries
    stay integers no larger than minors of the input. A zero pivot is
    replaced by swapping in a lower row with a nonzero entry in its column.
    """
    m = [list(row) for row in matrix]
    size = len(m)
    if any(len(row) != size for row in m):
        raise ValueError("determinant needs a square matrix")
    if size == 0:
        return 1
    sign, previous = 1, 1
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot, pivot_row = m[k][k], m[k]
        for i in range(k + 1, size):
            row = m[i]
            lead = row[k]
            for j in range(k + 1, size):
                row[j] = (row[j] * pivot - lead * pivot_row[j]) // previous
        previous = pivot
    return sign * m[-1][-1]


def long_side_schur(a, parts):
    """det(a_{lambda_i - i + j}), of order len(lambda), by Bareiss; an entry
    whose index is outside 0..len(a)-1 is 0."""
    r = len(parts)
    entry = lambda k: a[k] if 0 <= k < len(a) else 0
    return bareiss_determinant([[entry(parts[i] - i + j) for j in range(r)] for i in range(r)])
