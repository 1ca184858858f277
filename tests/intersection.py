"""Intersection numbers on a Grassmannian by general products, the tests'
oracle for point coefficients.

Each factor's basis classes are expanded by Giambelli as a plain Leibniz sum
of the Jacobi-Trudi determinant det(sigma_{lam_i - i + j}) over every
permutation, each entry a chain of Pieri steps, and the products are kept
as ``terms`` dicts. Only ``pieri`` is the package's: the package expands
determinants over column subsets (schubert.giambelli_expand) and pairs
special powers by Poincare duality (schubert.special_intersection_number).
"""

from itertools import permutations

from charbound.schubert import GradingError, SchubertClass, pieri


def times_basis(cls, shape) -> dict:
    """The terms of cls * sigma_shape for a partition tuple ``shape``."""
    cols = cls.grassmannian.cols
    r = len(shape)
    out = {}
    for perm in permutations(range(r)):
        indices = [shape[i] - i + perm[i] for i in range(r)]
        if any(not 0 <= k <= cols for k in indices):
            continue
        inversions = sum(perm[j] < perm[i] for i in range(r) for j in range(i, r))
        term = cls
        for k in indices:
            term = pieri(term, k)
        for key, coeff in term.terms.items():
            out[key] = out.get(key, 0) + (-1) ** inversions * coeff
    return out


def intersection_number(classes) -> int:
    """Coefficient of the point class in the product of the given classes.

    Inputs must be homogeneous and their codimensions must fill the box
    exactly; a zero input short-circuits to 0.
    """
    classes = list(classes)
    if not classes:
        raise ValueError("need at least one class")
    gr = classes[0].grassmannian
    total = 0
    for c in classes:
        if c.grassmannian != gr:
            raise ValueError(f"classes on different Grassmannians: {gr}, {c.grassmannian}")
        if not c.terms:
            return 0
        cods = {sum(key) for key in c.terms}
        if len(cods) != 1:
            raise GradingError("intersection numbers need homogeneous classes")
        total += cods.pop()
    if total != gr.total_codim:
        raise GradingError(f"total codimension {total} != dim {gr.total_codim} of {gr}")
    product = classes[0].terms
    for c in classes[1:]:
        left, product = SchubertClass(gr, product), {}
        for key, coeff in c.terms.items():
            shape = tuple(part for part in key if part)
            for mu, value in times_basis(left, shape).items():
                product[mu] = product.get(mu, 0) + coeff * value
    return product.get((gr.cols,) * gr.q, 0)
