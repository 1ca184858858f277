"""Intersection numbers on a Grassmannian by general products, the tests'
oracle for point coefficients. The package pairs special powers by Poincare
duality instead (schubert.special_intersection_number)."""

from charbound.schubert import GradingError, multiply


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
        c._require_same_space(classes[0])
        if c.is_zero():
            return 0
        cods = c.codimensions()
        if len(cods) != 1:
            raise GradingError("intersection numbers need homogeneous classes")
        total += cods.pop()
    if total != gr.total_codim:
        raise GradingError(f"total codimension {total} != dim {gr.total_codim} of {gr}")
    product = classes[0]
    for c in classes[1:]:
        product = multiply(product, c)
    return product.coefficient(gr.point_partition)
