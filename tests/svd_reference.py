"""SVD reference for the selector's condition kernel.

The uniform Gram matrix of a basis and its 2-norm condition number,
computed one matrix at a time with ``np.linalg.cond`` (an SVD).  The
selector's table, stacked ``eigvalsh`` and SVD re-check are tested
against these.
"""

import numpy as np


def uniform_hessian(basis, indices: np.ndarray | None = None) -> np.ndarray:
    """Hessian of L at the uniform initial density, used by the selector.

    ``H_ij = 0.5 * integral m~_i m~_j du`` — the Gram matrix of the basis
    under the uniform measure.  ``indices`` restricts to a subset of basis
    rows (the greedy k1/k2 search evaluates many subsets).
    """
    B = basis.matrix if indices is None else basis.matrix[indices]
    return (B * (0.5 * basis.weights)) @ B.T


def condition_number(matrix: np.ndarray) -> float:
    """2-norm condition number, inf for singular matrices."""
    try:
        return float(np.linalg.cond(matrix))
    except np.linalg.LinAlgError:  # pragma: no cover - cond rarely raises
        return float("inf")
