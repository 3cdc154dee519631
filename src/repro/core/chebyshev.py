"""Chebyshev polynomial toolkit used by the maximum-entropy solver.

The solver (Section 4.3 of the paper) relies on Chebyshev polynomials of the
first kind for two purposes:

1. *Conditioning*: the Newton objective is expressed in the basis
   ``T_i(s(x))`` instead of raw powers ``x**i``, which drops the Hessian
   condition number from ~1e31 to ~10 in the paper's example.
2. *Fast integration*: smooth integrands are replaced by their Chebyshev
   interpolants, which integrate in closed form.  Interpolation coefficients
   come from a DCT (the "fast cosine transform" the paper cites as the solver
   bottleneck); integration against the interpolant is equivalent to
   Clenshaw-Curtis quadrature.

Everything here works on ``numpy`` arrays and is deliberately free of any
sketch-specific logic so it can be unit-tested against closed forms.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.fft import dct


def chebyshev_coefficient_table(max_order: int) -> np.ndarray:
    """Monomial coefficients of ``T_0 .. T_max_order``.

    Returns a ``(max_order + 1, max_order + 1)`` lower-triangular matrix ``C``
    with ``T_i(x) = sum_j C[i, j] * x**j``, built from the recurrence
    ``T_{n+1}(x) = 2 x T_n(x) - T_{n-1}(x)``.

    Coefficients grow like ``2**(i-1)`` which stays exactly representable in
    float64 for every order this library permits (``i <= 32``).
    """
    if max_order < 0:
        raise ValueError(f"max_order must be >= 0, got {max_order}")
    table = np.zeros((max_order + 1, max_order + 1))
    table[0, 0] = 1.0
    if max_order >= 1:
        table[1, 1] = 1.0
    for i in range(2, max_order + 1):
        # 2 * x * T_{i-1}: shift coefficients up one power.
        table[i, 1:] = 2.0 * table[i - 1, :-1]
        table[i] -= table[i - 2]
    return table


@functools.lru_cache(maxsize=64)
def _cached_coefficient_table(max_order: int) -> np.ndarray:
    table = chebyshev_coefficient_table(max_order)
    table.setflags(write=False)
    return table


def eval_chebyshev(order: int, u: np.ndarray) -> np.ndarray:
    """Evaluate ``T_order(u)`` via the numerically stable recurrence.

    For ``|u| <= 1`` this is equivalent to ``cos(order * arccos(u))``.  The
    recurrence is used instead of the trigonometric form so values slightly
    outside [-1, 1] (from floating-point slop at the support edges) do not
    produce NaNs.
    """
    u = np.asarray(u, dtype=float)
    if order == 0:
        return np.ones_like(u)
    if order == 1:
        return u.copy()
    t_prev = np.ones_like(u)
    t_cur = u.copy()
    for _ in range(order - 1):
        t_prev, t_cur = t_cur, 2.0 * u * t_cur - t_prev
    return t_cur


def eval_chebyshev_series(coeffs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Evaluate ``sum_k coeffs[k] * T_k(u)`` using Clenshaw's algorithm."""
    coeffs = np.asarray(coeffs, dtype=float)
    u = np.asarray(u, dtype=float)
    if coeffs.size == 0:
        return np.zeros_like(u)
    b_next = np.zeros_like(u)
    b_cur = np.zeros_like(u)
    for c in coeffs[:0:-1]:
        b_cur, b_next = 2.0 * u * b_cur - b_next + c, b_cur
    return u * b_cur - b_next + coeffs[0]


@functools.lru_cache(maxsize=16)
def chebyshev_nodes(n: int) -> np.ndarray:
    """Chebyshev-Gauss-Lobatto nodes ``cos(pi * j / n)`` for ``j = 0..n``.

    These are the Clenshaw-Curtis quadrature points, returned in descending
    order (node 0 is +1).  ``n`` must be a positive even integer; even sizes
    give quadrature rules with the symmetric weight structure used below.

    Cached (read-only): every solve on a given grid size shares one node
    array, which the batched solver relies on to stack problems without
    re-deriving per-problem grids.
    """
    if n <= 0 or n % 2 != 0:
        raise ValueError(f"n must be positive and even, got {n}")
    nodes = np.cos(np.pi * np.arange(n + 1) / n)
    nodes.setflags(write=False)
    return nodes


def interpolation_coefficients(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the interpolant through Lobatto node values.

    Given ``values[j] = f(cos(pi j / n))`` for ``j = 0..n``, returns ``c`` such
    that ``sum_k c[k] T_k(u)`` interpolates ``f`` at the nodes.  Uses a type-I
    DCT, which is the fast cosine transform of Press et al. referenced by the
    paper (Eq. 5.9.4 in Numerical Recipes).
    """
    values = np.asarray(values, dtype=float)
    n = values.size - 1
    if n <= 0:
        raise ValueError("need at least two node values")
    coeffs = dct(values, type=1) / n
    coeffs[0] *= 0.5
    coeffs[-1] *= 0.5
    return coeffs


def integrate_series(coeffs: np.ndarray) -> float:
    """Exact integral over [-1, 1] of a Chebyshev series.

    Uses ``int_{-1}^{1} T_k(u) du = 2 / (1 - k^2)`` for even ``k`` and 0 for
    odd ``k``.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    k = np.arange(0, coeffs.size, 2)
    weights = 2.0 / (1.0 - k.astype(float) ** 2)
    return float(np.dot(coeffs[::2], weights))


def antiderivative_series(coeffs: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of an antiderivative of a Chebyshev series.

    Standard relation: if ``f = sum a_k T_k`` then ``F' = f`` with
    ``F = sum b_k T_k`` where ``b_k = (a_{k-1} - a_{k+1}) / (2k)`` for
    ``k >= 2``, ``b_1 = a_0 - a_2 / 2``, and ``b_0`` a free constant (set so
    that the caller can normalize; we leave it at 0).
    """
    a = np.asarray(coeffs, dtype=float)
    n = a.size
    b = np.zeros(n + 1)
    padded = np.zeros(n + 2)
    padded[:n] = a
    if n >= 1:
        b[1] = padded[0] - padded[2] / 2.0
    for k in range(2, n + 1):
        b[k] = (padded[k - 1] - padded[k + 1]) / (2.0 * k)
    return b


@functools.lru_cache(maxsize=16)
def clenshaw_curtis_weights(n: int) -> np.ndarray:
    """Clenshaw-Curtis quadrature weights for the ``n + 1`` Lobatto nodes.

    ``sum_j w[j] f(nodes[j])`` equals the exact integral over [-1, 1] of the
    degree-``n`` Chebyshev interpolant of ``f``.  Computed via the DCT route:
    the weight vector is the image of the per-mode integrals under the
    (symmetric) transform that maps node values to coefficients.

    Cached (read-only), like :func:`chebyshev_nodes`.
    """
    if n <= 0 or n % 2 != 0:
        raise ValueError(f"n must be positive and even, got {n}")
    # Integral of each Chebyshev mode over [-1, 1].
    mode_integrals = np.zeros(n + 1)
    k = np.arange(0, n + 1, 2)
    mode_integrals[::2] = 2.0 / (1.0 - k.astype(float) ** 2)
    # interpolation_coefficients is linear in the node values; applying its
    # adjoint to the per-mode integrals yields the quadrature weights.  The
    # adjoint of the endpoint-scaled DCT-I works out to a plain DCT-I with
    # the two endpoint weights halved.
    weights = dct(mode_integrals, type=1) / n
    weights[0] *= 0.5
    weights[-1] *= 0.5
    weights.setflags(write=False)
    return weights


def multiply_series(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two Chebyshev series, in the Chebyshev basis.

    Uses the linearization ``T_i T_j = (T_{i+j} + T_{|i-j|}) / 2``.  The
    result has length ``len(a) + len(b) - 1``.  This is the identity the
    paper's Section 4.3.1 exploits to keep Hessian assembly polynomial.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        return np.zeros(0)
    out = np.zeros(a.size + b.size - 1)
    for i, ai in enumerate(a):
        if ai == 0.0:
            continue
        for j, bj in enumerate(b):
            term = 0.5 * ai * bj
            out[i + j] += term
            out[abs(i - j)] += term
    return out


def monomial_to_chebyshev(power_coeffs: np.ndarray) -> np.ndarray:
    """Convert monomial coefficients ``sum c_j x**j`` to Chebyshev basis."""
    power_coeffs = np.asarray(power_coeffs, dtype=float)
    degree = power_coeffs.size - 1
    table = _cached_coefficient_table(max(degree, 0))
    # Solve C^T a = c where C is the (lower-triangular) coefficient table.
    return np.linalg.solve(table[: degree + 1, : degree + 1].T, power_coeffs)


def chebyshev_to_monomial(cheb_coeffs: np.ndarray) -> np.ndarray:
    """Convert Chebyshev-basis coefficients to monomial coefficients."""
    cheb_coeffs = np.asarray(cheb_coeffs, dtype=float)
    degree = cheb_coeffs.size - 1
    table = _cached_coefficient_table(max(degree, 0))
    return cheb_coeffs @ table[: degree + 1, : degree + 1]
