"""Reference formulas for the closed-form sources: the potential W and
difference quotients of it, which the tests compare with `eval_N`."""

import numpy as np

from dirac1d.nonlinearity import eval_N, pair_overlap


def eval_W(u, v, m):
    """Potential W(u, v) = alpha |u|^2 |v|^2 + beta (ub*v + u*vb)^2; always real."""
    return m.alpha * np.abs(u) ** 2 * np.abs(v) ** 2 + m.beta * pair_overlap(u, v) ** 2


def first_variation(u, v, p, q, m):
    """Exact first variation of W along the direction (p, q).

    d/ds W(u + s p, v + s q) at s = 0 equals 2 Re(conj(N1) p) + 2 Re(conj(N2) q)
    because W is real (its u- and ub-derivatives are conjugate).
    """
    n1, n2 = eval_N(u, v, m)
    return 2.0 * np.real(np.conj(n1) * p) + 2.0 * np.real(np.conj(n2) * q)


def first_variation_fd(u, v, p, q, m, delta):
    """Central difference of s -> W(u + s p, v + s q) at s = 0.

    Along joint directions W is a genuine quartic, so the truncation error is
    (delta^2 / 6) times the third directional derivative and decays at
    second order under delta-halving.
    """
    return (eval_W(u + delta * p, v + delta * q, m)
            - eval_W(u - delta * p, v - delta * q, m)) / (2.0 * delta)


def wirtinger_fd(u, v, m, delta, p, q):
    """Central-difference Wirtinger derivative (1/2)(d/dRe + i d/dIm) W along (p, q).

    The direction (1, 0) gives the reference for N1 = dW/d(ub), and (0, 1)
    the one for N2 = dW/d(vb).  W is quadratic in each single real coordinate,
    so along those directions the quotient is exact up to roundoff for any
    delta; the O(delta^2) truncation error only shows up in joint directions.
    """
    return 0.5 * (first_variation_fd(u, v, p, q, m, delta)
                  + 1j * first_variation_fd(u, v, 1j * p, 1j * q, m, delta))
