"""Closed-form nonlinearity W, N1, N2 and the algebraic charge-transport identity.

The potential is W(u, v) = alpha |u|^2 |v|^2 + beta (ub*v + u*vb)^2 and the
source terms are its Wirtinger derivatives, expanded by hand:

    N1 = d W / d ub = alpha * u |v|^2 + 2 beta (ub*v + u*vb) v
    N2 = d W / d vb = alpha * v |u|^2 + 2 beta (ub*v + u*vb) u

All functions are pure and accept scalars or numpy arrays.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .fields import ModelParams

Complexlike = Union[complex, np.ndarray]


def pair_overlap(u: Complexlike, v: Complexlike):
    """The real combination ub*v + u*vb, computed as 2*Re(conj(u)*v).

    Real arithmetic avoids a spurious imaginary part from cancellation.
    """
    return 2.0 * np.real(np.conj(u) * v)


def eval_W(u: Complexlike, v: Complexlike, m: ModelParams):
    """Potential W(u, v); always real."""
    return m.alpha * np.abs(u) ** 2 * np.abs(v) ** 2 + m.beta * pair_overlap(u, v) ** 2


def eval_N1(u: Complexlike, v: Complexlike, m: ModelParams):
    """Right-mover source; satisfies |N1| <= c_star * |u| * |v|^2."""
    return m.alpha * u * np.abs(v) ** 2 + 2.0 * m.beta * pair_overlap(u, v) * v


def eval_N2(u: Complexlike, v: Complexlike, m: ModelParams):
    """Left-mover source; mirror of eval_N1 with the roles of u and v swapped."""
    return m.alpha * v * np.abs(u) ** 2 + 2.0 * m.beta * pair_overlap(u, v) * u


def charge_flux_defect(u: Complexlike, v: Complexlike, m: ModelParams):
    """Re(i*conj(N1)*u) + Re(i*conj(N2)*v).

    Identically zero for this W: conj(N1)*u + conj(N2)*v equals
    2 alpha |u|^2 |v|^2 + 2 beta (ub*v + u*vb)^2, which is real, so the
    modulus sources of u and v cancel and total charge is conserved.
    The returned value measures only floating-point noise.
    """
    n1 = eval_N1(u, v, m)
    n2 = eval_N2(u, v, m)
    return np.real(1j * np.conj(n1) * u) + np.real(1j * np.conj(n2) * v)


def wirtinger_N1_fd(u: Complexlike, v: Complexlike, m: ModelParams, delta: float):
    """Central-difference Wirtinger derivative (1/2)(d/dRe(u) + i d/dIm(u)) W.

    Reference for eval_N1.  W is quadratic in each single real coordinate of
    u, so this central difference is exact up to roundoff for any delta; the
    genuine O(delta^2) truncation error only shows up in the joint first
    variation (first_variation_fd), whose cubic term does not vanish.
    """
    d_re = (eval_W(u + delta, v, m) - eval_W(u - delta, v, m)) / (2.0 * delta)
    d_im = (eval_W(u + 1j * delta, v, m) - eval_W(u - 1j * delta, v, m)) / (2.0 * delta)
    return 0.5 * (d_re + 1j * d_im)


def wirtinger_N2_fd(u: Complexlike, v: Complexlike, m: ModelParams, delta: float):
    """Central-difference Wirtinger derivative of W in vb; reference for eval_N2."""
    d_re = (eval_W(u, v + delta, m) - eval_W(u, v - delta, m)) / (2.0 * delta)
    d_im = (eval_W(u, v + 1j * delta, m) - eval_W(u, v - 1j * delta, m)) / (2.0 * delta)
    return 0.5 * (d_re + 1j * d_im)


def first_variation(u: Complexlike, v: Complexlike, p: Complexlike, q: Complexlike,
                    m: ModelParams):
    """Exact first variation of W along the direction (p, q).

    d/ds W(u + s p, v + s q) at s = 0 equals 2 Re(conj(N1) p) + 2 Re(conj(N2) q)
    because W is real (its u- and ub-derivatives are conjugate).
    """
    return (2.0 * np.real(np.conj(eval_N1(u, v, m)) * p)
            + 2.0 * np.real(np.conj(eval_N2(u, v, m)) * q))


def first_variation_fd(u: Complexlike, v: Complexlike, p: Complexlike, q: Complexlike,
                       m: ModelParams, delta: float):
    """Central difference of s -> W(u + s p, v + s q) at s = 0.

    Along joint directions W is a genuine quartic, so the truncation error is
    (delta^2 / 6) times the third directional derivative and decays at
    second order under delta-halving.
    """
    return (eval_W(u + delta * p, v + delta * q, m)
            - eval_W(u - delta * p, v - delta * q, m)) / (2.0 * delta)
