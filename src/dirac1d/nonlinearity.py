"""Closed-form nonlinearity W, N1, N2 and the algebraic charge-transport identity.

The potential is W(u, v) = alpha |u|^2 |v|^2 + beta (ub*v + u*vb)^2 and the
source terms are its Wirtinger derivatives, expanded by hand:

    N1 = d W / d ub = alpha * u |v|^2 + 2 beta (ub*v + u*vb) v
    N2 = d W / d vb = alpha * v |u|^2 + 2 beta (ub*v + u*vb) u

`eval_N` evaluates both at once and skips a term whose coupling is zero
everywhere (alpha for Gross-Neveu, beta for Thirring): the skipped term is +-0,
so only a source that is exactly zero may change, in its sign.  All functions
are pure and accept scalars or numpy arrays.
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


def eval_N(u: Complexlike, v: Complexlike, m: ModelParams, moduli=None):
    """Both sources (N1, N2) at (u, v); moduli = (|u|, |v|) spares recomputing them."""
    with_beta = np.count_nonzero(m.beta)  # np.any is 7x slower on a scalar
    if with_beta:
        c = 2.0 * m.beta * pair_overlap(u, v)
        if not np.count_nonzero(m.alpha):
            return c * v, c * u
    abs_u, abs_v = (np.abs(u), np.abs(v)) if moduli is None else moduli
    n1, n2 = m.alpha * u * abs_v ** 2, m.alpha * v * abs_u ** 2
    return (n1 + c * v, n2 + c * u) if with_beta else (n1, n2)


def eval_N1(u: Complexlike, v: Complexlike, m: ModelParams):
    """Right-mover source; satisfies |N1| <= c_star * |u| * |v|^2."""
    return eval_N(u, v, m)[0]


def eval_N2(u: Complexlike, v: Complexlike, m: ModelParams):
    """Left-mover source; mirror of eval_N1 with the roles of u and v swapped."""
    return eval_N(u, v, m)[1]


def charge_flux_defect(u: Complexlike, v: Complexlike, m: ModelParams):
    """Re(i*conj(N1)*u) + Re(i*conj(N2)*v).

    Identically zero for this W: conj(N1)*u + conj(N2)*v equals
    2 alpha |u|^2 |v|^2 + 2 beta (ub*v + u*vb)^2, which is real, so the
    modulus sources of u and v cancel and total charge is conserved.
    The returned value measures only floating-point noise.
    """
    n1, n2 = eval_N(u, v, m)
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
    n1, n2 = eval_N(u, v, m)
    return 2.0 * np.real(np.conj(n1) * p) + 2.0 * np.real(np.conj(n2) * q)


def first_variation_fd(u: Complexlike, v: Complexlike, p: Complexlike, q: Complexlike,
                       m: ModelParams, delta: float):
    """Central difference of s -> W(u + s p, v + s q) at s = 0.

    Along joint directions W is a genuine quartic, so the truncation error is
    (delta^2 / 6) times the third directional derivative and decays at
    second order under delta-halving.
    """
    return (eval_W(u + delta * p, v + delta * q, m)
            - eval_W(u - delta * p, v - delta * q, m)) / (2.0 * delta)
