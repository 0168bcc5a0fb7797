"""Closed-form sources N1, N2 and the algebraic charge-transport identity.

The potential is W(u, v) = alpha |u|^2 |v|^2 + beta (ub*v + u*vb)^2 and the
source terms are its Wirtinger derivatives, expanded by hand (the tests check
them against difference quotients of W):

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


# Only the benchmark's tracer uses eval_N1 and eval_N2, on `solver`, which imports
# them for it; they go once the tracer wraps eval_N (ROADMAP item 1).
def eval_N1(u: Complexlike, v: Complexlike, m: ModelParams):
    """Right-mover source, eval_N(u, v, m)[0]."""
    return eval_N(u, v, m)[0]


def eval_N2(u: Complexlike, v: Complexlike, m: ModelParams):
    """Left-mover source, eval_N(u, v, m)[1]."""
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
