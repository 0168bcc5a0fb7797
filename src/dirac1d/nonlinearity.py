"""Closed-form sources N1, N2 and the algebraic charge-transport identity.

The potential is W(u, v) = alpha |u|^2 |v|^2 + beta (ub*v + u*vb)^2 and the
source terms are its Wirtinger derivatives, expanded by hand (the tests check
them against difference quotients of W):

    N1 = d W / d ub = alpha * u |v|^2 + 2 beta (ub*v + u*vb) v
    N2 = d W / d vb = alpha * v |u|^2 + 2 beta (ub*v + u*vb) u

`eval_N` evaluates both at once, as one formula on the stacked pair w = (u, v):
N2 is N1 with u and v exchanged, so (N1, N2) = alpha w |partner|^2 + 2 beta
(ub*v + u*vb) partner with partner = (v, u).  It skips a term whose coupling is
zero everywhere (alpha for Gross-Neveu, beta for Thirring): the skipped term is
+-0, so only a source that is exactly zero may change, in its sign.  The
functions accept scalars or numpy arrays (`eval_N` their stacked pair), and
all are pure but for `eval_N`'s `out`.
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


def eval_N(w, m: ModelParams, squares=None, out=None):
    """Both sources, stacked as (N1, N2), at the stacked pair w = (u, v);
    squares = (|u|^2, |v|^2) spares recomputing them, and out receives the result."""
    partner = w[::-1]
    with_beta = np.count_nonzero(m.beta)  # np.any is 7x slower on a scalar
    if with_beta:
        c = 2.0 * m.beta * pair_overlap(*w)
        if not np.count_nonzero(m.alpha):
            return np.multiply(c, partner, out=out)
    n = np.multiply(m.alpha, w, out=out)
    n *= (np.square(np.abs(w)) if squares is None else squares)[::-1]
    if with_beta:
        n += c * partner
    return n


# Only the benchmark's tracer uses eval_N1 and eval_N2, on `solver`, which imports
# them for it; they go once the tracer wraps eval_N (ROADMAP item 1).
def eval_N1(u: Complexlike, v: Complexlike, m: ModelParams):
    """Right-mover source, eval_N((u, v), m)[0]."""
    return eval_N(np.stack((u, v)), m)[0]


def eval_N2(u: Complexlike, v: Complexlike, m: ModelParams):
    """Left-mover source, eval_N((u, v), m)[1]."""
    return eval_N(np.stack((u, v)), m)[1]


def charge_flux_defect(u: Complexlike, v: Complexlike, m: ModelParams):
    """Re(i*conj(N1)*u) + Re(i*conj(N2)*v).

    Identically zero for this W: conj(N1)*u + conj(N2)*v equals
    2 alpha |u|^2 |v|^2 + 2 beta (ub*v + u*vb)^2, which is real, so the
    modulus sources of u and v cancel and total charge is conserved.
    The returned value measures only floating-point noise.
    """
    n1, n2 = eval_N(np.stack((u, v)), m)
    return np.real(1j * np.conj(n1) * u) + np.real(1j * np.conj(n2) * v)
