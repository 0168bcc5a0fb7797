"""Reference formulas: the potential W and difference quotients of it, which
the tests compare with `eval_N`, and the Thirring-type (beta = 0) state in
closed form, on the lattice, which they compare with phase_split, and on the
line, which they compare with every scheme.  Also the acceptance suite's
reference runs, and the ones of them that `conftest.py` starts in a worker
process: `reference_run` and `CHILD_RUNS`."""

import math

import numpy as np

from dirac1d import Grid, ModelParams, Scheme, make_initial_data, run
from dirac1d.fields import SHAPE
from dirac1d.nonlinearity import eval_N, pair_overlap

GAUSSIAN_PAIR = {"u_center": 0.0, "u_width": 1.0, "v_center": 1.0, "v_width": 1.0}
RECORD = [0.0, 2.5, 5.0, 10.0, 20.0]

# reference_run's arguments of the runs that conftest.py starts in its one worker
# process when a selected test reads them, by the name of the session fixture that
# returns the run's future: they run while the rest of the suite does
CHILD_RUNS = {
    # acceptance criterion 9's 4th-order reference at h / 4
    "oracle_future": {"model": "gross_neveu", "h": 1.0 / 1024.0, "scheme": "oracle4",
                      "T": 10.0, "record": [10.0]},
    # a small one, which a test compares with the same run made in-process
    "small_oracle_future": {"model": "gross_neveu", "h": 1.0 / 64.0, "scheme": "oracle4",
                            "T": 4.0, "span": 12.0, "record": [2.0, 4.0]},
}


def reference_run(model, h, scheme="trapezoidal", T=20.0, span=40.0, record=RECORD):
    """The Gaussian pair on [-span, span] up to T, with the model's preset couplings."""
    m = ModelParams.thirring() if model == "thirring" else ModelParams.gross_neveu()
    grid = Grid.from_domain(-span, span, h, T)
    data = make_initial_data("gaussian", GAUSSIAN_PAIR, grid)
    return run(data, m, Scheme(scheme), list(record))


def eval_W(u, v, m):
    """Potential W(u, v) = alpha |u|^2 |v|^2 + beta (ub*v + u*vb)^2; always real."""
    return m.alpha * np.abs(u) ** 2 * np.abs(v) ** 2 + m.beta * pair_overlap(u, v) ** 2


def first_variation(u, v, p, q, m):
    """Exact first variation of W along the direction (p, q).

    d/ds W(u + s p, v + s q) at s = 0 equals 2 Re(conj(N1) p) + 2 Re(conj(N2) q)
    because W is real (its u- and ub-derivatives are conjugate).
    """
    n1, n2 = eval_N(np.stack((u, v)), m)
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


def thirring_lattice(u0, v0, m, h, level):
    """(u, v) by label at cell level `level` for beta = 0, in closed form.

    With beta = 0 the moduli are transported, so u label i only turns, by
    exp(-i alpha h S) with S the lattice trapezoid sum of |v0|^2 over the v
    labels i, i + 2, ..., i + 2 level that its characteristic meets, and v
    label j by the same sum of |u0|^2 over j, j - 2, ..., j - 2 level.  Labels
    past the domain hold 0.  Each of phase_split's steps turns u by the
    midpoint of two consecutive terms, so its states equal these up to
    roundoff.
    """
    n, pad = len(u0), 2 * level
    mv = np.pad(np.abs(v0) ** 2, (0, pad))  # |v0|^2 at label i + 2k is mv[i + 2k]
    mu = np.pad(np.abs(u0) ** 2, (pad, 0))  # |u0|^2 at label j - 2k is mu[j + pad - 2k]
    s_u, s_v = np.zeros(n), np.zeros(n)
    for k in range(level):  # step k + 1: the labels met at levels k and k + 1
        s_u += 0.5 * (mv[2 * k:2 * k + n] + mv[2 * k + 2:2 * k + 2 + n])
        s_v += 0.5 * (mu[pad - 2 * k:pad - 2 * k + n] + mu[pad - 2 * k - 2:pad - 2 * k - 2 + n])
    return u0 * np.exp(-1j * m.alpha * h * s_u), v0 * np.exp(-1j * m.alpha * h * s_v)


def _gaussian_mass(y, t, shape, comp, sign):
    """int_0^t |g(y + 2 sign s)|^2 ds for the Gaussian g of component comp of the
    shape keys: |g|^2 = a^2 exp(-2 ((x - c) / w)^2) makes it a difference of erf."""
    c, w, a = (shape.get(f"{comp}_{k}", SHAPE[k]) for k in ("center", "width", "amplitude"))
    erf, r = np.vectorize(math.erf), math.sqrt(2.0) / w
    ends = erf(r * (y + 2.0 * sign * t - c)) - erf(r * (y - c))
    return sign * a * a * w * math.sqrt(math.pi / 32.0) * ends


def thirring_continuum(data, shape, m, t):
    """(u, v) by label at time t for beta = 0 and the Gaussian data of the shape
    keys `shape`, in the continuous closed form

        u(y + t, t) = u0(y) exp(-i alpha int_0^t |v0(y + 2s)|^2 ds),
        v(z - t, t) = v0(z) exp(-i alpha int_0^t |u0(z - 2s)|^2 ds):

    the moduli are transported, so each mover only turns by the charge of the
    other that its characteristic crosses."""
    y = data.grid.x()
    return (data.u0 * np.exp(-1j * m.alpha * _gaussian_mass(y, t, shape, "v", 1.0)),
            data.v0 * np.exp(-1j * m.alpha * _gaussian_mass(y, t, shape, "u", -1.0)))
