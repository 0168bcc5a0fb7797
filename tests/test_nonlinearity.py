"""Algebraic properties of W, N1, N2 and the charge-transport identity."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dirac1d import (ModelParams, charge_flux_defect, eval_N, eval_N1, eval_N2, eval_W,
                     pair_overlap)
from dirac1d.nonlinearity import (first_variation, first_variation_fd,
                                  wirtinger_N1_fd, wirtinger_N2_fd)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
couplings = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def spinors():
    return st.tuples(finite, finite, finite, finite).map(
        lambda q: (q[0] + 1j * q[1], q[2] + 1j * q[3]))


class TestClosedForms:
    def test_simple_point_values(self):
        th = ModelParams.thirring()
        gn = ModelParams.gross_neveu()
        # u = v = 1: overlap 2, W_th = 1, W_gn = 1, N1_th = 1, N1_gn = 1
        assert pair_overlap(1.0, 1.0) == pytest.approx(2.0)
        assert eval_W(1.0, 1.0, th) == pytest.approx(1.0)
        assert eval_W(1.0, 1.0, gn) == pytest.approx(1.0)
        assert eval_N1(1.0, 1.0, th) == pytest.approx(1.0)
        assert eval_N1(1.0, 1.0, gn) == pytest.approx(1.0)
        # u = 1, v = i: overlap 0, the beta part drops out entirely
        assert pair_overlap(1.0, 1.0j) == pytest.approx(0.0)
        assert eval_W(1.0, 1.0j, gn) == pytest.approx(0.0)
        assert eval_N1(1.0, 1.0j, gn) == pytest.approx(0.0)
        assert eval_N1(1.0, 1.0j, th) == pytest.approx(1.0)

    def test_array_broadcasting(self):
        m = ModelParams(0.5, -0.25)
        u = np.array([1.0 + 0j, 2.0j, 0.0])
        v = np.array([1.0j, 1.0, 3.0])
        assert eval_N1(u, v, m).shape == (3,)
        for j in range(3):
            assert eval_N1(u, v, m)[j] == pytest.approx(eval_N1(u[j], v[j], m))


def two_term_N1(u, v, m):
    """N1 as two terms, each formed on its own: the reference eval_N must match."""
    return m.alpha * u * np.abs(v) ** 2 + 2.0 * m.beta * (2.0 * np.real(np.conj(u) * v)) * v


def two_term_N2(u, v, m):
    return m.alpha * v * np.abs(u) ** 2 + 2.0 * m.beta * (2.0 * np.real(np.conj(u) * v)) * u


def bits(z):
    return np.ascontiguousarray(z, dtype=complex).view(np.uint64)


class TestFusedKernel:
    n = 5000

    # the presets' couplings are powers of two, which hide a reassociated
    # product; alpha_only and beta_only take the same paths with other values
    @pytest.mark.parametrize("case", ["thirring", "gross_neveu", "alpha_only", "beta_only",
                                      "both", "per_sample"])
    def test_equals_two_term_formulas_bitwise(self, case):
        rng = np.random.default_rng(7)
        u = rng.uniform(-10, 10, self.n) + 1j * rng.uniform(-10, 10, self.n)
        v = rng.uniform(-10, 10, self.n) + 1j * rng.uniform(-10, 10, self.n)
        m = {"thirring": ModelParams.thirring(), "gross_neveu": ModelParams.gross_neveu(),
             "alpha_only": ModelParams(0.7, 0.0), "beta_only": ModelParams(0.0, -0.3),
             "both": ModelParams(0.7, -0.4),
             "per_sample": ModelParams(rng.uniform(-2, 2, self.n),
                                       rng.uniform(-2, 2, self.n))}[case]
        want1, want2 = two_term_N1(u, v, m), two_term_N2(u, v, m)
        for n1, n2 in (eval_N(u, v, m), eval_N(u, v, m, (np.abs(u), np.abs(v))),
                       (eval_N1(u, v, m), eval_N2(u, v, m))):
            np.testing.assert_array_equal(bits(n1), bits(want1))
            np.testing.assert_array_equal(bits(n2), bits(want2))

    @pytest.mark.parametrize("m", [ModelParams.thirring(), ModelParams.gross_neveu(),
                                   ModelParams(0.0, 0.0)])
    def test_zero_sources_differ_at_most_in_sign(self, m):
        # a skipped term is exactly +-0, so only a source that is exactly
        # zero may change, and only in its sign
        u = np.array([0.0, 1.0 - 2.0j, 0.0, 3.0j])
        v = np.array([0.5 + 0.5j, 0.0, 0.0, 2.0])
        n1, n2 = eval_N(u, v, m)
        assert n1.shape == n2.shape == u.shape
        np.testing.assert_array_equal(n1, two_term_N1(u, v, m))
        np.testing.assert_array_equal(n2, two_term_N2(u, v, m))


class TestProperties:
    @given(spinors(), spinors(), couplings, couplings)
    @settings(max_examples=200, deadline=None)
    def test_charge_flux_defect_vanishes(self, p, q, alpha, beta):
        u, _ = p
        _, v = q
        m = ModelParams(alpha, beta)
        d = charge_flux_defect(u, v, m)
        assert abs(d) <= 1e-12 * (1.0 + abs(u) ** 2 * abs(v) ** 2)

    @given(spinors(), spinors(), couplings, couplings)
    @example(p=(-8.91364621456973 - 7.315580984326113j, 0j),
             q=(0j, -5.911954795520346 - 7.9361955564353455j),
             alpha=-1.991059007718062, beta=0.0)
    @settings(max_examples=200, deadline=None)
    def test_lipschitz_envelope(self, p, q, alpha, beta):
        # the bound reaches ~1e3, where one ulp exceeds any fixed 1e-12 slack:
        # the tolerance is relative
        u, _ = p
        _, v = q
        m = ModelParams(alpha, beta)
        bound1 = m.c_star * abs(u) * abs(v) ** 2
        bound2 = m.c_star * abs(v) * abs(u) ** 2
        assert abs(eval_N1(u, v, m)) <= bound1 + 1e-12 * (1.0 + bound1)
        assert abs(eval_N2(u, v, m)) <= bound2 + 1e-12 * (1.0 + bound2)

    @given(spinors(), spinors(), st.floats(min_value=-np.pi, max_value=np.pi))
    @settings(max_examples=200, deadline=None)
    def test_global_phase_covariance(self, p, q, theta):
        u, _ = p
        _, v = q
        m = ModelParams(1.0, 0.25)
        z = np.exp(1j * theta)
        assert eval_N1(z * u, z * v, m) == pytest.approx(z * eval_N1(u, v, m), abs=1e-9)
        assert eval_N2(z * u, z * v, m) == pytest.approx(z * eval_N2(u, v, m), abs=1e-9)
        assert eval_W(z * u, z * v, m) == pytest.approx(eval_W(u, v, m), abs=1e-9)

    @given(spinors(), spinors(), couplings)
    @settings(max_examples=100, deadline=None)
    def test_swap_symmetry(self, p, q, alpha):
        u, _ = p
        _, v = q
        m = ModelParams(alpha, 0.25)
        assert eval_N2(u, v, m) == pytest.approx(eval_N1(v, u, m), abs=1e-12)

    @given(spinors(), spinors())
    @settings(max_examples=100, deadline=None)
    def test_potential_real_nonnegative(self, p, q):
        u, _ = p
        _, v = q
        m = ModelParams(1.0, 0.25)
        w = eval_W(u, v, m)
        assert np.isreal(w)
        assert w >= 0.0


class TestWirtingerReference:
    points = [(0.7 - 0.3j, 1.1 + 0.4j), (1.5j, -0.8 + 0.2j), (0.4, 0.9 - 1.2j)]

    @pytest.mark.parametrize("m", [ModelParams.thirring(), ModelParams.gross_neveu(),
                                   ModelParams(0.7, -0.4)])
    def test_matches_closed_form(self, m):
        # exact up to roundoff: W is quadratic in each real coordinate
        for u, v in self.points:
            fd = wirtinger_N1_fd(u, v, m, 1e-4)
            assert fd == pytest.approx(eval_N1(u, v, m), abs=1e-9)
            fd = wirtinger_N2_fd(u, v, m, 1e-4)
            assert fd == pytest.approx(eval_N2(u, v, m), abs=1e-9)

    def test_joint_variation_decays_at_second_order(self):
        m = ModelParams(0.9, 0.35)
        p, q = 0.6 - 0.8j, -0.3 + 0.5j
        for u, v in self.points:
            exact = first_variation(u, v, p, q, m)
            errs = [abs(first_variation_fd(u, v, p, q, m, d) - exact)
                    for d in (1e-3, 5e-4)]
            ratio = errs[0] / errs[1]
            assert 3.0 <= ratio <= 5.0


def test_public_names_resolve():
    # every exported name exists, and the unused SpinorPair is no longer exported
    import dirac1d
    assert all(hasattr(dirac1d, name) for name in dirac1d.__all__)
    assert "SpinorPair" not in dirac1d.__all__
