"""Exact Riemann solver tests + Godunov solver validation against it."""

import numpy as np
import pytest

from repro.amr.box import Box
from repro.amr.godunov import PolytropicGasSolver
from repro.amr.hierarchy import AMRHierarchy
from repro.amr.riemann import RiemannState, exact_riemann, sample_riemann
from repro.amr.stepper import AMRStepper
from repro.errors import GeometryError

SOD_LEFT = RiemannState(rho=1.0, u=0.0, p=1.0)
SOD_RIGHT = RiemannState(rho=0.125, u=0.0, p=0.1)


class TestExactSolver:
    def test_sod_star_state_matches_toro(self):
        # Toro Table 4.2, Test 1: p* = 0.30313, u* = 0.92745.
        p_star, u_star = exact_riemann(SOD_LEFT, SOD_RIGHT, gamma=1.4)
        assert p_star == pytest.approx(0.30313, abs=2e-5)
        assert u_star == pytest.approx(0.92745, abs=2e-5)

    def test_123_problem_star_state(self):
        # Toro Test 2 (double rarefaction): p* = 0.00189, u* = 0.
        left = RiemannState(1.0, -2.0, 0.4)
        right = RiemannState(1.0, 2.0, 0.4)
        p_star, u_star = exact_riemann(left, right)
        assert p_star == pytest.approx(0.00189, abs=5e-5)
        assert u_star == pytest.approx(0.0, abs=1e-10)

    def test_strong_shock_star_state(self):
        # Toro Test 3: p* = 460.894, u* = 19.5975.
        left = RiemannState(1.0, 0.0, 1000.0)
        right = RiemannState(1.0, 0.0, 0.01)
        p_star, u_star = exact_riemann(left, right)
        assert p_star == pytest.approx(460.894, rel=1e-4)
        assert u_star == pytest.approx(19.5975, rel=1e-4)

    def test_identical_states_trivial(self):
        state = RiemannState(1.0, 0.5, 2.0)
        p_star, u_star = exact_riemann(state, state)
        assert p_star == pytest.approx(2.0, rel=1e-10)
        assert u_star == pytest.approx(0.5, abs=1e-10)

    def test_vacuum_detected(self):
        left = RiemannState(1.0, -10.0, 0.01)
        right = RiemannState(1.0, 10.0, 0.01)
        with pytest.raises(GeometryError):
            exact_riemann(left, right)

    def test_invalid_states_rejected(self):
        with pytest.raises(GeometryError):
            RiemannState(rho=-1.0, u=0.0, p=1.0)
        with pytest.raises(GeometryError):
            exact_riemann(SOD_LEFT, SOD_RIGHT, gamma=1.0)

    def test_sampled_solution_structure(self):
        xi = np.linspace(-2.0, 2.0, 801)
        rho, u, p = sample_riemann(SOD_LEFT, SOD_RIGHT, xi)
        # Far field recovers the initial data.
        assert rho[0] == pytest.approx(1.0)
        assert rho[-1] == pytest.approx(0.125)
        assert p[0] == pytest.approx(1.0) and p[-1] == pytest.approx(0.1)
        # The pressure plateau between the waves sits at p*.
        p_star, u_star = exact_riemann(SOD_LEFT, SOD_RIGHT)
        mid = np.abs(xi - u_star) < 0.05
        np.testing.assert_allclose(p[mid], p_star, rtol=1e-6)
        # Density is monotone non-increasing for Sod.
        assert (np.diff(rho) <= 1e-9).all()

    def test_contact_density_jump(self):
        # Across the contact, pressure and velocity are continuous but
        # density jumps between the two star densities.
        p_star, u_star = exact_riemann(SOD_LEFT, SOD_RIGHT)
        rho_l, _, _ = sample_riemann(SOD_LEFT, SOD_RIGHT,
                                     np.array([u_star - 1e-6]))
        rho_r, _, _ = sample_riemann(SOD_LEFT, SOD_RIGHT,
                                     np.array([u_star + 1e-6]))
        assert rho_l[0] == pytest.approx(0.42632, abs=2e-4)
        assert rho_r[0] == pytest.approx(0.26557, abs=2e-4)


class TestGodunovValidation:
    def _run_sod(self, n=256, t_end=0.15, max_levels=1):
        """Density on the base level and the exact one, at the stepper's time."""
        domain = Box((0,), (n - 1,))
        h = AMRHierarchy(domain, ncomp=3, nghost=2, max_levels=max_levels,
                         max_box_size=128, dx0=1.0 / n, periodic=False)
        solver = PolytropicGasSolver(gamma=1.4, order=2)
        solver._ndim = 1

        def sod(x):
            left = x < 0.5
            out = np.zeros((3, *x.shape))
            out[0] = np.where(left, 1.0, 0.125)
            out[2] = np.where(left, 1.0, 0.1) / 0.4
            return out

        h.levels[0].data.set_from_function(sod, dx=h.dx0)
        stepper = AMRStepper(h, solver, regrid_interval=2 if max_levels > 1 else 0,
                             initialize=False)
        while stepper.time < t_end:
            stepper.step()
        assert h.finest_level == max_levels - 1
        rho = h.levels[0].data.to_dense(h.level_domain(0))[0]
        x = (np.arange(n) + 0.5) / n
        xi = (x - 0.5) / stepper.time
        exact_rho, _, _ = sample_riemann(SOD_LEFT, SOD_RIGHT, xi)
        return rho, exact_rho

    def test_sod_l1_error_small(self):
        rho, exact = self._run_sod(n=256)
        l1 = np.abs(rho - exact).mean()
        assert l1 < 0.01

    def test_refined_nonperiodic_sod_beats_unrefined(self):
        # A refined level tracks the waves on the outflow-bounded tube;
        # averaged down, the base level sits closer to the exact solution
        # than the same base grid run without refinement.
        rho, exact = self._run_sod(n=128, max_levels=2)
        rho_base, exact_base = self._run_sod(n=128)
        assert np.isfinite(rho).all()
        err = np.abs(rho - exact).mean()
        assert err < 0.85 * np.abs(rho_base - exact_base).mean()

    def test_sod_converges_with_resolution(self):
        rho_lo, exact_lo = self._run_sod(n=128)
        rho_hi, exact_hi = self._run_sod(n=512)
        err_lo = np.abs(rho_lo - exact_lo).mean()
        err_hi = np.abs(rho_hi - exact_hi).mean()
        assert err_hi < 0.7 * err_lo
