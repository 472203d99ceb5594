"""Tests for the polytropic-gas (Euler) Godunov solver."""

import numpy as np
import pytest

from repro.amr.box import Box
from repro.amr.godunov import PolytropicGasSolver
from repro.amr.hierarchy import AMRHierarchy
from repro.amr.stepper import AMRStepper
from repro.errors import GeometryError


def gas_hierarchy(n=32, ndim=2, max_levels=1, periodic=True):
    domain = Box(tuple(0 for _ in range(ndim)), tuple(n - 1 for _ in range(ndim)))
    return AMRHierarchy(
        domain, ncomp=ndim + 2, nghost=2, max_levels=max_levels,
        max_box_size=16, dx0=1.0 / n, periodic=periodic,
    )


class TestConfig:
    def test_bad_params_rejected(self):
        with pytest.raises(GeometryError):
            PolytropicGasSolver(gamma=1.0)
        with pytest.raises(GeometryError):
            PolytropicGasSolver(cfl=1.5)
        with pytest.raises(GeometryError):
            PolytropicGasSolver(order=3)

    def test_ncomp_requires_initialization(self):
        solver = PolytropicGasSolver()
        with pytest.raises(GeometryError):
            _ = solver.ncomp

    def test_ncomp_mismatch_detected(self):
        h = gas_hierarchy(ndim=2)
        bad = AMRHierarchy(Box((0, 0), (31, 31)), ncomp=3, nghost=2,
                           max_levels=1, dx0=1.0 / 32)
        solver = PolytropicGasSolver()
        with pytest.raises(GeometryError):
            solver.initialize(bad)
        solver.initialize(h)
        assert solver.ncomp == 4

    def test_stable_dt_without_finite_limit_rejected(self):
        h = gas_hierarchy()
        solver = PolytropicGasSolver()
        solver.initialize(h)
        h.levels[0].data.buffer[:] = np.nan  # no wave speed bounds dt
        with pytest.raises(GeometryError):
            solver.stable_dt(h)


class TestPrimitives:
    def test_roundtrip(self):
        solver = PolytropicGasSolver(gamma=1.4)
        U = np.zeros((4, 3, 3))
        U[0] = 2.0  # rho
        U[1] = 2.0 * 0.5  # rho*u
        U[2] = 0.0
        p_set = 1.5
        U[3] = p_set / 0.4 + 0.5 * 2.0 * 0.25
        rho, vel, p = solver.primitives(U)
        np.testing.assert_allclose(rho, 2.0)
        np.testing.assert_allclose(vel[0], 0.5)
        np.testing.assert_allclose(p, p_set)

    def test_pressure_floor(self):
        solver = PolytropicGasSolver()
        U = np.zeros((4, 2, 2))
        U[0] = 1.0
        U[3] = -5.0  # unphysical
        _, _, p = solver.primitives(U)
        assert (p > 0).all()

    def test_sound_speed_ambient(self):
        solver = PolytropicGasSolver(gamma=1.4)
        U = np.zeros((4, 2, 2))
        U[0] = 1.0
        U[3] = 1.0 / 0.4
        np.testing.assert_allclose(solver.sound_speed(U), np.sqrt(1.4), rtol=1e-12)


class TestConservation:
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("ndim", [2, 3])
    def test_mass_momentum_energy_conserved_periodic(self, ndim, order):
        h = gas_hierarchy(n=32 if ndim == 2 else 16, ndim=ndim)
        solver = PolytropicGasSolver(order=order)
        stepper = AMRStepper(h, solver, regrid_interval=0)
        dense0 = h.levels[0].data.to_dense(h.level_domain(0))
        totals0 = dense0.reshape(ndim + 2, -1).sum(axis=1)
        stepper.run(10)
        dense1 = h.levels[0].data.to_dense(h.level_domain(0))
        totals1 = dense1.reshape(ndim + 2, -1).sum(axis=1)
        # Mass and energy conserved tightly; momentum stays ~0 by symmetry.
        assert totals1[0] == pytest.approx(totals0[0], rel=1e-12)
        assert totals1[-1] == pytest.approx(totals0[-1], rel=1e-10)
        for momentum in totals1[1:-1]:
            assert abs(momentum) < 1e-8

    def test_positivity_through_blast(self):
        h = gas_hierarchy(n=32)
        solver = PolytropicGasSolver(blast_pressure_jump=100.0)
        stepper = AMRStepper(h, solver, regrid_interval=0)
        stepper.run(30)
        dense = h.levels[0].data.to_dense(h.level_domain(0))
        rho, vel, p = solver.primitives(dense)
        assert (rho > 0).all()
        assert (p > 0).all()
        assert np.isfinite(dense).all()


class TestBlastPhysics:
    def test_shock_expands_outward(self):
        n = 48
        h = gas_hierarchy(n=n)
        solver = PolytropicGasSolver()
        stepper = AMRStepper(h, solver, regrid_interval=0)

        def shock_radius():
            # Outermost cell whose pressure exceeds ambient by 10%: the
            # forward shock front.
            dense = h.levels[0].data.to_dense(h.level_domain(0))
            _, _, p = solver.primitives(dense)
            ys, xs = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
            r = np.hypot((ys + 0.5) / n - 0.5, (xs + 0.5) / n - 0.5)
            return r[p > 1.1].max()

        r0 = shock_radius()
        stepper.run(15)
        r1 = shock_radius()
        assert r1 > r0

    def test_quadrant_symmetry_preserved(self):
        n = 32
        h = gas_hierarchy(n=n)
        solver = PolytropicGasSolver()
        stepper = AMRStepper(h, solver, regrid_interval=0)
        stepper.run(10)
        rho = h.levels[0].data.to_dense(h.level_domain(0))[0]
        np.testing.assert_allclose(rho, rho[::-1, :], atol=1e-9)
        np.testing.assert_allclose(rho, rho[:, ::-1], atol=1e-9)
        np.testing.assert_allclose(rho, rho.T, atol=1e-9)

    def test_sod_shock_tube_structure(self):
        """1-D Sod problem: density must remain monotone non-increasing
        across the classic left-to-right wave structure, bounded by the
        initial states, with an intermediate plateau."""
        n = 128
        domain = Box((0,), (n - 1,))
        h = AMRHierarchy(domain, ncomp=3, nghost=2, max_levels=1,
                         max_box_size=64, dx0=1.0 / n, periodic=False)
        solver = PolytropicGasSolver(gamma=1.4, order=2)
        solver._ndim = 1

        def sod(x):
            left = x < 0.5
            rho = np.where(left, 1.0, 0.125)
            p = np.where(left, 1.0, 0.1)
            out = np.zeros((3, *x.shape))
            out[0] = rho
            out[2] = p / 0.4
            return out

        h.levels[0].data.set_from_function(sod, dx=h.dx0)
        stepper = AMRStepper(h, solver, regrid_interval=0, initialize=False)
        while stepper.time < 0.15:
            stepper.step()
        rho = h.levels[0].data.to_dense(h.level_domain(0))[0]
        assert rho.max() <= 1.0 + 1e-6
        assert rho.min() >= 0.125 - 1e-6
        # Contact/shock plateau: density near the known star-region value
        # (~0.426 left of contact, ~0.266 right) must appear.
        assert np.any(np.abs(rho - 0.426) < 0.05)
        assert np.any(np.abs(rho - 0.266) < 0.05)

    def test_blast_drives_refinement_growth(self):
        h = gas_hierarchy(n=32, max_levels=2)
        solver = PolytropicGasSolver(tag_threshold=0.05)
        stepper = AMRStepper(h, solver, regrid_interval=2)
        cells0 = h.total_cells()
        stepper.run(12)
        assert h.finest_level == 1
        # The expanding shock surface grows the refined region.
        assert h.total_cells() > cells0

    def test_memory_bytes_grow_with_refinement(self):
        h = gas_hierarchy(n=32, max_levels=2)
        solver = PolytropicGasSolver(tag_threshold=0.05)
        stepper = AMRStepper(h, solver, regrid_interval=2)
        stats = stepper.run(12)
        # Every step covers at least the whole 32^2 base level.
        assert all(s.total_cells >= 32 * 32 for s in stats)
        assert stats[-1].state_bytes > stats[0].state_bytes * 0.9
        assert any(s.regridded for s in stats)


def uniform_flow(rho):
    """Conserved state for density ``rho`` moving at u = (1, 0, ...), p = 1."""

    def state(*coords):
        density = rho(*coords)
        out = np.zeros((len(coords) + 2, *density.shape))
        out[0] = density
        out[1] = density
        out[-1] = 1.0 / 0.4 + 0.5 * density
        return out

    return state


class TestTransport:
    def test_refinement_follows_moving_density_blob(self):
        h = gas_hierarchy(n=32, max_levels=2)
        h.levels[0].data.set_from_function(uniform_flow(
            lambda x, y: 1.0 + np.exp(-((x - 0.3) ** 2 + (y - 0.5) ** 2) / (2 * 0.08**2))
        ), dx=h.dx0)
        solver = PolytropicGasSolver(tag_threshold=0.05)
        solver._ndim = 2
        stepper = AMRStepper(h, solver, regrid_interval=2, initialize=False)
        stepper.run(2)
        assert h.finest_level == 1
        center0 = _fine_centroid(h)
        stepper.run(24)
        assert h.finest_level == 1
        # The refined region tracked the blob moving in +x.
        assert _fine_centroid(h)[0] > center0[0]

    def test_outflow_boundary_lets_mass_leave(self):
        # A bump carried through an outflow (edge-extended) boundary: the
        # boundary face takes the edge cell's own flux, so the total never
        # grows and the bump's mass leaves the domain.
        n = 64
        h = AMRHierarchy(Box((0,), (n - 1,)), ncomp=3, nghost=2, max_levels=1,
                         max_box_size=32, dx0=1.0 / n, periodic=False)
        h.levels[0].data.set_from_function(
            uniform_flow(lambda x: 1.0 + 0.5 * np.exp(-((x - 0.8) ** 2) / (2 * 0.05**2))),
            dx=h.dx0,
        )
        solver = PolytropicGasSolver()
        solver._ndim = 1
        stepper = AMRStepper(h, solver, regrid_interval=0, initialize=False)
        totals = [h.levels[0].data.to_dense(h.level_domain(0))[0].sum() / n]
        while stepper.time < 0.5:
            stepper.step()
            totals.append(h.levels[0].data.to_dense(h.level_domain(0))[0].sum() / n)
        bump = 0.5 * 0.05 * np.sqrt(2 * np.pi)
        assert totals[-1] < totals[0] - 0.8 * bump
        assert (np.diff(totals) <= 1e-9).all()


class TestStepperLookups:
    def test_wrappers_set_after_construction_see_every_call(self):
        # Profilers wrap these methods on the instances once the stepper
        # exists; the stepper must look them up at call time, or the
        # wrapped layers would read zero.
        h = gas_hierarchy(n=32, max_levels=2)
        solver = PolytropicGasSolver(tag_threshold=0.05)
        stepper = AMRStepper(h, solver, regrid_interval=1)
        calls = []
        for owner, name in [(solver, "advance_boxes"), (solver, "stable_dt"),
                            (solver, "tag_cells"), (h, "fill_ghosts"),
                            (h, "regrid"), (h, "average_down")]:
            def counted(*args, _method=getattr(owner, name), _name=name):
                calls.append(_name)
                return _method(*args)
            setattr(owner, name, counted)
        levels = len(h.levels)
        stepper.step()
        assert calls.count("advance_boxes") == levels
        assert set(calls) == {"advance_boxes", "stable_dt", "tag_cells",
                              "fill_ghosts", "regrid", "average_down"}


def _fine_centroid(h):
    boxes = h.levels[1].layout.boxes
    total = sum(b.size for b in boxes)
    return tuple(
        sum((b.lo[d] + b.hi[d]) / 2 * b.size for b in boxes) / total
        for d in range(2)
    )
