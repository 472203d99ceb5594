"""Bitwise oracle for the Godunov kernels that ``advance_boxes`` sweeps with.

``test_batching.py`` checks ``advance_boxes`` against the per-box
``advance``, but both paths share the solver's kernels.  The oracle here
does not: ``Reference`` holds copies of the kernels as they were written
before the sweep shared its differences and accumulated fluxes in
place, kept verbatim.  Every kernel must match its copy bit for bit,
compared as int64 views so that signed zeros and NaN payloads count, on
generated states with active density and pressure floors, exact and
negative zeros, minmod ties, supersonic faces both ways and NaN cells.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.amr.godunov import _P_FLOOR, _RHO_FLOOR, PolytropicGasSolver


class Reference:
    """The solver kernels before the shared-difference sweep, verbatim."""

    def __init__(self, gamma, order):
        self.gamma = gamma
        self.order = order

    def primitives(self, U):
        ndim = U.shape[0] - 2
        rho = np.maximum(U[0], _RHO_FLOOR)
        vel = U[1 : 1 + ndim] / rho
        kinetic = 0.5 * rho * np.sum(vel * vel, axis=0)
        p = (self.gamma - 1.0) * (U[-1] - kinetic)
        return rho, vel, np.maximum(p, _P_FLOOR)

    def _apply_floors(self, U):
        U[0] = np.maximum(U[0], _RHO_FLOOR)
        rho, vel, p = self.primitives(U)
        kinetic = 0.5 * rho * np.sum(vel * vel, axis=0)
        U[-1] = np.maximum(U[-1], kinetic + _P_FLOOR / (self.gamma - 1.0))

    def _pencil_states(self, X, faces):
        center = X[:, 1:-1]
        if self.order == 1:
            return np.take(center, faces, axis=1), np.take(center, faces + 1, axis=1)
        slope = self._minmod(center - X[:, :-2], X[:, 2:] - center)
        recon_l = center + 0.5 * slope  # right face of each cell
        recon_r = center - 0.5 * slope  # left face of each cell
        return np.take(recon_l, faces, axis=1), np.take(recon_r, faces + 1, axis=1)

    @staticmethod
    def _minmod(a, b):
        same = (a * b) > 0
        return np.where(same, np.where(np.abs(a) < np.abs(b), a, b), 0.0)

    def _physical_flux(self, U, axis, prims=None):
        rho, vel, p = self.primitives(U) if prims is None else prims
        vd = vel[axis]
        F = np.empty_like(U)
        F[0] = rho * vd
        for k in range(vel.shape[0]):
            F[1 + k] = rho * vel[k] * vd
        F[1 + axis] += p
        F[-1] = (U[-1] + p) * vd
        return F

    def _hll_flux(self, UL, UR, axis):
        rhoL, velL, pL = self.primitives(UL)
        rhoR, velR, pR = self.primitives(UR)
        cL = np.sqrt(self.gamma * pL / rhoL)
        cR = np.sqrt(self.gamma * pR / rhoR)
        sL = np.minimum(velL[axis] - cL, velR[axis] - cR)
        sR = np.maximum(velL[axis] + cL, velR[axis] + cR)
        FL = self._physical_flux(UL, axis, (rhoL, velL, pL))
        FR = self._physical_flux(UR, axis, (rhoR, velR, pR))
        denom = sR - sL
        denom = np.where(np.abs(denom) < 1e-14, 1e-14, denom)
        F_star = (sR * FL - sL * FR + (sL * sR) * (UR - UL)) / denom
        F = np.where(sL >= 0, FL, np.where(sR <= 0, FR, F_star))
        return F


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def assert_bitwise(got, want):
    assert got.shape == want.shape
    assert np.array_equal(bits(got), bits(want))


# Densities below the floor, signed zeros, repeats (minmod ties) and NaN.
DENSITY = st.sampled_from([1.0, 2.0, 0.5, 3.0, 1e-13, 0.0, -0.0, -1.0, np.nan])
# Momenta: exact and negative zeros, ties, and values far above the sound
# speed in both directions (supersonic faces).
MOMENTUM = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 50.0, -50.0, np.nan]),
    st.floats(-3.0, 3.0),
)
# Energies: some leave a negative pressure (the pressure floor), some tie.
ENERGY = st.one_of(st.sampled_from([2.5, 5.0, 1e-14, 0.0, -1.0, 3000.0]), st.floats(0.0, 10.0))


@st.composite
def pencils(draw):
    """A gas state ``(ndim + 2, m)`` along concatenated pencils."""
    ndim = draw(st.integers(1, 3))
    m = draw(st.integers(4, 24))
    rows = [draw(hnp.arrays(np.float64, m, elements=DENSITY))]
    rows += [draw(hnp.arrays(np.float64, m, elements=MOMENTUM)) for _ in range(ndim)]
    rows.append(draw(hnp.arrays(np.float64, m, elements=ENERGY)))
    return np.stack(rows), draw(st.integers(0, ndim - 1))


def solvers(order):
    return PolytropicGasSolver(order=order), Reference(gamma=1.4, order=order)


@settings(deadline=None, max_examples=120)
@given(pencils(), st.sampled_from([1, 2]))
def test_pencil_states_match_reference(state, order):
    X, _ = state
    solver, reference = solvers(order)
    faces = np.arange(X.shape[1] - 3)
    for got, want in zip(solver._pencil_states(X, faces), reference._pencil_states(X, faces)):
        assert_bitwise(got, want)


@settings(deadline=None, max_examples=120)
@given(pencils(), pencils())
def test_hll_flux_matches_reference(left, right):
    (UL, axis), (UR, _) = left, right
    if UR.shape != UL.shape:
        UR = np.resize(UR, UL.shape)
    solver, reference = solvers(2)
    with np.errstate(all="ignore"):
        assert_bitwise(solver._hll_flux(UL, UR, axis), reference._hll_flux(UL, UR, axis))
        assert_bitwise(solver._physical_flux(UL, axis), reference._physical_flux(UL, axis))


@settings(deadline=None, max_examples=120)
@given(pencils())
def test_apply_floors_matches_reference(state):
    U, _ = state
    solver, reference = solvers(2)
    got, want = U.copy(), U.copy()
    with np.errstate(all="ignore"):
        solver._apply_floors(got)
        reference._apply_floors(want)
    assert_bitwise(got, want)


def test_hand_built_states_reach_every_branch():
    """One face per case the generated states are meant to cover."""
    # Columns: supersonic to the right, supersonic to the left, both
    # floors, a NaN cell, a -0.0 momentum.
    U = np.array([
        [1.0, 1.0, 1e-13, np.nan, 1.0],
        [50.0, -50.0, 0.0, 1.0, -0.0],
        [1252.5, 1252.5, 1e-14, 2.5, 2.5],
    ])
    solver, reference = solvers(2)
    rho, vel, p = reference.primitives(U)
    c = np.sqrt(1.4 * p / rho)
    assert vel[0, 0] - c[0] > 0 and vel[0, 1] + c[1] < 0
    assert rho[2] == _RHO_FLOOR and p[2] == _P_FLOOR
    for UL, UR in ((U, U), (U, U[:, ::-1].copy())):
        assert_bitwise(solver._hll_flux(UL, UR, 0), reference._hll_flux(UL, UR, 0))
    got, want = U.copy(), U.copy()
    solver._apply_floors(got)
    reference._apply_floors(want)
    assert_bitwise(got, want)
    # Equal differences of one sign: the minmod tie.
    X = np.array([[1.0, 2.0, 3.0, 4.0, 4.0], [0.0, -0.0, 1.0, 1.0, -1.0], [2.5, 2.5, 3.5, 4.5, 2.5]])
    faces = np.arange(2)
    for got, want in zip(solver._pencil_states(X, faces), reference._pencil_states(X, faces)):
        assert_bitwise(got, want)
