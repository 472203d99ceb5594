"""Convergence studies: observed order of accuracy of the solvers.

The error norms and the order fit below are test-local: production
solver suites measure observed order of accuracy by running the same
problem at several resolutions against a reference solution, and only
these tests do that here.
"""

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np
import pytest

from repro.amr.box import Box
from repro.amr.godunov import PolytropicGasSolver
from repro.amr.hierarchy import AMRHierarchy
from repro.amr.stepper import AMRStepper
from repro.errors import GeometryError
from tests.amr.test_godunov import uniform_flow


def l1_error(numerical: np.ndarray, exact: np.ndarray) -> float:
    """Mean absolute error between fields of equal shape."""
    numerical = np.asarray(numerical)
    exact = np.asarray(exact)
    if numerical.shape != exact.shape:
        raise GeometryError(
            f"shape mismatch: {numerical.shape} vs {exact.shape}"
        )
    return float(np.abs(numerical - exact).mean())


def l2_error(numerical: np.ndarray, exact: np.ndarray) -> float:
    """Root-mean-square error between fields of equal shape."""
    numerical = np.asarray(numerical)
    exact = np.asarray(exact)
    if numerical.shape != exact.shape:
        raise GeometryError(
            f"shape mismatch: {numerical.shape} vs {exact.shape}"
        )
    return float(np.sqrt(np.mean((numerical - exact) ** 2)))


@dataclass(frozen=True)
class ConvergenceStudy:
    """Resolutions, errors and the fitted observed order."""

    resolutions: tuple[int, ...]
    errors: tuple[float, ...]
    order: float

    def pairwise_orders(self) -> list[float]:
        """Order estimates from consecutive resolution pairs."""
        out = []
        for (n1, e1), (n2, e2) in zip(
            zip(self.resolutions, self.errors),
            zip(self.resolutions[1:], self.errors[1:]),
        ):
            if e1 <= 0 or e2 <= 0:
                out.append(float("inf"))
            else:
                out.append(float(np.log(e1 / e2) / np.log(n2 / n1)))
        return out


def convergence_order(
    run: Callable[[int], float],
    resolutions: Sequence[int],
) -> ConvergenceStudy:
    """Run ``run(n) -> error`` at each resolution and fit the order.

    The order is the least-squares slope of ``log(error)`` against
    ``log(1/n)``; errors must be positive and resolutions increasing.
    """
    resolutions = tuple(int(n) for n in resolutions)
    if len(resolutions) < 2:
        raise GeometryError("need at least two resolutions")
    if any(a >= b for a, b in zip(resolutions, resolutions[1:])):
        raise GeometryError(f"resolutions must increase: {resolutions}")
    errors = tuple(float(run(n)) for n in resolutions)
    if any(e <= 0 for e in errors):
        raise GeometryError(f"errors must be positive: {errors}")
    slope, _intercept = np.polyfit(
        np.log(1.0 / np.asarray(resolutions, dtype=float)),
        np.log(np.asarray(errors)),
        deg=1,
    )
    return ConvergenceStudy(resolutions, errors, float(slope))


class TestErrorNorms:
    def test_l1_l2_basics(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([1.0, 2.0, 5.0])
        assert l1_error(a, b) == pytest.approx(2.0 / 3.0)
        assert l2_error(a, b) == pytest.approx(np.sqrt(4.0 / 3.0))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(GeometryError):
            l1_error(np.zeros(3), np.zeros(4))


class TestConvergenceOrder:
    def test_synthetic_second_order(self):
        study = convergence_order(lambda n: 100.0 / n**2, [16, 32, 64, 128])
        assert study.order == pytest.approx(2.0, abs=1e-10)
        assert all(o == pytest.approx(2.0) for o in study.pairwise_orders())

    def test_validation(self):
        with pytest.raises(GeometryError):
            convergence_order(lambda n: 1.0 / n, [16])
        with pytest.raises(GeometryError):
            convergence_order(lambda n: 1.0 / n, [32, 16])
        with pytest.raises(GeometryError):
            convergence_order(lambda n: 0.0, [16, 32])

    def test_study_is_frozen(self):
        study = ConvergenceStudy((2, 4), (1.0, 0.5), 1.0)
        with pytest.raises(AttributeError):
            study.order = 2.0


class TestGasOrder:
    @staticmethod
    def _density_wave_error(n: int, order: int) -> float:
        """Carry a smooth density wave at uniform velocity and pressure
        around the periodic domain for half a period; the exact Euler
        solution is the initial profile translated by ``u * t``."""
        h = AMRHierarchy(Box((0,), (n - 1,)), ncomp=3, nghost=2,
                         max_levels=1, max_box_size=max(32, n),
                         dx0=1.0 / n, periodic=True)
        solver = PolytropicGasSolver(gamma=1.4, order=order)
        solver._ndim = 1
        h.levels[0].data.set_from_function(
            uniform_flow(lambda x: 1.0 + 0.2 * np.sin(2 * np.pi * x)), dx=h.dx0
        )
        stepper = AMRStepper(h, solver, regrid_interval=0, initialize=False)
        while stepper.time < 0.5 - 1e-12:
            stepper.step()
        final = h.levels[0].data.to_dense(h.level_domain(0))[0]
        x = (np.arange(n) + 0.5) / n
        exact = 1.0 + 0.2 * np.sin(2 * np.pi * (x - stepper.time))
        return l1_error(final, exact)

    def test_observed_order_is_first(self):
        # The update is one forward-Euler step of the face fluxes (no
        # Hancock predictor), so both reconstructions converge at first
        # order in time on smooth flow: measured 0.92 (order 1) and 1.26
        # (order 2, tending to 1 as the grid refines).  MUSCL lowers the
        # error constant, not the order.
        studies = [
            convergence_order(lambda n: self._density_wave_error(n, order), [32, 64, 128])
            for order in (1, 2)
        ]
        for study in studies:
            assert 0.7 <= study.order <= 1.5
            assert study.errors[0] > study.errors[1] > study.errors[2]
        first, second = studies
        assert all(e2 < 0.5 * e1 for e1, e2 in zip(first.errors, second.errors))
