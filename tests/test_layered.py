"""Layered slabs: the screened solve on a piecewise-constant density against
the exact transfer-matrix reflection.

A classical plasma whose kappa^2 is constant on layers of the slab [-a, 0]
reflects a wavenumber-k field at its inner face with r = (Y_0 - k)/(Y_0 + k),
Y the logarithmic derivative of the potential, carried from Y = k at the far
face (vacuum beyond) through each layer of thickness t, q = sqrt(k^2 +
kappa^2), by Y <- q (Y + q tanh qt) / (q + Y tanh qt) (J. R. Wait,
Electromagnetic Waves in Stratified Media, 1962).  The solver's r is the
screening charge's response to a unit border charge, (k / 2 pi) beta sum e^2
measure V phi; its midpoint cells make the error O(h^2) when the layer edges
lie on cell faces.
"""
import dataclasses

import numpy as np
import pytest

from thermocasimir import screening as scr
from thermocasimir.pipeline import _point_basis


def _exact_reflection(k, layers):
    """r of the layers (kappa^2, thickness), listed from the far face in."""
    y = k
    for kappa2, t in layers:
        q = np.sqrt(k * k + kappa2)
        tq = np.tanh(q * t)
        y = q * (y + q * tq) / (q + y * tq)
    return (y - k) / (y + k)


def _solver_reflection(basis, k):
    v = scr.source_column(basis, 0.0, k)
    phi = scr.assemble_kernel_matrix(basis, k).solve(v)
    return (k / (2.0 * np.pi)) * basis.beta * np.sum(
        basis.charge**2 * basis.measure * v * phi)


def test_transfer_recursion_composes_and_meets_the_half_space():
    k = 0.1
    one = _exact_reflection(k, [(1.0, 6.0)])
    assert abs(_exact_reflection(k, [(1.0, 5.0), (1.0, 1.0)]) - one) <= 1e-15
    q = np.sqrt(k * k + 1.0)
    assert _exact_reflection(k, [(1.0, 40.0)]) == pytest.approx((q - k) / (q + k),
                                                                rel=1e-15)


# kappa = 1 on [-6, 0]; the layered slab has kappa^2 / 4 on [-1, 0], whose
# edge lies on a cell face at every nx here
@pytest.mark.parametrize("layers, surface", [([(1.0, 6.0)], None),
                                             ([(1.0, 5.0), (0.25, 1.0)], 0.25)],
                         ids=["homogeneous", "depleted-surface"])
def test_reflection_error_falls_as_h_squared(layers, surface):
    k = 0.1
    exact = _exact_reflection(k, layers)
    errors = []
    for nx in (24, 48, 96, 192):
        basis = _point_basis(1.0, 6.0, nx)
        if surface is not None:
            basis = dataclasses.replace(
                basis, measure=np.where(basis.x > -1.0, surface, 1.0) * basis.measure)
        errors.append(abs(_solver_reflection(basis, k) - exact))
    assert errors[0] < 1e-3
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine == pytest.approx(4.0, abs=0.2)
