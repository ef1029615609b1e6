"""Probability density, current, and the discrete continuity balance."""

from __future__ import annotations

import numpy as np

from .calculus import FieldOnCurve, falpha_derivative
from .dynamics import _CHUNK, WaveFunction, _snapshot_spacing

__all__ = [
    "probability_density",
    "probability_current",
    "continuity_residual",
    "total_probability",
]


def probability_density(psi: WaveFunction) -> FieldOnCurve:
    """Pointwise |psi|^2."""
    return psi.field.with_values(np.abs(psi.values) ** 2)


def probability_current(psi: WaveFunction) -> FieldOnCurve:
    """Probability current (hbar/m) Im(psi* dpsi/dS) along the curve.

    This is the flux whose staircase divergence balances the time
    derivative of |psi|^2.  Snapshots are taken on the temporal support,
    where the time-set indicator equals one.
    """
    hbar, m = psi.constants.hbar, psi.constants.mass
    dpsi = falpha_derivative(psi.field).values
    # psi* dpsi in place, a chunk at a time: a conjugate as long as the grid
    # would be the largest temporary of a continuity check
    for start in range(0, len(dpsi), _CHUNK):
        part = dpsi[start:start + _CHUNK]
        np.multiply(np.conj(psi.values[start:start + _CHUNK]), part, out=part)
    return psi.field.with_values((hbar / m) * dpsi.imag)


def continuity_residual(psi_prev: WaveFunction, psi_mid: WaveFunction,
                        psi_next: WaveFunction) -> FieldOnCurve:
    """Pointwise |d(rho)/d(tau) + dJ/dS| from three aligned snapshots."""
    d_tau = _snapshot_spacing(psi_prev, psi_mid, psi_next)
    # dJ first and each density inside one expression: fewer arrays as long
    # as the grid are alive at once
    dj = falpha_derivative(probability_current(psi_mid)).values
    drho = (np.abs(psi_next.values) ** 2 - np.abs(psi_prev.values) ** 2) / (2.0 * d_tau)
    return psi_mid.field.with_values(np.abs(drho + dj))


def total_probability(psi: WaveFunction) -> float:
    """Integral of |psi|^2 against the staircase over the full curve."""
    return psi.norm_squared()
