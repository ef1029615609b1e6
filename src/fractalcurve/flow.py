"""Probability density, current, and the discrete continuity balance."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import FieldOnCurve, falpha_derivative, falpha_integral, laplacian
from .dynamics import WaveFunction, _snapshot_spacing

__all__ = [
    "DensityField",
    "CurrentField",
    "probability_density",
    "probability_current",
    "continuity_residual",
    "total_probability",
]

FIRST_DERIVATIVE = "first_derivative"
SECOND_DERIVATIVE = "second_derivative"


@dataclass(eq=False)
class DensityField:
    """Non-negative probability density samples |psi|^2."""

    field: FieldOnCurve

    def __post_init__(self):
        v = np.real(self.field.values)
        if np.any(v < -1e-14):
            raise ValueError("density values must be non-negative")
        self.field = self.field.with_values(np.clip(v, 0.0, None))


@dataclass(eq=False)
class CurrentField:
    """Tangential scalar probability current with its construction flag."""

    field: FieldOnCurve
    form: str = FIRST_DERIVATIVE


def probability_density(psi: WaveFunction) -> DensityField:
    """Pointwise |psi|^2."""
    return DensityField(psi.field.with_values(np.abs(psi.values) ** 2))


def probability_current(psi: WaveFunction, form: str = FIRST_DERIVATIVE) -> CurrentField:
    """Probability current along the curve.

    The default sesquilinear form (hbar/m) Im(psi* dpsi/dS) is the flux
    whose staircase divergence balances the time derivative of |psi|^2.
    ``second_derivative`` instead applies second derivatives inside the
    bracket, (hbar/2mi)[psi (d/dS)^2 psi* - psi* (d/dS)^2 psi], kept for
    comparison; it reproduces the density's time derivative rather than a
    conserved flux.  Snapshots are taken on the temporal support, where
    the time-set indicator equals one.
    """
    hbar, m = psi.constants.hbar, psi.constants.mass
    if form == FIRST_DERIVATIVE:
        dpsi = falpha_derivative(psi.field).values
        j = (hbar / m) * np.imag(np.conj(psi.values) * dpsi)
    elif form == SECOND_DERIVATIVE:
        d2 = laplacian(psi.field).values
        bracket = psi.values * np.conj(d2) - np.conj(psi.values) * d2
        j = np.real(hbar / (2.0 * m * 1j) * bracket)
    else:
        raise ValueError(f"unknown current form {form!r}")
    return CurrentField(psi.field.with_values(j), form=form)


def continuity_residual(psi_prev: WaveFunction, psi_mid: WaveFunction,
                        psi_next: WaveFunction) -> FieldOnCurve:
    """Pointwise |d(rho)/d(tau) + dJ/dS| from three aligned snapshots."""
    d_tau = _snapshot_spacing(psi_prev, psi_mid, psi_next)
    rho_prev = np.abs(psi_prev.values) ** 2
    rho_next = np.abs(psi_next.values) ** 2
    drho = (rho_next - rho_prev) / (2.0 * d_tau)
    j = probability_current(psi_mid).field
    dj = falpha_derivative(j).values
    return psi_mid.field.with_values(np.abs(drho + dj))


def total_probability(psi: WaveFunction) -> float:
    """Integral of |psi|^2 against the staircase over the full curve."""
    return float(falpha_integral(probability_density(psi).field))
