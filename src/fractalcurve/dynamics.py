"""Schrodinger evolution on fractal curves in staircase coordinates.

The conjugacy substitution xi = S(v), tau = S(t) turns the curve
equation into the ordinary 1-D Schrodinger equation

    i hbar d(theta)/d(tau) = -hbar^2/(2m) d^2(theta)/d(xi)^2 + V theta,

which is integrated with a Crank-Nicolson scheme (unitary for Hermitian
discrete Hamiltonians up to linear-solve roundoff).  The implicit
tridiagonal operator is factored once with LAPACK ``zgttrf`` and each
step is one ``zgttrs`` solve; the corner couplings of periodic grids are
folded into a Sherman-Morrison rank-one correction (the cyclic
tridiagonal method).  Cantor-like time supports are honored
implicitly: tau is staircase time, so no evolution is attributed to the
removed gaps where the time staircase is flat.

The single-step kernel propagator applies the infinitesimal free-particle
amplitude exp[i m delta^2 / (2 hbar eps)] as a discrete convolution; its
conditionally convergent moment integrals are evaluated with a small
complex damping eps -> eps (1 - i eta) and extrapolated in eta.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import zgttrf, zgttrs

from .calculus import (
    FieldOnCurve,
    VectorFieldOnCurve,
    _same_knots,
    falpha_integral,
    gradient,
    laplacian,
)
from .curves import CurveGrid
from .errors import (
    AlignmentError,
    ConjugacyError,
    QuadratureError,
    ResolutionError,
    SolverError,
)
from .measure import Staircase

__all__ = [
    "PhysicalConstants",
    "WaveFunction",
    "PotentialOnCurve",
    "PlaneWaveParams",
    "KernelStep",
    "ConjugateField",
    "conjugate_map",
    "conjugate_unmap",
    "CrankNicolsonEvolver",
    "evolve",
    "kernel_step",
    "kernel_moments",
    "hamiltonian_apply",
    "momentum_apply",
    "plane_wave",
    "gaussian_packet",
    "stationary_ground_state",
    "schrodinger_residual",
    "fit_phase_rate",
]


@dataclass(frozen=True)
class PhysicalConstants:
    """Reduced Planck constant and particle mass (natural units by default)."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if not (self.hbar > 0 and self.mass > 0):
            raise ValueError("hbar and mass must be strictly positive")


@dataclass(eq=False)
class WaveFunction:
    """Complex field on a curve together with its charts and staircase time."""

    field: FieldOnCurve
    time_chart: Staircase | None = None
    tau: float = 0.0
    constants: PhysicalConstants = dataclass_field(default_factory=PhysicalConstants)

    def __post_init__(self):
        if not self.field.is_complex:
            self.field = self.field.with_values(self.field.values.astype(complex))

    @property
    def grid(self) -> CurveGrid:
        return self.field.grid

    @property
    def space_chart(self) -> Staircase:
        return self.field.chart

    @property
    def values(self) -> np.ndarray:
        return self.field.values

    def with_values(self, values, tau: float | None = None) -> "WaveFunction":
        return WaveFunction(
            field=self.field.with_values(np.asarray(values, dtype=complex)),
            time_chart=self.time_chart,
            tau=self.tau if tau is None else tau,
            constants=self.constants,
        )

    def norm_squared(self) -> float:
        dens = self.field.with_values(np.abs(self.values) ** 2)
        return float(falpha_integral(dens))

    def normalized(self) -> "WaveFunction":
        n2 = self.norm_squared()
        if n2 <= 0:
            raise ValueError("cannot normalize a zero state")
        return self.with_values(self.values / math.sqrt(n2))

    def wall_time(self) -> float:
        """Physical time on the temporal support for the current staircase time."""
        if self.time_chart is None:
            return self.tau
        return float(self.time_chart.inverse(self.tau))


@dataclass(eq=False)
class PotentialOnCurve:
    """Real potential samples at curve nodes, optionally modulated in tau."""

    field: FieldOnCurve
    time_dependence: "object" = None  # callable tau -> multiplier, or None

    def __post_init__(self):
        if self.field.is_complex:
            if np.any(self.field.values.imag != 0.0):
                raise ValueError("potential must be real-valued")
            self.field = self.field.with_values(self.field.values.real)

    def values_at(self, tau: float) -> np.ndarray:
        if self.time_dependence is None:
            return self.field.values
        return self.field.values * float(self.time_dependence(tau))

    @property
    def is_static(self) -> bool:
        return self.time_dependence is None


@dataclass(frozen=True)
class PlaneWaveParams:
    """Amplitudes and dispersion data of the analytic plane-wave solution."""

    A: complex
    B: complex
    k: float
    beta: float
    E: float

    @classmethod
    def from_wavenumber(cls, k: float, A=1.0, B=0.0,
                        constants: PhysicalConstants = PhysicalConstants()):
        E = (constants.hbar * k) ** 2 / (2.0 * constants.mass)
        return cls(A=complex(A), B=complex(B), k=float(k), beta=E / constants.hbar, E=E)

    @classmethod
    def from_energy(cls, E: float, A=1.0, B=0.0,
                    constants: PhysicalConstants = PhysicalConstants()):
        if E < 0:
            raise ValueError("plane-wave energy must be non-negative")
        k = math.sqrt(2.0 * constants.mass * E) / constants.hbar
        return cls(A=complex(A), B=complex(B), k=k, beta=E / constants.hbar, E=E)

    def validate(self, constants: PhysicalConstants):
        E_k = (constants.hbar * self.k) ** 2 / (2.0 * constants.mass)
        if abs(E_k - self.E) > 1e-9 * max(1.0, abs(self.E)):
            raise ValueError("k and E violate k = sqrt(2 m E) / hbar")
        if abs(self.beta - self.E / constants.hbar) > 1e-9 * max(1.0, abs(self.beta)):
            raise ValueError("beta and E violate beta = E / hbar")


@dataclass(eq=False)
class KernelStep:
    """One infinitesimal free-propagator application in staircase time.

    ``normalization`` is the analytic amplitude sqrt(2 i pi hbar eps / m)
    on the principal branch (phase pi/4); ``damping_eta`` rotates eps to
    eps (1 - i eta) so the oscillatory kernel integrals converge.
    """

    epsilon: float
    constants: PhysicalConstants = dataclass_field(default_factory=PhysicalConstants)
    damping_eta: float = 1e-4
    normalization: complex = dataclass_field(init=False)

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not 0.0 < self.damping_eta <= 1e-2:
            raise ValueError("damping_eta must lie in (0, 1e-2]")
        self.normalization = cmath.sqrt(
            2j * math.pi * self.constants.hbar * self.epsilon / self.constants.mass
        )

    def width(self) -> float:
        """Natural kernel width sqrt(hbar eps / m)."""
        return math.sqrt(self.constants.hbar * self.epsilon / self.constants.mass)


@dataclass(eq=False)
class ConjugateField:
    """Samples of the conjugate function theta on a uniform xi grid."""

    xi: np.ndarray
    values: np.ndarray
    periodic: bool = False

    def __post_init__(self):
        self.xi = np.asarray(self.xi, dtype=float)
        self.values = np.asarray(self.values)

    @property
    def dxi(self) -> float:
        return float(self.xi[1] - self.xi[0])

    @property
    def span(self) -> float:
        """Domain length: the wrap period for periodic grids."""
        if self.periodic:
            return self.dxi * len(self.xi)
        return float(self.xi[-1] - self.xi[0])


def _dedup_plateaus(s: np.ndarray, y: np.ndarray):
    """Keep the left sample of every staircase plateau for interpolation."""
    keep = np.concatenate([[True], np.diff(s) > 0])
    return s[keep], y[keep]


def _is_node_grid(s: np.ndarray, m: int, periodic: bool) -> bool:
    """Whether an m-point uniform xi grid over the chart values s is the node grid.

    It is when the chart increments are uniform (within 1e-9 of their mean)
    and there is one xi point per node, less the seam node on periodic
    grids; values then move between the two grids by copying.
    """
    if m != len(s) - periodic:
        return False
    ds = np.diff(s)
    return bool(np.all(ds > 0) and (ds.max() - ds.min()) <= 1e-9 * ds.mean())


def _field_to_conjugate(field: FieldOnCurve, num_points=None, periodic=False) -> ConjugateField:
    s = field.chart.values
    if s[-1] - s[0] <= 0:
        raise ConjugacyError("the staircase chart is constant; no conjugate chart exists")
    m = int(num_points) if num_points else len(s) - periodic
    if m < 2:
        raise ConjugacyError("need at least 2 xi points")
    # a periodic grid stops one cell short of the seam, its wrap image
    xi = np.linspace(s[0], s[-1], m + periodic)[:m]
    if _is_node_grid(s, m, periodic):
        theta = field.values[:m].copy()
    else:
        theta = np.interp(xi, *_dedup_plateaus(s, field.values))
    return ConjugateField(xi=xi, values=theta, periodic=periodic)


def conjugate_map(psi: WaveFunction, num_points=None, periodic: bool = False) -> ConjugateField:
    """Resample psi onto a uniform grid in xi = S(v).

    Periodic grids drop the seam node: the final curve node is the wrap
    image of the first.  When the chart increments are uniform to 1e-9 of
    their mean and ``num_points`` is the node count less the seam node (the
    default), the map copies the node values and the round trip through
    :func:`conjugate_unmap` is exactly the identity (the seam node takes the
    first node's value); otherwise values are linearly interpolated in xi.
    """
    return _field_to_conjugate(psi.field, num_points=num_points, periodic=periodic)


def conjugate_unmap(conj: ConjugateField, like: WaveFunction,
                    tau: float | None = None) -> WaveFunction:
    """Map conjugate values back to the curve nodes: a copy on the node grid, else interpolation."""
    s = like.space_chart.values
    span = s[-1] - s[0]
    seam = slice(0, int(conj.periodic))  # the first xi point, wrapped to the seam node
    values = np.concatenate([conj.values, conj.values[seam]])
    # uniform-to-1e-9 increments leave the nodes within 1e-9 * span of a uniform grid
    if not (abs(conj.xi[0] - s[0]) <= 1e-9 * span and abs(conj.span - span) <= 1e-9 * span
            and _is_node_grid(s, len(conj.xi), conj.periodic)):
        values = np.interp(s, np.concatenate([conj.xi, conj.xi[seam] + conj.span]), values)
    return like.with_values(values, tau=like.tau if tau is None else tau)


def _potential_on_xi(potential: PotentialOnCurve | None, chart: Staircase,
                     xi: np.ndarray) -> np.ndarray:
    if potential is None:
        return np.zeros_like(xi)
    sd, vd = _dedup_plateaus(chart.values, potential.field.values)
    return np.interp(xi, sd, vd)


class CrankNicolsonEvolver:
    """Stateful Crank-Nicolson integrator in conjugate coordinates.

    Holds theta on the uniform xi grid between steps; snapshots map back
    to curve nodes without disturbing the internal state, so stop-resume
    sequences agree with straight-through runs.
    """

    def __init__(self, psi: WaveFunction, potential: PotentialOnCurve | None = None,
                 d_tau: float = 1e-3, boundary: str = "dirichlet", xi_points=None):
        if not (math.isfinite(d_tau) and d_tau > 0):
            raise ValueError("d_tau must be finite and positive")
        if boundary not in ("dirichlet", "periodic"):
            raise ValueError("boundary must be 'dirichlet' or 'periodic'")
        self.boundary = boundary
        self.d_tau = float(d_tau)
        self.template = psi
        self.constants = psi.constants
        self.potential = potential
        conj = conjugate_map(psi, num_points=xi_points, periodic=(boundary == "periodic"))
        self.xi = conj.xi
        self.dxi = conj.dxi
        self.theta = conj.values.astype(complex)
        self.tau = float(psi.tau)
        self.v_base = _potential_on_xi(potential, psi.space_chart, self.xi)
        hbar, m = self.constants.hbar, self.constants.mass
        self._off = -hbar ** 2 / (2.0 * m * self.dxi ** 2)
        self._lam = self.d_tau / (2.0 * hbar)
        if boundary == "dirichlet":
            self.theta[0] = 0.0
            self.theta[-1] = 0.0
            self._dof = slice(1, -1)
        else:
            self._dof = slice(None)
        self._assemble(self.tau)

    def _v_at(self, tau: float) -> np.ndarray:
        if self.potential is None or self.potential.is_static:
            return self.v_base
        return self.v_base * float(self.potential.time_dependence(tau))

    def _assemble(self, tau: float):
        """Factor the implicit operator for the step starting at tau.

        A = I + i lam H is tridiagonal on the degrees of freedom, plus the
        two corner couplings c on periodic grids.  Those are written as
        A = T + u v^T with u = (g, 0, ..., 0, c), v = (1, 0, ..., 0, c/g)
        and g = -A[0, 0], so T differs from A's band only in its first
        and last diagonal entries (T[0, 0] = 2 A[0, 0] suffers no
        cancellation); z = T^-1 u is solved here once.
        """
        periodic = self.boundary == "periodic"
        diag = (-2.0 * self._off + self._v_at(tau))[self._dof]
        n = len(diag)
        if n < 3:
            raise SolverError(
                f"{self.boundary} Crank-Nicolson needs at least 3 unknowns, got {n}")
        lam = self._lam
        c = 1j * lam * self._off
        a_diag = 1.0 + 1j * lam * diag
        self._b_diag = 1.0 - 1j * lam * diag
        self._b_off = -1j * lam * self._off
        if periodic:
            g = -a_diag[0]
            a_diag[0] -= g
            a_diag[-1] -= c * c / g
        *lu, info = zgttrf(np.full(n - 1, c), a_diag, np.full(n - 1, c),
                           overwrite_dl=1, overwrite_d=1, overwrite_du=1)
        if info != 0:
            raise SolverError(f"Crank-Nicolson factorization failed (LAPACK info {info})")
        self._lu = lu
        if periodic:
            u = np.zeros(n, dtype=complex)
            u[0], u[-1] = g, c
            z, _ = zgttrs(*lu, u, overwrite_b=1)
            self._v_last = c / g
            self._z = z / (1.0 + z[0] + self._v_last * z[-1])

    def step(self, n: int = 1):
        """Advance n Crank-Nicolson steps of d_tau in staircase time."""
        static = self.potential is None or self.potential.is_static
        periodic = self.boundary == "periodic"
        rhs = np.empty_like(self._b_diag)
        b_th = np.empty_like(self._b_diag)
        for _ in range(n):
            if not static:
                self._assemble(self.tau)
            th = self.theta[self._dof]
            np.multiply(self._b_diag, th, out=rhs)
            np.multiply(self._b_off, th, out=b_th)
            rhs[1:] += b_th[:-1]
            rhs[:-1] += b_th[1:]
            if periodic:
                rhs[0] += b_th[-1]
                rhs[-1] += b_th[0]
            x, _ = zgttrs(*self._lu, rhs, overwrite_b=1)
            if periodic:
                x -= np.multiply(self._z, x[0] + self._v_last * x[-1], out=b_th)
            self.theta[self._dof] = x
            self.tau += self.d_tau
        return self

    def conjugate_state(self) -> ConjugateField:
        return ConjugateField(self.xi, self.theta.copy(), periodic=(self.boundary == "periodic"))

    def snapshot(self) -> WaveFunction:
        return conjugate_unmap(self.conjugate_state(), self.template, tau=self.tau)


def evolve(psi: WaveFunction, potential: PotentialOnCurve | None, d_tau: float,
           steps: int, boundary: str = "dirichlet", xi_points=None) -> WaveFunction:
    """Crank-Nicolson evolution by ``steps`` increments of staircase time d_tau."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    ev = CrankNicolsonEvolver(psi, potential, d_tau, boundary=boundary, xi_points=xi_points)
    ev.step(steps)
    return ev.snapshot()


_MAX_KERNEL_IMAGES = 4000


def kernel_step(psi: WaveFunction, step: KernelStep, xi_points=None) -> WaveFunction:
    """Single free-propagator convolution step on the periodic xi grid.

    The convolution kernel is the periodization (method of images) of the
    damped amplitude exp[i m delta^2 / (2 hbar eps (1 - i eta))]; images
    are summed out to the damping cutoff.  The discrete kernel is
    normalized by its own zeroth moment, which enforces the defining
    identity "constant in, constant out" exactly; the discrete normalizer
    approaches ``step.normalization / dxi`` as the damping vanishes and
    the grid refines.
    """
    conj = conjugate_map(psi, num_points=xi_points, periodic=True)
    m = len(conj.xi)
    dxi = conj.dxi
    if step.width() < 4.0 * dxi:
        raise ResolutionError(
            f"kernel width {step.width():.3e} spans fewer than 4 grid cells "
            f"(dxi = {dxi:.3e}); refine the grid or enlarge epsilon"
        )
    span = conj.span
    delta = dxi * np.arange(m)
    delta[delta > span / 2.0] -= span
    hbar, mass = step.constants.hbar, step.constants.mass
    eps_c = step.epsilon * (1.0 - 1j * step.damping_eta)
    b = 1j * mass / (2.0 * hbar * eps_c)
    # decay radius of |exp(b delta^2)| down to exp(-25)
    cutoff = math.sqrt(25.0 / -b.real)
    images = int(math.ceil(cutoff / span))
    if images > _MAX_KERNEL_IMAGES:
        raise ResolutionError(
            f"damped kernel extends over {images} periods of the xi domain; "
            "increase damping_eta or shrink epsilon"
        )
    kern = np.zeros(m, dtype=complex)
    for j in range(-images, images + 1):
        kern += np.exp(b * (delta + j * span) ** 2)
    normalizer = np.sum(kern)
    theta_new = np.fft.ifft(np.fft.fft(kern) * np.fft.fft(conj.values)) / normalizer
    out = ConjugateField(conj.xi, theta_new, periodic=True)
    return conjugate_unmap(out, psi, tau=psi.tau + step.epsilon)


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss_legendre(n: int):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


_MAX_PANELS = 2_000_000
_BLOCK_PANELS = 1 << 14  # panels whose nodes exist at once (about 0.4M nodes)


def _kernel_panels(step: KernelStep, eta: float, tail: float = 25.0):
    """Kernel exponent b, damping cutoff and oscillation panel count at eta.

    Raises :class:`QuadratureError` when the panel budget is exceeded, so
    callers can reject a too-small damping before any quadrature runs.
    """
    hbar, mass = step.constants.hbar, step.constants.mass
    eps_c = step.epsilon * (1.0 - 1j * eta)
    b = 1j * mass / (2.0 * hbar * eps_c)
    re_b, im_b = b.real, abs(b.imag)
    if re_b >= 0:
        raise QuadratureError("damping must make the kernel decay", {"b": b})
    delta_max = math.sqrt(tail / -re_b)
    panels = max(4, int(math.ceil(im_b * delta_max ** 2 / (2.0 * math.pi))))
    if panels > _MAX_PANELS:
        raise QuadratureError(
            f"damping eta={eta:g} needs {panels} oscillation panels; too small to quadrate",
            diagnostics={"panels": panels, "eta": eta},
        )
    return b, delta_max, panels


def _raw_kernel_moments(step: KernelStep, eta: float, nodes_per_panel: int = 12,
                        tail: float = 25.0):
    """Phase-adapted composite Gauss-Legendre quadrature of the kernel moments.

    Panels follow the quadratic phase (one 2*pi oscillation each) out to
    the damping cutoff exp(-tail), so the oscillation is always resolved.
    The sums run over blocks of panels to bound memory; each block holds
    its panels on both sides of zero, so the odd moment is quadrated, not
    assumed to vanish.
    """
    b, delta_max, panels = _kernel_panels(step, eta, tail)
    edges = np.sqrt(2.0 * math.pi * np.arange(panels + 1) / abs(b.imag))
    edges[-1] = delta_max
    gl_x, gl_w = _gauss_legendre(nodes_per_panel)
    m0 = m1 = m2 = 0j
    for lo in range(0, panels, _BLOCK_PANELS):
        block = edges[lo:lo + _BLOCK_PANELS + 1]
        half = 0.5 * np.diff(block)
        mid = 0.5 * (block[:-1] + block[1:])
        pos = mid[:, None] + half[:, None] * gl_x[None, :]
        wts = half[:, None] * gl_w[None, :]
        nodes = np.concatenate([-pos.ravel()[::-1], pos.ravel()])
        weights = np.concatenate([wts.ravel()[::-1], wts.ravel()])
        kern = np.exp(b * nodes ** 2)
        m0 += np.sum(weights * kern)
        m1 += np.sum(weights * nodes * kern)
        m2 += np.sum(weights * (0.5 * nodes ** 2) * kern)
    a = step.normalization
    return complex(m0 / a), complex(m1 / a), complex(m2 / a)


def kernel_moments(step: KernelStep, extrapolate: bool = True,
                   nodes_per_panel: int = 12) -> tuple[complex, complex, complex]:
    """Numerical moments of the normalized kernel: weights 1, delta, delta^2/2.

    With ``extrapolate`` (default) the damped values at 2*eta and eta are
    linearly extrapolated to zero damping, where the moments approach 1,
    0 and i hbar eps / (2 m).  With ``extrapolate=False`` the single raw
    damped value at eta is returned (bias linear in eta), which is what
    the eta-refinement studies examine.

    The panel scheme is validated once per call by re-running a cheap
    large-damping quadrature at a higher Gauss-Legendre order; failure
    raises :class:`QuadratureError` with the diagnostic values.
    """
    eta = step.damping_eta
    _kernel_panels(step, eta)  # the smallest damping needs the most panels
    check_eta = 8.0 * eta
    check_lo = _raw_kernel_moments(step, check_eta, nodes_per_panel=nodes_per_panel)
    check_hi = _raw_kernel_moments(step, check_eta, nodes_per_panel=nodes_per_panel + 4)
    drift = max(abs(a - b) for a, b in zip(check_lo, check_hi))
    scale = max(1e-300, abs(check_hi[0]))
    if drift > 1e-8 * scale:
        raise QuadratureError(
            "kernel moment quadrature did not converge under node refinement",
            diagnostics={"coarse": check_lo, "fine": check_hi, "drift": drift},
        )
    at_eta = _raw_kernel_moments(step, eta, nodes_per_panel=nodes_per_panel)
    if not extrapolate:
        return at_eta
    at_2eta = _raw_kernel_moments(step, 2.0 * eta, nodes_per_panel=nodes_per_panel)
    return tuple(2.0 * a - b for a, b in zip(at_eta, at_2eta))


def hamiltonian_apply(psi: WaveFunction, potential: PotentialOnCurve | None = None) -> WaveFunction:
    """Spatial Hamiltonian action -hbar^2/(2m) (d/dS)^2 psi + V psi at the nodes."""
    hbar, m = psi.constants.hbar, psi.constants.mass
    out = -(hbar ** 2) / (2.0 * m) * laplacian(psi.field).values
    if potential is not None:
        out = out + potential.values_at(psi.tau) * psi.values
    return psi.with_values(out)


def momentum_apply(psi: WaveFunction, grid: CurveGrid | None = None) -> VectorFieldOnCurve:
    """Momentum operator -i hbar grad applied to psi."""
    grad = gradient(psi.field, grid)
    scaled = -1j * psi.constants.hbar * grad.values
    return VectorFieldOnCurve.from_array(grad.grid, scaled, grad.chart)


def plane_wave(params: PlaneWaveParams, grid: CurveGrid, space_chart: Staircase,
               time_chart: Staircase | None = None, tau: float = 0.0,
               constants: PhysicalConstants = PhysicalConstants()) -> WaveFunction:
    """Analytic solution (A e^{ikS} + B e^{-ikS}) e^{-i beta tau} sampled at the nodes."""
    params.validate(constants)
    s = space_chart.values
    values = (params.A * np.exp(1j * params.k * s)
              + params.B * np.exp(-1j * params.k * s)) * cmath.exp(-1j * params.beta * tau)
    field = FieldOnCurve(grid, values, space_chart)
    return WaveFunction(field=field, time_chart=time_chart, tau=tau, constants=constants)


def gaussian_packet(grid: CurveGrid, space_chart: Staircase, center: float, sigma: float,
                    k0: float = 0.0, time_chart: Staircase | None = None,
                    constants: PhysicalConstants = PhysicalConstants(),
                    normalize: bool = True) -> WaveFunction:
    """Gaussian wave packet exp(-(S-center)^2/(4 sigma^2) + i k0 S).

    ``sigma`` is the standard deviation of the probability density in the
    staircase coordinate.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    s = space_chart.values
    values = np.exp(-((s - center) ** 2) / (4.0 * sigma ** 2) + 1j * k0 * s)
    psi = WaveFunction(FieldOnCurve(grid, values, space_chart),
                       time_chart=time_chart, constants=constants)
    return psi.normalized() if normalize else psi


def stationary_ground_state(grid: CurveGrid, space_chart: Staircase,
                            potential: PotentialOnCurve,
                            constants: PhysicalConstants = PhysicalConstants(),
                            time_chart: Staircase | None = None,
                            xi_points=None) -> WaveFunction:
    """Ground state of the discrete Dirichlet Hamiltonian used by the evolver.

    Being an exact eigenvector of the Crank-Nicolson operator, its modulus
    is stationary under :func:`evolve` up to linear-solve roundoff.
    """
    zero = WaveFunction(FieldOnCurve.constant(grid, space_chart, 0.0 + 0.0j),
                        time_chart=time_chart, constants=constants)
    conj = _field_to_conjugate(zero.field, num_points=xi_points, periodic=False)
    v = _potential_on_xi(potential, space_chart, conj.xi)
    hbar, m = constants.hbar, constants.mass
    off = -hbar ** 2 / (2.0 * m * conj.dxi ** 2)
    diag = -2.0 * off + v
    vals, vecs = eigh_tridiagonal(diag[1:-1], np.full(len(conj.xi) - 3, off),
                                  select="i", select_range=(0, 0))
    theta = np.zeros(len(conj.xi), dtype=complex)
    theta[1:-1] = vecs[:, 0]
    psi = conjugate_unmap(ConjugateField(conj.xi, theta), zero, tau=0.0)
    return psi.normalized()


def _snapshot_spacing(psi_prev: WaveFunction, psi_mid: WaveFunction,
                      psi_next: WaveFunction) -> float:
    """Staircase-time step d_tau of three snapshots on one grid, equally spaced in tau."""
    for other in (psi_mid, psi_next):
        if not _same_knots(other.grid.params, psi_prev.grid.params):
            raise AlignmentError("snapshots live on different grids")
    d1 = psi_mid.tau - psi_prev.tau
    d2 = psi_next.tau - psi_mid.tau
    if d1 <= 0 or abs(d1 - d2) > 1e-12 * max(d1, d2):
        raise AlignmentError("snapshots must be equally spaced in staircase time")
    return d1


def schrodinger_residual(psi_prev: WaveFunction, psi_mid: WaveFunction,
                         psi_next: WaveFunction,
                         potential: PotentialOnCurve | None = None) -> FieldOnCurve:
    """Pointwise |i hbar d(psi)/d(tau) - H psi| from three aligned snapshots."""
    d_tau = _snapshot_spacing(psi_prev, psi_mid, psi_next)
    hbar = psi_mid.constants.hbar
    dt_psi = (psi_next.values - psi_prev.values) / (2.0 * d_tau)
    lhs = 1j * hbar * dt_psi
    rhs = hamiltonian_apply(psi_mid, potential).values
    return psi_mid.field.with_values(np.abs(lhs - rhs))


def fit_phase_rate(snapshots: list[WaveFunction]) -> float:
    """Global phase rate beta from -arg increments of successive snapshots.

    Assumes the phase advance between consecutive snapshots stays below pi.
    """
    if len(snapshots) < 2:
        raise ValueError("need at least two snapshots")
    total = 0.0
    for a, b in zip(snapshots, snapshots[1:]):
        total += cmath.phase(np.sum(b.values * np.conj(a.values)))
    span = snapshots[-1].tau - snapshots[0].tau
    if span <= 0:
        raise ValueError("snapshots must advance in staircase time")
    return -total / span
