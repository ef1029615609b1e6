"""Schrodinger evolution on fractal curves in staircase coordinates.

The conjugacy substitution xi = S(v), tau = S(t) turns the curve
equation into the ordinary 1-D Schrodinger equation

    i hbar d(theta)/d(tau) = -hbar^2/(2m) d^2(theta)/d(xi)^2 + V theta,

which is discretized on the nodes' own chart values xi_j = S(v_j), so
nothing is resampled, and integrated with a Crank-Nicolson scheme
(unitary for Hermitian discrete Hamiltonians up to linear-solve
roundoff) in Cayley form: with A = I + i lam H the explicit operator is
B = 2I - A, so a step A^-1 B phi = 2 A^-1 phi - phi is one solve and one
axpy, phi being theta scaled by the square roots of the node weights.  A is
tridiagonal but for the corner couplings of periodic grids.  It is split
as A = T + U V^T: T is block-diagonal tridiagonal, each block factored
with LAPACK ``zgttrf`` and solved with ``zgttrs``, and each coupling
c = A[p, q] = A[q, p] that T leaves out (a *cut edge*: the periodic seam,
and the middle edge of a grid of at least ``_N_SPLIT`` unknowns) is one
symmetric rank-one term c v v^T with v = e_p + e_q.  T = I + i lam H' with
H' real and symmetric, so T is normal and |T^-1| <= 1 at any V.  The cut
terms are folded in by the Woodbury identity: the spikes W = T^-1 U are
solved with the factors, and each step solves the at most 2 x 2 system
(I + V^T W) t = V^T y once, on scalars.
Large grids are thus stepped as two blocks, one per thread; the blocks
meet at one barrier per step, of as many parties as blocks, whose action
solves that system.  The block count depends on the unknown count alone,
so results do not depend on the CPU count.  Cantor-like time supports
are honored implicitly: tau is staircase time, so no evolution is
attributed to the removed gaps where the time staircase is flat.

The single-step kernel propagator applies the infinitesimal free-particle
amplitude exp[i m delta^2 / (2 hbar eps)] as a discrete convolution; its
conditionally convergent moment integrals are evaluated with a small
complex damping eps -> eps (1 - i eta) and extrapolated in eta.
"""

from __future__ import annotations

import cmath
import functools
import importlib.machinery
import importlib.util
import math
import os
import threading
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .calculus import (
    FieldOnCurve,
    VectorFieldOnCurve,
    _check_plateaus,
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
    """Complex field on a curve together with its space chart and staircase time tau."""

    field: FieldOnCurve
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
            tau=self.tau if tau is None else tau,
            constants=self.constants,
        )

    def norm_squared(self) -> float:
        dens = self.field.with_values(np.abs(self.values) ** 2)
        return float(falpha_integral(dens))

    def normalized(self) -> "WaveFunction":
        n2 = self.norm_squared()
        if not 0 < n2 < math.inf:
            raise ValueError(f"cannot normalize a state of squared norm {n2}")
        return self.with_values(self.values / math.sqrt(n2))


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
        if not np.all(np.isfinite(self.field.values)):
            raise ValueError("potential values must be finite")

    def modulation(self, tau: float) -> float:
        """Multiplier of the samples at tau; a non-finite one raises ValueError."""
        factor = float(self.time_dependence(tau))
        if not math.isfinite(factor):
            raise ValueError(f"potential time dependence is {factor} at tau={tau!r}")
        return factor

    def values_at(self, tau: float) -> np.ndarray:
        if self.time_dependence is None:
            return self.field.values
        return self.field.values * self.modulation(tau)

    @property
    def is_static(self) -> bool:
        return self.time_dependence is None


@dataclass(frozen=True)
class PlaneWaveParams:
    """Amplitudes A, B and wavenumber k of the analytic plane-wave solution.

    k fixes the energy E = (hbar k)^2 / (2 m) and the phase rate
    beta = E / hbar.  Construction raises ``ValueError`` unless k and E
    are finite.
    """

    A: complex
    B: complex
    k: float
    constants: PhysicalConstants = PhysicalConstants()

    def __post_init__(self):
        if not (math.isfinite(self.k) and math.isfinite(self.E)):
            raise ValueError("plane-wave k and E must be finite")

    @property
    def E(self) -> float:
        """(hbar k)^2 / (2 m), or inf where the square leaves the float range."""
        try:  # a Python float square raises where a numpy one only warns
            return (self.constants.hbar * float(self.k)) ** 2 / (2.0 * self.constants.mass)
        except OverflowError:
            return math.inf

    @property
    def beta(self) -> float:
        return self.E / self.constants.hbar

    @classmethod
    def from_wavenumber(cls, k: float, A=1.0, B=0.0,
                        constants: PhysicalConstants = PhysicalConstants()):
        return cls(A=complex(A), B=complex(B), k=float(k), constants=constants)

    @classmethod
    def from_energy(cls, E: float, A=1.0, B=0.0,
                    constants: PhysicalConstants = PhysicalConstants()):
        E = float(E)
        if E < 0:
            raise ValueError("plane-wave energy must be non-negative")
        k = math.sqrt(2.0 * constants.mass * E) / constants.hbar
        return cls(A=complex(A), B=complex(B), k=k, constants=constants)


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


def _xi_hamiltonian(chart: Staircase, constants: PhysicalConstants,
                    potential: PotentialOnCurve | None, periodic: bool):
    """The one discrete H = -hbar^2/(2m) d^2/dxi^2 + V, on the nodes' own chart values xi = S(v).

    With the chart increments h_j and the trapezoid weights
    w_j = (h_(j-1) + h_j) / 2 of :func:`falpha_integral` (wrapped at the
    seam on periodic grids), the stiffness K couples neighbours by
    -hbar^2 / (2m h_j), and H = W^-1/2 K W^-1/2 + V is real, symmetric and
    tridiagonal in phi = W^1/2 theta.  Returns the unknowns (the nodes less
    the seam node if periodic, else the interior), sqrt(w) and the kinetic
    diagonal on them, the couplings of successive unknowns (followed, on
    periodic grids, by the corner coupling of the last and the first) and
    V at the nodes.  W^-1 K is :func:`laplacian`'s interior stencil times
    -hbar^2 / (2m), so the evolver steps with :func:`hamiltonian_apply`.
    """
    _check_plateaus(chart)
    h = chart.increments
    dof = slice(0, -1) if periodic else slice(1, -1)
    # edge j joins nodes j and j + 1; on periodic grids the last edge ends
    # on the seam node, the wrap image of node 0
    h_left, h_right = (np.roll(h, 1), h) if periodic else (h[:-1], h[1:])
    n = len(h_right)
    if n < 3:
        raise SolverError(f"a {'periodic' if periodic else 'dirichlet'} xi grid needs "
                          f"at least 3 unknowns, got {n}")
    c = constants.hbar ** 2 / (2.0 * constants.mass)
    w = 0.5 * (h_left + h_right)
    sqrt_w = np.sqrt(w)
    kinetic = c * (1.0 / h_left + 1.0 / h_right) / w
    edges = h if periodic else h[1:-1]
    off = -c / (edges * (sqrt_w * np.roll(sqrt_w, -1))[:len(edges)])
    v = np.zeros(len(h) + 1) if potential is None else potential.field.values
    return dof, sqrt_w, kinetic, off, v


def _check_xi_points(xi_points, count: int):
    """``xi_points`` may only restate the xi point count that the grid fixes."""
    if xi_points is not None and xi_points != count:
        raise ConjugacyError(f"the grid fixes {count} xi points, not {xi_points!r}: "
                             "H is discretized on the nodes' own chart values")


@functools.cache
def _lapack():
    """scipy's compiled LAPACK module ``scipy.linalg._flapack``, loaded from its file.

    The steps need its ``zgttrf`` and ``zgttrs``, the ground state ``dpttrf``
    and ``dpttrs`` and, to fall back, ``dstebz`` and ``dstein``.  It
    loads in a few ms; importing the ``scipy.linalg`` package around it would
    cost about 0.3 s and 20 MB, so the parent packages are never imported (nor
    found through ``importlib.util.find_spec``, which imports them).  It is
    private to scipy: tests pin its contract against ``scipy.linalg.lapack``.
    """
    top = importlib.util.find_spec("scipy")
    spec = None if top is None else importlib.machinery.PathFinder.find_spec(
        "scipy.linalg._flapack",
        [os.path.join(d, "linalg") for d in top.submodule_search_locations])
    if spec is None:
        from importlib.metadata import PackageNotFoundError, version

        try:
            installed = version("scipy")
        except PackageNotFoundError:
            installed = "(not installed)"
        raise SolverError(f"scipy {installed} has no LAPACK extension scipy.linalg._flapack")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Grids of at least this many unknowns are stepped as two blocks, one per
# thread.  Measured per unknown and step (1 block / 2 blocks, median of 9
# alternating runs, harmonic V on a line, 2-core Xeon): 4095 Dirichlet
# 25.1 / 39.2 ns and 4096 periodic 27.0 / 40.1 ns, where the barrier costs
# more than the second core saves; 12287 / 12288 unknowns 22.5 / 23.5 and
# 25.9 / 23.2 ns, the crossover; 16383 / 16384 unknowns 24.2 / 19.9 and
# 26.2 / 23.2 ns; 65535 / 65536 unknowns 22.9 / 15.6 and 27.1 / 18.5 ns;
# 262143 / 262144 unknowns 24.6 / 14.5 and 26.3 / 16.2 ns.
_N_SPLIT = 1 << 14

# the updates after a solve, and flow's psi* dpsi, run a chunk of this many
# values at a time: the chunk's operands stay in cache, and a step, which
# holds a buffer of this size, allocates no array
_CHUNK = 1 << 14


def _solve_woodbury(m, s) -> list:
    """t with M t = s, M at most 2 x 2, by elimination on Python scalars."""
    if len(s) < 2:
        return [sj / m[0][0] for sj in s]
    r = m[1][0] / m[0][0]
    t1 = (s[1] - r * s[0]) / (m[1][1] - r * m[0][1])
    return [(s[0] - m[0][1] * t1) / m[0][0], t1]


class CrankNicolsonEvolver:
    """Stateful Crank-Nicolson integrator in conjugate coordinates.

    Holds phi = W^1/2 theta on the unknowns between steps, where theta is
    psi on the nodes' own chart values xi = S(v); snapshots map back to
    the nodes without disturbing the internal state, so stop-resume
    sequences agree with straight-through runs.  ``xi`` holds the xi
    points: the nodes less the seam node if periodic.

    A grid of at least ``_N_SPLIT`` unknowns is stepped as two blocks:
    each ``step(n)`` call runs the second block on a thread of its own,
    joined before it returns.  On a grid with a cut, every block, a lone
    one too, meets the others at one barrier per step, whose action
    solves the cut system for all.  A time-dependent potential's ``time_dependence`` is then
    called from both threads, so it must be a function of tau alone.
    """

    def __init__(self, psi: WaveFunction, potential: PotentialOnCurve | None = None,
                 d_tau: float = 1e-3, boundary: str = "dirichlet"):
        if not (math.isfinite(d_tau) and d_tau > 0):
            raise ValueError("d_tau must be finite and positive")
        if boundary not in ("dirichlet", "periodic"):
            raise ValueError("boundary must be 'dirichlet' or 'periodic'")
        self.boundary = boundary
        self.d_tau = float(d_tau)
        # the grid, chart, constants and tau of psi, with none of its values
        self.template = psi.with_values(np.broadcast_to(np.complex128(0.0), psi.values.shape))
        self.constants = psi.constants
        self.potential = potential
        periodic = boundary == "periodic"
        self._dof, self._sqrt_w, kinetic, off, v = _xi_hamiltonian(
            psi.space_chart, psi.constants, potential, periodic)
        self.xi = psi.space_chart.values[:psi.grid.node_count - periodic]
        self.phi = self._sqrt_w * psi.values[self._dof]
        self.tau = float(psi.tau)
        self._lam = self.d_tau / (2.0 * self.constants.hbar)
        n = len(self.phi)
        mid = n // 2 if n >= _N_SPLIT else n
        self._blocks = [slice(0, mid), slice(mid, n)] if mid < n else [slice(0, n)]
        # each cut edge (p, q, c) couples node p of the first block to node q
        # of the last by A[p, q] = A[q, p] = c = i lam off[e]: the seam, whose
        # coupling is the wrap edge's, then the middle edge
        cuts = []
        if periodic:
            cuts.append((0, n - 1, n - 1))
        if mid < n:
            cuts.append((mid - 1, mid, mid - 1))
        self._cuts = [(p, q, complex(1j * self._lam * off[e])) for p, q, e in cuts]
        self._h = (kinetic, off, v[self._dof])
        # A's bands, factored in place block by block (zgttrf adds du2 and ipiv)
        self._lu = [[np.empty(b.stop - b.start - 1, dtype=complex),
                     np.empty(b.stop - b.start, dtype=complex),
                     np.empty(b.stop - b.start - 1, dtype=complex)] for b in self._blocks]
        # the spikes W = T^-1 U, one row per cut edge
        self._spikes = np.empty((len(cuts), n), dtype=complex)
        self._buf = [np.empty(min(_CHUNK, b.stop - b.start), dtype=complex) for b in self._blocks]
        # a static H is factored, its spikes solved and M = I + V^T W built
        # here, once; a time-dependent H is factored and its spikes solved at
        # every step, each block's in its own thread, and keeps H's parts for it
        self._static = potential is None or potential.is_static
        self._m = None
        # t of the last step's M t = V^T y
        self._t = []
        if self._static:
            for b in range(len(self._blocks)):
                self._factor(b, 1.0)
            self._m = self._woodbury_matrix()
            self._h = None

    def _factor(self, b: int, mod: float):
        """Factor block b of T at V multiplier ``mod`` and solve its slices of the spikes T^-1 U.

        Cut edge (p, q, c) is the rank-one term c v v^T with v = e_p + e_q,
        so T[p, p] = A[p, p] - c, T[q, q] = A[q, q] - c and the edge's spike
        right-hand side is c at p and at q.
        """
        kinetic, off, v = self._h
        sl = self._blocks[b]
        dl, d, du = self._lu[b][:3]
        w = self._spikes[:, sl]
        w[:] = 0.0
        np.multiply(1j * self._lam, off[sl.start:sl.stop - 1], out=dl)
        np.copyto(du, dl)
        np.multiply(v[sl], mod, out=d.imag)
        np.add(kinetic[sl], d.imag, out=d.imag)
        np.multiply(d.imag, self._lam, out=d.imag)
        d.real = 1.0
        for wj, (p, q, c) in zip(w, self._cuts):
            for node in (p, q):
                if sl.start <= node < sl.stop:
                    d[node - sl.start] -= c
                    wj[node - sl.start] = c
        *lu, info = _lapack().zgttrf(dl, d, du, overwrite_dl=1, overwrite_d=1, overwrite_du=1)
        if info != 0:
            raise SolverError(f"Crank-Nicolson factorization failed (LAPACK info {info})")
        self._lu[b] = lu
        for wj in w:
            _, info = _lapack().zgttrs(*lu, wj, overwrite_b=1)
            if info != 0:
                raise SolverError(f"Crank-Nicolson solve failed (LAPACK info {info})")

    def _woodbury_matrix(self) -> list:
        """M = I + V^T W, from the spikes W at the cut nodes, as Python scalars."""
        return [[(j == l) + complex(w[p] + w[q]) for l, w in enumerate(self._spikes)]
                for j, (p, q, _) in enumerate(self._cuts)]

    def _solve_cuts(self, solution):
        """Solve M t = V^T y into ``_t``, y read at the cut nodes of ``solution``.

        A time-dependent H first rebuilds M from its freshly solved spikes.
        The blocks run this as their barrier's action: once per step, in one
        thread, while no block writes.
        """
        if not self._static:
            self._m = self._woodbury_matrix()
        self._t = _solve_woodbury(self._m, [complex(solution[p] + solution[q])
                                            for p, q, _ in self._cuts])

    def _run(self, b: int, steps: int, tau: float, solution, meet):
        """``steps`` Cayley steps of block b from ``tau``, calling ``meet()`` for each step's t.

        ``solution`` is the buffer, as long as phi, that the solves overwrite;
        ``meet`` waits at the barrier whose action solves the cut system.
        """
        zgttrs = _lapack().zgttrs
        sl = self._blocks[b]
        x, phi, w, buf = solution[sl], self.phi[sl], self._spikes[:, sl], self._buf[b]
        static, cuts, d_tau = self._static, len(w), self.d_tau
        # the chunks of x, phi and the spike rows that the updates run through
        width = len(buf)
        chunks = [(x[a:a + width], phi[a:a + width], [wj[a:a + width] for wj in w],
                   buf[:min(width, len(x) - a)]) for a in range(0, len(x), width)]
        # x holds a copy of phi at the start of each step, for zgttrs to overwrite
        np.copyto(x, phi)
        for _ in range(steps):
            if not static:
                self._factor(b, self.potential.modulation(tau))
            _, info = zgttrs(*self._lu[b], x, overwrite_b=1)
            if info != 0:
                raise SolverError(f"Crank-Nicolson solve failed (LAPACK info {info})")
            if cuts:
                meet()
            # the next step's t is solved only once the blocks meet again
            t = self._t
            # x <- y - W t, then phi <- 2 x - phi, written to both x and phi
            for xc, pc, wc, tmp in chunks:
                for wj, tj in zip(wc, t):
                    np.multiply(wj, tj, tmp)
                    np.subtract(xc, tmp, xc)
                np.multiply(xc, 2.0, xc)
                np.subtract(xc, pc, xc)
                pc[:] = xc
            tau += d_tau
            if b == 0:
                self.tau = tau

    def step(self, n: int = 1):
        """Advance n Crank-Nicolson steps of d_tau in staircase time.

        Each step is phi <- 2 A^-1 phi - phi (B = 2I - A, with A and B at
        the step's starting tau): per block, one ``zgttrs`` solve y = T^-1 phi
        into a buffer that lives for the call, the cut correction x = y - W t
        and one axpy.  M t = V^T y is at most 2 x 2 and is solved once per
        step, on scalars: V^T y needs y only at the cut nodes, and
        M = I + V^T W the spikes only there.  A time-dependent H first
        re-factors each block and re-solves its spike slices, and M is
        rebuilt.  The blocks meet at one barrier per step, of as many
        parties as blocks, whose action solves for t from their values in
        the shared buffer: block 0 runs in this thread and each other block
        on a thread joined before ``step`` returns.  An exception in any
        block, or in that action, is raised here once all have stopped;
        phi is then left part-stepped.
        """
        if n < 0:
            raise ValueError("steps must be non-negative")
        # the solves' buffer lives for one call, so between calls its memory
        # serves the caller's own work on the snapshots
        solution = np.empty_like(self.phi)
        barrier = threading.Barrier(len(self._blocks),
                                    action=functools.partial(self._solve_cuts, solution))
        failures, tau = [], self.tau

        def run(b):
            try:
                self._run(b, n, tau, solution, barrier.wait)
            except BaseException as exc:  # raised again below
                failures.append(exc)
                barrier.abort()

        workers = [threading.Thread(target=run, args=(b,), name=f"cayley-block-{b}", daemon=True)
                   for b in range(1, len(self._blocks))]
        for worker in workers:
            worker.start()
        run(0)
        for worker in workers:
            worker.join()
        if failures:
            # a block stopped by another's abort reports only the broken barrier
            raise next((exc for exc in failures
                        if not isinstance(exc, threading.BrokenBarrierError)), failures[0])
        return self

    @property
    def dispersion_r(self) -> float:
        """Dispersion number r = hbar d_tau / (2 m h^2), h the smallest chart increment.

        Each step's linear-solve roundoff grows with r.
        """
        h = float(self.template.space_chart.increments.min())
        return self.constants.hbar * self.d_tau / (2.0 * self.constants.mass * h ** 2)

    def snapshot(self) -> WaveFunction:
        """psi at the nodes: theta = phi / sqrt(w), the seam node copied or the ends zeroed."""
        values = np.zeros(self.template.grid.node_count, dtype=complex)
        np.divide(self.phi, self._sqrt_w, out=values[self._dof])
        if self.boundary == "periodic":
            values[-1] = values[0]
        return self.template.with_values(values, tau=self.tau)


def evolve(psi: WaveFunction, potential: PotentialOnCurve | None, d_tau: float,
           steps: int, boundary: str = "dirichlet", xi_points=None) -> WaveFunction:
    """Crank-Nicolson evolution by ``steps`` increments of staircase time d_tau.

    ``xi_points``, if given, must be the xi point count that the grid
    fixes (the node count, less the seam node if periodic); any other
    value raises :class:`ConjugacyError`.
    """
    _check_xi_points(xi_points, psi.grid.node_count - (boundary == "periodic"))
    ev = CrankNicolsonEvolver(psi, potential, d_tau, boundary=boundary)
    ev.step(steps)
    return ev.snapshot()


_MAX_KERNEL_IMAGES = 4000
_TAIL = 25.0  # kernels and their panels end where |e^(b delta^2)| = e^-_TAIL


def kernel_step(psi: WaveFunction, step: KernelStep, xi_points=None) -> WaveFunction:
    """Single free-propagator convolution step on the periodic xi grid.

    The grid is the nodes' own chart values less the seam node, and the
    FFT needs it uniform: chart increments that spread by more than 1e-9
    of their mean raise :class:`ConjugacyError`, a zero increment
    :class:`PlateauError`.  ``xi_points``, if given, must be that grid's
    point count, the node count less one; any other value raises
    :class:`ConjugacyError`.

    The convolution kernel is the periodization (method of images) of the
    damped amplitude exp[i m delta^2 / (2 hbar eps (1 - i eta))]; images
    are summed out to the damping cutoff.  The discrete kernel is
    normalized by its own zeroth moment, which enforces the defining
    identity "constant in, constant out" exactly; the discrete normalizer
    approaches ``step.normalization / dxi`` as the damping vanishes and
    the grid refines.
    """
    _check_plateaus(psi.space_chart)
    s = psi.space_chart.values
    ds = psi.space_chart.increments
    if ds.max() - ds.min() > 1e-9 * ds.mean():
        raise ConjugacyError("kernel_step needs a uniform chart, but its increments spread "
                             f"from {ds.min():.3e} to {ds.max():.3e}")
    m = len(ds)
    _check_xi_points(xi_points, m)
    dxi = float(s[-1] - s[0]) / m
    if step.width() < 4.0 * dxi:
        raise ResolutionError(
            f"kernel width {step.width():.3e} spans fewer than 4 grid cells "
            f"(dxi = {dxi:.3e}); refine the grid or enlarge epsilon"
        )
    span = dxi * m  # the wrap period
    delta = dxi * np.arange(m)
    delta[delta > span / 2.0] -= span
    b = _kernel_exponent(step, step.damping_eta)
    # decay radius of |exp(b delta^2)| down to exp(-_TAIL)
    cutoff = math.sqrt(_TAIL / -b.real)
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
    theta = np.fft.ifft(np.fft.fft(kern) * np.fft.fft(psi.values[:m])) / normalizer
    return psi.with_values(np.concatenate([theta, theta[:1]]), tau=psi.tau + step.epsilon)


@functools.cache
def _gauss_legendre(n: int):
    return np.polynomial.legendre.leggauss(n)


_MAX_PANELS = 2_000_000
_NODES_PER_PANEL = 12  # Gauss-Legendre nodes; kernel_moments checks against 4 more
_BLOCK_PANELS = 1 << 14  # panels whose nodes exist at once (about 0.2M nodes)


def _kernel_exponent(step: KernelStep, eta: float) -> complex:
    """b = i m / (2 hbar eps (1 - i eta)): the kernel is exp(b delta^2)."""
    eps_c = step.epsilon * (1.0 - 1j * eta)
    return 1j * step.constants.mass / (2.0 * step.constants.hbar * eps_c)


def _kernel_panels(step: KernelStep, eta: float):
    """Kernel exponent b and the count of 2 pi phase panels out to |e^(b u)| = e^-_TAIL.

    Raises :class:`QuadratureError` when the panel budget is exceeded, so
    callers can reject a too-small damping before any quadrature runs.
    """
    b = _kernel_exponent(step, eta)
    re_b, im_b = b.real, abs(b.imag)
    if re_b >= 0:
        raise QuadratureError("damping must make the kernel decay", {"b": b})
    delta_max = math.sqrt(_TAIL / -re_b)
    panels = max(4, int(math.ceil(im_b * delta_max ** 2 / (2.0 * math.pi))))
    if panels > _MAX_PANELS:
        raise QuadratureError(
            f"damping eta={eta:g} needs {panels} oscillation panels; too small to quadrate",
            diagnostics={"panels": panels, "eta": eta},
        )
    return b, panels


def _raw_kernel_moments(step: KernelStep, eta: float, nodes: int):
    """Phase-exact composite Gauss-Legendre quadrature of the kernel moments.

    Both integrands are even in delta, so the moments are twice their
    half-line integrals, and in u = delta^2 they read

        m0 = int u^(-1/2) e^(b u) du,   m2 = int (sqrt(u) / 2) e^(b u) du.

    The panels of :func:`_kernel_panels` are u_k = k h with
    h = 2 pi / Im b, one phase period each.  Panel 0, [0, h], is quadrated
    in delta, where the integrand has no u^(-1/2) singularity, as two
    sub-panels of phase pi split at delta = sqrt(h / 2): as one panel of
    phase 2 pi it would hold all of the 2e-11 m0 error at 12 nodes.  On panel
    k >= 1 the node u = h (k + (1 + x_j) / 2) factors the kernel exactly as
    e^(b u) = e^(Re b k h) q_j with q_j = e^(b h (1 + x_j) / 2), because
    e^(i Im b k h) = e^(2 pi i k) = 1.  So each node costs one ``sqrt`` and
    one reciprocal, and each block of ``_BLOCK_PANELS`` panels two real
    matrix-vector products of the panel amplitudes e^(Re b k h) with
    r = sqrt(u) and 1 / r; the complex table (h / 2) w_j q_j is contracted
    once at the end.  The panels end at U = panels * h, where e^(b U) is
    real, and the rest of each integral is the integration-by-parts tail
    -e^(b U) [f / b - f' / b^2 + f'' / b^3] (Bender & Orszag, ch. 6).
    The node set is symmetric about delta = 0, so the odd moment m1 is
    exactly 0.
    """
    b, panels = _kernel_panels(step, eta)
    h = 2.0 * math.pi / b.imag
    gl_x, gl_w = _gauss_legendre(nodes)
    t = 0.5 * (1.0 + gl_x)
    # panel 0 in delta over [0, sqrt(h / 2)] and [sqrt(h / 2), sqrt(h)], doubled
    # for the negative side
    edges = math.sqrt(h) * np.array([0.0, math.sqrt(0.5), 1.0])
    widths = np.diff(edges)[:, None]
    delta = (edges[:-1, None] + widths * t).ravel()
    head = (widths * gl_w).ravel() * np.exp(b * delta ** 2)
    m0 = complex(np.sum(head))
    m2 = complex(np.sum(0.5 * delta ** 2 * head))
    # panels 1 .. panels-1 in u
    inv_sum = np.zeros(nodes)
    root_sum = np.zeros(nodes)
    for lo in range(1, panels, _BLOCK_PANELS):
        k = np.arange(lo, min(lo + _BLOCK_PANELS, panels), dtype=float)
        amp = np.exp(b.real * h * k)
        r = np.add.outer(k, t)
        r *= h
        np.sqrt(r, out=r)
        root_sum += amp @ r
        np.reciprocal(r, out=r)
        inv_sum += amp @ r
    table = 0.5 * h * gl_w * np.exp(b * h * t)
    m0 += complex(table @ inv_sum)
    m2 += complex(0.5 * (table @ root_sum))
    # integration-by-parts tail beyond U = panels h, where e^(b U) = e^(Re b U):
    # -e^(b U) (f, f', f'') . (1/b, -1/b^2, 1/b^3) for f = u^(-1/2) and sqrt(u)/2
    u = panels * h
    ibp = -math.exp(b.real * u) * np.array([1.0 / b, -1.0 / b ** 2, 1.0 / b ** 3])
    m0 += complex(ibp @ [u ** -0.5, -0.5 * u ** -1.5, 0.75 * u ** -2.5])
    m2 += complex(ibp @ [0.5 * u ** 0.5, 0.25 * u ** -0.5, -0.125 * u ** -1.5])
    a = step.normalization
    return m0 / a, 0j, m2 / a


def kernel_moments(step: KernelStep, extrapolate: bool = True) -> tuple[complex, complex, complex]:
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
    check_lo = _raw_kernel_moments(step, check_eta, _NODES_PER_PANEL)
    check_hi = _raw_kernel_moments(step, check_eta, _NODES_PER_PANEL + 4)
    drift = max(abs(a - b) for a, b in zip(check_lo, check_hi))
    scale = max(1e-300, abs(check_hi[0]))
    if drift > 1e-8 * scale:
        raise QuadratureError(
            "kernel moment quadrature did not converge under node refinement",
            diagnostics={"coarse": check_lo, "fine": check_hi, "drift": drift},
        )
    at_eta = _raw_kernel_moments(step, eta, _NODES_PER_PANEL)
    if not extrapolate:
        return at_eta
    at_2eta = _raw_kernel_moments(step, 2.0 * eta, _NODES_PER_PANEL)
    return tuple(2.0 * a - b for a, b in zip(at_eta, at_2eta))


def hamiltonian_apply(psi: WaveFunction, potential: PotentialOnCurve | None = None) -> WaveFunction:
    """Spatial Hamiltonian action -hbar^2/(2m) (d/dS)^2 psi + V psi at the nodes."""
    hbar, m = psi.constants.hbar, psi.constants.mass
    out = -(hbar ** 2) / (2.0 * m) * laplacian(psi.field).values
    if potential is not None:
        out = out + potential.values_at(psi.tau) * psi.values
    return psi.with_values(out)


def momentum_apply(psi: WaveFunction) -> VectorFieldOnCurve:
    """Momentum operator -i hbar grad applied to psi."""
    grad = gradient(psi.field)
    return VectorFieldOnCurve(grad.grid, -1j * psi.constants.hbar * grad.values, grad.chart)


def plane_wave(params: PlaneWaveParams, grid: CurveGrid, space_chart: Staircase,
               tau: float = 0.0) -> WaveFunction:
    """Analytic solution (A e^{ikS} + B e^{-ikS}) e^{-i beta tau} sampled at the nodes."""
    s = space_chart.values
    values = (params.A * np.exp(1j * params.k * s)
              + params.B * np.exp(-1j * params.k * s)) * cmath.exp(-1j * params.beta * tau)
    field = FieldOnCurve(grid, values, space_chart)
    return WaveFunction(field=field, tau=tau, constants=params.constants)


def gaussian_packet(grid: CurveGrid, space_chart: Staircase, center: float, sigma: float,
                    k0: float = 0.0, constants: PhysicalConstants = PhysicalConstants(),
                    periodic: bool = False) -> WaveFunction:
    """Normalized Gaussian wave packet exp(-(S-center)^2/(4 sigma^2)) exp(i k0 S).

    ``sigma`` is the standard deviation of the probability density in the
    staircase coordinate.  ``periodic`` adds the envelope's images one chart
    span to either side, so the packet is smooth across a periodic seam.
    Raises ``ValueError`` unless 4 sigma^2 is a positive finite float and
    the packet is nonzero on some node (its center may lie off the curve).
    """
    s = space_chart.values
    envelope = np.zeros(len(s))
    with np.errstate(over="ignore"):  # an overflowing exponent gives a zero envelope
        width = 4.0 * np.float64(sigma) ** 2
        if not (sigma > 0 and 0.0 < width < math.inf):
            raise ValueError("sigma must be positive, with 4 sigma^2 a positive finite float")
        for j in ((-1, 0, 1) if periodic else (0,)):
            envelope += np.exp(-((s - center + j * (s[-1] - s[0])) ** 2) / width)
    values = envelope * np.exp(1j * k0 * s)
    return WaveFunction(FieldOnCurve(grid, values, space_chart),
                        constants=constants).normalized()


def _rayleigh_residual(diag, band, x) -> tuple[float, float]:
    """sigma = x^T H x and r = ||H x - sigma x|| of a unit x.

    numpy sums, not BLAS dots, so the bits do not depend on the BLAS threads.
    """
    hx, t = diag * x, np.empty_like(x)
    hx[:-1] += np.multiply(band, x[1:], out=t[1:])
    hx[1:] += np.multiply(band, x[:-1], out=t[1:])
    sigma = float(np.sum(np.multiply(x, hx, out=t)))
    hx -= np.multiply(x, sigma, out=t)
    hx *= hx
    return sigma, math.sqrt(np.sum(hx))


# The shifts below lambda_0 pad by this many ulps of |d|_max + 2 |e|_max, a bound
# on |H|: dpttrf's pivots are a Sturm count's, exact for an H off by a few ulps
# (Demmel, Applied Numerical Linear Algebra, 1997, sec. 5.3)
_PAD_ULPS = 8.0
# Inverse-iteration solves at min V - pad that start every ground state.  At
# Koch level 9 (omega 60-200) the certified shifts then take 3 solves
_START_SOLVES = 2
# The iteration stops once a solve moves sigma by at most an ulp and leaves r
# within this many, about 5 times its roundoff floor: each dpttrs solve is
# backward stable, and r measured at most 0.77 ulp on 196 harmonic V at Koch
# levels 3-9
_RESIDUAL_ULPS = 4.0
_SOLVES = 4


def _certified_ground(lapack, diag, band, x, v_min):
    """lambda_0's unit vector by inverse iteration at certified shifts below lambda_0, or None.

    The stiffness is positive definite on the Dirichlet unknowns, so
    lambda_0 > min V = ``v_min`` and ``dpttrf`` factors H - mu I at
    mu = v_min - pad.  H's couplings are negative, so lambda_0's vector is
    positive (Perron-Frobenius) and a positive x has a component along it;
    each ``dpttrs`` solve x <- (H - mu I)^-1 x shrinks every other
    component, relative to that one, by (lambda_0 - mu) / (lambda_k - mu)
    or more.  After the start each solve gives sigma = x^T H x and
    r = ||H x - sigma x||, with an eigenvalue within r of sigma, and the
    next shift is mu = sigma - r - pad.  Its ``dpttrf`` proves H - mu I
    positive definite, so that eigenvalue is lambda_0, and its factors
    give the next solve: an error of angle delta leaves lambda_0 - mu at
    about delta times the gap, so each solve squares delta.  The state is
    certified once that factorization follows a solve that moved sigma by
    at most an ulp; None on a failed factorization, a non-finite value or
    ``_SOLVES`` solves after the start without it.
    """
    with np.errstate(all="ignore"):
        ulp = np.finfo(float).eps * (max(abs(diag.max()), abs(diag.min()))
                                     + 2.0 * max(abs(band.max()), abs(band.min())))
        *lu, info = lapack.dpttrf(diag - (v_min - _PAD_ULPS * ulp), band, overwrite_d=1)
        sigma = math.nan  # so the first quotient never counts as settled
        for solve in range(_START_SOLVES + _SOLVES):
            if info != 0:
                return None
            # normalized each time: (lambda_0 - mu)^-2 can leave float's range
            x = lapack.dpttrs(*lu, x)[0]
            x /= math.sqrt(np.sum(x * x))
            if solve + 1 < _START_SOLVES:
                continue
            shift, (sigma, r) = sigma, _rayleigh_residual(diag, band, x)
            mu = sigma - r - _PAD_ULPS * ulp
            if not math.isfinite(mu):
                return None
            *lu, info = lapack.dpttrf(diag - mu, band, overwrite_d=1)
            if info == 0 and r <= _RESIDUAL_ULPS * ulp and abs(sigma - shift) <= ulp:
                # dstein's sign: the component of largest modulus positive
                return x * math.copysign(1.0, x[np.argmax(np.abs(x))])
    return None


def stationary_ground_state(grid: CurveGrid, space_chart: Staircase,
                            potential: PotentialOnCurve,
                            constants: PhysicalConstants = PhysicalConstants()) -> WaveFunction:
    """Ground state of the discrete Dirichlet Hamiltonian that the evolver steps with.

    Both take H from one builder, so the state is an eigenvector of the
    Crank-Nicolson operator up to the eigensolver's residual, whose low-mode
    components each step turns by their own phase rates: |psi| drifts within
    r * steps * eps (r the dispersion number) over 100 steps at Koch levels
    6-9, the total probability by about 1e-13 at level 9.  The state comes
    from :func:`_certified_ground`, inverse iteration from sqrt(w)
    (theta = 1) for every V at shifts that its ``dpttrf`` factorizations
    prove to lie below lambda_0, else from ``dstebz`` bisection on H's
    Gershgorin interval and ``dstein``.
    """
    dof, sqrt_w, kinetic, band, v = _xi_hamiltonian(space_chart, constants, potential, False)
    diag = kinetic + v[dof]
    lapack = _lapack()
    x = _certified_ground(lapack, diag, band, sqrt_w, v[dof].min())
    if x is None:
        # what eigh_tridiagonal(select="i", select_range=(0, 0)) runs
        m, w, iblock, isplit, info = lapack.dstebz(diag, band, 2, 0.0, 0.0, 1, 1, 0.0, "B")
        if info == 0:
            vecs, info = lapack.dstein(diag, band, w[:m], iblock, isplit)
        # info 0 with a non-finite vector: dstein's scaling overflows on H of norm ~1e152
        if info != 0 or not np.isfinite(vecs[:, 0]).all():
            raise SolverError(f"ground-state eigensolver failed (LAPACK info {info})")
        x = vecs[:, 0]
    values = np.zeros(grid.node_count, dtype=complex)
    values[dof] = x / sqrt_w
    return WaveFunction(FieldOnCurve(grid, values, space_chart), constants=constants).normalized()


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


def _phase_increment(a: WaveFunction, b: WaveFunction) -> float:
    """arg <a, b>: the global phase gained from snapshot a to snapshot b."""
    return cmath.phase(np.sum(b.values * np.conj(a.values)))


def fit_phase_rate(snapshots: list[WaveFunction]) -> float:
    """Global phase rate beta from -arg increments of successive snapshots.

    Assumes the phase advance between consecutive snapshots stays below pi.
    """
    if len(snapshots) < 2:
        raise ValueError("need at least two snapshots")
    total = 0.0
    for a, b in zip(snapshots, snapshots[1:]):
        total += _phase_increment(a, b)
    span = snapshots[-1].tau - snapshots[0].tau
    if span <= 0:
        raise ValueError("snapshots must advance in staircase time")
    return -total / span
