"""Body of the library-script workload, run inside a pass.

It takes the generated inputs and returns plain numbers for the
checks in ``workloads.py``.  The parent process imports this module for
its constants, so numpy and the package are imported inside the body.
"""

# plane-wave modes (periods on the unit line, amplitude) of the kernel vs CN state
MODES = ((1, 1.0), (2, 0.5j), (3, 0.2))
XI_POINTS = 4096  # resolves the kernel's phase for every eps drawn (m >= 1.6 / eps)


def run_kernel(p: dict) -> dict:
    import numpy as np
    import fractalcurve as fc

    eps = p["eps"]
    moments = fc.kernel_moments(fc.KernelStep(eps, damping_eta=p["eta"]))
    raw = fc.kernel_moments(fc.KernelStep(eps, damping_eta=p["raw_eta"]), extrapolate=False)
    koch = fc.estimate_gamma_dimension([fc.build_koch(l) for l in p["koch_levels"]], tol=p["tol"])
    dust = fc.estimate_gamma_dimension(
        [fc.build_cantor_dust(l) for l in p["dust_levels"]], tol=p["tol"])

    grid = fc.build_line((0, 0, 0), (1, 0, 0), XI_POINTS)
    chart = fc.build_staircase(grid, 1.0)
    vals = sum(c * np.exp(2j * np.pi * j * chart.values) for j, c in MODES)
    psi = fc.WaveFunction(fc.FieldOnCurve(grid, vals, chart))
    kern = fc.kernel_step(psi, fc.KernelStep(eps, damping_eta=0.5 * eps), xi_points=XI_POINTS)
    cn = fc.evolve(psi, None, d_tau=eps, steps=1, boundary="periodic", xi_points=XI_POINTS)
    pair = lambda z: [z.real, z.imag]  # noqa: E731
    return {
        "moments": [pair(z) for z in moments],
        "raw_moments": [pair(z) for z in raw],
        "koch_alpha": koch.alpha_star,
        "dust_alpha": dust.alpha_star,
        "kernel_cn_diff": float(np.max(np.abs(kern.values - cn.values))),
        "cn_probabilities": [fc.total_probability(psi), fc.total_probability(cn)],
    }
