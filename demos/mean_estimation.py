"""
Kernel quadrature for a stochastic mean
=======================================

Runs the full moment pipeline by hand on a 1-D diffusion problem with a
known parameter-averaged solution: sample the box, assemble the Gram
matrix, integrate the kernel against the uniform density, solve for
quadrature weights, and contract them with solver outputs.
"""
import numpy as np

from rbfuq import (
    KernelSpec,
    ParameterDomain,
    PoissonExact,
    Tikhonov,
    assemble_gram,
    estimate_mean,
    halton_points,
    kernel_moments,
    moment_weights,
)

model = PoissonExact()
domain = ParameterDomain.symmetric(np.sqrt(3.0), 1)
exact = model.exact_mean().values
m = exact.size
print(f"model: 1-D parameter on [-sqrt(3), sqrt(3)], field of {m} grid values")

spec = KernelSpec("gaussian", dim=1)
reg = Tikhonov(1e-15)
print("kernel moments over the box: Gaussian moments are exact erf differences")

print(f"\n{'n':>4s} {'mean at center':>16s} {'field l2 error':>16s} {'sum of weights':>16s}")
center = m // 2
for n in (2, 4, 8, 16):
    sample = halton_points(domain, n)
    outputs = np.stack([model.evaluate(y).values for y in sample.points])

    gram = assemble_gram(spec, sample)
    b = kernel_moments(spec, sample, domain)
    weights = moment_weights(gram, reg, b)
    mean = estimate_mean(weights, outputs)

    err = np.linalg.norm(mean - exact) / np.sqrt(m)
    print(f"{n:4d} {mean[center]:16.12f} {err:16.3e} {np.sum(weights.omega):16.12f}")

print(f"\nexact mean at center: {exact[center]:.12f}")
print("the weights integrate the interpolant exactly, so a handful of")
print("samples already resolves this analytic model to near roundoff")
