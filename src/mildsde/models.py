"""Builders for the shipped model family, with verified coefficient contracts.

* ``build_reaction_diffusion``: heat semigroup on (0,1) with Dirichlet sine
  modes, pointwise drift -cbrt(u) + eta*u (continuous, decreasing,
  non-Lipschitz at 0), multiplicative jump noise k(xi, u) = xi*u.
* ``build_hyperbolic``: the damped wave system on position x velocity blocks,
  unitary group in the energy norm, cube-root friction on the velocity and a
  scalar jump process acting multiplicatively through the position. Its
  coefficients act on the velocity block, their declared support.
* ``build_delay``: distributed-delay equation on head x history, cube-root
  drift on the head, the scalar driving process of ``build_hyperbolic``
  acting through the head, sine initial history by default. Its
  coefficients act on the head, their declared support.
* ``build_linear_scalar``: the one-dimensional linear model with an explicit
  stochastic exponential solution; the degenerate configuration used to
  benchmark the integrators.

Every builder takes its noise from :func:`_multiplicative_noise` and runs the
semimonotonicity and Lipschitz/growth checkers before returning (disable
with ``validate=False`` for speed in tight loops).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .coefficients import (
    WHOLE,
    CoefficientSet,
    DiffusionSpec,
    DriftSpec,
    JumpCoeffSpec,
    nemitsky_implicit_solver,
    nemitsky_sine,
    zero_diffusion,
)
from .noise import MarkSpaceSpec
from .semigroup import BlockWaveSemigroup, DelayShiftSemigroup, DiagonalSemigroup
from .solver import ModelSpec

__all__ = [
    "EXAMPLE_BUILDERS",
    "gaussian_marks",
    "decreasing_cbrt",
    "build_reaction_diffusion",
    "build_hyperbolic",
    "build_delay",
    "build_linear_scalar",
]


def gaussian_marks(rate: float, std: float, mean: float = 0.0) -> MarkSpaceSpec:
    """Gaussian mark law; its mean and second moment mean^2 + std^2 are exact."""
    if not std >= 0.0:  # NaN too
        raise ValueError("mark std must be >= 0")
    return MarkSpaceSpec(
        rate=rate,
        sample_marks=lambda rng, size: rng.normal(mean, std, size=size),
        mark_second_moment=mean * mean + std * std,
        mark_mean=mean,
    )


def decreasing_cbrt(u: np.ndarray) -> np.ndarray:
    """-u^(1/3): continuous, decreasing, linear growth (|.| <= 1 + |u|)."""
    return -np.cbrt(u)


def cbrt_implicit_root(v: np.ndarray, p: float) -> np.ndarray:
    """w = cbrt(u) at the exact root u of u + p * cbrt(u) = v.

    Substituting w = cbrt(u) gives the depressed cubic w^3 + p w = v, solved
    by the Vieta form w = z - p / (3 z) with z^3 = v/2 + sign(v) sqrt(v^2/4 +
    p^3/27), scaled by |v| where v * v overflows; stable at every float scale
    including subnormal v. w is -phi(u) for the drift phi = -cbrt, which the
    Nemitsky step's prox returns (see :func:`nemitsky_implicit_solver`).

    The Nemitsky step calls this once per sweep on small arrays, so it works
    in place on its own temporaries (v is not written).
    """
    v = np.asarray(v, dtype=float)
    if v.ndim == 0:  # the in-place operations below need an array to write
        return cbrt_implicit_root(v[None], p)[0]
    # disc = sqrt(0.25 * v * v + p^3 / 27)
    floor = (p ** 3) / 27.0
    disc = 0.25 * v
    disc *= v
    disc += floor
    np.sqrt(disc, out=disc)
    if not disc.max(initial=0.0) < np.inf:  # 0.25 * v * v overflows (|v| > 2.7e154)
        big = np.isinf(disc)
        disc[big] = np.abs(v[big]) * np.sqrt(0.25 + floor / v[big] / v[big])
    # z3 = 0.5 * v + copysign(disc, v + 0.0); v + 0.0 turns -0.0 into +0.0,
    # so v = -0.0 takes the +disc branch.
    z = v + 0.0
    np.copysign(disc, z, out=disc)
    np.multiply(0.5, v, out=z)
    z += disc
    np.cbrt(z, out=z)
    # w = z - p / where(z != 0, 3 z, inf): z is +0.0 only when z3 is, and
    # then p / inf = 0 leaves w = +0.0. With p^3 / 27 > 0, |z3| >= disc >=
    # sqrt(p^3 / 27) > 0, so z is never zero and the mask is left out.
    q = np.multiply(3.0, z, out=disc)
    if not floor > 0.0:
        q[z == 0.0] = np.inf
    np.divide(p, q, out=q)
    z -= q
    return z


def cbrt_implicit_prox(v: np.ndarray, p: float) -> np.ndarray:
    """Exact root u of u + p * cbrt(u) = v (the implicit step of -cbrt), the
    cube w * w * w of :func:`cbrt_implicit_root`."""
    w = cbrt_implicit_root(v, p)
    u = w * w
    u *= w
    return u


def _default_profile(dim: int, amplitude: float) -> np.ndarray:
    """Smooth default initial coefficients amplitude/k^2."""
    return amplitude / np.arange(1, dim + 1) ** 2


def _multiplicative_noise(
    marks: MarkSpaceSpec, source: slice, width: int, g: float, g_sq: float, scale: float = 1.0
) -> tuple[DiffusionSpec, JumpCoeffSpec]:
    """Noise of a scalar Levy process (g W plus the compensated jumps of the
    marks) acting through x[source], on a support of ``width`` components:
    the column g * x[source] (none when g is 0), the jump xi * x[source] and
    its compensator, with constants g_sq / scale and rate * E[xi^2] / scale.
    The caller passes g_sq, since g * g need not round back to it."""
    if g == 0.0:
        diffusion = zero_diffusion(width)
    else:
        diffusion = DiffusionSpec(
            evaluate=lambda t, x: g * np.asarray(x, dtype=float)[..., None, source],
            modes=1, lipschitz_c=g_sq / scale, growth_d=g_sq / scale,
        )
    nu_mean = marks.rate * marks.mark_mean
    c_k = marks.rate * marks.mark_second_moment / scale
    jump = JumpCoeffSpec(
        evaluate=lambda t, xi, x: (
            np.asarray(xi)[..., None] * np.asarray(x, dtype=float)[..., source]
        ),
        compensator=lambda t, x: nu_mean * np.asarray(x, dtype=float)[..., source],
        lipschitz_c=c_k, growth_d=c_k,
    )
    return diffusion, jump


def build_reaction_diffusion(
    dim: int = 32,
    jump_rate: float = 1.0,
    mark_std: float = 0.3,
    mark_mean: float = 0.0,
    eta: float = 0.0,
    n_quad: int | None = None,
    x0: np.ndarray | None = None,
    x0_amplitude: float = 1.0,
    horizon: float = 1.0,
    validate: bool = True,
) -> ModelSpec:
    """Reaction-diffusion system on (0,1) with multiplicative jump noise.

    Dirichlet Laplacian spectrum mu_k = -(k pi)^2 (diagonal, contraction),
    drift = pointwise -cbrt(u) + eta * identity with declared constant
    max(eta, 0), no Wiener term, jump coefficient xi * u with Gaussian marks
    of the given rate, std and mean. The growth constant 8 + 2 eta^2 follows
    from |cbrt(s)| <= 1 + |s|.
    """
    marks = gaussian_marks(jump_rate, mark_std, mark_mean)
    ks = np.arange(1, dim + 1)
    seg = DiagonalSemigroup(-((ks * np.pi) ** 2), alpha=0.0)
    nem = nemitsky_sine(decreasing_cbrt, dim, n_quad)

    def drift_eval(t, x):
        return nem(x) + eta * np.asarray(x, dtype=float)

    drift = DriftSpec(
        evaluate=drift_eval,
        semimonotone_m=max(eta, 0.0),
        growth_d=8.0 + 2.0 * eta * eta,
        implicit_step=nemitsky_implicit_solver(
            decreasing_cbrt, cbrt_implicit_root, dim, n_quad, linear_shift=eta
        ),
    )
    coeffs = CoefficientSet(drift, *_multiplicative_noise(marks, WHOLE, dim, 0.0, 0.0))
    model = ModelSpec(
        name="reaction_diffusion",
        semigroup=seg,
        coeffs=coeffs,
        weights=None,
        marks=marks,
        x0=np.asarray(x0, dtype=float) if x0 is not None else _default_profile(dim, x0_amplitude),
        horizon=horizon,
    )
    if validate:
        model.validate()
    return model


def build_hyperbolic(
    n_modes: int = 16,
    jump_rate: float = 1.0,
    mark_std: float = 0.3,
    mark_mean: float = 0.0,
    levy_drift: float = 0.0,
    levy_gaussian_variance: float = 0.0,
    n_quad: int | None = None,
    x0_position: np.ndarray | None = None,
    x0_amplitude: float = 1.0,
    horizon: float = 1.0,
    validate: bool = True,
) -> ModelSpec:
    """Second-order wave system with friction and multiplicative jump noise.

    State is [position modes, velocity modes] with energy weights
    (lam_k on positions, 1 on velocities), in which the free group is unitary.
    The scalar driving process (drift gamma = ``levy_drift``, Gaussian part
    of variance ``levy_gaussian_variance``, Gaussian-mark jumps) acts through
    the position: its jump part gives k(xi, (u, v)) = (0, xi * u), its
    Gaussian part a diffusion column (0, std * u), its drift a velocity
    forcing gamma * u. Initial velocity is zero.
    """
    marks = gaussian_marks(jump_rate, mark_std, mark_mean)
    if not levy_gaussian_variance >= 0.0:  # NaN too
        raise ValueError("gaussian variance must be >= 0")
    lam = (np.arange(1, n_modes + 1) * np.pi) ** 2
    seg = BlockWaveSemigroup(lam)
    dim = 2 * n_modes
    weights = seg.energy_weights()
    u_sl, v_sl = slice(0, n_modes), slice(n_modes, dim)
    nem = nemitsky_sine(decreasing_cbrt, n_modes, n_quad)
    gamma = levy_drift
    lam_min = float(lam[0])

    def drift_eval(t, x):
        x = np.asarray(x, dtype=float)
        out = nem(x[..., v_sl])
        if gamma != 0.0:
            out += gamma * x[..., u_sl]
        return out

    nem_step = nemitsky_implicit_solver(decreasing_cbrt, cbrt_implicit_root, n_modes, n_quad)

    def implicit_step(t, b_vec, dt, tol):
        # Positions are untouched by the drift, so x_u = b_u and the velocity
        # block solves a pointwise-composition equation with a shifted anchor.
        x = np.array(b_vec, dtype=float, copy=True)
        bv = b_vec[..., v_sl] + dt * gamma * b_vec[..., u_sl]
        x[..., v_sl], ok = nem_step(t, bv, dt, tol)
        return x, ok

    drift = DriftSpec(
        evaluate=drift_eval,
        semimonotone_m=0.5 * abs(gamma) * max(1.0, 1.0 / lam_min),
        growth_d=8.0 + 2.0 * gamma * gamma / lam_min,
        implicit_step=implicit_step,
    )

    noise = _multiplicative_noise(
        marks, u_sl, n_modes, math.sqrt(levy_gaussian_variance), levy_gaussian_variance, lam_min
    )
    coeffs = CoefficientSet(drift, *noise, support=v_sl)
    upos = x0_position if x0_position is not None else _default_profile(n_modes, x0_amplitude)
    x0 = np.concatenate([np.asarray(upos, dtype=float), np.zeros(n_modes)])
    model = ModelSpec(
        name="hyperbolic",
        semigroup=seg,
        coeffs=coeffs,
        weights=weights,
        marks=marks,
        x0=x0,
        horizon=horizon,
    )
    if validate:
        model.validate()
    return model


def build_delay(
    history_cells: int = 32,
    jump_rate: float = 1.0,
    mark_std: float = 0.3,
    mark_mean: float = 0.0,
    levy_drift: float = 0.0,
    levy_gaussian_variance: float = 0.0,
    history: Callable[[np.ndarray], np.ndarray] | None = None,
    horizon: float = 1.0,
    validate: bool = True,
) -> ModelSpec:
    """Distributed-delay scalar equation lifted to head x history.

    The free flow integrates the history over the unit lag window, which obeys
    the growth bound exp(t) in the natural weighted norm (so this model
    exercises the contraction rescaling). Drift acts on the head only; the
    driving process (as in ``build_hyperbolic``) multiplies the head. Default
    initial history is sin(pi * theta) on (-1, 0], whose head value is zero.
    """
    marks = gaussian_marks(jump_rate, mark_std, mark_mean)
    if not levy_gaussian_variance >= 0.0:  # NaN too
        raise ValueError("gaussian variance must be >= 0")
    if history is None:
        history = lambda theta: np.sin(np.pi * theta)
    seg = DelayShiftSemigroup(history_cells, alpha=1.0)
    weights = seg.natural_weights()
    gamma = levy_drift
    head = slice(0, 1)  # the support of every coefficient

    def drift_eval(t, x):
        x0 = np.asarray(x, dtype=float)[..., head]
        return decreasing_cbrt(x0) + gamma * x0

    def implicit_step(t, b, dt, tol):
        # Only the head moves: x_0 = b_0 + dt (-cbrt(x_0) + gamma x_0) is one
        # scalar root per row.
        den = 1.0 - dt * gamma
        x = b.copy()
        x[..., 0] = cbrt_implicit_prox(b[..., 0] / den, dt / den)
        return x, np.ones(b.shape[:-1], dtype=bool)

    drift = DriftSpec(
        evaluate=drift_eval,
        semimonotone_m=max(gamma, 0.0),
        growth_d=8.0 + 2.0 * gamma * gamma,
        implicit_step=implicit_step,
    )

    noise = _multiplicative_noise(
        marks, head, 1, math.sqrt(levy_gaussian_variance), levy_gaussian_variance
    )
    coeffs = CoefficientSet(drift, *noise, support=head)
    lags = seg.history_lags()
    hist_vals = np.asarray(history(lags), dtype=float)
    x0 = np.concatenate([[float(history(np.array([0.0]))[0])], hist_vals])
    model = ModelSpec(
        name="delay",
        semigroup=seg,
        coeffs=coeffs,
        weights=weights,
        marks=marks,
        x0=x0,
        horizon=horizon,
    )
    if validate:
        model.validate()
    return model


def build_linear_scalar(
    a: float = -1.0,
    sigma: float = 0.5,
    jump_rate: float = 2.0,
    mark_std: float = 0.2,
    mark_mean: float = 0.0,
    x0: float = 1.0,
    horizon: float = 1.0,
    validate: bool = True,
) -> ModelSpec:
    """Scalar linear model dX = a X dt + sigma X dW + xi X dN-tilde.

    Trivial semigroup (generator zero); the drift carries ``a`` so the
    stochastic exponential closed form applies directly. Declared constants:
    M = a, C = sigma^2 + rate * E[xi^2], matching growth.
    """
    marks = gaussian_marks(jump_rate, mark_std, mark_mean)
    seg = DiagonalSemigroup(np.zeros(1), alpha=0.0)

    def implicit_step(t, b, dt, tol):
        return b / (1.0 - dt * a), np.ones(b.shape[:-1], dtype=bool)

    drift = DriftSpec(
        evaluate=lambda t, x: a * np.asarray(x, dtype=float),
        semimonotone_m=a,
        growth_d=a * a,
        implicit_step=implicit_step,
    )
    coeffs = CoefficientSet(drift, *_multiplicative_noise(marks, WHOLE, 1, sigma, sigma * sigma))
    model = ModelSpec(
        name="linear_scalar",
        semigroup=seg,
        coeffs=coeffs,
        weights=None,
        marks=marks,
        x0=np.array([float(x0)]),
        horizon=horizon,
    )
    if validate:
        model.validate()
    return model


def stochastic_exponential(
    x0: float,
    a: float,
    sigma: float,
    nu_mean: float,
    times: np.ndarray,
    wiener_path: np.ndarray,
    jump_row: np.ndarray,
    jump_time: np.ndarray,
    jump_mark: np.ndarray,
) -> np.ndarray:
    """Closed-form paths of the scalar linear model on a given realization.

    X_t = x0 exp((a - sigma^2/2 - nu_mean) t + sigma W_t) prod_{s<=t} (1+xi_s)
    where nu_mean is the first moment of the (uncompensated) intensity.
    Evaluated at the grid points ``times`` from each path's Wiener values
    there, ``wiener_path`` (paths, len(times)), and the flat event arrays of
    a :class:`~mildsde.noise.NoiseRealization`: event e hits path row
    ``jump_row[e]`` at ``jump_time[e]`` with mark ``jump_mark[e]``, and each
    row's events come in time order. Each jump takes effect from the right
    endpoint of its cell on, matching the integrator's binning. On the two
    points (0, T) the value at T is the one on any finer grid, bit for bit.
    """
    times = np.asarray(times, dtype=float)
    wiener_path = np.asarray(wiener_path, dtype=float)
    log_factor = (a - 0.5 * sigma * sigma - nu_mean) * times + sigma * wiener_path
    prod = np.ones_like(log_factor)
    counts = np.bincount(jump_row, minlength=len(prod))
    if counts.any():
        # the stable sort keeps each row's events in their time order
        order = np.argsort(jump_row, kind="stable")
        cells = np.ceil(jump_time[order] / (times[1] - times[0])).astype(int) - 1
        first = np.maximum(np.minimum(cells, len(times) - 2), 0) + 1
        factor = 1.0 + jump_mark[order]
        starts = np.cumsum(counts) - counts
        col = np.arange(len(times))
        # the k-th jump of every row that has one at a time, so each row's
        # factors multiply in its event order; a factor of 1.0 is exact
        for k in range(int(counts.max())):
            hit = np.flatnonzero(counts > k)
            e = starts[hit] + k
            prod[hit] *= np.where(col >= first[e, None], factor[e, None], 1.0)
    return x0 * np.exp(log_factor) * prod


EXAMPLE_BUILDERS = {
    "reaction_diffusion": build_reaction_diffusion,
    "hyperbolic": build_hyperbolic,
    "delay": build_delay,
    "linear_scalar": build_linear_scalar,
}

