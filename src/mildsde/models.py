"""Builders for the shipped model family, with verified coefficient contracts.

* ``build_reaction_diffusion``: heat semigroup on (0,1) with Dirichlet sine
  modes, pointwise drift f(u) + eta*u with f continuous and decreasing,
  multiplicative jump noise k(xi, u) = xi*u.
* ``build_hyperbolic``: the damped wave system on position x velocity blocks,
  unitary group in the energy norm, cube-root friction on the velocity and a
  scalar jump process acting multiplicatively through the position.
* ``build_delay``: distributed-delay equation on head x history, cube-root
  drift on the head, multiplicative jumps, sine initial history by default.
* ``build_linear_scalar``: the one-dimensional linear model with an explicit
  stochastic exponential solution; the degenerate configuration used to
  benchmark the integrators.

Every builder runs the semimonotonicity and Lipschitz/growth checkers before
returning (disable with ``validate=False`` for speed in tight loops).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .coefficients import (
    CoefficientSet,
    DiffusionSpec,
    DriftSpec,
    JumpCoeffSpec,
    nemitsky_implicit_solver,
    nemitsky_sine,
    pointwise_implicit_solver,
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
    if std < 0.0:
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


def cbrt_implicit_prox(v: np.ndarray, p: float) -> np.ndarray:
    """Exact root of u + p * cbrt(u) = v (the implicit step of -cbrt).

    Substituting w = cbrt(u) gives the depressed cubic w^3 + p w = v, solved
    by the Vieta form w = z - p / (3 z) with z^3 = v/2 + sign(v) sqrt(v^2/4 +
    p^3/27); stable at every float scale including subnormal v.
    """
    v = np.asarray(v, dtype=float)
    disc = np.sqrt(0.25 * v * v + (p ** 3) / 27.0)
    # v + 0.0 turns -0.0 into +0.0, so v = -0.0 takes the +disc branch.
    z3 = 0.5 * v + np.copysign(disc, v + 0.0)
    z = np.cbrt(z3)
    # z is +0.0 only when z3 is, and then p / inf = 0 leaves w = +0.0.
    w = z - p / np.where(z != 0.0, 3.0 * z, np.inf)
    # w * w * w may differ from w ** 3 by an ulp or two, but np.cbrt maps
    # both to the same double, so the Nemitsky step's output is unchanged.
    return w * w * w


def _prox_for(f_scalar):
    """Closed-form implicit prox when the scalar drift is the stock cube root."""
    return cbrt_implicit_prox if f_scalar is decreasing_cbrt else None


def _default_profile(dim: int, amplitude: float) -> np.ndarray:
    """Smooth default initial coefficients amplitude/k^2."""
    return amplitude / np.arange(1, dim + 1) ** 2


def _mark_times_state(t, xi, x):
    """Jump coefficient k(t, xi, x) = xi * x, one mark per leading index of x."""
    return np.asarray(xi)[..., None] * np.asarray(x, dtype=float)


def build_reaction_diffusion(
    dim: int = 32,
    jump_rate: float = 1.0,
    mark_std: float = 0.3,
    mark_mean: float = 0.0,
    f_scalar: Callable[[np.ndarray], np.ndarray] = decreasing_cbrt,
    eta: float = 0.0,
    f_growth: tuple[float, float] = (1.0, 1.0),
    n_quad: int | None = None,
    x0: np.ndarray | None = None,
    x0_amplitude: float = 1.0,
    horizon: float = 1.0,
    validate: bool = True,
) -> ModelSpec:
    """Reaction-diffusion system on (0,1) with multiplicative jump noise.

    Dirichlet Laplacian spectrum mu_k = -(k pi)^2 (diagonal, contraction),
    drift = pointwise f + eta * identity with declared constant max(eta, 0),
    no Wiener term, jump coefficient xi * u with Gaussian marks of the given
    rate, std and mean. ``f_growth = (a, b)`` declares |f_scalar(s)| <= a +
    b|s| and feeds the growth constant.
    """
    marks = gaussian_marks(jump_rate, mark_std, mark_mean)
    ks = np.arange(1, dim + 1)
    seg = DiagonalSemigroup(-((ks * np.pi) ** 2), alpha=0.0)
    nem = nemitsky_sine(f_scalar, dim, n_quad)

    def drift_eval(t, x):
        return nem(x) + eta * np.asarray(x, dtype=float)

    a, b = f_growth
    drift = DriftSpec(
        evaluate=drift_eval,
        semimonotone_m=max(eta, 0.0),
        growth_d=4.0 * a * a + 4.0 * b * b + 2.0 * eta * eta,
        implicit_step=nemitsky_implicit_solver(
            f_scalar, dim, n_quad, growth=f_growth, linear_shift=eta,
            scalar_prox=_prox_for(f_scalar),
        ),
    )
    c_k = marks.rate * marks.mark_second_moment
    nu_mean = marks.rate * marks.mark_mean
    jump = JumpCoeffSpec(
        evaluate=_mark_times_state,
        compensator=lambda t, x: nu_mean * np.asarray(x, dtype=float),
        lipschitz_c=c_k,
        growth_d=c_k,
    )
    coeffs = CoefficientSet(drift, zero_diffusion(dim), jump)
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
    f_scalar: Callable[[np.ndarray], np.ndarray] = decreasing_cbrt,
    f_growth: tuple[float, float] = (1.0, 1.0),
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
    if levy_gaussian_variance < 0.0:
        raise ValueError("gaussian variance must be >= 0")
    lam = (np.arange(1, n_modes + 1) * np.pi) ** 2
    seg = BlockWaveSemigroup(lam)
    dim = 2 * n_modes
    weights = seg.energy_weights()
    u_sl, v_sl = slice(0, n_modes), slice(n_modes, dim)
    nem = nemitsky_sine(f_scalar, n_modes, n_quad)
    gamma = levy_drift
    lam_min = float(lam[0])

    def drift_eval(t, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out[..., v_sl] = nem(x[..., v_sl])
        if gamma != 0.0:
            out[..., v_sl] += gamma * x[..., u_sl]
        return out

    nem_step = nemitsky_implicit_solver(
        f_scalar, n_modes, n_quad, growth=f_growth, scalar_prox=_prox_for(f_scalar)
    )

    def implicit_step(t, b_vec, dt, tol):
        # Positions are untouched by the drift, so x_u = b_u and the velocity
        # block solves a pointwise-composition equation with a shifted anchor.
        x = np.array(b_vec, dtype=float, copy=True)
        bv = b_vec[..., v_sl] + dt * gamma * b_vec[..., u_sl]
        x[..., v_sl], ok = nem_step(t, bv, dt, tol)
        return x, ok

    a, b = f_growth
    drift = DriftSpec(
        evaluate=drift_eval,
        semimonotone_m=0.5 * abs(gamma) * max(1.0, 1.0 / lam_min),
        growth_d=4.0 * a * a + 4.0 * b * b + 2.0 * gamma * gamma / lam_min,
        implicit_step=implicit_step,
    )

    g_std = math.sqrt(levy_gaussian_variance)
    if g_std > 0.0:
        def diffusion_eval(t, x):
            x = np.asarray(x, dtype=float)
            cols = np.zeros(x.shape[:-1] + (1, dim))
            cols[..., 0, v_sl] = g_std * x[..., u_sl]
            return cols

        diffusion = DiffusionSpec(
            evaluate=diffusion_eval,
            modes=1,
            lipschitz_c=levy_gaussian_variance / lam_min,
            growth_d=levy_gaussian_variance / lam_min,
        )
    else:
        diffusion = zero_diffusion(dim)

    def jump_eval(t, xi, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out[..., v_sl] = np.asarray(xi)[..., None] * x[..., u_sl]
        return out

    nu_mean = marks.rate * marks.mark_mean

    def jump_comp(t, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out[..., v_sl] = nu_mean * x[..., u_sl]
        return out

    c_k = marks.rate * marks.mark_second_moment / lam_min
    jump = JumpCoeffSpec(
        evaluate=jump_eval, compensator=jump_comp,
        lipschitz_c=c_k, growth_d=c_k,
    )
    coeffs = CoefficientSet(drift, diffusion, jump)
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
    f_scalar: Callable[[np.ndarray], np.ndarray] = decreasing_cbrt,
    f_growth: tuple[float, float] = (1.0, 1.0),
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
    if levy_gaussian_variance < 0.0:
        raise ValueError("gaussian variance must be >= 0")
    if history is None:
        history = lambda theta: np.sin(np.pi * theta)
    seg = DelayShiftSemigroup(history_cells, alpha=1.0)
    dim = seg.dim
    weights = seg.natural_weights()
    gamma = levy_drift

    def drift_eval(t, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out[..., 0] = np.asarray(f_scalar(x[..., 0]), dtype=float) + gamma * x[..., 0]
        return out

    a, b = f_growth
    drift = DriftSpec(
        evaluate=drift_eval,
        semimonotone_m=max(gamma, 0.0),
        growth_d=4.0 * a * a + 4.0 * b * b + 2.0 * gamma * gamma,
        implicit_step=pointwise_implicit_solver(
            f_scalar, component=0, growth=f_growth, linear_shift=gamma,
            scalar_prox=_prox_for(f_scalar),
        ),
    )

    g_std = math.sqrt(levy_gaussian_variance)
    if g_std > 0.0:
        def diffusion_eval(t, x):
            x = np.asarray(x, dtype=float)
            cols = np.zeros(x.shape[:-1] + (1, dim))
            cols[..., 0, 0] = g_std * x[..., 0]
            return cols

        diffusion = DiffusionSpec(
            evaluate=diffusion_eval, modes=1,
            lipschitz_c=levy_gaussian_variance, growth_d=levy_gaussian_variance,
        )
    else:
        diffusion = zero_diffusion(dim)

    def jump_eval(t, xi, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out[..., 0] = xi * x[..., 0]
        return out

    nu_mean = marks.rate * marks.mark_mean

    def jump_comp(t, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out[..., 0] = nu_mean * x[..., 0]
        return out

    c_k = marks.rate * marks.mark_second_moment
    jump = JumpCoeffSpec(
        evaluate=jump_eval, compensator=jump_comp,
        lipschitz_c=c_k, growth_d=c_k,
    )
    coeffs = CoefficientSet(drift, diffusion, jump)
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
        den = 1.0 - dt * a
        if den <= 0.0:
            return b.copy(), np.zeros(b.shape[:-1], dtype=bool)
        return b / den, np.ones(b.shape[:-1], dtype=bool)

    drift = DriftSpec(
        evaluate=lambda t, x: a * np.asarray(x, dtype=float),
        semimonotone_m=a,
        growth_d=a * a,
        implicit_step=implicit_step,
    )
    if sigma != 0.0:
        diffusion = DiffusionSpec(
            evaluate=lambda t, x: sigma * np.asarray(x, dtype=float)[..., None, :],
            modes=1,
            lipschitz_c=sigma * sigma,
            growth_d=sigma * sigma,
        )
    else:
        diffusion = zero_diffusion(1)
    c_k = marks.rate * marks.mark_second_moment
    nu_mean = marks.rate * marks.mark_mean
    jump = JumpCoeffSpec(
        evaluate=_mark_times_state,
        compensator=lambda t, x: nu_mean * np.asarray(x, dtype=float),
        lipschitz_c=c_k,
        growth_d=c_k,
    )
    coeffs = CoefficientSet(drift, diffusion, jump)
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
    events,
) -> np.ndarray:
    """Closed-form path of the scalar linear model on a given realization.

    X_t = x0 exp((a - sigma^2/2 - nu_mean) t + sigma W_t) prod_{s<=t} (1+xi_s)
    where nu_mean is the first moment of the (uncompensated) intensity.
    Evaluated at the grid points ``times`` from the Wiener values there and
    the (time, mark) pairs in ``events``; each jump takes effect from the
    right endpoint of its cell on, matching the integrator's binning. A
    ``wiener_path`` (paths, len(times)) evaluates a batch of paths at once,
    with ``events`` holding one sequence of pairs per path. On the two points
    (0, T) the value at T is the one on any finer grid, bit for bit.
    """
    times = np.asarray(times, dtype=float)
    wiener_path = np.asarray(wiener_path, dtype=float)
    log_factor = (a - 0.5 * sigma * sigma - nu_mean) * times + sigma * wiener_path
    prod = np.ones_like(log_factor)
    rows = prod.reshape(-1, len(times))
    for row, row_events in zip(rows, [events] if wiener_path.ndim == 1 else events):
        if row_events:
            dt = times[1] - times[0]
            for t_ev, mark in row_events:
                cell = min(int(math.ceil(t_ev / dt)) - 1, len(times) - 2)
                row[max(cell, 0) + 1 :] *= 1.0 + mark
    return x0 * np.exp(log_factor) * prod


EXAMPLE_BUILDERS = {
    "reaction_diffusion": build_reaction_diffusion,
    "hyperbolic": build_hyperbolic,
    "delay": build_delay,
    "linear_scalar": build_linear_scalar,
}

