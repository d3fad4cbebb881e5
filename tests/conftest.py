import dataclasses

import numpy as np

from wallspde.dynamics import CoefficientSpec


def coeffs_zero(alpha):
    """f = 0, sigma = 1."""
    return CoefficientSpec(
        f=lambda x, u: np.zeros_like(u),
        sigma=lambda x, u: np.ones_like(u),
        alpha=alpha,
        lipschitz_c=0.0,
        sigma_min=1.0,
        df_du=lambda x, u: np.zeros_like(u),
        dsigma_du=lambda x, u: np.zeros_like(u),
    )


def coeffs_linear(alpha, c):
    """f = c*u, sigma = 1."""
    return CoefficientSpec(
        f=lambda x, u: c * u,
        sigma=lambda x, u: np.ones_like(u),
        alpha=alpha,
        lipschitz_c=abs(c),
        sigma_min=1.0,
        df_du=lambda x, u: np.full_like(u, c),
        dsigma_du=lambda x, u: np.zeros_like(u),
    )


def coeffs_sin(alpha, c):
    """f = c*sin(u), sigma = 1."""
    return CoefficientSpec(
        f=lambda x, u: c * np.sin(u),
        sigma=lambda x, u: np.ones_like(u),
        alpha=alpha,
        lipschitz_c=abs(c),
        sigma_min=1.0,
        df_du=lambda x, u: c * np.cos(u),
        dsigma_du=lambda x, u: np.zeros_like(u),
    )


def coeffs_sin_statesigma(alpha, c, amp=0.3):
    """f = c*sin(u), sigma = 1 + amp*sin(u); exercises the sigma_u terms."""
    return CoefficientSpec(
        f=lambda x, u: c * np.sin(u),
        sigma=lambda x, u: 1.0 + amp * np.sin(u),
        alpha=alpha,
        lipschitz_c=abs(c),
        sigma_min=1.0 - amp,
        df_du=lambda x, u: c * np.cos(u),
        dsigma_du=lambda x, u: amp * np.cos(u),
    )


def coeffs_cosine_sigma(alpha, c=0.0):
    """f = c*u, sigma(x) = 0.75 + 0.25*cos(pi*x) with lower bound 0.5."""
    return CoefficientSpec(
        f=lambda x, u: c * u,
        sigma=lambda x, u: 0.75 + 0.25 * np.cos(np.pi * x) + 0.0 * u,
        alpha=alpha,
        lipschitz_c=abs(c),
        sigma_min=0.5,
        df_du=lambda x, u: np.full_like(u, c),
        dsigma_du=lambda x, u: np.zeros_like(u),
    )


def counting(coeffs):
    """A copy of ``coeffs`` whose four callables count their calls, and the
    dict the counts go to."""
    calls = dict.fromkeys(("f", "sigma", "df_du", "dsigma_du"), 0)

    def counted(name, fn):
        def call(x, u):
            calls[name] += 1
            return fn(x, u)

        return call

    return dataclasses.replace(coeffs, **{name: counted(name, getattr(coeffs, name)) for name in calls}), calls
