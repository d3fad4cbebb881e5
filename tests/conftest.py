import dataclasses

import numpy as np

from wallspde.config import build_coefficients
from wallspde.dynamics import CoefficientSpec

# Every registry (f kind, sigma kind) pair that config.build_coefficients builds.
REGISTRY_KINDS = [(f, sigma) for f in ("zero", "linear", "sinusoidal") for sigma in ("one", "cosine_profile", "state_modulated")]


def coeffs_zero(alpha):
    """f = 0, sigma = 1, declared as ``config.build_coefficients`` declares them."""
    return CoefficientSpec(
        f=lambda x, u: np.zeros_like(u),
        sigma=lambda x, u: np.ones_like(u),
        alpha=alpha,
        lipschitz_c=0.0,
        sigma_min=1.0,
        df_du=lambda x, u: np.zeros_like(u),
        dsigma_du=lambda x, u: np.zeros_like(u),
        sigma_profile=np.ones_like,
        f_zero=True,
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


def registry_coeffs(alpha, f_kind, sigma_kind, c=1.5, amp=0.3):
    """``config.build_coefficients`` for one registry pair, with its declarations."""
    section = {"alpha": alpha, "f": f_kind, "sigma": sigma_kind, "sigma_amplitude": amp}
    if f_kind != "zero":
        section["c"] = c
    return build_coefficients(section)


def undeclared(coeffs):
    """``coeffs`` with its declarations stripped, so the scheme calls f and sigma at every step."""
    return dataclasses.replace(coeffs, sigma_profile=None, f_zero=False)
