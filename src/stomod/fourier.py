"""Harmonic-balance solution of the driven power-perturbation equation.

The power perturbation obeys

    d(dp)/dt = mu*C1*cos(w_m t) + (mu*C2*cos(w_m t) - Gamma_p) * 2*dp

and is expanded as dp = A0 + sum_n [A_n sin(n w_m t) + B_n cos(n w_m t)].
Collecting harmonics (the cos(w_m t)*dp product couples neighboring
harmonics) gives, with the shorthand g = 2*Gamma_p and e = mu*C2:

    DC:        0        = e*B1 - g*A0
    n=1 cos:   w*A1     = mu*C1 + 2*e*A0 + e*B2 - g*B1
    n=1 sin:  -w*B1     = e*A2 - g*A1
    n>=2 cos:  n*w*A_n  = e*(B_{n-1} + B_{n+1}) - g*B_n
    n>=2 sin: -n*w*B_n  = e*(A_{n-1} + A_{n+1}) - g*A_n

In the complex harmonics X_n = B_n + i*A_n the n >= 2 pairs form the
three-term recurrence

    (g - i*n*w) * X_n = e * (X_{n-1} + X_{n+1}),

truncated by X_{N+1} = 0.  Its solution is the minimal one, which backward
recurrence delivers stably: the ratios q_n = X_n/X_{n-1} obey the continued
fraction q_n = e / ((g - i*n*w) - up*q_{n+1}) from q_{N+1} = 0.  The n = 1
pair then closes as a real 2x2 system once A0 = e*B1/g is eliminated, and
X_n = q_n*X_{n-1} gives the rest, in O(N) operations.  Both methods run
this one recurrence: the matrix method takes up = e and solves the
truncated system exactly; the recursive method takes up = 0, dropping each
harmonic's coupling to the one above.

The diagonal g - i*n*w holds Gamma_p, omega_m and N but not mu, the one
input a mu back-solve varies, so it is keyed without mu: _diagonal forms it
once per (g, w, N) and keeps the last few, and a back-solve's ~70 solves at
one point share one.

A matrix solve is gated by its balance residual, within RESIDUAL_RTOL of the
rate scale; gate=False skips that check alone, for the evaluations of a
search whose caller gates the solution it keeps.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import NumericalError, SingularSystemError
from .model import ModulationConfig, OperatingPoint, warn_outside_model

# Residual acceptance for the balance equations, relative to the
# natural rate scale max(|mu*C1|, Gamma_p).
RESIDUAL_RTOL = 1e-10


@dataclass(frozen=True)
class FourierSolution:
    """A0 and the harmonics X_n = B_n + i*A_n (n = 1..N) of the steady-state
    power perturbation; A_n, B_n and N are read from x."""

    a0: float
    x: np.ndarray  # X_1 .. X_N
    op: OperatingPoint
    modcfg: ModulationConfig

    a = property(lambda self: self.x.imag, doc="Sine coefficients A_1 .. A_N.")
    b = property(lambda self: self.x.real, doc="Cosine coefficients B_1 .. B_N.")
    n_harmonics = property(lambda self: self.x.size, doc="Truncation order N.")

    def x_abs(self, n: int) -> float:
        """|X_n| by libm hypot, bit for bit np.hypot(x.real, x.imag)[n - 1], unlike
        np.abs of a complex array or Python's float hypot."""
        return float(abs(self.x[n - 1]))

    def beta(self, n: int) -> float:
        """Signed FM index beta_n = 2*nu*Gamma_p*|X_n|/(n*omega_m) of harmonic n.

        It carries the sign of nu, as the FM phase needs; a magnitude is its abs().
        """
        return 2.0 * self.op.nu * self.op.gamma_p * self.x_abs(n) / (n * self.modcfg.omega_m)

    @property
    def betas(self) -> np.ndarray:
        """beta(n) for n = 1..N as one array, each element bit for bit beta(n)."""
        x, n_w = self.x, np.arange(1, self.x.size + 1) * self.modcfg.omega_m
        return 2.0 * self.op.nu * self.op.gamma_p * np.hypot(x.real, x.imag) / n_w


@lru_cache(maxsize=4, typed=True)
def _diagonal(g: float, w: float, n_h: int) -> tuple[complex, ...]:
    """Diagonal g - i*n*w of the recurrence, n = 0..N; it holds no mu."""
    return tuple([complex(g, -n * w) for n in range(n_h + 1)])


def _solve(
    op: OperatingPoint, modcfg: ModulationConfig, exact: bool, gate: bool = True
) -> FourierSolution:
    """Continued-fraction solve of the truncated balance equations.

    exact=False sets up, the coupling to the harmonic above, to 0.0 (the
    recursive method): c - 0.0*q is c for a finite q, as Re c >= 0, Im c != 0.
    The residual check runs for exact=True only, and gate=False skips it.
    """
    n_h = modcfg.n_harmonics
    if modcfg.mu == 0.0:
        return FourierSolution(0.0, np.zeros(n_h, dtype=complex), op, modcfg)
    w = modcfg.omega_m
    g = 2.0 * op.gamma_p
    e = modcfg.mu * op.c2
    drive = modcfg.mu * op.c1
    diag = _diagonal(g, w, n_h)
    up = e if exact else 0.0
    try:
        # Ratios q_n = X_n / X_{n-1} for n = 2..N, backward from q_{N+1} = 0.
        q, qs = 0j, []
        for c in diag[:1:-1]:
            q = e / (c - up * q)
            qs.append(q)
        qs.reverse()
        d = diag[1] - up * q
        # n = 1: (g - i*w - up*q_2)*X_1 - (2*e^2/g)*Re X_1 = mu*C1, a real 2x2
        # system in (B_1, A_1) once A0 = e*B_1/g is eliminated.
        det = d.real * d.real + d.imag * d.imag - 2.0 * e * e * d.real / g
        x = complex(drive * d.real / det, -drive * d.imag / det)
    except ZeroDivisionError as exc:  # a zero pivot
        raise SingularSystemError(
            f"harmonic-balance system is singular (gamma_p={op.gamma_p}, "
            f"omega_m={modcfg.omega_m})"
        ) from exc
    xs = [x]
    for q_n in qs:
        x *= q_n
        xs.append(x)
    a0 = e * xs[0].real / g
    # Overflow upstream (det = inf, say) leaves NaN here.  NaN would pass the
    # residual check below, which the recursive method does not run anyway.
    if not (math.isfinite(a0) and all(map(cmath.isfinite, xs))):
        raise NumericalError(
            f"harmonic-balance coefficients are not finite (gamma_p={op.gamma_p}, "
            f"mu={modcfg.mu}, omega_m={modcfg.omega_m})"
        )
    if exact and gate:
        # Largest |row residual| in row order: DC, then n = 1..N,
        # (g - i*n*w)*X_n - e*(X_{n-1} + X_{n+1}) with X_0 = X_{N+1} = 0, less
        # the drive mu*C1 + 2*e*A0 at n = 1.
        ext = [0j, *xs, 0j]
        res = [c * x_n - e * (lo + hi) for c, lo, x_n, hi in zip(diag[1:], ext, xs, ext[2:])]
        res[0] -= drive + 2.0 * e * a0
        residual = max(abs(e * xs[0].real - g * a0), *map(abs, res))
        scale = max(abs(drive), op.gamma_p)
        if residual > RESIDUAL_RTOL * scale:
            raise NumericalError(
                f"harmonic-balance residual {residual:.3e} exceeds "
                f"{RESIDUAL_RTOL:.0e} * {scale:.3e}"
            )
    if abs(xs[-1]) > abs(xs[0]) > 0.0:
        warnings.warn(
            f"harmonic coefficients do not decay (|X_{n_h}| > |X_1|); "
            f"truncation order N={n_h} may be too small",
            stacklevel=3,
        )
    return FourierSolution(a0, np.array(xs), op, modcfg)


def solve_coefficients_matrix(
    op: OperatingPoint, modcfg: ModulationConfig, *, gate: bool = True
) -> FourierSolution:
    """Solve the truncated harmonic-balance system exactly.

    The solution is gated by default: a balance residual past RESIDUAL_RTOL
    of the rate scale raises NumericalError.  gate=False skips only that
    check, for a search's evaluations whose caller gates the solution it
    keeps; non-finite coefficients and a zero pivot still raise.
    """
    warn_outside_model(op, modcfg)
    return _solve(op, modcfg, exact=True, gate=gate)


def solve_coefficients_recursive(
    op: OperatingPoint, modcfg: ModulationConfig
) -> FourierSolution:
    """Approximate solve with the n+1 coupling of every harmonic dropped.

    The matrix method's recurrence with that coupling zero: each harmonic is forced
    only by the previous one, X_n/X_{n-1} = mu*C2/(2*Gamma_p - i*n*omega_m).
    Cheap and usually close to the matrix method, but degrades near sideband minima.
    """
    warn_outside_model(op, modcfg)
    return _solve(op, modcfg, exact=False)


def carrier_shift(sol: FourierSolution) -> float:
    """Carrier frequency shift f_s in Hz.

    The DC balance ties the shift 2*nu*Gamma_p*A0 to the first cosine
    coefficient: 2*pi*f_s = mu*nu*C2*B1.
    """
    return sol.op.nu * sol.op.gamma_p * sol.a0 / math.pi


def _distance_percent(x: np.ndarray, ref_x: np.ndarray) -> float:
    """sum|X_n - X_ref_n| / sum|X_ref_n| in percent, with X_n = 0 past len(x)."""
    ref_total = float(np.sum(np.abs(ref_x)))
    if ref_total == 0.0:
        return 0.0
    shared = len(x)
    err = float(np.sum(np.abs(x - ref_x[:shared])))
    err += float(np.sum(np.abs(ref_x[shared:])))
    return 100.0 * err / ref_total


def truncation_error(
    op: OperatingPoint,
    modcfg: ModulationConfig,
    n_values: list[int],
    n_ref: int,
) -> list[tuple[int, float]]:
    """Total truncation error (percent) of each order N against order n_ref.

    The metric is the relative L1 distance of the harmonics X_n, with
    harmonics past N counted at their reference magnitude.
    """
    if n_ref <= max(n_values):
        raise ValueError(f"n_ref={n_ref} must exceed max(n_values)={max(n_values)}")

    def x(n: int) -> np.ndarray:
        return solve_coefficients_matrix(op, replace(modcfg, n_harmonics=n)).x

    ref = x(n_ref)
    return [(n_val, _distance_percent(x(n_val), ref)) for n_val in n_values]

