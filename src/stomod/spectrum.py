"""Modulated output spectrum: analytic line convolution and FFT cross-check.

The complex baseband signal is s(t) = (1 + dp(t)) * exp(i*dphi(t)), where
dphi is the phase with the shifted-carrier ramp removed.  Its line spectrum
is the convolution of an amplitude (NAM) factor

    {0: 1 + A0,  +n: conj(X_n)/2,  -n: X_n/2}

with one FM factor per harmonic n,

    {0: J_0(beta_n),  +n*j: J_j(beta_n) * (conj(X_n)/|X_n|)^j,
                      -n*j: (-1)^j * J_j(beta_n) * (X_n/|X_n|)^j}.

Line powers are squared moduli, normalized so the unmodulated carrier has
power 1.  The FFT path synthesizes s(t) over whole modulation periods and
must agree with the convolution line by line.  It samples dp and dphi by one
inverse FFT of the coefficients per period, folding harmonics past Nyquist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridCoverageError, NumericalError, SeedBandError
from .fourier import FourierSolution, carrier_shift, solve_coefficients_matrix
from .model import TWO_PI, ModulationConfig, OperatingPoint

DEFAULT_J_MAX = 10
DEFAULT_K_MAX = 40
DEFAULT_SAMPLES_PER_PERIOD = 256
DEFAULT_N_PERIODS = 8

# Lines below this fraction of the strongest line are considered numerical
# noise (FFT floor) and dropped.
_LINE_POWER_FLOOR = 1e-22

# Largest |beta| that jv accepts.  Its FFT length grows with |beta|, so a
# non-finite or absurd FM index is refused before anything is allocated.
_BETA_CAP = 2.0**15


@dataclass(frozen=True)
class LineSpectrum:
    """Discrete line spectrum on the harmonic grid k * omega_m, offsets
    counted from the shifted carrier omega_sto'."""

    offsets: np.ndarray  # int, sorted ascending
    powers: np.ndarray  # |amp|^2, carrier-normalized

    def power_at(self, k: int) -> float:
        idx = np.nonzero(self.offsets == k)[0]
        return float(self.powers[idx[0]]) if idx.size else 0.0


@dataclass(frozen=True)
class TimeTrace:
    """Sampled power perturbation and baseband phase.

    demod_freq is the ramp frequency (rad/s) removed from the phase.
    """

    t: np.ndarray
    delta_p: np.ndarray
    phi: np.ndarray
    demod_freq: float

    def harmonics(self, values: np.ndarray, omega_m: float, k_max: int) -> np.ndarray:
        """Complex coefficients c_k of values at k*omega_m, k = -k_max..k_max.

        values(t) = sum_k c_k * exp(i*k*omega_m*t), read off one FFT in the
        absolute time that the synthesis and the oracle drive in.  The uniform
        grid must span whole periods, endpoint excluded, sampled above 2*k_max
        per period; anything else raises GridCoverageError.
        """
        n_samples = self.t.size
        if n_samples < 2:
            raise GridCoverageError("trace too short")
        dt = self.t[1] - self.t[0]
        if not np.allclose(np.diff(self.t), dt, rtol=1e-9, atol=0.0):
            raise GridCoverageError("trace is not uniformly sampled")
        n_per = n_samples * dt / (TWO_PI / omega_m)
        if abs(n_per - round(n_per)) > 1e-9 * n_per or round(n_per) < 1:
            raise GridCoverageError(
                f"trace spans {n_per} modulation periods; an integer count is required"
            )
        n_per = int(round(n_per))
        if n_samples % n_per:
            raise GridCoverageError("samples do not divide evenly into periods")
        if 2 * k_max >= n_samples // n_per:
            raise GridCoverageError(
                f"k_max={k_max} is at or past the Nyquist limit of "
                f"{n_samples // n_per} samples per period"
            )
        k = np.arange(-k_max, k_max + 1)
        coeffs = np.fft.fft(values) / n_samples
        return coeffs[(k * n_per) % n_samples] * np.exp(-1j * k * omega_m * self.t[0])


def shifted_carrier(sol: FourierSolution) -> float:
    """Shifted carrier omega_sto' = omega_sto + 2*pi*f_s, rad/s."""
    return sol.op.omega_sto + TWO_PI * carrier_shift(sol)


def _sample_period(sol: FourierSolution, m: int) -> np.ndarray:
    """Rows dp and phi at theta = 2*pi*i/m, i = 0..m-1, from one inverse FFT.

    Harmonic n sits on bins n mod m and -n mod m, so one past Nyquist folds
    onto its alias exactly as the sampled cos/sin sum does.
    """
    n, x = np.arange(1, sol.n_harmonics + 1), sol.x
    beta = np.array([sol.beta(k) for k in n])
    half = np.stack([np.conj(x), -1j * beta * np.exp(-1j * np.angle(x))]) / 2.0  # bins +n
    coef = np.zeros((2, m), dtype=complex)
    coef[0, 0] = sol.a0
    np.add.at(coef, (slice(None), np.r_[n, -n] % m), np.hstack([half, np.conj(half)]))
    return np.fft.ifft(coef, norm="forward").real


def synthesize_time_trace(
    sol: FourierSolution,
    samples_per_period: int = DEFAULT_SAMPLES_PER_PERIOD,
    n_periods: int = DEFAULT_N_PERIODS,
) -> TimeTrace:
    """Evaluate the steady-state dp(t) and baseband phase on a uniform grid.

    The grid covers exactly n_periods modulation periods, endpoint excluded,
    so projections and FFTs are leak-free.  One period is sampled by an
    inverse FFT of the coefficients and repeated n_periods times.
    """
    if samples_per_period < 16:
        raise ValueError(f"samples_per_period must be >= 16, got {samples_per_period}")
    if n_periods < 1:
        raise ValueError(f"n_periods must be >= 1, got {n_periods}")
    t = np.arange(samples_per_period * n_periods) * (TWO_PI / sol.modcfg.omega_m / samples_per_period)
    delta_p, phi = np.tile(_sample_period(sol, samples_per_period), n_periods)
    return TimeTrace(t=t, delta_p=delta_p, phi=phi, demod_freq=shifted_carrier(sol))


def jv(j_max: int, beta: float) -> np.ndarray:
    """Bessel values J_0(beta) .. J_{j_max}(beta) of the first kind.

    By the Jacobi-Anger expansion (DLMF 10.12.1) J_j(beta) is the j-th
    Fourier coefficient of exp(i*beta*sin(theta)).  Its spectrum falls off
    beyond |j| ~ |beta|, so M samples with M > 2*(|beta| + j_max) + 40 make
    the aliasing error negligible against round-off.
    """
    if not abs(beta) <= _BETA_CAP:
        raise NumericalError(f"FM index beta={beta} is not finite or exceeds {_BETA_CAP:g}")
    m = 1 << int(2.0 * (abs(beta) + j_max) + 40.0).bit_length()
    theta = np.arange(m) * (TWO_PI / m)
    return np.fft.fft(np.exp(1j * beta * np.sin(theta)))[: j_max + 1].real / m


def psd_analytic(
    sol: FourierSolution,
    j_max: int = DEFAULT_J_MAX,
    k_max: int = DEFAULT_K_MAX,
) -> LineSpectrum:
    """Line spectrum from the Bessel-convolution expansion."""
    if j_max < 1:
        raise ValueError(f"j_max must be >= 1, got {j_max}")
    amps = np.zeros(2 * k_max + 1, dtype=complex)
    amps[k_max] = 1.0 + sol.a0
    x = sol.x[:k_max]  # harmonics past k_max fall off the grid
    amps[k_max + 1 : k_max + 1 + x.size] = np.conj(x) / 2.0
    amps[k_max - x.size : k_max] = x[::-1] / 2.0
    for n, x_n in enumerate(sol.x, start=1):
        if x_n == 0.0:
            continue  # identity FM factor
        j = np.arange(min(j_max, k_max // n) + 1)
        taps = jv(j[-1], sol.beta(n)) * (np.conj(x_n) / abs(x_n)) ** j
        fm = np.zeros(2 * k_max + 1, dtype=complex)
        fm[k_max + n * j] = taps
        fm[k_max - n * j] = (-1.0) ** j * np.conj(taps)
        amps = np.convolve(amps, fm)[k_max : 3 * k_max + 1]
    return _build_spectrum(amps, k_max)


def psd_fft(
    trace: TimeTrace,
    sol: FourierSolution,
    k_max: int = DEFAULT_K_MAX,
) -> LineSpectrum:
    """Line spectrum from the FFT of the sampled baseband signal.

    Its lines are TimeTrace.harmonics of (1 + dp) * exp(i*phi), so the trace
    must cover whole modulation periods on a uniform grid, sampled above
    2*k_max per period; anything else is rejected rather than windowed.
    """
    signal = (1.0 + trace.delta_p) * np.exp(1j * trace.phi)
    return _build_spectrum(trace.harmonics(signal, sol.modcfg.omega_m, k_max), k_max)


def _build_spectrum(amps: np.ndarray, k_max: int) -> LineSpectrum:
    powers = np.abs(amps) ** 2
    if not np.isfinite(powers).all():
        raise NumericalError("line spectrum has non-finite powers")
    peak = powers.max()
    keep = powers > _LINE_POWER_FLOOR * peak if peak > 0.0 else powers > 0.0
    return LineSpectrum(offsets=np.arange(-k_max, k_max + 1)[keep], powers=powers[keep])


def sideband_asymmetry(spec: LineSpectrum) -> float:
    """Normalized power difference of the first sidebands, P(+1) - P(-1)."""
    return spec.power_at(+1) - spec.power_at(-1)


def _dp_extremes(sol: FourierSolution) -> tuple[float, float]:
    """Largest and smallest dp over one modulation period.

    They are the extremes of max(64, 8N) samples, each kept or bettered by
    Newton steps on the analytic derivative.  A minimum with 1 + dp <= 0
    (negative power) raises NumericalError.
    """
    dp = _sample_period(sol, max(64, 8 * sol.n_harmonics))[0]
    n, xc = np.arange(1, sol.n_harmonics + 1), np.conj(sol.x)
    theta = TWO_PI / dp.size * np.array([dp.argmax(), dp.argmin()])
    for _ in range(4):  # quadratic from the sampled extreme: 2 steps reach round-off
        z = xc * np.exp(1j * np.outer(theta, n))  # |X_n| exp(i(n*theta - psi_n))
        curv = (n * n * z.real).sum(axis=1)
        theta = theta - (n * z.imag).sum(axis=1) / np.where(curv != 0.0, curv, np.inf)
    polished = sol.a0 + (xc * np.exp(1j * np.outer(theta, n))).real.sum(axis=1)
    hi, lo = np.fmax(dp.max(), polished[0]), np.fmin(dp.min(), polished[1])
    if 1.0 + lo <= 0.0:
        raise NumericalError(f"negative power: min dp = {lo:.6g} makes 1 + dp <= 0")
    return float(hi), float(lo)


def _refuse_negative_power(sol: FourierSolution) -> None:
    """Raise NumericalError if 1 + dp <= 0 anywhere in the period.

    The bound dp >= A0 - sum|X_n| clears most solutions without sampling;
    the rest go through _dp_extremes.
    """
    if 1.0 + sol.a0 - np.hypot(sol.a, sol.b).sum() <= 0.0:
        _dp_extremes(sol)


def peak_frequency_deviation(sol: FourierSolution, method: str = "index-based") -> float:
    """Peak frequency deviation in Hz, a magnitude: both methods use |nu|.

    "index-based" evaluates |beta_1|*f_m = |nu|*Gamma_p*|X_1|/pi (first-harmonic
    FM index); "instantaneous" takes half the peak-to-peak swing of the
    instantaneous frequency 2*|nu|*Gamma_p*dp/(2*pi) over one modulation period,
    from the dp extremes of _dp_extremes (negative power raises NumericalError).
    """
    if method == "index-based":
        return abs(sol.beta(1)) * sol.modcfg.omega_m / TWO_PI
    if method == "instantaneous":
        hi, lo = _dp_extremes(sol)
        return abs(sol.op.nu * sol.op.gamma_p) * (hi - lo) / TWO_PI
    raise ValueError(f"unknown method {method!r}")


def first_harmonic_index(
    op: OperatingPoint, mu: float, omega_m: float, n_harmonics: int = 10
) -> float:
    """Magnitude |beta_1| of the first-harmonic index at the given drive settings."""
    sol = solve_coefficients_matrix(
        op, ModulationConfig(mu=mu, omega_m=omega_m, n_harmonics=n_harmonics)
    )
    return abs(sol.beta(1))


def modulation_bandwidth(
    op: OperatingPoint,
    mu0: float,
    omega_m0: float,
    n_harmonics: int = 10,
) -> float:
    """Modulation bandwidth in Hz: where beta_1 falls to 1/sqrt(2) of its
    flat-band value, scanning omega_m upward at constant mu/omega_m, to 1e-3 relative.
    """
    if mu0 <= 0.0 or omega_m0 <= 0.0:
        raise SeedBandError(f"mu0={mu0} and omega_m0={omega_m0} must be positive")
    beta_i = first_harmonic_index(op, mu0, omega_m0, n_harmonics)
    beta_2x = first_harmonic_index(op, 2.0 * mu0, 2.0 * omega_m0, n_harmonics)
    if beta_i - beta_2x > 0.01 * beta_i:
        raise SeedBandError(
            f"seed omega_m0={omega_m0:.3e} rad/s is not in the flat band "
            f"(beta_1 drops {100.0 * (beta_i - beta_2x) / beta_i:.2f}% by 2*omega_m0)"
        )
    target = beta_i / math.sqrt(2.0)

    def beta_at(w: float) -> float:
        return first_harmonic_index(op, mu0 * w / omega_m0, w, n_harmonics)

    lo, hi = omega_m0, 2.0 * omega_m0
    for _ in range(60):
        if beta_at(hi) < target:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise SeedBandError("beta_1 never fell below the half-power target")
    while (hi - lo) > 1e-3 * lo:
        mid = 0.5 * (lo + hi)
        if beta_at(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) / TWO_PI


def solve_mu_for_beta1(
    op: OperatingPoint,
    beta1: float,
    omega_m: float,
    n_harmonics: int = 10,
    mu_max: float = 0.5,
) -> float:
    """Back-solve the modulation strength that produces a given beta_1, to 1e-10 in mu."""
    if beta1 < 0.0:
        raise ValueError(f"beta1 must be >= 0, got {beta1}")
    if beta1 == 0.0:
        return 0.0
    # March upward to bracket the target; beta_1(mu) is monotone at small mu
    # but the truncated series misbehaves once mu*C2 rivals Gamma_p, so a
    # decrease before the target is reported rather than bisected through.
    mu_lo, beta_lo = 0.0, 0.0
    mu_hi = min(1e-6, mu_max)
    while True:
        beta_hi = first_harmonic_index(op, mu_hi, omega_m, n_harmonics)
        if beta_hi >= beta1:
            break
        if beta_hi < beta_lo:
            raise NumericalError(
                f"beta1={beta1} unreachable: beta_1(mu) turns non-monotone near "
                f"mu={mu_lo:.4g} (max reached {beta_lo:.4f})"
            )
        mu_lo, beta_lo = mu_hi, beta_hi
        if mu_hi >= mu_max:
            raise NumericalError(
                f"beta1={beta1} not reachable with mu <= {mu_max} "
                f"(beta_1({mu_max}) = {beta_hi:.4f})"
            )
        mu_hi = min(1.25 * mu_hi, mu_max)
    while mu_hi - mu_lo > 1e-10:
        mid = 0.5 * (mu_lo + mu_hi)
        if first_harmonic_index(op, mid, omega_m, n_harmonics) < beta1:
            mu_lo = mid
        else:
            mu_hi = mid
    return 0.5 * (mu_lo + mu_hi)
