"""Modulated output spectrum: analytic line convolution and FFT cross-check.

The complex baseband signal is s(t) = (1 + dp(t)) * exp(i*dphi(t)), where
dphi is the phase with the shifted-carrier ramp removed.  Its line spectrum
is the convolution of an amplitude (NAM) factor

    {0: 1 + A0,  +n: conj(X_n)/2,  -n: X_n/2}

with one FM factor per harmonic n,

    {0: J_0(beta_n),  +n*j: J_j(beta_n) * (conj(X_n)/|X_n|)^j,
                      -n*j: (-1)^j * J_j(beta_n) * (X_n/|X_n|)^j}.

Line powers are squared moduli, normalized so the unmodulated carrier has
power 1.  One kernel, _line_spectra, evaluates this for a whole table of
points: it builds the combs and Bessel values of many points at once and
leaves only each point's chain of convolutions to a per-point loop;
psd_analytic is its one-point call.  Each convolution of the chain computes
only the 2*k_max+1 kept lines, bit for bit equal to those lines of the full
convolution.  The FFT path synthesizes s(t) over whole modulation periods
and must agree with the convolution line by line.  It samples dp and dphi
by one inverse FFT of the coefficients per period, folding harmonics past
Nyquist, and reads the lines off one FFT of a period; the dp extremes
sample dp alone.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import GridCoverageError, NumericalError, SeedBandError
from .fourier import FourierSolution, carrier_shift, solve_coefficients_matrix
from .model import TWO_PI, ModulationConfig, OperatingPoint, warn_outside_model

DEFAULT_J_MAX = 10
DEFAULT_K_MAX = 40
DEFAULT_SAMPLES_PER_PERIOD = 256
DEFAULT_N_PERIODS = 1

# Lines below this fraction of the strongest line are considered numerical
# noise (FFT floor) and dropped.
_LINE_POWER_FLOOR = 1e-22

# Points per block of _line_spectra, and the most elements one of its work
# arrays (FM combs, Bessel FFT samples) holds: the kernel's memory is bounded
# whatever the grid size, spectrum depth or FM index.
_BLOCK = 4
_WORK_ELEMENTS = 1 << 12

# Largest |beta| that _check_beta accepts.  _bessel_rows' FFT length grows with |beta|,
# so jv and _line_spectra refuse a non-finite or absurd FM index before it runs.
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
        per period; anything else raises GridCoverageError.  Bin k*n_per of
        the FFT of n_per periods of m samples is bin k mod m of the FFT of
        the periods' sample-by-sample sum, an exact identity of the DFT that
        needs no two periods to be equal, so the periods are folded first
        and one m-sample FFT is taken (512 points for an 8-period oracle
        trace of 512 samples per period, not 4,096).  The fold moves a line
        by round-off only, at most about n_per*eps*max|values|.
        """
        if k_max < 0:
            raise ValueError(f"k_max must be >= 0, got {k_max}")
        n_samples = self.t.size
        if n_samples < 2:
            raise GridCoverageError("trace too short")
        dt = self.t[1] - self.t[0]
        # A NaN spacing fails the comparison, so it is refused too.
        if not np.abs(np.diff(self.t) - dt).max() <= 1e-9 * abs(dt):
            raise GridCoverageError("trace is not uniformly sampled")
        n_per = n_samples * dt / (TWO_PI / omega_m)
        if abs(n_per - round(n_per)) > 1e-9 * n_per or round(n_per) < 1:
            raise GridCoverageError(
                f"trace spans {n_per} modulation periods; an integer count is required"
            )
        n_per = int(round(n_per))
        if n_samples % n_per:
            raise GridCoverageError("samples do not divide evenly into periods")
        m = n_samples // n_per
        if 2 * k_max >= m:
            raise GridCoverageError(
                f"k_max={k_max} is at or past the Nyquist limit of {m} samples per period"
            )
        k = np.arange(-k_max, k_max + 1)
        coeffs = np.fft.fft(values.reshape(n_per, m).sum(axis=0))[k % m] / n_samples
        return coeffs * np.exp(-1j * k * omega_m * self.t[0])


def shifted_carrier(sol: FourierSolution) -> float:
    """Shifted carrier omega_sto' = omega_sto + 2*pi*f_s, rad/s."""
    return sol.op.omega_sto + TWO_PI * carrier_shift(sol)


def _sample_period(sol: FourierSolution, m: int, *, phase: bool) -> np.ndarray:
    """Row dp and, if phase, row phi at theta = 2*pi*i/m, i = 0..m-1, from one
    inverse FFT.

    Harmonic n sits on bins n mod m and -n mod m, so one past Nyquist folds
    onto its alias exactly as the sampled cos/sin sum does.  Each row is
    transformed on its own, so dp alone equals dp sampled with phi bit for bit.
    _dp_extremes samples dp alone because the phi row needs
    beta_n = 2*nu*Gamma_p*|X_n|/(n*omega_m), which can overflow where dp is
    fine: at bandwidth.f_m_grid_hz=1e-300 it would add "overflow encountered
    in divide" and "invalid value encountered in multiply" warnings to the
    run, so phase=False is not only a saving.
    """
    n, x = np.arange(1, sol.n_harmonics + 1), sol.x
    half = [np.conj(x)]
    if phase:
        half.append(-1j * sol.betas * np.exp(-1j * np.angle(x)))
    half = np.stack(half) / 2.0  # bins +n
    coef = np.zeros((len(half), m), dtype=complex)
    coef[0, 0] = sol.a0
    np.add.at(coef, (slice(None), np.concatenate([n, -n]) % m),
              np.concatenate([half, np.conj(half)], axis=1))
    return np.fft.ifft(coef, norm="forward").real


def synthesize_time_trace(
    sol: FourierSolution,
    samples_per_period: int = DEFAULT_SAMPLES_PER_PERIOD,
    n_periods: int = DEFAULT_N_PERIODS,
) -> TimeTrace:
    """Evaluate the steady-state dp(t) and baseband phase on a uniform grid.

    The grid covers exactly n_periods modulation periods, endpoint excluded,
    so projections and FFTs are leak-free.  One period is sampled by an
    inverse FFT of the coefficients and repeated n_periods times.  The
    steady state repeats every period, so one period (the default) holds
    every line that TimeTrace.harmonics reads.
    """
    if samples_per_period < 16:
        raise ValueError(f"samples_per_period must be >= 16, got {samples_per_period}")
    if n_periods < 1:
        raise ValueError(f"n_periods must be >= 1, got {n_periods}")
    t = np.arange(samples_per_period * n_periods) * (TWO_PI / sol.modcfg.omega_m / samples_per_period)
    delta_p, phi = np.tile(_sample_period(sol, samples_per_period, phase=True), n_periods)
    return TimeTrace(t=t, delta_p=delta_p, phi=phi, demod_freq=shifted_carrier(sol))


def _check_beta(beta: float) -> None:
    """Refuse an FM index that is not finite or past _BETA_CAP."""
    if not abs(beta) <= _BETA_CAP:
        raise NumericalError(f"FM index beta={beta} is not finite or exceeds {_BETA_CAP:g}")


def _bessel_rows(j_max: list[int], beta: list[float]) -> np.ndarray:
    """Row r holds J_0(beta[r]) .. J_{j_max[r]}(beta[r]) of the first kind in its
    first j_max[r] + 1 columns; what lies past them is not defined.

    By the Jacobi-Anger expansion (DLMF 10.12.1) J_j(beta) is the j-th
    Fourier coefficient of exp(i*beta*sin(theta)).  Its spectrum falls off
    beyond |j| ~ |beta|, so M samples with M > 2*(|beta| + j_max) + 40 make
    the aliasing error negligible against round-off.  Each row takes the
    power of two M it needs; rows with the same M share one sin(theta) grid
    and FFT calls of at most _WORK_ELEMENTS samples, whose rows equal one-row
    calls bit for bit.  Each beta must have passed _check_beta.
    """
    m = [1 << int(2.0 * (abs(b) + j) + 40.0).bit_length() for b, j in zip(beta, j_max)]
    out = np.zeros((len(beta), max(j_max, default=0) + 1))
    beta = np.asarray(beta, dtype=float)
    for size in set(m):
        sin_theta = np.sin(np.arange(size) * (TWO_PI / size))
        rows = [r for r, m_r in enumerate(m) if m_r == size]
        step = max(1, _WORK_ELEMENTS // size)
        for part in (rows[i : i + step] for i in range(0, len(rows), step)):
            width = max(j_max[r] for r in part) + 1
            samples = np.exp(1j * beta[part, None] * sin_theta)
            out[part, :width] = np.fft.fft(samples, axis=1)[:, :width].real / size
    return out


def jv(j_max: int, beta: float) -> np.ndarray:
    """Bessel values J_0(beta) .. J_{j_max}(beta) of the first kind: one row of _bessel_rows."""
    _check_beta(beta)
    return _bessel_rows([j_max], [beta])[0]


def _fm_combs(
    n: np.ndarray, beta: list[float], x: np.ndarray, j_max: int, k_max: int
) -> np.ndarray:
    """FM combs of the (point, harmonic) rows, one per row on the 2*k_max+1 offsets:

        {0: J_0(beta_n),  +n*j: J_j(beta_n) * u^j,  -n*j: (-1)^j * conj(J_j(beta_n) * u^j)}

    with u = conj(X_n)/|X_n| and j up to min(j_max, k_max // n).  x, the rows'
    X_n, is read, never written.  The taps are one vector per row, placed by
    fancy assignment; each -n*j tap is its +n*j tap sign-flipped and
    conjugated, both exact, so the combs equal a tap-by-tap build bit for bit.
    """
    orders = np.minimum(j_max, k_max // n)
    bessel = _bessel_rows(orders.tolist(), beta)
    rr, jj = np.nonzero(np.arange(bessel.shape[1]) <= orders[:, None])
    # |X_n| by hypot, as scalar abs() takes it.  numpy's complex division
    # multiplies by 1/|X_n|, which overflows for a subnormal one: scale those
    # rows by an exact power of two first, the rest by 1.0, which cannot overflow.
    x = x * np.where(np.hypot(x.real, x.imag) < np.finfo(float).tiny, 2.0**600, 1.0)
    u = np.conj(x) / np.hypot(x.real, x.imag)
    taps = bessel[rr, jj] * u[rr] ** jj
    combs = np.zeros((n.size, 2 * k_max + 1), dtype=complex)
    nj = n[rr] * jj
    combs[rr, k_max + nj] = taps
    combs[rr, k_max - nj] = (-1.0) ** jj * np.conj(taps)
    return combs


def _line_spectra(
    sols: Sequence[FourierSolution], j_max: int, k_max: int
) -> Iterator[LineSpectrum]:
    """Line spectra of many solutions, in order, from the Bessel-convolution expansion.

    Points go in blocks of _BLOCK: one (points, 2*k_max+1) array holds their
    amplitude combs, and the block's (point, harmonic) rows get their Bessel
    values, taps and FM combs together, _WORK_ELEMENTS comb entries at a
    time.  Only each point's np.convolve chain over its live harmonics, in
    order, runs point by point.  Each link computes only the 2*k_max+1 kept
    lines (mode "same"): numpy builds each from the same overlap as the full
    4*k_max+1-line convolution, so they equal its slice [k_max : 3*k_max+1]
    bit for bit.  So a table's spectra equal one-point calls (psd_analytic)
    bit for bit.  A point's error (an FM index past _BETA_CAP, non-finite
    lines) is raised at its turn, after the spectra before it.
    """
    if j_max < 1:
        raise ValueError(f"j_max must be >= 1, got {j_max}")
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    width = 2 * k_max + 1
    chunk = max(1, _WORK_ELEMENTS // width)
    for start in range(0, len(sols), _BLOCK):
        block = sols[start : start + _BLOCK]
        amps = np.zeros((len(block), width), dtype=complex)
        point, n, beta, x, failed = [], [], [], [], None
        for i, sol in enumerate(block):
            xs = sol.x
            head = xs[:k_max]  # harmonics past k_max fall off the grid
            amps[i, k_max] = 1.0 + sol.a0
            amps[i, k_max + 1 : k_max + 1 + head.size] = np.conj(head) / 2.0
            amps[i, k_max - head.size : k_max] = head[::-1] / 2.0
            live = np.flatnonzero(xs)  # X_n = 0 has the identity FM comb
            betas = sol.betas[live].tolist()
            try:
                for b in betas:
                    _check_beta(b)
            except NumericalError as exc:
                failed, block = exc, block[:i]
                break
            point += [i] * live.size
            n += (live + 1).tolist()
            beta += betas
            x += xs[live].tolist()
        n, x, acc = np.array(n, dtype=int), np.array(x, dtype=complex), list(amps)
        for r in range(0, len(point), chunk):
            rows = slice(r, r + chunk)
            for p, comb in zip(point[rows], _fm_combs(n[rows], beta[rows], x[rows], j_max, k_max)):
                acc[p] = np.convolve(acc[p], comb, mode="same")
        for a in acc[: len(block)]:
            yield _build_spectrum(a, k_max)
        if failed is not None:
            raise failed


def psd_analytic(
    sol: FourierSolution,
    j_max: int = DEFAULT_J_MAX,
    k_max: int = DEFAULT_K_MAX,
) -> LineSpectrum:
    """Line spectrum from the Bessel-convolution expansion: the one-point call of _line_spectra."""
    return next(_line_spectra([sol], j_max, k_max))


def psd_fft(
    trace: TimeTrace,
    sol: FourierSolution,
    k_max: int = DEFAULT_K_MAX,
) -> LineSpectrum:
    """Line spectrum from the FFT of the sampled baseband signal.

    Its lines are TimeTrace.harmonics of (1 + dp) * exp(i*phi), so the trace
    must cover whole modulation periods on a uniform grid, sampled above
    2*k_max per period; anything else is rejected rather than windowed.
    The signal is formed over the whole trace and its periods folded before
    the one-period FFT, so a one-period trace costs the least.
    """
    signal = (1.0 + trace.delta_p) * np.exp(1j * trace.phi)
    return _build_spectrum(trace.harmonics(signal, sol.modcfg.omega_m, k_max), k_max)


def _build_spectrum(amps: np.ndarray, k_max: int) -> LineSpectrum:
    powers = np.abs(amps) ** 2
    if not np.isfinite(powers).all():
        raise NumericalError("line spectrum has non-finite powers")
    keep = powers > _LINE_POWER_FLOOR * powers.max()  # all zero: no line kept
    return LineSpectrum(offsets=np.arange(-k_max, k_max + 1)[keep], powers=powers[keep])


def sideband_asymmetry(spec: LineSpectrum) -> float:
    """Normalized power difference of the first sidebands, P(+1) - P(-1)."""
    return spec.power_at(+1) - spec.power_at(-1)


def _dp_extremes(sol: FourierSolution) -> tuple[float, float]:
    """Largest and smallest dp over one modulation period.

    They are the extremes of max(64, 8N) samples, each kept or bettered by
    Newton steps on the analytic derivative.  It only measures: its callers
    judge them.
    """
    dp = _sample_period(sol, max(64, 8 * sol.n_harmonics), phase=False)[0]
    n, xc = np.arange(1, sol.n_harmonics + 1), np.conj(sol.x)
    theta = TWO_PI / dp.size * np.array([dp.argmax(), dp.argmin()])
    for _ in range(4):  # quadratic from the sampled extreme: 2 steps reach round-off
        z = xc * np.exp(1j * np.outer(theta, n))  # |X_n| exp(i(n*theta - psi_n))
        curv = (n * n * z.real).sum(axis=1)
        theta = theta - (n * z.imag).sum(axis=1) / np.where(curv != 0.0, curv, np.inf)
    polished = sol.a0 + (xc * np.exp(1j * np.outer(theta, n))).real.sum(axis=1)
    return float(np.fmax(dp.max(), polished[0])), float(np.fmin(dp.min(), polished[1]))


def _refuse_negative_power(lo: float, cause: str = "") -> None:
    """Raise NumericalError if min dp = lo makes 1 + dp <= 0, a negative power."""
    if 1.0 + lo <= 0.0:
        raise NumericalError(f"negative power: min dp = {lo:.6g} makes 1 + dp <= 0{cause}")


def _outside_model(op: OperatingPoint, modcfg: ModulationConfig, order_key: str) -> str:
    """At mu < 1, why raising order_key cannot mend the row, or "" if it may.

    For a = mu*|C2|/Gamma_p > 1 the rate 2*(mu*C2*cos(w_m t) - Gamma_p) of
    the homogeneous equation is positive on an arc of the period, over which
    its solution grows by e**E, E = (4*Gamma_p/w_m)*(sqrt(a**2 - 1) -
    arccos(1/a)).  Past E = 36 (e**36 ~ 4e15) the row is outside the reduced
    model: no double-precision series holds that swing.  E is a measured
    correlate of rows no order mends, not a proven bound.
    """
    a = modcfg.mu * abs(op.c2) / op.gamma_p if modcfg.mu < 1.0 else 0.0  # no cause at mu >= 1
    swing = (4.0 * op.gamma_p / modcfg.omega_m * (math.sqrt(a * a - 1.0) - math.acos(1.0 / a))
             if a > 1.0 else 0.0)
    return (f"a row outside the reduced model, whose solution swings by e^{swing:.0f} over one "
            f"arc of the period; raising {order_key} does not help" if swing > 36.0 else "")


def _refuse_large_dp(sol: FourierSolution, order_key: str) -> None:
    """Raise NumericalError unless floor < dp < 1 over the whole period.

    dp <= -1 is negative power, 1 + dp <= 0, and for mu < 1 the floor is
    -1/2: there the reduced equation gives d(dp)/dt = Gamma_p*(1 + mu*cos(w_m t))
    > 0, as C1 - C2 = Gamma_p, so a steady state stays above it and a series
    below it is a truncation artifact, whose message names order_key, the
    config key that sets the solution's order, unless _outside_model says
    raising it cannot help.  At mu < 1 a negative power names that cause
    too, after its own message.  dp >= 1 is a steady state far outside the
    reduced model, which drops terms of order dp**2: its error there is of
    the order of the signal.  The bounds A0 -/+ sum|X_n| on dp clear most
    solutions without sampling; the rest go through _dp_extremes, and a
    negative power is refused first, then a minimum at or below -1/2, then a
    maximum.
    """
    floor = -0.5 if sol.modcfg.mu < 1.0 else -1.0
    # The two-sided bound spares most rows the sampling of _dp_extremes, which
    # the asymmetry maps measurably pay for; it lies close above max dp
    # wherever the harmonics peak together.
    spread = np.hypot(sol.x.real, sol.x.imag).sum()
    if not (sol.a0 - spread > floor and sol.a0 + spread < 1.0):
        hi, lo = _dp_extremes(sol)
        if lo <= floor:  # at mu >= 1, floor = -1: only a negative power
            cause = (_outside_model(sol.op, sol.modcfg, order_key)
                     or f"a truncation artifact ({order_key})")
            _refuse_negative_power(lo, f": {cause}" if floor == -0.5 else "")
            raise NumericalError(f"min dp = {lo:.6g} is not above -0.5, the floor of a steady "
                                 f"state at mu < 1: {cause}")
        if hi >= 1.0:
            raise NumericalError(f"max dp = {hi:.6g} is not below 1, the bound |dp| < 1 of the "
                                 "reduced model")


def peak_frequency_deviation(sol: FourierSolution, method: str = "index-based") -> float:
    """Peak frequency deviation in Hz, a magnitude: both methods use |nu|.

    "index-based" evaluates |beta_1|*f_m = |nu|*Gamma_p*|X_1|/pi (first-harmonic
    FM index); "instantaneous" takes half the peak-to-peak swing of the
    instantaneous frequency 2*|nu|*Gamma_p*dp/(2*pi) over one modulation period,
    from the dp extremes of _dp_extremes; a negative power raises NumericalError.
    """
    if method == "index-based":
        return abs(sol.beta(1)) * sol.modcfg.omega_m / TWO_PI
    if method == "instantaneous":
        hi, lo = _dp_extremes(sol)
        _refuse_negative_power(lo)
        return abs(sol.op.nu * sol.op.gamma_p) * (hi - lo) / TWO_PI
    raise ValueError(f"unknown method {method!r}")


def first_harmonic_index(
    op: OperatingPoint, mu: float, omega_m: float, n_harmonics: int = 10, *, gate: bool = True
) -> float:
    """Magnitude |beta_1| of the first-harmonic index at the given drive settings,
    from one matrix solve, gated unless gate=False (see solve_coefficients_matrix).

    The solve's warnings name this function's line, not its caller's: the
    searches that call it run it under _quietly, so none of them reaches a
    user.
    """
    sol = solve_coefficients_matrix(op, ModulationConfig(mu, omega_m, n_harmonics), gate=gate)
    return abs(sol.beta(1))


def _quietly(f, *args):
    """f(*args) with every warning it raises dropped: the one place stomod
    silences warnings.

    The two searches run through it: solve_mu_for_beta1's march and bisect,
    and modulation_bandwidth's seed solve and march and bisect.  Their
    evaluations are the search's internals, tens per call, and a counted
    warning counts kept rows or library calls, not evaluations; the caller
    warns for what it keeps.  It is entered once per search, not once per
    evaluation: entering it takes about 2 us, an N = 10 evaluation about 7
    (2 vCPU, Python 3.11).
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return f(*args)


def _rising_crossing(f, target: float, x0: float, x_max: float) -> float:
    """Where f, rising from f(0) = 0, reaches target: march x0*1.25**k up to x_max
    to bracket it, then bisect to min(1e-10, 1e-7*hi) in x, hi the bracket's
    upper end, or until the midpoint rounds onto an end.  The relative part
    keeps a crossing below 1e-3 to 7 digits (at f_m = 1 Hz the mu of
    beta_1 = 0.25 is about 4.5e-11, and a 1e-10 stop alone left |beta_1| at
    0.17); above, it is the 1e-10 alone, and it is tested only once the
    1e-10 is met, so it costs nothing there.  A fall of f before the target
    by more than round-off (1e-12 of the target), a target still out of
    reach at x_max, or a crossing that rounds to x = 0 (a beta_1 at a
    subnormal f_m such as 1e-320 Hz), raises NumericalError.

    It warns about nothing itself: both searches call it through _quietly,
    so their evaluations are silent.
    """
    lo, f_lo, hi = 0.0, 0.0, min(x0, x_max)
    while not (f_hi := f(hi)) >= target:  # a NaN marches on to x_max
        if f_hi < f_lo - 1e-12 * target:
            raise NumericalError(f"target {target:.6g} not reachable: the value falls past "
                                 f"{lo:.4g} (largest value {f_lo:.6g})")
        if hi >= x_max:
            raise NumericalError(f"target {target:.6g} not reachable up to {x_max:g} "
                                 f"(largest value {f_hi:.6g})")
        lo, f_lo, hi = hi, f_hi, min(1.25 * hi, x_max)
    while (hi - lo > 1e-10 or hi - lo > 1e-7 * hi) and lo < (mid := 0.5 * (lo + hi)) < hi:
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    if (x := 0.5 * (lo + hi)) == 0.0:
        raise NumericalError(f"target {target:.6g} is reached only below {hi:.3g}: "
                             "the crossing rounds to 0")
    return x


def modulation_bandwidth(
    op: OperatingPoint,
    mu0: float,
    omega_m0: float,
    n_harmonics: int = 10,
) -> float:
    """Modulation bandwidth in Hz: where beta_1 falls to 1/sqrt(2) of its
    flat-band value, scanning omega_m = omega_m0*(1 + s) upward at constant
    mu/omega_m, to 1e-10 in s (or round-off), while mu = mu0*(1 + s) stays
    within the small-modulation range mu <= 1.

    The flat-band value is the limit omega_m -> 0, which at constant mu/omega_m
    takes mu -> 0 too.  There the balance equations reduce to
    X_1 = mu*C1/(2*Gamma_p - i*omega_m), so beta_1 -> |nu*C1|*mu0/omega_m0
    exactly: the reference needs no solve and carries no bias from the seed.
    The seed must lie in the flat band: beta_1 there within 1% of it.  The
    march starts at s = 1.  Every evaluation is gated, as no gated solve
    follows the search.

    Warnings: the seed solve and the search's evaluations are silent
    (_quietly), and warn_outside_model warns once, at the corner returned,
    naming the caller's line.  That one call covers the seed: mu0 < 1 is
    checked first, and the corner's omega_m is above the seed's, so every
    validity rule the seed breaks the corner breaks too.  So a call warns at
    most once per rule, however many evaluations the search made.
    """
    if not (0.0 < mu0 < 1.0 and omega_m0 > 0.0):
        raise SeedBandError(f"mu0={mu0} must be in (0, 1) and omega_m0={omega_m0} positive")
    flat = abs(op.nu * op.c1) * mu0 / omega_m0
    if not flat > 0.0:
        raise SeedBandError(f"flat-band beta_1 = {flat:g}; there is no corner")
    beta_seed = _quietly(first_harmonic_index, op, mu0, omega_m0, n_harmonics)
    if abs(flat - beta_seed) > 0.01 * flat:
        raise SeedBandError(
            f"seed omega_m0={omega_m0:.3e} rad/s is not in the flat band (beta_1 there "
            f"differs from its flat-band value by {100.0 * abs(flat - beta_seed) / flat:.2f}%)"
        )
    s = _quietly(_rising_crossing,
                 lambda s: flat - first_harmonic_index(op, mu0 * (1 + s), omega_m0 * (1 + s),
                                                       n_harmonics),
                 flat * (1.0 - 1.0 / math.sqrt(2.0)), 1.0, 1.0 / mu0 - 1.0)
    warn_outside_model(op, ModulationConfig(mu0 * (1.0 + s), omega_m0 * (1.0 + s), n_harmonics))
    return omega_m0 * (1.0 + s) / TWO_PI


def solve_mu_for_beta1(
    op: OperatingPoint,
    beta1: float,
    omega_m: float,
    n_harmonics: int = 10,
    mu_max: float = 0.5,
) -> float:
    """Back-solve the modulation strength that produces a given beta_1, to 1e-10
    in mu, or to 1e-7 relative where mu is below 1e-3.

    The march starts at mu = 1e-6.  beta_1(mu) rises at small mu but turns
    once mu*C2 rivals Gamma_p; a turn before the target, a target out of reach
    at mu_max, or one that only a mu rounding to 0 reaches, is a
    NumericalError.
    The search's evaluations are ungated (gate=False): the balance residual is
    not checked at each mu.  A caller that keeps the solution at the returned
    mu gates it by a default solve_coefficients_matrix, as the tables do.
    Where every gated evaluation would pass, the mu is the gated search's bit
    for bit; where one fails, the search goes on, and the caller's gated
    solve refuses the row (OP1, 1 MHz, N = 40, beta_1 = 1e9 crosses at
    mu = 0.379, through a near-singular pole of the truncated system).
    The evaluations are silent too (_quietly): the search itself never
    warns, and that kept solve warns once, as any solve does.
    """
    if beta1 < 0.0:
        raise ValueError(f"beta1 must be >= 0, got {beta1}")
    if beta1 == 0.0:
        return 0.0
    return _quietly(_rising_crossing,
                    lambda mu: first_harmonic_index(op, mu, omega_m, n_harmonics, gate=False),
                    beta1, 1e-6, mu_max)
