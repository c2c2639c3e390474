"""Line spectrum: analytic convolution, FFT cross-check, derived figures."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import jv

from stomod import (
    GridCoverageError,
    ModulationConfig,
    NumericalError,
    SeedBandError,
    derive_operating_point,
    modulation_bandwidth,
    peak_frequency_deviation,
    psd_analytic,
    psd_fft,
    sideband_asymmetry,
    solve_coefficients_matrix,
    solve_mu_for_beta1,
    synthesize_time_trace,
)
from stomod import spectrum
from stomod.config import load_config
from stomod.spectrum import (
    _BETA_CAP,
    _BLOCK,
    TimeTrace,
    _build_spectrum,
    _fm_combs,
    _line_spectra,
    _refuse_large_dp,
    first_harmonic_index,
    shifted_carrier,
)
from stomod.spectrum import jv as stomod_jv

from conftest import TWO_PI, full_fft_read_out, make_device

F_M = 100e6
OMEGA_M = TWO_PI * F_M


def _reference_trace(sol, samples_per_period, n_periods):
    """dp and phi by the direct cos/sin sum over harmonics, each phase
    n*omega_m*t reduced exactly modulo one period before the cosine."""
    i = np.arange(samples_per_period * n_periods)
    delta_p = np.full(i.size, sol.a0)
    phi = np.zeros(i.size)
    for n in range(1, sol.n_harmonics + 1):
        psi = math.atan2(sol.a[n - 1], sol.b[n - 1])
        theta = TWO_PI * ((n * i) % samples_per_period) / samples_per_period - psi
        delta_p += sol.x_abs(n) * np.cos(theta)
        phi += sol.beta(n) * np.sin(theta)
    return delta_p, phi


def _per_tap_psd(sol, j_max, k_max):
    """psd_analytic built one tap at a time: the NAM comb line by line, then
    each harmonic's Bessel FM comb order by order, truncated to +-k_max."""
    amps = np.zeros(2 * k_max + 1, dtype=complex)
    amps[k_max] = 1.0 + sol.a0
    x = sol.x
    for n in range(1, sol.n_harmonics + 1):
        if n > k_max:
            break
        amps[k_max + n] += np.conj(x[n - 1]) / 2.0
        amps[k_max - n] += x[n - 1] / 2.0
    for n in range(1, sol.n_harmonics + 1):
        if x[n - 1] == 0.0:
            continue
        fm = np.zeros(2 * k_max + 1, dtype=complex)
        bessel = stomod_jv(min(j_max, k_max // n), sol.beta(n))
        fm[k_max] = bessel[0]
        x_n = complex(x[n - 1])
        u = np.conj(x_n) / abs(x_n)
        for j in range(1, bessel.size):
            fm[k_max + n * j] += bessel[j] * u**j
            fm[k_max - n * j] += (-1) ** j * bessel[j] * np.conj(u) ** j
        amps = np.convolve(amps, fm)[k_max : 3 * k_max + 1]
    return _build_spectrum(amps, k_max)


def _reference_sample_period(sol, m):
    """_sample_period as it was when dp and phi were always sampled together.
    Kept verbatim as the differential reference."""
    n, x = np.arange(1, sol.n_harmonics + 1), sol.x
    beta = sol.betas
    half = np.stack([np.conj(x), -1j * beta * np.exp(-1j * np.angle(x))]) / 2.0  # bins +n
    coef = np.zeros((2, m), dtype=complex)
    coef[0, 0] = sol.a0
    np.add.at(coef, (slice(None), np.r_[n, -n] % m), np.hstack([half, np.conj(half)]))
    return np.fft.ifft(coef, norm="forward").real


def _reference_dp_extremes(sol):
    """_dp_extremes as it was, on the two-row sampler above.  Kept verbatim but
    for its negative-power refusal, which _reference_instantaneous makes, as
    _dp_extremes now only measures."""
    dp = _reference_sample_period(sol, max(64, 8 * sol.n_harmonics))[0]
    n, xc = np.arange(1, sol.n_harmonics + 1), np.conj(sol.x)
    theta = TWO_PI / dp.size * np.array([dp.argmax(), dp.argmin()])
    for _ in range(4):  # quadratic from the sampled extreme: 2 steps reach round-off
        z = xc * np.exp(1j * np.outer(theta, n))  # |X_n| exp(i(n*theta - psi_n))
        curv = (n * n * z.real).sum(axis=1)
        theta = theta - (n * z.imag).sum(axis=1) / np.where(curv != 0.0, curv, np.inf)
    polished = sol.a0 + (xc * np.exp(1j * np.outer(theta, n))).real.sum(axis=1)
    hi, lo = np.fmax(dp.max(), polished[0]), np.fmin(dp.min(), polished[1])
    return float(hi), float(lo)


def _reference_instantaneous(sol):
    hi, lo = _reference_dp_extremes(sol)
    if 1.0 + lo <= 0.0:
        raise NumericalError(f"negative power: min dp = {lo:.6g} makes 1 + dp <= 0")
    return abs(sol.op.nu * sol.op.gamma_p) * (hi - lo) / TWO_PI


def _outcome(func, sol):
    """Bits of the returned value (None if none) or (exception class, message),
    and the warnings raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = func(sol)
            result = None if value is None else float(value).hex()
        except Exception as exc:  # any failure must be the reference's own
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def _mu_for_beta1_no_coupling(op, beta1, omega_m):
    # Exact inversion when C2 = 0: |X1| = mu*C1/sqrt(w^2 + 4 Gp^2).
    return (
        beta1
        * omega_m
        * math.sqrt(omega_m**2 + 4.0 * op.gamma_p**2)
        / (2.0 * op.nu * op.gamma_p * op.c1)
    )


class TestLimits:
    def test_unmodulated_carrier(self, op2):
        sol = solve_coefficients_matrix(op2, ModulationConfig(mu=0.0, omega_m=OMEGA_M))
        spec = psd_analytic(sol)
        assert list(spec.offsets) == [0]
        assert spec.power_at(0) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("beta1", [0.5, 1.0, 2.0])
    def test_pure_fm_bessel_lines(self, beta1):
        # C2 = 0 removes the parametric coupling; a large nu makes the
        # amplitude ripple negligible, leaving a textbook FM comb.
        op = replace(derive_operating_point(make_device(1.8, nu=1e8)), c2=0.0)
        mu = _mu_for_beta1_no_coupling(op, beta1, OMEGA_M)
        sol = solve_coefficients_matrix(op, ModulationConfig(mu=mu, omega_m=OMEGA_M))
        spec = psd_analytic(sol)
        for k in range(-5, 6):
            assert spec.power_at(k) == pytest.approx(jv(k, beta1) ** 2, rel=1e-6)

    def test_pure_am_lines(self):
        # nu = 0: no FM at all, only the amplitude comb, zero asymmetry.
        op = derive_operating_point(make_device(1.8, nu=0.0))
        sol = solve_coefficients_matrix(op, ModulationConfig(mu=0.3, omega_m=OMEGA_M))
        spec = psd_analytic(sol)
        assert sideband_asymmetry(spec) == 0.0
        n_h = sol.n_harmonics
        for k in spec.offsets:
            assert abs(k) <= n_h
        for k in range(n_h + 1, 41):
            assert spec.power_at(k) < 1e-12
            assert spec.power_at(-k) < 1e-12
        # The +-n line powers are |X_n|^2/4.
        for n in (1, 2, 3):
            assert spec.power_at(n) == pytest.approx(sol.x_abs(n) ** 2 / 4.0, rel=1e-12)
            assert spec.power_at(-n) == pytest.approx(spec.power_at(n), rel=1e-12)


class TestAnalyticSpectrum:
    def test_asymmetry_positive_for_mixed_modulation(self, all_ops):
        for op in all_ops.values():
            sol = solve_coefficients_matrix(op, ModulationConfig(mu=0.02, omega_m=OMEGA_M))
            assert sideband_asymmetry(psd_analytic(sol)) > 0.0

    def test_parseval(self, op2):
        # Total line power equals the mean square envelope <|1 + dp|^2>.
        sol = solve_coefficients_matrix(op2, ModulationConfig(mu=0.05, omega_m=OMEGA_M))
        spec = psd_analytic(sol)
        trace = synthesize_time_trace(sol, samples_per_period=1024, n_periods=1)
        mean_sq = float(np.mean((1.0 + trace.delta_p) ** 2))
        assert float(np.sum(spec.powers)) == pytest.approx(mean_sq, rel=1e-8)

    def test_expansion_depth_converged(self, op2):
        # Raising j_max and k_max must not move the low-order lines.
        sol = solve_coefficients_matrix(op2, ModulationConfig(mu=0.05, omega_m=OMEGA_M))
        base = psd_analytic(sol, j_max=10, k_max=40)
        deep = psd_analytic(sol, j_max=14, k_max=60)
        for k in range(-5, 6):
            assert base.power_at(k) == pytest.approx(deep.power_at(k), rel=1e-3)

    # k_max < N and k_max // n < j_max are both in the grid.
    @pytest.mark.parametrize("n_harmonics", [1, 3, 10, 20])
    @pytest.mark.parametrize("j_max, k_max", [(10, 40), (16, 64), (3, 12), (1, 5)])
    def test_combs_match_per_tap_loops_bit_for_bit(self, all_ops, n_harmonics, j_max, k_max):
        for op in all_ops.values():
            for f_m in (1e6, 1e7, 1e8, 1e9):
                for mu in (0.0, 0.01, 0.1):
                    modcfg = ModulationConfig(mu=mu, omega_m=TWO_PI * f_m, n_harmonics=n_harmonics)
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")  # validity warnings do not matter here
                        sol = solve_coefficients_matrix(op, modcfg)
                    spec = psd_analytic(sol, j_max=j_max, k_max=k_max)
                    ref = _per_tap_psd(sol, j_max, k_max)
                    assert np.array_equal(spec.offsets, ref.offsets)
                    assert np.array_equal(spec.powers, ref.powers)

    def test_subnormal_harmonic_has_the_comb_of_its_phase(self):
        # numpy's complex division takes 1/|X_n|, which overflows for a
        # subnormal |X_n|; such a row's u = conj(X_n)/|X_n| must be that of
        # the normal number with the same phase.  The caller's rows, here a
        # view into a larger array, are not written.
        held = np.array([3 + 4j, (3 + 4j) * 2.0**-1060, 2.0**-1074 * 1j])
        before = held.copy()
        x = held[:2]
        assert 0.0 < abs(x[1]) < np.finfo(float).tiny
        combs = _fm_combs(np.array([1, 1]), [0.5, 0.5], x, 10, 40)
        assert np.array_equal(combs[0], combs[1])
        assert held.tobytes() == before.tobytes()

    def test_subnormal_harmonics_act_as_zero(self, op2):
        # At N = 300 (mu of beta1 = 1), |X_n| is subnormal for n = 78..80 and
        # 0 from n = 81.  Their FM index rounds to 0, so their combs are the
        # identity and the lines equal those with the three set to 0.
        modcfg = ModulationConfig(mu=0.0267593695679, omega_m=OMEGA_M, n_harmonics=300)
        sol = solve_coefficients_matrix(op2, modcfg)
        subnormal = np.abs(sol.x) < np.finfo(float).tiny
        assert (np.flatnonzero(subnormal & (sol.x != 0)) + 1).tolist() == [78, 79, 80]
        spec = psd_analytic(sol, j_max=10, k_max=600)
        ref = psd_analytic(replace(sol, x=np.where(subnormal, 0.0, sol.x)), j_max=10, k_max=600)
        assert np.isfinite(spec.powers).all()
        assert np.array_equal(spec.offsets, ref.offsets)
        assert np.array_equal(spec.powers, ref.powers)

    def test_bad_j_max_rejected(self, op2):
        sol = solve_coefficients_matrix(op2, ModulationConfig(mu=0.1, omega_m=OMEGA_M))
        with pytest.raises(ValueError):
            psd_analytic(sol, j_max=0)

    def test_negative_k_max_rejected(self, op2):
        # Refused by name, before numpy's "negative dimensions are not allowed".
        sol = solve_coefficients_matrix(op2, ModulationConfig(mu=0.1, omega_m=OMEGA_M))
        with pytest.raises(ValueError, match=r"^k_max must be >= 0, got -1$"):
            psd_analytic(sol, k_max=-1)
        # k_max = 0 is the carrier-only spectrum: every comb truncates to its
        # centre tap, so the line is ((1 + A0) * prod J_0(beta_n))^2.
        carrier = psd_analytic(sol, k_max=0)
        assert carrier.offsets.tolist() == [0]
        expected = ((1.0 + sol.a0) * np.prod(jv(0, sol.betas))) ** 2
        assert carrier.powers[0] == pytest.approx(expected, rel=1e-12)

    def test_missing_line_reports_zero(self, op2):
        sol = solve_coefficients_matrix(op2, ModulationConfig(mu=0.0, omega_m=OMEGA_M))
        assert psd_analytic(sol).power_at(7) == 0.0


class TestLineSpectraKernel:
    """One _line_spectra call on many points against one psd_analytic call each."""

    @staticmethod
    def _sols(all_ops, n_harmonics):
        # 3 OPs x 3 f_m x 4 mu = 36 points, several blocks; mu = 0 rows (no
        # live harmonic) sit between live ones.
        sols = []
        for op in all_ops.values():
            for f_m in (1e6, 1e7, 1e8):
                for mu in (0.0, 0.003, 0.01, 0.1):
                    modcfg = ModulationConfig(mu=mu, omega_m=TWO_PI * f_m, n_harmonics=n_harmonics)
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")  # validity warnings do not matter here
                        sols.append(solve_coefficients_matrix(op, modcfg))
        return sols

    # k_max // n < j_max for n >= 5 at (10, 40); k_max = N at (10, 20) and (4, 1).
    # At N = 20 and (10, 40) or (16, 64) a block's rows span several comb chunks.
    @pytest.mark.parametrize("n_harmonics, j_max, k_max",
                             [(1, 10, 40), (1, 4, 1), (20, 10, 40), (20, 10, 20), (20, 16, 64)])
    def test_one_call_matches_one_at_a_time_calls(self, all_ops, n_harmonics, j_max, k_max):
        sols = self._sols(all_ops, n_harmonics)
        assert len(sols) > _BLOCK
        assert any(sol.a0 == 0.0 and not sol.x.any() for sol in sols)
        # The rows' FM indices straddle the Bessel grid sizes 64, 128 and 256.
        sizes = {
            1 << int(2.0 * (abs(sol.beta(n)) + min(j_max, k_max // n)) + 40.0).bit_length()
            for sol in sols
            for n in range(1, n_harmonics + 1)
        }
        assert {64, 128, 256} <= sizes
        batched = list(_line_spectra(sols, j_max, k_max))
        assert len(batched) == len(sols)
        for sol, spec in zip(sols, batched):
            ref = psd_analytic(sol, j_max=j_max, k_max=k_max)
            assert np.array_equal(spec.offsets, ref.offsets)
            assert np.array_equal(spec.powers, ref.powers)

    @pytest.mark.parametrize("bad_at", [3, _BLOCK, _BLOCK + 2])
    @pytest.mark.parametrize("fault", ["huge FM index", "non-finite line"])
    def test_an_error_waits_for_its_point(self, op2, bad_at, fault):
        sol = solve_coefficients_matrix(op2, ModulationConfig(mu=0.05, omega_m=OMEGA_M))
        if fault == "huge FM index":
            bad, message = replace(sol, op=replace(sol.op, nu=1e300)), "FM index"
        else:
            bad, message = replace(sol, a0=math.nan), "non-finite"
        sols = [sol] * bad_at + [bad] + [sol] * 3
        spectra = _line_spectra(sols, 10, 40)
        ref = psd_analytic(sol)
        for _ in range(bad_at):
            assert np.array_equal(next(spectra).powers, ref.powers)
        with pytest.raises(NumericalError, match=message):
            next(spectra)


class TestExactAnchors:
    """Two exact identities of the expansion check the kernel without old code."""

    def test_one_harmonic_law(self, all_ops):
        # With X_n = 0 for n >= 2, dp = A0 + |X_1|*cos(u) and phi = beta_1*sin(u),
        # u = omega_m*t - psi_1, and J_{k-1} + J_{k+1} = (2k/beta)*J_k collapses
        # the convolution to
        #     P_k = J_k(beta_1)^2 * (1 + A0 + k*omega_m/(2*nu*Gamma_p))^2,
        # beta_1 signed as beta(1) is.  Lines |k| < j_max use no tap past j_max.
        # Both sides use the same J_j, so they differ by the rounding of a few
        # products and sums (each <= eps) and by how far those J_j miss the
        # recurrence: the FFT's round-off, about eps*log2(M) on unit samples,
        # M <= 2**8 here (|beta_1| < 53).  Each amplitude is at most sqrt(S) in
        # modulus, S = (|1 + A0| + |X_1|)**2, so |dP| <= 2*(4 + 8)*eps*S ~ 3e-15*S;
        # the tolerance 1e-14*S leaves a factor 3 (measured: 4.3e-16*S).
        rng = np.random.default_rng(2012)
        j_max, k_max = 10, 40
        betas = []
        for op in all_ops.values():
            for _ in range(40):
                omega_m = TWO_PI * 10.0 ** rng.uniform(7.0, 9.0)
                modcfg = ModulationConfig(mu=10.0 ** rng.uniform(-3.0, -0.5), omega_m=omega_m)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # validity warnings do not matter here
                    sol = solve_coefficients_matrix(op, modcfg)
                nu = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0.0, 3.0)
                x = np.zeros_like(sol.x)
                x[0] = sol.x[0]
                one = replace(sol, x=x, op=replace(op, nu=nu))
                beta1 = one.beta(1)
                betas.append(beta1)
                bessel = stomod_jv(j_max, beta1)
                tol = 1e-14 * (abs(1.0 + one.a0) + abs(x[0])) ** 2
                spec = psd_analytic(one, j_max=j_max, k_max=k_max)
                for k in range(1 - j_max, j_max):
                    am_fm = 1.0 + one.a0 + k * omega_m / (2.0 * nu * op.gamma_p)
                    assert abs(spec.power_at(k) - bessel[abs(k)] ** 2 * am_fm**2) <= tol, (k, beta1)
                # The paper's sideband asymmetry in closed form.
                delta = 2.0 * (1.0 + one.a0) * bessel[1] ** 2 * omega_m / (nu * op.gamma_p)
                assert abs(sideband_asymmetry(spec) - delta) <= 2.0 * tol
        # The draws cover both signs of beta_1, tiny indices and indices past j_max.
        assert min(betas) < -10.0 < 10.0 < max(betas)
        assert min(map(abs, betas)) < 1e-3

    def test_parseval_in_closed_form(self, all_ops):
        # |exp(i*phi)| = 1, so sum_k P_k = <(1 + dp)^2> = (1 + A0)^2 + sum|X_n|^2/2
        # once j_max and k_max hold the FM combs; each deeper (j_max, k_max)
        # comes closer.  At beta_1 <= 1.3, (20, 80) drops taps below J_21(1.3)^2
        # ~ 5e-48, so only round-off is left.  Each of N = 10 convolutions keeps
        # the l2 norm (sum_j J_j^2 = 1) and adds at most (2*j_max + 1)*eps of it,
        # 10*41*eps ~ 5e-14 relative; the tolerance is 1e-13 (measured: 8.8e-16,
        # and 1.8e-8 at (5, 20)).
        rng = np.random.default_rng(2013)
        tol = 1e-13
        ladder = [(5, 20), (10, 40), (20, 80)]
        for op in all_ops.values():
            for _ in range(12):
                omega_m = TWO_PI * 10.0 ** rng.uniform(math.log10(20e6), math.log10(400e6))
                mu = solve_mu_for_beta1(op, rng.uniform(0.05, 1.3), omega_m)
                sol = solve_coefficients_matrix(op, ModulationConfig(mu=mu, omega_m=omega_m))
                total = (1.0 + sol.a0) ** 2 + np.sum(np.abs(sol.x) ** 2) / 2.0
                deficits = [
                    abs(total - psd_analytic(sol, j_max=j, k_max=k).powers.sum()) / total
                    for j, k in ladder
                ]
                assert deficits[-1] <= tol, deficits
                for shallow, deep in zip(deficits, deficits[1:]):
                    assert deep <= shallow + tol, deficits


class TestBessel:
    @pytest.mark.parametrize("j_max", [1, 16])
    def test_matches_scipy(self, j_max):
        orders = np.arange(j_max + 1)
        for beta in np.linspace(-60.0, 60.0, 481):
            np.testing.assert_allclose(
                stomod_jv(j_max, beta), jv(orders, beta), rtol=0.0, atol=1e-14
            )

    def test_batched_rows_match_one_row_calls(self):
        # One call over rows of FFT sizes 64 to 512, in mixed order and with
        # mixed orders, more rows of each size than one FFT part holds
        # (_WORK_ELEMENTS // size): each row's columns 0..j_max equal a one-row
        # jv call bit for bit.
        rng = np.random.default_rng(29)
        j_max, beta = [], []
        for size, (lo, hi) in {64: (0, 11.9), 128: (12, 43.9), 256: (44, 107.9),
                               512: (108, 235.9)}.items():
            for _ in range(spectrum._WORK_ELEMENTS // size + 5):
                total = rng.uniform(lo, hi)  # |beta| + j_max, which sets the size
                j = int(rng.integers(0, min(16, int(total)) + 1))
                j_max.append(j)
                beta.append(float(rng.choice([-1.0, 1.0]) * (total - j)))
        order = rng.permutation(len(beta))
        j_max, beta = [j_max[i] for i in order], [beta[i] for i in order]
        sizes = [1 << int(2.0 * (abs(b) + j) + 40.0).bit_length() for b, j in zip(beta, j_max)]
        for size in (64, 128, 256, 512):
            assert sizes.count(size) > spectrum._WORK_ELEMENTS // size
        assert len(set(j_max)) > 10
        rows = spectrum._bessel_rows(j_max, beta)
        for row, j, b in zip(rows, j_max, beta):
            assert row[: j + 1].tobytes() == stomod_jv(j, b).tobytes(), (j, b)

    def test_exact_zeros_at_zero_index(self):
        # Criterion 06 compares lines of an unmodulated phase with == 0.0.
        values = stomod_jv(16, 0.0)
        assert values[0] == 1.0
        assert all(v == 0.0 for v in values[1:])

    @pytest.mark.parametrize(
        "beta", [math.nan, math.inf, -math.inf, 2.0**16, math.nextafter(_BETA_CAP, math.inf)]
    )
    def test_non_finite_or_huge_index_rejected(self, beta):
        with pytest.raises(NumericalError):
            stomod_jv(4, beta)

    @pytest.mark.parametrize("n_live", [1, 3, 10])
    def test_each_fm_index_is_checked_once(self, op2, monkeypatch, n_live):
        # A spectrum checks each live harmonic's FM index once, in _line_spectra;
        # _bessel_rows leaves the check to its callers.
        checked = []
        check = spectrum._check_beta
        monkeypatch.setattr(spectrum, "_check_beta", lambda b: checked.append(b) or check(b))
        modcfg = ModulationConfig(mu=0.1, omega_m=OMEGA_M, n_harmonics=n_live)
        sol = solve_coefficients_matrix(op2, modcfg)
        assert np.count_nonzero(sol.x) == n_live
        psd_analytic(sol)
        assert checked == sol.betas.tolist()


class TestNonFiniteLines:
    def test_analytic_rejects_non_finite_lines(self, op2):
        sol = solve_coefficients_matrix(op2, ModulationConfig(mu=0.0, omega_m=OMEGA_M))
        with pytest.raises(NumericalError):
            psd_analytic(replace(sol, a0=math.nan))

    def test_fft_rejects_non_finite_lines(self):
        # nu = 1e299 keeps f_STO finite, but at f_m = 1 uHz the FM phase
        # nu*Gamma_p*|X_n|/(n*w) overflows.
        op = derive_operating_point(make_device(1.8, nu=1e299))
        sol = solve_coefficients_matrix(op, ModulationConfig(mu=0.01, omega_m=TWO_PI * 1e-6))
        with np.errstate(invalid="ignore", over="ignore"):
            trace = synthesize_time_trace(sol)
            with pytest.raises(NumericalError):
                psd_fft(trace, sol)


class TestFftSpectrum:
    def test_matches_analytic(self, op2):
        # Lines -5..5 of the one synthesized period agree to 1e-12 (2.5e-14
        # measured, at k = -5; the carrier and first sidebands to 3.3e-16).
        sol = solve_coefficients_matrix(op2, ModulationConfig(mu=0.05, omega_m=OMEGA_M))
        trace = synthesize_time_trace(sol)
        fft_spec = psd_fft(trace, sol)
        ana_spec = psd_analytic(sol)
        for k in range(-5, 6):
            assert fft_spec.power_at(k) == pytest.approx(ana_spec.power_at(k), rel=1e-12)

    def test_negative_k_max_rejected(self, op2):
        # Refused by name, before numpy's "zero-size array to reduction
        # operation maximum"; TimeTrace.harmonics refuses it for psd_fft and
        # project_harmonics alike.
        sol = solve_coefficients_matrix(op2, ModulationConfig(mu=0.05, omega_m=OMEGA_M))
        trace = synthesize_time_trace(sol)
        match = r"^k_max must be >= 0, got -1$"
        with pytest.raises(ValueError, match=match):
            psd_fft(trace, sol, k_max=-1)
        with pytest.raises(ValueError, match=match):
            trace.harmonics(trace.delta_p, OMEGA_M, -1)
        carrier = psd_fft(trace, sol, k_max=0)
        assert carrier.offsets.tolist() == [0]
        assert carrier.powers[0] == pytest.approx(psd_analytic(sol).power_at(0), rel=1e-9)

    def test_partial_period_rejected(self, op2):
        sol = solve_coefficients_matrix(op2, ModulationConfig(mu=0.05, omega_m=OMEGA_M))
        trace = synthesize_time_trace(sol)
        cut = TimeTrace(
            t=trace.t[:-100],
            delta_p=trace.delta_p[:-100],
            phi=trace.phi[:-100],
            demod_freq=trace.demod_freq,
        )
        with pytest.raises(GridCoverageError):
            psd_fft(cut, sol)

    def test_nonuniform_grid_rejected(self, op2):
        sol = solve_coefficients_matrix(op2, ModulationConfig(mu=0.05, omega_m=OMEGA_M))
        trace = synthesize_time_trace(sol)
        warped = TimeTrace(
            t=trace.t**1.001,
            delta_p=trace.delta_p,
            phi=trace.phi,
            demod_freq=trace.demod_freq,
        )
        with pytest.raises(GridCoverageError):
            psd_fft(warped, sol)

    @pytest.mark.parametrize("slip,refused", [(2e-9, True), (5e-10, False), (math.nan, True)])
    def test_uniform_grid_tolerance(self, op2, slip, refused):
        # One interior step longer than the first by slip*dt: the grid check
        # allows 1e-9 relative, and a NaN time is never uniform.
        sol = solve_coefficients_matrix(op2, ModulationConfig(mu=0.05, omega_m=OMEGA_M))
        trace = synthesize_time_trace(sol)
        t = trace.t.copy()
        t[t.size // 2 :] += slip * (t[1] - t[0])
        slipped = replace(trace, t=t)
        if refused:
            with pytest.raises(GridCoverageError, match="not uniformly sampled"):
                slipped.harmonics(slipped.delta_p, OMEGA_M, 5)
        else:
            got = slipped.harmonics(slipped.delta_p, OMEGA_M, 5)
            assert np.isfinite(got).all()

    def test_past_nyquist_rejected(self, op2):
        # 256 samples per period resolve lines up to |k| = 127.
        sol = solve_coefficients_matrix(op2, ModulationConfig(mu=0.05, omega_m=OMEGA_M))
        trace = synthesize_time_trace(sol)
        for k_max in (128, 200):
            with pytest.raises(GridCoverageError, match=f"k_max={k_max} .* 256 samples"):
                psd_fft(trace, sol, k_max=k_max)


def _signal(trace):
    return (1.0 + trace.delta_p) * np.exp(1j * trace.phi)


def _trace_on(t, trace):
    """trace's samples on the times t, cut to their length."""
    return TimeTrace(t=t, delta_p=trace.delta_p[: t.size], phi=trace.phi[: t.size],
                     demod_freq=trace.demod_freq)


class TestHarmonicsFold:
    """TimeTrace.harmonics folds a trace's whole periods into one before its
    one FFT.  Each folded sample sums n_per values in turn, which moves a
    line by at most (n_per - 1)*eps/2 * max|v|, and the FFTs' own round-off
    is far below that, so n_per*eps*max|v| bounds every difference here."""

    @staticmethod
    def _bound(n_per, values):
        return n_per * np.finfo(float).eps * np.abs(values).max()

    def test_tiled_periods_match_one_period(self, all_ops):
        for op in all_ops.values():
            sol = solve_coefficients_matrix(op, ModulationConfig(mu=0.05, omega_m=OMEGA_M))
            one = synthesize_time_trace(sol)
            for n_per in (2, 3, 8):
                tiled = synthesize_time_trace(sol, n_periods=n_per)
                for values, want in ((tiled.delta_p, one.delta_p), (_signal(tiled), _signal(one))):
                    got = tiled.harmonics(values, OMEGA_M, 127)
                    ref = one.harmonics(want, OMEGA_M, 127)
                    assert np.abs(got - ref).max() <= self._bound(n_per, values), n_per

    @pytest.mark.parametrize("n_per", [2, 5, 8])
    def test_unequal_periods_match_full_fft(self, n_per):
        # Seeded noise, so no two periods are alike: only the exact identity
        # of the DFT, not periodicity, makes the folded lines right.  The grid
        # starts at 7*dt, so the time shift of each line is exercised too.
        rng = np.random.default_rng(n_per)
        m = 64
        t = (np.arange(n_per * m) + 7) * (TWO_PI / OMEGA_M / m)
        values = rng.normal(size=t.size) + 1j * rng.normal(size=t.size)
        trace = TimeTrace(t=t, delta_p=values.real, phi=values.imag, demod_freq=0.0)
        assert np.abs(values[:m] - values[m : 2 * m]).min() > 0.0
        for v in (values, values.real):
            got = trace.harmonics(v, OMEGA_M, 31)
            ref = full_fft_read_out(trace, v, OMEGA_M, 31)
            assert np.abs(got - ref).max() <= self._bound(n_per, v)

    def test_synthesis_spans_one_period(self, op2):
        sol = solve_coefficients_matrix(op2, ModulationConfig(mu=0.05, omega_m=OMEGA_M))
        trace = synthesize_time_trace(sol)
        dt = trace.t[1] - trace.t[0]
        assert trace.t.size == trace.delta_p.size == trace.phi.size == 256
        assert trace.t[0] == 0.0
        assert trace.t.size * dt == pytest.approx(TWO_PI / OMEGA_M, rel=1e-15)

    @pytest.mark.parametrize("n_periods", [1, 4])
    def test_refusals_keep_their_messages(self, op2, n_periods):
        sol = solve_coefficients_matrix(op2, ModulationConfig(mu=0.05, omega_m=OMEGA_M))
        trace = synthesize_time_trace(sol, n_periods=n_periods)
        jittered = trace.t.copy()
        jittered[2:-1:2] += 0.3 * (trace.t[1] - trace.t[0])
        four = synthesize_time_trace(sol, n_periods=4)
        cases = [
            (_trace_on(trace.t[:-37], trace), 5,
             r"trace spans [0-9.]+ modulation periods; an integer count is required"),
            (_trace_on(trace.t[:1], trace), 5, "trace too short"),
            (_trace_on(jittered, trace), 5, "trace is not uniformly sampled"),
            (trace, 128, "k_max=128 is at or past the Nyquist limit of 256 samples per period"),
            # Four whole periods in 1,022 samples: an integer period count
            # that does not divide the samples.
            (_trace_on(np.arange(1022) * (four.t[-1] + four.t[1]) / 1022, four), 5,
             "samples do not divide evenly into periods"),
        ]
        for cut, k_max, message in cases:
            for values in (cut.delta_p, _signal(cut)):
                with pytest.raises(GridCoverageError) as info:
                    cut.harmonics(values, OMEGA_M, k_max)
                assert re.fullmatch(message, str(info.value)), str(info.value)


class TestSynthesis:
    @pytest.mark.parametrize("n_periods", [1, 8])
    @pytest.mark.parametrize("samples_per_period", [16, 17, 256])
    @pytest.mark.parametrize("n_harmonics", [1, 10, 20, 40])
    def test_matches_direct_sum(self, all_ops, n_harmonics, samples_per_period, n_periods):
        # Solved harmonics decay below round-off long before n = 20, so
        # seeded ones that fall as 1/n (every 7th exactly zero) make every
        # harmonic past Nyquist fold visibly onto its alias.
        rng = np.random.default_rng(n_harmonics)
        n = np.arange(1, n_harmonics + 1)
        a, b = rng.normal(size=(2, n_harmonics)) / n
        a[2::7] = b[2::7] = 0.0
        for op in all_ops.values():
            modcfg = ModulationConfig(mu=0.05, omega_m=OMEGA_M, n_harmonics=n_harmonics)
            sol = replace(solve_coefficients_matrix(op, modcfg), a0=0.1, x=b + 1j * a)
            trace = synthesize_time_trace(sol, samples_per_period, n_periods)
            ref_dp, ref_phi = _reference_trace(sol, samples_per_period, n_periods)
            assert trace.delta_p.size == trace.t.size == samples_per_period * n_periods
            assert np.abs(trace.delta_p - ref_dp).max() <= 1e-13 * np.abs(ref_dp).max()
            assert np.abs(trace.phi - ref_phi).max() <= 1e-13 * np.abs(ref_phi).max()

    def test_sampling_floor(self, op2):
        sol = solve_coefficients_matrix(op2, ModulationConfig(mu=0.05, omega_m=OMEGA_M))
        with pytest.raises(ValueError):
            synthesize_time_trace(sol, samples_per_period=8)
        with pytest.raises(ValueError):
            synthesize_time_trace(sol, n_periods=0)

    def test_carrier_includes_dc_shift(self, op1):
        sol = solve_coefficients_matrix(op1, ModulationConfig(mu=0.1, omega_m=OMEGA_M))
        assert shifted_carrier(sol) == pytest.approx(
            op1.omega_sto + 2.0 * op1.nu * op1.gamma_p * sol.a0, rel=1e-14
        )


class TestDerivedFigures:
    def test_peak_deviation_methods_agree(self, op2):
        sol = solve_coefficients_matrix(op2, ModulationConfig(mu=0.05, omega_m=OMEGA_M))
        idx = peak_frequency_deviation(sol, "index-based")
        inst = peak_frequency_deviation(sol, "instantaneous")
        assert inst == pytest.approx(idx, rel=0.01)

    @pytest.mark.filterwarnings("ignore::UserWarning")  # f_m near 1 GHz is fast
    def test_instantaneous_matches_dense_sampling(self, all_ops):
        # The 75 default bandwidth rows, plus OP1 at 10 MHz and mu = 0.5:
        # max dp ~ 40 with harmonics up to n ~ 8 above 1% of |X_1|.
        cfg = load_config(None)
        cases = [(op, cfg.bw_mu, f_m) for op in all_ops.values() for f_m in cfg.bw_f_m_grid_hz]
        cases.append((all_ops["OP1"], 0.5, 10e6))
        sols = [
            solve_coefficients_matrix(
                op, ModulationConfig(mu=mu, omega_m=TWO_PI * f_m, n_harmonics=cfg.n_harmonics)
            )
            for op, mu, f_m in cases
        ]
        # dp - A0 = sum B_n cos(n*theta) + A_n sin(n*theta) on 2**18 samples
        # of one period, every case at once, one block of samples at a time.
        m, block = 2**18, 2**14
        n = np.arange(1, cfg.n_harmonics + 1)
        coef = np.array([np.concatenate([sol.b, sol.a]) for sol in sols]).T
        hi, lo = np.full(len(sols), -np.inf), np.full(len(sols), np.inf)
        for start in range(0, m, block):
            theta = np.outer(np.arange(start, start + block), n) % m * (TWO_PI / m)
            dp = np.hstack([np.cos(theta), np.sin(theta)]) @ coef
            hi, lo = np.maximum(hi, dp.max(axis=0)), np.minimum(lo, dp.min(axis=0))
        for (op, mu, f_m), sol, swing in zip(cases, sols, hi - lo):
            ref = abs(op.nu * op.gamma_p) * swing / TWO_PI
            got = peak_frequency_deviation(sol, "instantaneous")
            assert got == pytest.approx(ref, rel=1e-9, abs=0.0), (op.xi, mu, f_m)

    def test_instantaneous_finds_the_higher_of_two_peaks(self, op2):
        # |X_2| > |X_1| gives two maxima and two minima per period; a
        # 2**18-sample sweep of the same series is the reference.
        sol = solve_coefficients_matrix(op2, ModulationConfig(mu=0.05, omega_m=OMEGA_M))
        x = np.zeros(sol.n_harmonics, dtype=complex)
        x[:3] = [0.02 + 0.03j, -0.1 + 0.2j, 0.015 + 0.01j]  # B_n + i*A_n
        sol = replace(sol, a0=-0.05, x=x)
        dp, _ = _reference_trace(sol, 2**18, 1)
        ref = abs(op2.nu * op2.gamma_p) * (dp.max() - dp.min()) / TWO_PI
        got = peak_frequency_deviation(sol, "instantaneous")
        assert got == pytest.approx(ref, rel=1e-9, abs=0.0)

    def test_unmodulated_instantaneous_deviation_is_zero(self, op2):
        # mu = 0 is a valid bandwidth.mu: dp is flat and the Newton curvature 0.
        sol = solve_coefficients_matrix(op2, ModulationConfig(mu=0.0, omega_m=OMEGA_M))
        assert peak_frequency_deviation(sol, "instantaneous") == 0.0

    def test_negative_power_rejected(self, op1):
        # OP1 at 1 MHz and mu = 0.9 reaches dp ~ -82.
        with pytest.warns(UserWarning, match="do not decay"):
            sol = solve_coefficients_matrix(
                op1, ModulationConfig(mu=0.9, omega_m=TWO_PI * 1e6)
            )
        with pytest.raises(NumericalError, match="negative power: min dp = -8"):
            peak_frequency_deviation(sol, "instantaneous")
        assert peak_frequency_deviation(sol, "index-based") > 0.0

    @pytest.mark.parametrize("mu, f_m, negative", [(0.3, 1e6, True), (0.2, 11.55e6, False)],
                             ids=["0.3-True", "0.2-False"])
    def test_power_check_samples_what_the_bound_cannot_clear(self, op1, mu, f_m, negative):
        # At OP1 both fail the bound |A0| + sum|X_n| < 1, so the sampled
        # extremes decide: min dp ~ -1.95 at mu = 0.3 and 1 MHz; at mu = 0.2 and
        # 11.55 MHz the bound is 1.005 but dp lies in [-0.27, 0.996].  At
        # mu < 1 the negative power names its cause, here E <= 36.
        sol = solve_coefficients_matrix(op1, ModulationConfig(mu=mu, omega_m=TWO_PI * f_m))
        assert abs(sol.a0) + np.abs(sol.x).sum() >= 1.0
        if negative:
            with pytest.raises(NumericalError, match=r"negative power: min dp = -1\.9\d* makes "
                               r"1 \+ dp <= 0: a truncation artifact \(solver\.n_harmonics\)$"):
                _refuse_large_dp(sol, "solver.n_harmonics")
        else:
            _refuse_large_dp(sol, "solver.n_harmonics")

    @pytest.mark.parametrize("xi, mu, f_m, n_h, min_dp", [
        (1.01, 0.3, 1e5, 10, "-0.683335"), (1.8, 0.95, 2e6, 1, "-0.538304"),
    ], ids=["near-threshold", "inside-old-bound"])
    def test_truncated_dip_below_half_refused_at_small_mu(self, xi, mu, f_m, n_h, min_dp):
        # A steady state at mu < 1 stays above -1/2, where d(dp)/dt = Gamma_p*(1 +
        # mu*cos(w_m t)) > 0, so these truncated series, which dip below it with
        # 1 + dp > 0, are refused.  The first (xi = 1.01, 100 kHz) is N = 10,
        # whose non-decay warning was its only sign of trouble; the second has
        # |A0| + sum|X_n| = 0.68 < 1, so only the lower bound A0 - sum|X_n| sends
        # it to sampling.
        op = derive_operating_point(make_device(xi))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the first case's non-decay warning
            sol = solve_coefficients_matrix(op, ModulationConfig(mu, TWO_PI * f_m, n_h))
        with pytest.raises(NumericalError, match=rf"min dp = {re.escape(min_dp)} is not above "
                                                 r"-0\.5.*solver\.n_harmonics"):
            _refuse_large_dp(sol, "solver.n_harmonics")

    def test_dp_sampler_matches_two_row_reference_bit_for_bit(self, monkeypatch, all_ops, op1):
        # dp alone is transformed as it was beside phi: the instantaneous
        # deviation and the |dp| < 1 refusal give the same bits, the same
        # exceptions and messages, and the same warnings as on the old sampler.
        rng = np.random.default_rng(2014)
        sols = []
        for op in all_ops.values():
            for n_h in (1, 3, 10, 20, 50):
                for _ in range(12):
                    modcfg = ModulationConfig(
                        mu=10.0 ** rng.uniform(-4.0, math.log10(0.9)),
                        omega_m=TWO_PI * 10.0 ** rng.uniform(5.0, 9.0), n_harmonics=n_h,
                    )
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")  # validity warnings do not matter here
                        try:
                            sols.append(solve_coefficients_matrix(op, modcfg))
                        except NumericalError:  # a refused residual: no solution to sample
                            pass
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            # OP1 at 1 MHz: min dp ~ -1.95 at mu = 0.3 and ~ -82 at mu = 0.9.
            sols += [solve_coefficients_matrix(op1, ModulationConfig(mu=mu, omega_m=TWO_PI * 1e6))
                     for mu in (0.3, 0.9)]
        refused = 0

        def refuse(sol):
            return _refuse_large_dp(sol, "solver.n_harmonics")

        for sol in sols:
            got = _outcome(lambda s: peak_frequency_deviation(s, "instantaneous"), sol)
            assert got == _outcome(_reference_instantaneous, sol)
            refusal = _outcome(refuse, sol)
            with monkeypatch.context() as patch:
                patch.setattr(spectrum, "_dp_extremes", _reference_dp_extremes)
                assert refusal == _outcome(refuse, sol)
            refused += isinstance(got[0], tuple)
        assert len(sols) > 150
        assert refused > 2  # the two fixed cases and random ones

    def test_peak_deviation_formula(self, op2):
        sol = solve_coefficients_matrix(op2, ModulationConfig(mu=0.05, omega_m=OMEGA_M))
        assert peak_frequency_deviation(sol) == pytest.approx(
            op2.nu * op2.gamma_p * sol.x_abs(1) / math.pi, rel=1e-13
        )

    def test_unknown_method_rejected(self, op2):
        sol = solve_coefficients_matrix(op2, ModulationConfig(mu=0.05, omega_m=OMEGA_M))
        with pytest.raises(ValueError):
            peak_frequency_deviation(sol, "rms")

    def test_bandwidth_corner(self, op2):
        mbw = modulation_bandwidth(op2, 1e-4, 0.02 * 2.0 * op2.gamma_p)
        assert mbw == pytest.approx(2.0 * op2.gamma_p / TWO_PI, rel=0.02)

    def test_bandwidth_corner_is_solved_to_round_off(self, all_ops):
        # At the returned corner beta_1 is the flat-band value over sqrt(2) to
        # round-off, not to the resolution of a coarse stop.  The flat band is
        # the omega_m -> 0 limit |nu*C1|*mu0/omega_m0, not beta_1 at the seed.
        for op in all_ops.values():
            seed = 0.02 * 2.0 * op.gamma_p
            omega = TWO_PI * modulation_bandwidth(op, 1e-4, seed)
            corner = first_harmonic_index(op, 1e-4 * omega / seed, omega)
            flat = abs(op.nu * op.c1) * 1e-4 / seed
            assert corner == pytest.approx(flat / math.sqrt(2.0), rel=1e-9)

    def test_bandwidth_corner_from_a_seed_far_below_it(self, all_ops):
        # From 1e5 below the default seed the corner sits near s = 5e6, where a
        # step of s is coarser than 1e-10; the bisection ends at round-off.
        # From 1e7 below, the first steps of the march differ from the flat band
        # by round-off only, which is not a fall.
        for op in all_ops.values():
            for scale in (1e5, 1e7):
                mbw = modulation_bandwidth(op, 1e-4 / scale, 0.02 * 2.0 * op.gamma_p / scale)
                assert mbw == pytest.approx(2.0 * op.gamma_p / TWO_PI, rel=0.02)

    def test_bandwidth_seed_must_be_in_flat_band(self, op2):
        with pytest.raises(SeedBandError):
            modulation_bandwidth(op2, 1e-4, 10.0 * 2.0 * op2.gamma_p)

    def test_bandwidth_rejects_bad_seed_values(self, op2):
        with pytest.raises(ValueError):
            modulation_bandwidth(op2, 0.0, OMEGA_M)
        with pytest.raises(SeedBandError, match=r"must be in \(0, 1\)"):
            modulation_bandwidth(op2, 1.0, OMEGA_M)

    def test_bandwidth_refuses_a_zero_flat_band_index(self):
        # nu = 0 carries no FM: beta_1 is 0 at every omega_m, so there is no corner.
        op = derive_operating_point(make_device(1.8, nu=0.0))
        with pytest.raises(SeedBandError, match="flat-band beta_1 = 0"):
            modulation_bandwidth(op, 1e-4, 0.02 * 2.0 * op.gamma_p)

    def test_index_backsolve_round_trip(self, all_ops):
        # The bisection stops at min(1e-10, 1e-7*hi) in mu.  At 1 Hz the mu of
        # beta_1 = 0.25 is about 4.5e-11, below a 1e-10 stop alone, which left
        # |beta_1| at 0.17 there and 0.2512 at 100 Hz.
        points = [("OP2", beta1, OMEGA_M) for beta1 in (0.3, 1.0, 2.5)]
        points += [(label, 0.25, TWO_PI * f_m) for label in all_ops for f_m in (1.0, 100.0, 1e4)]
        for label, beta1, omega_m in points:
            mu = solve_mu_for_beta1(all_ops[label], beta1, omega_m)
            beta1_back = first_harmonic_index(all_ops[label], mu, omega_m)
            assert beta1_back == pytest.approx(beta1, rel=1e-6), (label, omega_m)

    def test_index_backsolve_edges(self, op2):
        assert solve_mu_for_beta1(op2, 0.0, OMEGA_M) == 0.0
        with pytest.raises(ValueError):
            solve_mu_for_beta1(op2, -1.0, OMEGA_M)
        with pytest.raises(NumericalError):
            solve_mu_for_beta1(op2, 50.0, OMEGA_M)

    @staticmethod
    def _gated_backsolve(op, beta1, omega_m, n_harmonics):
        """The reference: the back-solve's silent search over gated evaluations."""
        return spectrum._quietly(
            spectrum._rising_crossing,
            lambda mu: first_harmonic_index(op, mu, omega_m, n_harmonics), beta1, 1e-6, 0.5
        )

    def test_index_backsolve_matches_the_gated_search(self, all_ops):
        # The same mu bits, or the same error text, as the gated search on a
        # seeded set: beta_1 log-uniform in [1e-2, 1e3], f_m in [0.1 MHz, 2 GHz].
        rng = np.random.default_rng(25)
        kinds = set()
        for op in all_ops.values():
            for n_harmonics in (10, 20, 40):
                for _ in range(20):
                    beta1, f_m = 10.0 ** rng.uniform([-2.0, 5.0], [3.0, math.log10(2e9)])
                    args = (op, beta1, TWO_PI * f_m, n_harmonics)
                    got, ref = (_outcome(lambda a: solve(*a), args)
                                for solve in (solve_mu_for_beta1, self._gated_backsolve))
                    assert got == ref, args
                    kinds.add(ref[0][0] if isinstance(ref[0], tuple) else "solved")
        assert kinds == {"solved", NumericalError}

    def test_searches_warn_for_what_they_keep(self, op1):
        # At 1 GHz each of the back-solve's 80 evaluations at OP1 is past a
        # tenth of the 6.72 GHz carrier, and none warns: the search keeps no
        # solve.  The bandwidth search warns once, at its 3.14 GHz corner, past
        # a tenth of the 6.38 GHz carrier; its 62.7 MHz seed is not.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert solve_mu_for_beta1(op1, 0.01, TWO_PI * 1e9) == 0.07973785951830947
        op = derive_operating_point(make_device(3.8, alpha=0.1, nu=0.5))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert modulation_bandwidth(op, 1e-4, 0.02 * 2.0 * op.gamma_p) == 3136014580.049519
        assert [(str(w.message)[:20], w.filename) for w in caught] == [
            ("omega_m is not small", __file__)]

    def test_bandwidth_warns_once_from_its_corner(self):
        # At alpha = 0.1, nu = -3.3, xi = 3.8 the carrier is 0.426 GHz, so the
        # 62.7 MHz seed is past a tenth of it, and so is every omega_m the
        # search tries.  The seed solve is silent like the evaluations: the one
        # warning is the corner's, and it names this file.
        op = derive_operating_point(make_device(3.8, alpha=0.1, nu=-3.3))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            modulation_bandwidth(op, 1e-4, 0.02 * 2.0 * op.gamma_p)
        assert [(str(w.message)[:20], w.filename) for w in caught] == [
            ("omega_m is not small", __file__)]

    def test_index_backsolve_evaluations_are_ungated(self, op2, monkeypatch):
        # Each evaluation is one dense solve without the residual check: 72 at
        # OP2, 100 MHz, beta_1 = 0.75.  The bandwidth search keeps the gate.
        calls = []
        solve = spectrum.solve_coefficients_matrix
        monkeypatch.setattr(spectrum, "solve_coefficients_matrix",
                            lambda op, modcfg, **kw: calls.append(kw) or solve(op, modcfg, **kw))
        solve_mu_for_beta1(op2, 0.75, OMEGA_M)
        assert calls == [{"gate": False}] * 72
        calls.clear()
        modulation_bandwidth(op2, 1e-4, 0.02 * 2.0 * op2.gamma_p)
        assert calls and calls == [{"gate": True}] * len(calls)

    def test_index_backsolve_refuses_a_falling_index(self, op1):
        # At 1 MHz beta_1(mu) peaks at about 5.26e5 near mu = 0.33, below mu_max.
        with pytest.raises(NumericalError, match=r"target 1e\+06 not reachable: the value falls "
                                                 r"past 0\.33\d* \(largest value 526\d{3}\)"):
            solve_mu_for_beta1(op1, 1e6, TWO_PI * 1e6)
