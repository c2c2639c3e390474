"""Harmonic-balance solver: closed forms, limits, and method comparison."""

import cmath
import math
import random
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stomod import (
    ModulationConfig,
    NumericalError,
    SingularSystemError,
    carrier_shift,
    derive_operating_point,
    peak_frequency_deviation,
    solve_coefficients_matrix,
    solve_coefficients_recursive,
    truncation_error,
)
from stomod import fourier
from stomod.fourier import RESIDUAL_RTOL, FourierSolution, _distance_percent
from stomod.spectrum import first_harmonic_index

from conftest import TWO_PI, make_device

F_M = 100e6
OMEGA_M = TWO_PI * F_M

# Differential grid: every OP x drive strength x modulation frequency x order.
GRID_MU = [1e-4, 0.05, 0.3]
GRID_F_M = [10e6, 40e6, 100e6, 400e6, 1e9]
GRID_N = [1, 2, 5, 10, 20]


def dense_reference(op, modcfg):
    """(A0, X) from the balance equations assembled as one dense real system.

    Unknowns are ordered [A0, A_1..A_N, B_1..B_N]; rows follow the equations
    in the fourier module docstring.  Independent of the continued fraction.
    """
    n_h = modcfg.n_harmonics
    w = modcfg.omega_m
    g = 2.0 * op.gamma_p
    e = modcfg.mu * op.c2
    mat = np.zeros((2 * n_h + 1, 2 * n_h + 1))
    rhs = np.zeros(2 * n_h + 1)
    ia = list(range(n_h + 1))  # A_n at index n, A0 at index 0
    ib = [None] + [n_h + n for n in range(1, n_h + 1)]
    mat[0, 0] = -g
    mat[0, ib[1]] = e
    mat[1, ia[1]] = w
    mat[1, 0] = -2.0 * e
    mat[1, ib[1]] = g
    rhs[1] = modcfg.mu * op.c1
    mat[2, ia[1]] = g
    mat[2, ib[1]] = -w
    if n_h >= 2:
        mat[1, ib[2]] = -e
        mat[2, ia[2]] = -e
    for n in range(2, n_h + 1):
        r = 2 * n - 1
        mat[r, ia[n]] = n * w
        mat[r, ib[n]] = g
        mat[r, ib[n - 1]] -= e
        if n < n_h:
            mat[r, ib[n + 1]] -= e
        r = 2 * n
        mat[r, ia[n]] = g
        mat[r, ib[n]] = -n * w
        mat[r, ia[n - 1]] -= e
        if n < n_h:
            mat[r, ia[n + 1]] -= e
    v = np.linalg.solve(mat, rhs)
    return v[0], v[n_h + 1 :] + 1j * v[1 : n_h + 1]


def upward_march(op, modcfg):
    """(A0, X) from the real-arithmetic upward march with n+1 couplings dropped."""
    n_h = modcfg.n_harmonics
    w = modcfg.omega_m
    g = 2.0 * op.gamma_p
    e = modcfg.mu * op.c2
    a = np.zeros(n_h)
    b = np.zeros(n_h)
    b[0] = g * modcfg.mu * op.c1 / (w * w + g * g - 2.0 * e * e)
    a[0] = w * b[0] / g
    for n in range(2, n_h + 1):
        rhs_c, rhs_s = e * b[n - 2], e * a[n - 2]
        nw = n * w
        det = nw * nw + g * g
        a[n - 1] = (nw * rhs_c + g * rhs_s) / det
        b[n - 1] = (g * rhs_c - nw * rhs_s) / det
    return e * b[0] / g, b + 1j * a


def _max_rel_diff(solver, reference, op):
    worst_x = worst_a0 = 0.0
    for mu in GRID_MU:
        for f_m in GRID_F_M:
            for n_h in GRID_N:
                modcfg = ModulationConfig(mu=mu, omega_m=TWO_PI * f_m, n_harmonics=n_h)
                sol = solver(op, modcfg)
                a0, x = reference(op, modcfg)
                # Relative to the largest harmonic: the far tail sits below
                # the reference's own round-off.
                worst_x = max(worst_x, np.max(np.abs(sol.x - x)) / np.max(np.abs(x)))
                worst_a0 = max(worst_a0, abs(sol.a0 - a0) / abs(a0))
    return worst_x, worst_a0


def test_zero_drive_gives_zero_solution(op2):
    sol = solve_coefficients_matrix(op2, ModulationConfig(mu=0.0, omega_m=OMEGA_M))
    assert sol.a0 == 0.0
    assert not sol.a.any()
    assert not sol.b.any()


def test_closed_form_without_parametric_coupling(op2):
    # With C2 = 0 the system decouples: only the first harmonic is driven,
    # A1 = mu*C1*w / (w^2 + 4 Gp^2), B1 = 2 Gp * mu*C1 / (w^2 + 4 Gp^2).
    op = replace(op2, c2=0.0)
    mu = 0.05
    sol = solve_coefficients_matrix(op, ModulationConfig(mu=mu, omega_m=OMEGA_M))
    denom = OMEGA_M**2 + 4.0 * op.gamma_p**2
    assert sol.a[0] == pytest.approx(mu * op.c1 * OMEGA_M / denom, rel=1e-12)
    assert sol.b[0] == pytest.approx(2.0 * op.gamma_p * mu * op.c1 / denom, rel=1e-12)
    assert sol.a0 == pytest.approx(0.0, abs=1e-15)
    assert np.max(np.abs(sol.x[1:])) < 1e-15


def test_first_harmonic_quadrature_ratio(op2):
    # A1/B1 -> omega_m / (2 Gamma_p) in the weak-drive limit.
    sol = solve_coefficients_matrix(op2, ModulationConfig(mu=0.01, omega_m=OMEGA_M))
    assert sol.a[0] / sol.b[0] == pytest.approx(
        OMEGA_M / (2.0 * op2.gamma_p), rel=0.05
    )


def test_scaling_in_mu(op2):
    # X1 is driven directly by mu*C1 (linear); A0 goes through the product
    # mu*C2*B1 and is therefore quadratic in mu.
    lo = solve_coefficients_matrix(op2, ModulationConfig(mu=1e-4, omega_m=OMEGA_M))
    hi = solve_coefficients_matrix(op2, ModulationConfig(mu=2e-4, omega_m=OMEGA_M))
    assert hi.x[0] == pytest.approx(2.0 * lo.x[0], rel=1e-3)
    assert hi.a0 == pytest.approx(4.0 * lo.a0, rel=1e-3)


def test_dc_balance_ties_shift_to_b1(op1):
    # 2*pi*f_s = 2*nu*Gamma_p*A0 = mu*nu*C2*B1 by the DC balance equation.
    mu = 0.1
    sol = solve_coefficients_matrix(op1, ModulationConfig(mu=mu, omega_m=OMEGA_M))
    f_s = carrier_shift(sol)
    assert TWO_PI * f_s == pytest.approx(2.0 * op1.nu * op1.gamma_p * sol.a0, rel=1e-13)
    assert TWO_PI * f_s == pytest.approx(mu * op1.nu * op1.c2 * sol.b[0], rel=1e-12)


def test_shift_sign_follows_c2(op1, op3):
    # C2 > 0 below xi = 2, < 0 above: the carrier shift flips sign with it.
    cfg = ModulationConfig(mu=0.1, omega_m=OMEGA_M)
    assert carrier_shift(solve_coefficients_matrix(op1, cfg)) > 0.0
    assert carrier_shift(solve_coefficients_matrix(op3, cfg)) < 0.0


def test_matrix_vs_recursive_agree_at_moderate_drive(op2):
    # The recursive method is the matrix recurrence with each harmonic's
    # coupling to the one above dropped: its ratios X_n/X_(n-1) are
    # mu*C2/(2*Gamma_p - i*n*omega_m) to round-off (4.5e-16 measured), and
    # its X_1 lies within 1e-4 of the matrix method's (2.7e-5 and 1.1e-5).
    for f_m in (40e6, 100e6):
        cfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * f_m)
        mat = solve_coefficients_matrix(op2, cfg)
        rec = solve_coefficients_recursive(op2, cfg)
        assert _distance_percent(rec.x, mat.x) < 0.1  # percent
        n = np.arange(2, cfg.n_harmonics + 1)
        ratio = cfg.mu * op2.c2 / (2.0 * op2.gamma_p - 1j * n * cfg.omega_m)
        assert np.max(np.abs(rec.x[1:] / rec.x[:-1] / ratio - 1.0)) <= 1e-14
        assert abs(rec.x[0] - mat.x[0]) <= 1e-4 * abs(mat.x[0])


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("label", ["OP1", "OP2", "OP3"])
def test_matrix_matches_dense_reference(all_ops, label):
    worst_x, worst_a0 = _max_rel_diff(solve_coefficients_matrix, dense_reference, all_ops[label])
    assert worst_x <= 1e-12
    assert worst_a0 <= 1e-12


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("label", ["OP1", "OP2", "OP3"])
def test_recursive_matches_upward_march(all_ops, label):
    worst_x, worst_a0 = _max_rel_diff(solve_coefficients_recursive, upward_march, all_ops[label])
    assert worst_x <= 1e-14
    assert worst_a0 <= 1e-14


def ungated_matrix(op, modcfg):
    """The matrix solve without its balance-residual check."""
    return solve_coefficients_matrix(op, modcfg, gate=False)


# gate=False skips only the residual check: a zero pivot and non-finite
# coefficients still raise.
@pytest.mark.parametrize(
    "solver", [solve_coefficients_matrix, solve_coefficients_recursive, ungated_matrix]
)
@pytest.mark.parametrize("n_h", [1, 2, 10])
def test_zero_restoration_rate_is_singular(op2, solver, n_h):
    op = replace(op2, gamma_p=0.0)
    with pytest.raises(SingularSystemError):
        solver(op, ModulationConfig(mu=0.05, omega_m=OMEGA_M, n_harmonics=n_h))


@pytest.mark.parametrize(
    "solver", [solve_coefficients_matrix, solve_coefficients_recursive, ungated_matrix]
)
def test_overflow_raises_instead_of_nan(solver):
    # gamma = 1e305 Hz/T is finite, but (2*Gamma_p)^2 in the n = 1 closure
    # overflows and would leave NaN coefficients.
    op = derive_operating_point(make_device(1.8, gamma=1e305))
    with pytest.raises(NumericalError, match="not finite"):
        solver(op, ModulationConfig(mu=0.05, omega_m=OMEGA_M))


def test_harmonic_magnitudes_decay(op2):
    sol = solve_coefficients_matrix(op2, ModulationConfig(mu=0.2, omega_m=OMEGA_M))
    mags = np.abs(sol.x)
    assert all(mags[i + 1] < mags[i] for i in range(len(mags) - 1))


def test_solution_stores_only_its_complex_harmonics(op1):
    # A_n, B_n and N are read from X_n, so they cannot disagree with it.
    cfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * 40e6, n_harmonics=20)
    sol = solve_coefficients_matrix(op1, cfg)
    assert [f.name for f in fields(sol)] == ["a0", "x", "op", "modcfg"]
    assert sol.n_harmonics == sol.x.size == 20
    assert np.array_equal(sol.b + 1j * sol.a, sol.x)


def test_harmonic_magnitude_is_taken_one_way(op1):
    # |X_n| of one harmonic equals |X_n| of the array, bit for bit, so an
    # array FM index matches the scalar one.  At n = 5 here Python's float
    # hypot differs from libm's in the last bit.
    cfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * 40e6, n_harmonics=20)
    sol = solve_coefficients_matrix(op1, cfg)
    mags = np.hypot(sol.x.real, sol.x.imag)
    for n in range(1, sol.n_harmonics + 1):
        assert sol.x_abs(n) == mags[n - 1], n


def test_fm_index_array_equals_each_scalar_index(all_ops):
    for op in all_ops.values():
        for f_m, n_h in [(20e6, 1), (40e6, 20), (400e6, 7)]:
            cfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * f_m, n_harmonics=n_h)
            sol = solve_coefficients_matrix(op, cfg)
            assert sol.betas.tolist() == [sol.beta(n) for n in range(1, n_h + 1)]


def _reference_solve(op, modcfg, exact):
    """_solve as it was before its diagonal was cached: the diagonal rebuilt on
    every call, the exact test inside the recurrence, and the residual from a
    padded copy of X_n.  Kept verbatim as the differential reference."""
    n_h = modcfg.n_harmonics
    if modcfg.mu == 0.0:
        return FourierSolution(a0=0.0, x=np.zeros(n_h, dtype=complex), op=op, modcfg=modcfg)
    w = modcfg.omega_m
    g = 2.0 * op.gamma_p
    e = modcfg.mu * op.c2
    drive = modcfg.mu * op.c1
    # Diagonal 2*Gamma_p - i*n*omega_m of the recurrence, n = 0..N.
    diag = [complex(g, -n * w) for n in range(n_h + 1)]
    q = [0j] * (n_h + 2)
    try:
        # Backward ratios q_n = X_n / X_{n-1} for n = N..2, from q_{N+1} = 0.
        for n in range(n_h, 1, -1):
            q[n] = e / (diag[n] - e * q[n + 1] if exact else diag[n])
        # n = 1: (g - i*w - e*q_2)*X_1 - (2*e^2/g)*Re X_1 = mu*C1, a real 2x2
        # system in (B_1, A_1) once A0 = e*B_1/g is eliminated.
        d = diag[1] - e * q[2] if exact else diag[1]
        det = d.real * d.real + d.imag * d.imag - 2.0 * e * e * d.real / g
        x = complex(drive * d.real / det, -drive * d.imag / det)
    except ZeroDivisionError as exc:  # a zero pivot
        raise SingularSystemError(
            f"harmonic-balance system is singular (gamma_p={op.gamma_p}, "
            f"omega_m={modcfg.omega_m})"
        ) from exc
    xs = [x]
    for q_n in q[2 : n_h + 1]:
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
    if exact:
        ext = [0j, *xs, 0j]
        res = [
            c * x_n - e * (lo + hi) for c, lo, x_n, hi in zip(diag[1:], ext, xs, ext[2:])
        ]
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
    return FourierSolution(a0=a0, x=np.array(xs), op=op, modcfg=modcfg)


def _outcome(solve, op, modcfg, exact):
    """(bits of a0, bytes of x) or (exception class, message), and the warnings raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            sol = solve(op, modcfg, exact)
            result = (sol.a0.hex(), sol.x.tobytes())
        except Exception as exc:  # any failure must be the reference's own
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def _random_configs(seed, draws_per_order):
    """Log-uniform mu in [1e-7, 0.99] and f_m in [1e5, 5e9] Hz at each order."""
    rng = random.Random(seed)
    for n_h in (1, 2, 3, 10, 20, 50):
        for _ in range(draws_per_order):
            mu = 10.0 ** rng.uniform(-7.0, math.log10(0.99))
            f_m = 10.0 ** rng.uniform(5.0, math.log10(5e9))
            yield ModulationConfig(mu=mu, omega_m=TWO_PI * f_m, n_harmonics=n_h)


def test_solve_matches_reference_bit_for_bit(all_ops, op1, op2):
    # Same a0, same bytes of x, same exceptions and same warnings as the
    # reference, by both methods.  The fixed cases add a zero pivot, an
    # overflow and a refused residual to the random ones.
    cases = [(op, cfg) for op in all_ops.values() for cfg in _random_configs(20, 60)]
    flat = replace(op2, gamma_p=0.0)
    cases += [
        (flat, ModulationConfig(mu=0.05, omega_m=OMEGA_M, n_harmonics=1)),
        (flat, ModulationConfig(mu=0.05, omega_m=OMEGA_M)),
        (derive_operating_point(make_device(1.8, gamma=1e305)), ModulationConfig(mu=0.05, omega_m=OMEGA_M)),
        (op1, ModulationConfig(mu=0.9, omega_m=TWO_PI * 3e6, n_harmonics=50)),
    ]
    kinds = set()
    for op, modcfg in cases:
        for exact in (True, False):
            result, caught = _outcome(fourier._solve, op, modcfg, exact)
            assert (result, caught) == _outcome(_reference_solve, op, modcfg, exact), (op, modcfg)
            kinds.add(result[0] if isinstance(result[0], type) else "solved")
            kinds.update(category for category, _ in caught)
    assert kinds == {"solved", UserWarning, SingularSystemError, NumericalError}


class _ResidualProbe:
    """Stands in for RESIDUAL_RTOL: `residual > RESIDUAL_RTOL * scale` records
    the residual and accepts it, so a refused residual is compared too."""

    def __init__(self):
        self.seen = []

    def __mul__(self, scale):
        return self

    def __lt__(self, residual):
        self.seen.append(residual)
        return False


def test_residual_matches_reference_bit_for_bit(all_ops, monkeypatch):
    got, ref = _ResidualProbe(), _ResidualProbe()
    monkeypatch.setattr(fourier, "RESIDUAL_RTOL", got)
    monkeypatch.setitem(globals(), "RESIDUAL_RTOL", ref)
    for op in all_ops.values():
        for modcfg in _random_configs(21, 60):
            _outcome(fourier._solve, op, modcfg, True)
            _outcome(_reference_solve, op, modcfg, True)
    assert len(got.seen) > 1000
    assert [r.hex() for r in got.seen] == [r.hex() for r in ref.seen]


def test_ungated_solve_equals_the_gated_one_where_the_gate_passes(all_ops):
    # Same a0, same bytes of x, same exceptions and same warnings, wherever
    # the gated solve is not refused for its residual.
    def ungated(op, modcfg, exact):
        return fourier._solve(op, modcfg, exact, gate=False)

    kinds = set()
    for op in all_ops.values():
        for modcfg in _random_configs(22, 60):
            gated = _outcome(fourier._solve, op, modcfg, True)
            (kind, text), caught = gated
            if kind is NumericalError and text.startswith("harmonic-balance residual"):
                kinds.add("refused")
                continue
            assert _outcome(ungated, op, modcfg, True) == gated, (op, modcfg)
            kinds.add(kind if isinstance(kind, type) else "solved")
            kinds.update(category for category, _ in caught)
    assert kinds == {"solved", UserWarning, "refused"}


def test_ungated_solve_returns_where_the_gate_refuses(op1):
    # At OP1, 1 MHz, mu = 0.5, N = 40 the truncated system is near-singular:
    # the gated solve refuses its residual, the ungated one returns it finite.
    modcfg = ModulationConfig(mu=0.5, omega_m=TWO_PI * 1e6, n_harmonics=40)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the non-decay warning
        with pytest.raises(NumericalError, match="harmonic-balance residual"):
            solve_coefficients_matrix(op1, modcfg)
        sol = solve_coefficients_matrix(op1, modcfg, gate=False)
    assert math.isfinite(sol.a0) and np.isfinite(sol.x).all()


def test_cached_diagonal_is_keyed_exactly(op2):
    # The cache holds a few diagonals; interleaved orders and omega_m one ulp
    # apart each get their own, equal to one formed afresh.
    assert 1 <= fourier._diagonal.cache_info().maxsize <= 8
    omegas = [OMEGA_M, math.nextafter(OMEGA_M, math.inf)]
    keys = [(w, n_h) for n_h in (3, 10) for w in omegas] * 2
    solved = [
        solve_coefficients_matrix(op2, ModulationConfig(mu=0.05, omega_m=w, n_harmonics=n_h))
        for w, n_h in keys
    ]
    assert solved[0].x.tobytes() != solved[1].x.tobytes()
    for (w, n_h), sol in zip(keys, solved):
        fourier._diagonal.cache_clear()
        fresh = solve_coefficients_matrix(op2, ModulationConfig(mu=0.05, omega_m=w, n_harmonics=n_h))
        assert (sol.a0, sol.x.tobytes()) == (fresh.a0, fresh.x.tobytes())


def test_each_solve_at_large_mu_warns_once(op2):
    # A mu >= 1 config is built silently; each solve that evaluates the model
    # there warns once, so the truncation error's reference and three orders
    # warn four times, and a recursive solve once more.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cfg = ModulationConfig(mu=1.0, omega_m=TWO_PI * 400e6)
        assert caught == []
        truncation_error(op2, cfg, [1, 2, 3], 5)
        solve_coefficients_recursive(op2, cfg)
    assert [str(w.message) for w in caught] == 5 * [
        "mu=1.0 >= 1: outside the small-modulation validity range"
    ]


def test_truncation_error_decreases_with_n(op2):
    cfg = ModulationConfig(mu=0.05, omega_m=TWO_PI * 40e6, n_harmonics=20)
    errs = dict(truncation_error(op2, cfg, [1, 2, 3, 5], n_ref=20))
    assert errs[1] > errs[2] > errs[3] > errs[5]
    assert errs[5] < 1e-5


def test_truncation_reference_must_exceed_orders(op2):
    cfg = ModulationConfig(mu=0.05, omega_m=OMEGA_M)
    with pytest.raises(ValueError):
        truncation_error(op2, cfg, [5, 10], n_ref=10)


def _padded_l1_percent(x, ref_x):
    padded = np.concatenate([x, np.zeros(len(ref_x) - len(x))])
    return 100.0 * np.sum(np.abs(padded - ref_x)) / np.sum(np.abs(ref_x))


def test_both_distances_are_one_metric(op2):
    # Truncation error and the recursive-vs-matrix difference are the same
    # relative L1 distance; a missing harmonic counts as zero.
    cfg = ModulationConfig(mu=0.05, omega_m=OMEGA_M)
    short = solve_coefficients_matrix(op2, replace(cfg, n_harmonics=3))
    ref = solve_coefficients_matrix(op2, replace(cfg, n_harmonics=12))
    [(_, err)] = truncation_error(op2, cfg, [3], 12)
    assert err > 0.0
    assert err == pytest.approx(_padded_l1_percent(short.x, ref.x), rel=1e-12)

    cfg5 = replace(cfg, n_harmonics=5)
    rec = solve_coefficients_recursive(op2, cfg5)
    mat = solve_coefficients_matrix(op2, cfg5)
    diff = _distance_percent(rec.x, mat.x)
    assert diff > 0.0
    assert diff == pytest.approx(_padded_l1_percent(rec.x, mat.x), rel=1e-12)

    undriven = replace(cfg, mu=0.0)
    assert truncation_error(op2, undriven, [3], 12) == [(3, 0.0)]
    zero5 = replace(cfg5, mu=0.0)
    assert _distance_percent(
        solve_coefficients_recursive(op2, zero5).x, solve_coefficients_matrix(op2, zero5).x
    ) == 0.0


def test_beta_sign_convention(op2):
    # nu does not enter the power equation, so flipping its sign leaves X_n
    # and flips every beta_n; the back-solve and the index-based deviation
    # use |beta_1|.
    cfg = ModulationConfig(mu=0.05, omega_m=OMEGA_M)
    op_neg = derive_operating_point(make_device(1.8, nu=-100.0))
    sol = solve_coefficients_matrix(op_neg, cfg)
    sol_pos = solve_coefficients_matrix(op2, cfg)
    assert sol.beta(1) < 0.0
    assert sol.beta(1) == pytest.approx(-1.8685, abs=1e-4)
    for n in range(1, sol.n_harmonics + 1):
        assert sol.beta(n) == -sol_pos.beta(n)
    assert abs(sol.beta(1)) == first_harmonic_index(op_neg, cfg.mu, OMEGA_M)
    assert peak_frequency_deviation(sol, "index-based") == pytest.approx(
        abs(sol.beta(1)) * F_M, rel=1e-14
    )


@settings(max_examples=25, deadline=None)
@given(
    mu=st.floats(min_value=1e-4, max_value=0.3),
    f_m=st.floats(min_value=2e7, max_value=5e8),
)
def test_solution_satisfies_ode_pointwise(op2, mu, f_m):
    # Independent residual check: substitute the Fourier series into
    # d(dp)/dt - mu*C1*cos(wt) - (mu*C2*cos(wt) - Gp)*2*dp on a fine grid.
    w = TWO_PI * f_m
    sol = solve_coefficients_matrix(op2, ModulationConfig(mu=mu, omega_m=w, n_harmonics=15))
    t = np.linspace(0.0, TWO_PI / w, 400, endpoint=False)
    dp = np.full_like(t, sol.a0)
    dpdot = np.zeros_like(t)
    for n in range(1, sol.n_harmonics + 1):
        s, c = np.sin(n * w * t), np.cos(n * w * t)
        dp += sol.a[n - 1] * s + sol.b[n - 1] * c
        dpdot += n * w * (sol.a[n - 1] * c - sol.b[n - 1] * s)
    drive = mu * np.cos(w * t)
    residual = dpdot - op2.c1 * drive - 2.0 * dp * (op2.c2 * drive - op2.gamma_p)
    # Truncation leaves only the (dropped) N+1 coupling; N=15 makes it tiny.
    scale = max(abs(mu * op2.c1), op2.gamma_p)
    assert np.max(np.abs(residual)) < 1e-8 * scale
