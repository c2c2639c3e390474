"""Shared fixtures: the default nanocontact device at its three bias points."""

import math

import numpy as np
import pytest

from stomod import DeviceParams, derive_operating_point

TWO_PI = 2.0 * math.pi

# Reference device: 1 T perpendicular field, mu0*Ms = 0.8 T, gamma = 28 GHz/T,
# alpha = 0.01, nu = 100 -> f_o = 5.6 GHz.
DEVICE_KW = dict(mu0_h_app=1.0, mu0_ms=0.8, gamma=28e9, alpha=0.01, nu=100.0)

OP_XIS = {"OP1": 1.2, "OP2": 1.8, "OP3": 3.8}
GAMMA_P_HZ = {"OP1": 11.2e6, "OP2": 44.8e6, "OP3": 156.8e6}


def make_device(xi: float, **overrides) -> DeviceParams:
    kw = dict(DEVICE_KW, xi=xi)
    kw.update(overrides)
    return DeviceParams(**kw)


def full_fft_read_out(trace, values, omega_m, k_max):
    """Reference for TimeTrace.harmonics: c_k, k = -k_max..k_max, each read in
    a loop from its own bin k*n_per of one FFT over the whole trace."""
    n_samples = trace.t.size
    n_per = round(n_samples * (trace.t[1] - trace.t[0]) * omega_m / TWO_PI)
    coeffs = np.fft.fft(values) / n_samples
    amps = np.zeros(2 * k_max + 1, dtype=complex)
    for k in range(-k_max, k_max + 1):
        c = coeffs[(k * n_per) % n_samples]
        amps[k_max + k] = c * np.exp(-1j * k * omega_m * trace.t[0])
    return amps


@pytest.fixture(scope="session")
def op1():
    return derive_operating_point(make_device(OP_XIS["OP1"]))


@pytest.fixture(scope="session")
def op2():
    return derive_operating_point(make_device(OP_XIS["OP2"]))


@pytest.fixture(scope="session")
def op3():
    return derive_operating_point(make_device(OP_XIS["OP3"]))


@pytest.fixture(scope="session")
def all_ops(op1, op2, op3):
    return {"OP1": op1, "OP2": op2, "OP3": op3}
