import ctypes
import functools
import glob
import os

import numpy as np
import pytest

from beamspace_noma import (ChannelParams, LinkBudget, build_noma_link,
                            interference_vector, lens_transform_matrix, sample_realization,
                            trial_rng)


# A kept ZF residual r stays within ZF_RESIDUAL_C * cond(H) * eps. Measured on
# 70,000 drawn channels (cond 1..1e12, 30,000 of them near cond 1e4) under each
# of the SkylakeX, Haswell and Prescott kernels: r / (cond eps) reached 2.6 on
# the SVD route and 7.2e3 on the certified Gram route, whose residual grows
# like cond^2 eps up to its certificate's edge near cond = 1e4.
ZF_RESIDUAL_C = 2e4


def assert_zf_residual_bounded(h, residual):
    """The ZF residual of channel h zero-forces it to within the measured bound."""
    bound = ZF_RESIDUAL_C * np.linalg.cond(h) * np.finfo(float).eps
    assert residual < 0.5 and residual <= bound, (residual, bound)


@functools.cache
def openblas_kernel() -> str:
    """The OpenBLAS kernel numpy's bundled BLAS picked at run time, from the
    CPU or OPENBLAS_CORETYPE: SkylakeX (AVX-512), Haswell (AVX2, also Zen) or
    Katmai, the name the SSE3 kernel of OPENBLAS_CORETYPE=Prescott reports."""
    lib, = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                  "libscipy_openblas64_*.so"))
    corename = ctypes.CDLL(lib).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def per_kernel(expected):
    """The entry of `expected`, keyed by kernel name, for the running OpenBLAS
    kernel: outcomes of cancelling link arithmetic follow its rounding. A
    kernel with no entry fails the test, naming it."""
    kernel = openblas_kernel()
    if kernel not in expected:
        pytest.fail(f"no expectation for the OpenBLAS kernel {kernel!r}; "
                    f"known: {', '.join(expected)}")
    return expected[kernel]


def xi_one(lg, powers, noise_mw):
    """Interference plus noise of one (K,) power vector under one noise power."""
    return interference_vector(lg, powers[None], np.array([noise_mw]))[0]


class FixedDirections:
    """A generator stand-in whose directions are given; gains stay seeded."""

    def __init__(self, directions, seed=0):
        self.directions = np.asarray(directions, dtype=float)
        self.rng = np.random.default_rng(seed)

    def uniform(self, lo, hi, size):
        return np.resize(self.directions, size)

    def standard_normal(self, size):
        return self.rng.standard_normal(size)


@pytest.fixture
def random_link():
    """Factory for seeded (realization, beamspace, grouping, precoder) tuples."""

    def make(seed=0, trial=0, n=16, k=4, variant="strongest", min_groups=None):
        lens = lens_transform_matrix(n)
        params = ChannelParams(n_antennas=n, n_users=k)
        for offset in range(200):
            rng = trial_rng(seed, trial + offset)
            realization = sample_realization(params, rng)
            beamspace = lens.matrix @ realization.matrix
            grouping, precoder = build_noma_link(beamspace, variant)
            if min_groups is None or grouping.n_rf <= k - min_groups:
                return realization, beamspace, grouping, precoder
        raise RuntimeError("no draw matched the requested conflict count")

    return make


@pytest.fixture
def budget():
    return LinkBudget(noise_mw=0.5, total_power_mw=8.0)
