import numpy as np
import pytest

from beamspace_noma import (ChannelParams, LinkBudget, build_noma_link,
                            interference_vector, lens_transform_matrix, sample_realization,
                            trial_rng)


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
