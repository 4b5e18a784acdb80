"""Properties checked over drawn inputs rather than at a few seeds."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from beamspace_noma import ChannelParams, sample_realization, trial_rng

from oracles import reference_sample_realization

# interval ends: the usual [-1/2, 1/2], ends on exact zero and past +-1, where
# mirrored and direct draws meet
_ENDS = st.sampled_from([-2.0, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 3.0]) | \
    st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def _direction_ranges(draw):
    lo, hi = sorted(draw(st.lists(_ENDS, min_size=2, max_size=2, unique=True)))
    return lo, hi


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 300), k=st.integers(1, 8), n_nlos=st.integers(0, 3),
       direction_range=_direction_ranges(), seed=st.integers(0, 2**63 - 1),
       trial=st.integers(0, 1000))
def test_mirrored_steering_rows_equal_the_full_exp(n, k, n_nlos, direction_range, seed,
                                                  trial):
    params = ChannelParams(n_antennas=n, n_users=k, n_nlos=n_nlos,
                           direction_range=direction_range)
    new = sample_realization(params, trial_rng(seed, trial))
    ref = reference_sample_realization(params, trial_rng(seed, trial))
    assert new.matrix.tobytes() == ref.matrix.tobytes()
    assert new.path_gains.tobytes() == ref.path_gains.tobytes()
    assert np.array_equal(new.path_directions, ref.path_directions)
