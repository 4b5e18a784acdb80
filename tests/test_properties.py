"""Properties checked over drawn inputs rather than at a few seeds."""

import contextlib
import io
import math
import os
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from beamspace_noma import (ChannelParams, LinkBudget, OptimizerConfig, PrecodingError,
                            SystemConfig, allocate_batch, baselines, build_noma_link,
                            lens_transform_matrix, link_gains, run_trial, runner,
                            sample_realization, trial_rng)
from beamspace_noma.cli import FLAGS, MODES, main as cli_main
from beamspace_noma.config import FIELD_PARSERS
from beamspace_noma.power import BUDGET_TOL, DOUBLINGS, _solve_budgets
from beamspace_noma.precoding import zf_columns

from conftest import FixedDirections, assert_zf_residual_bounded
from oracles import _powers_at, reference_sample_realization, sequential_solve_budget

# directions in the drawn interval [-1/2, 1/2] and beyond: exact zero, +-1 and
# past +-1, where mirrored and direct draws meet
_DIRECTIONS = st.sampled_from([-2.0, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 3.0]) | \
    st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def _user_paths(draw):
    """K users, L NLoS paths and the K*(L+1) path directions."""
    k, n_nlos = draw(st.integers(1, 8)), draw(st.integers(0, 3))
    n_paths = k * (n_nlos + 1)
    return k, n_nlos, draw(st.lists(_DIRECTIONS, min_size=n_paths, max_size=n_paths))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 300), paths=_user_paths(), seed=st.integers(0, 2**63 - 1))
def test_mirrored_steering_rows_equal_the_full_exp(n, paths, seed):
    k, n_nlos, directions = paths
    params = ChannelParams(n_antennas=n, n_users=k, n_nlos=n_nlos)
    new = sample_realization(params, FixedDirections(directions, seed))
    ref = reference_sample_realization(params, FixedDirections(directions, seed))
    assert new.matrix.tobytes() == ref.matrix.tobytes()
    assert new.path_gains.tobytes() == ref.path_gains.tobytes()
    assert np.array_equal(new.path_directions, ref.path_directions)


# budget roots in (0, 1), past 1 to beyond the doubling cap 2**DOUBLINGS,
# deep enough to meet the halving cap, and near the subnormal range
_ROOT_SCALES = (st.integers(-60, 0) | st.integers(1, DOUBLINGS + 2) | st.integers(-300, -61)
                | st.integers(-1074, -1000))
_SHAPES = st.floats(1e-3, 1e3)
_SPECIAL_NUMERATORS = st.sampled_from([0.0, -0.0, -1.0, math.nan])


@st.composite
def _budget_rows(draw, k):
    """numer, denom_base, total and guess of one root: denominators and root
    at a drawn power-of-two scale, some denominators shifted negative (the
    masked rows), numerators at a drawn gain over them, some zero, -0,
    negative or NaN, and the total the powers take at the root."""
    scale = draw(_ROOT_SCALES)
    gain = draw(st.integers(-150, 480))
    numer = [math.ldexp(x, scale + gain)
             for x in draw(st.lists(_SHAPES | _SPECIAL_NUMERATORS, min_size=k, max_size=k))]
    denom_base = [math.ldexp(x, scale) for x in draw(st.lists(_SHAPES, min_size=k, max_size=k))]
    if draw(st.booleans()):
        shift = draw(st.floats(0.05, 1.5)) * max(denom_base)
        denom_base = [d - shift for d in denom_base]
    # a root close above a masked row's pole moves its sum by more than the
    # residual tolerance between neighbouring doubles
    offset = draw(st.floats(1e-3, 4.0) | st.floats(1e-13, 1e-6))
    root = max(-min(denom_base), 0.0) + math.ldexp(offset, scale)
    numer, denom_base = np.array(numer), np.array(denom_base)
    total = float(np.sum(_powers_at(numer, denom_base, root)))
    guess = draw(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 0.5, root])
                 | st.floats(0.5, 2.0).map(lambda f: f * root))
    return numer, denom_base, total, guess


@st.composite
def _budget_batches(draw):
    k = draw(st.integers(1, 8))
    rows = draw(st.lists(_budget_rows(k), min_size=1, max_size=4))
    return tuple(np.array(column) for column in zip(*rows))


@settings(max_examples=300, deadline=None)
@given(batch=_budget_batches())
def test_budget_root_is_the_sequential_bisection(batch):
    numer, denom_base, total, guess = batch
    lam, p = _solve_budgets(numer, denom_base, total, guess)
    want = [sequential_solve_budget(*row) for row in zip(numer, denom_base, total)]
    assert lam.tobytes() == np.array([root for root, _ in want]).tobytes()
    assert p.tobytes() == np.array([powers for _, powers in want]).tobytes()
    assert np.all(p >= 0)
    # past the doubling cap the bisection returns hi = 2**DOUBLINGS with the
    # powers at 2**(DOUBLINGS - 1), which exceed the budget
    uncapped = lam < 2.0 ** DOUBLINGS
    assert np.all(p.sum(axis=-1)[uncapped] <= total[uncapped] * (1 + BUDGET_TOL))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(8, 32), k=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
       snr_db=st.lists(st.floats(0.0, 30.0), min_size=1, max_size=3),
       min_rate=st.sampled_from([0.0, 1.0]), variant=st.sampled_from(["strongest", "svd"]))
def test_allocation_keeps_the_budget_and_climbs_without_a_minimum_rate(n, k, seed, snr_db,
                                                                       min_rate, variant):
    real = sample_realization(ChannelParams(n_antennas=n, n_users=k), trial_rng(seed, 0))
    try:
        grouping, precoder = build_noma_link(lens_transform_matrix(n).matrix @ real.matrix,
                                             variant)
    except PrecodingError:
        reject()
    budgets = [LinkBudget.from_snr(32.0, snr, k) for snr in snr_db]
    # a row whose minimum rate cannot be met runs all OUTER_CAP dual rounds in
    # every iteration, up to 0.3 s each here, so rmin = 1 runs two iterations
    config = OptimizerConfig(max_iters=20 if min_rate == 0.0 else 2, min_rate=min_rate)
    allocations = allocate_batch(link_gains(grouping, precoder), budgets, config)
    for alloc, budget in zip(allocations, budgets):
        assert np.all(np.array(alloc.budget_trace) <= budget.total_power_mw)
        assert np.all(alloc.powers >= 0)
        if min_rate == 0.0:
            # the bound of test_allocate_trace_is_monotone_and_budget_feasible
            assert np.all(np.diff(alloc.trace) >= -1e-8)


def _complex_orthonormal(rng, rows, cols):
    q, _ = np.linalg.qr(rng.standard_normal((rows, cols))
                        + 1j * rng.standard_normal((rows, cols)))
    return q


# cond(H) from 1 to 10^11.9 spans the Gram-inverse certificate (cond below
# ~1e4) and the SVD columns past it, up to just short of the drop at
# COND_LIMIT, where the rounding of cond(H) lands on either side; the residual
# stays within the measured bound, below 1/2, so r / (1 - r) is finite
@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 32), n=st.integers(1, 8), log_cond=st.floats(0.0, 11.9),
       log_scale=st.floats(-6.0, 6.0), seed=st.integers(0, 2**32 - 1))
def test_zf_leakage_stays_within_the_residual(m, n, log_cond, log_scale, seed):
    m = max(m, n)
    rng = np.random.default_rng(seed)
    singular = 10.0 ** log_scale * np.geomspace(1.0, 10.0 ** log_cond, n)
    h = (_complex_orthonormal(rng, m, n) * rng.permutation(singular)
         @ _complex_orthonormal(rng, n, n).conj().T)
    w, r = zf_columns(h, "h")
    assert r >= 0.0
    assert_zf_residual_bounded(h, r)
    assert np.allclose(np.linalg.norm(w, axis=0), 1.0)
    # |h_i^H w_j| = |E_ij| / |1 + E_jj| for the unnormalized residual E, |E| <= r;
    # the slack covers the rounding of the two length-m products, the one
    # behind r and the one here, and of the normalization, for users i and j
    gains = np.abs(h.conj().T @ w)
    user_norms = np.linalg.norm(h, axis=0)
    slack = 8 * m * np.finfo(float).eps * (user_norms[:, None] + user_norms[None, :])
    bound = r / (1 - r) * np.diag(gains)[None, :] + slack
    off = ~np.eye(n, dtype=bool)
    assert np.all(gains[off] <= bound[off])


@st.composite
def _permuted_users(draw):
    n = draw(st.integers(16, 256))
    k = draw(st.integers(2, min(n, 32)))
    return n, k, np.array(draw(st.permutations(range(k))))


def _swapped(k, *pairs):
    """The identity permutation of k users with the given pairs swapped."""
    perm = np.arange(k)
    for i, j in pairs:
        perm[[i, j]] = perm[[j, i]]
    return perm


# Beam selection, grouping, the order repair and the single-user beam claim
# break exact ties by the lower user index, which a permutation moves; the
# continuous draws here have no exact norm or gain ties. Only the rounding of
# sums taken in another user order differs, hence the tolerances:
# - fully digital ZF goes through the Gram inverse, whose rounding grows as
#   eps * cond(H)^2 (the K = N example has cond(H) = 5.7e3); beamspace MIMO's
#   ZF inverts the K x K claimed beamspace rows B the same way, so its bound
#   is eps * cond(B)^2 (the rotated K = N example moves 1.38e-9 relative
#   with cond(B) = 5.73e3, eps * cond(B)^2 = 7.28e-9); a draw where either
#   bound passes 1e-6 would check nothing there and is rejected;
# - a NOMA user's rate is a share of the sum rate, so its rounding is bounded
#   against that sum, not against the rate itself (the svd example's user
#   rate moves 2.6e-9 relative, 3.7e-12 of the sum rate).
@settings(max_examples=40, deadline=None)
@given(case=_permuted_users(), seed=st.integers(0, 2**32 - 1),
       variant=st.sampled_from(["strongest", "svd"]))
@example(case=(23, 23, _swapped(23, (3, 4), (7, 8))), seed=23, variant="strongest")
@example(case=(247, 21, _swapped(21, (6, 20))), seed=325941, variant="svd")
@example(case=(23, 23, np.r_[:14, 15:21, 14, 21:23]), seed=23,  # users 14-20 rotated
         variant="strongest")
def test_records_are_equivariant_under_user_permutation(case, seed, variant):
    n, k, perm = case
    config = SystemConfig(n_antennas=n, n_users=k, seed=seed, variant=variant,
                          snr_db=[0.0, 10.0, 20.0, 30.0])
    h = sample_realization(config.channel_params(), trial_rng(seed, 0)).matrix
    beamspace = lens_transform_matrix(n).matrix @ h
    claimed = beamspace[np.sort(baselines._claim_beams(beamspace))]
    rtol = {scheme: max(1e-9, np.finfo(float).eps * np.linalg.cond(m) ** 2)
            for scheme, m in (("fully_digital", h), ("beamspace_mimo", claimed))}
    if max(rtol.values()) > 1e-6:
        reject()
    real_sample = runner.sample_realization

    def permuted(params, rng):  # moved user j is user perm[j] of the unpermuted draw
        realization = real_sample(params, rng)
        return replace(realization, matrix=realization.matrix[:, perm],
                       path_gains=realization.path_gains[perm],
                       path_directions=realization.path_directions[perm])

    base = run_trial(config, 0)
    with patch.object(runner, "sample_realization", permuted):
        moved = run_trial(config, 0)
    assert len(moved) == len(base)
    for a, b in zip(base, moved):
        assert ((b.scheme, b.snr_db, b.dropped, b.drop_reason, b.n_rf)
                == (a.scheme, a.snr_db, a.dropped, a.drop_reason, a.n_rf))
        np.testing.assert_allclose([b.sum_rate, b.energy_eff], [a.sum_rate, a.energy_eff],
                                   rtol=rtol.get(a.scheme, 1e-9))
        assert (b.trace is None) == (a.trace is None)
        if a.trace is not None:
            np.testing.assert_allclose(b.trace, a.trace, rtol=1e-9)
            np.testing.assert_allclose(b.user_rates, np.array(a.user_rates)[perm], rtol=1e-9,
                                       atol=1e-9 * a.sum_rate)


# per config field, valid and boundary tokens that keep a run tiny: at most 8
# antennas, 9 users, 2 trials, 2 SNR points and one worker; _JUNK goes to
# every field
_FIELD_TOKENS = {
    "n_antennas": ["2", "4", "8", "1"], "n_users": ["1", "2", "4", "9"], "n_nlos": ["0", "2"],
    "total_power_mw": ["32", "1e-300", "1e300"], "los_variance": ["1", "1e308", "1e-322"],
    "nlos_variance": ["0.1", "1e300"], "snr_db": ["10", "0:10:10", "-50,300", "0:1e9:1e-6"],
    "users_sweep": ["2", "1,4", "9", "2,2"], "trials": ["1", "2"],
    "seed": ["7", "18446744073709551616"], "max_iters": ["3"], "min_rate": ["1", "1023", "1024"],
    "rf_chain_mw": ["300", "1e308"], "switch_mw": ["5"], "baseband_mw": ["200"],
    "schemes": ["noma", "oma,beamspace_mimo", "fully_digital,noma", "noma,noma", "mimo"],
    "variant": ["svd", "strongest", "SVD"],
    "out": ["run", "sub/run", "run.csv", "dir/", ".", "..", "cfg.txt/run"], "workers": ["1"],
}
_JUNK = ["", " ", "x", "#", "nan", "inf", "-inf", "1e999", "-1", "0", "0.5", "1,2", "1:0:1", "--x"]
# the drawn lines override these; they keep the defaults' N = 256, K = 32 and
# 200 trials out of the run
_BASE_LINES = {"n_antennas": "4", "n_users": "2", "trials": "1", "snr_db": "10",
               "users_sweep": "2", "max_iters": "3"}


def _token(field):
    return st.sampled_from(_FIELD_TOKENS[field] + _JUNK)


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


def _cli_outcome(argv):
    """Exit status, stdout and stderr of one in-process `sim` run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_cli_tokens_cover_every_config_field():
    assert _FIELD_TOKENS.keys() == FIELD_PARSERS.keys()
    assert {name for name, _ in FLAGS.values()} <= FIELD_PARSERS.keys()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(mode=st.sampled_from(sorted(MODES)),
       flags=st.lists(st.sampled_from(sorted(FLAGS)), max_size=3, unique=True).flatmap(
           lambda fs: st.tuples(*[st.tuples(st.just(f), _token(FLAGS[f][0])) for f in fs])),
       lines=st.lists(st.sampled_from(sorted(FIELD_PARSERS)), max_size=3, unique=True).flatmap(
           lambda ks: st.tuples(*[st.tuples(st.just(k), _token(k)) for k in ks])))
def test_cli_exits_0_with_its_files_or_2_with_one_error_line(mode, flags, lines):
    argv = [mode, "--config", "cfg.txt"] + [t for pair in flags for t in pair]
    values = {**_BASE_LINES, **dict(lines)}
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        root = Path(tmp)
        (root / "cfg.txt").write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        before = _tree(root)
        os.chdir(root)  # relative outs land here
        try:
            code, out, err = _cli_outcome(argv)
        finally:
            os.chdir(home)
        if code == 0:
            assert err == ""
            csv_path, json_path = out.splitlines()[-1].removeprefix("wrote ").split(" and ")
            assert csv_path.endswith(".csv") and json_path.endswith(".json")
            assert (root / csv_path).is_file() and (root / json_path).is_file()
        else:
            assert code == 2, (code, err)
            assert err.startswith("usage: sim") and "Traceback" not in err
            assert [line for line in err.splitlines() if ": error: " in line] == \
                [err.splitlines()[-1]], err
            assert _tree(root) == before
