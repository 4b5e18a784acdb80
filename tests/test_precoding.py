from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from beamspace_noma import (BeamGrouping, LinkBudget, PrecodingError, SystemConfig, baselines,
                            equivalent_channel_strongest, equivalent_channel_svd,
                            precoding, run_trial, runner, sum_rate, top_left_singular_vector,
                            zf_precoder)
from beamspace_noma.precoding import zf_columns

from oracles import reference_top_left_singular_vector, reference_zf_columns


def _grouping(columns, beams):
    cols = np.asarray(columns, dtype=complex).T
    return BeamGrouping(beams=[np.array(b) for b in beams], reduced=cols,
                        selected=np.arange(cols.shape[0]))


def test_strongest_equivalent_stacks_singletons():
    g = _grouping([[1, 2j], [3, 4]], beams=[[0], [1]])
    eq = equivalent_channel_strongest(g)
    np.testing.assert_array_equal(eq, g.reduced)


def test_strongest_equivalent_ignores_weaker_user():
    g = _grouping([[2, 1], [1, 0.5], [0.1j, 3]], beams=[[0, 1], [2]])
    eq = equivalent_channel_strongest(g)
    np.testing.assert_array_equal(eq[:, 0], g.reduced[:, 0])
    np.testing.assert_array_equal(eq[:, 1], g.reduced[:, 2])


def test_strongest_equivalent_duplicate_users():
    g = _grouping([[1, 1j], [1, 1j]], beams=[[0, 1]])
    g_single = _grouping([[1, 1j]], beams=[[0]])
    eq = equivalent_channel_strongest(g)
    np.testing.assert_array_equal(eq, equivalent_channel_strongest(g_single))


def _sigma(mat, u):
    """||M^H u||, the top singular value of M where u is its top left singular
    vector."""
    return float(np.linalg.norm(np.atleast_2d(mat).conj().T @ u))


def _top_singular_value(mat):
    return float(np.linalg.svd(np.atleast_2d(mat), compute_uv=False)[0])


def test_power_iteration_diagonal():
    mat = np.array([[2.0, 0.0], [0.0, 1.0]])
    u = top_left_singular_vector(mat)
    assert _sigma(mat, u) == pytest.approx(_top_singular_value(mat), abs=1e-12)
    np.testing.assert_allclose(u, [1.0, 0.0], atol=1e-10)  # phase convention: +e1


def test_power_iteration_single_column():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    u = top_left_singular_vector(v[:, None])
    assert _sigma(v[:, None], u) == pytest.approx(_top_singular_value(v[:, None]), rel=1e-12)
    assert abs(np.vdot(u, v / np.linalg.norm(v))) == pytest.approx(1.0, abs=1e-12)


def test_power_iteration_matches_eigensolver_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        u = top_left_singular_vector(m)
        s1 = _sigma(m, u)
        evals = np.linalg.eigvalsh(m @ m.conj().T)
        assert s1**2 == pytest.approx(float(evals[-1]), rel=1e-9)
        residual = np.linalg.norm(m @ m.conj().T @ u - s1**2 * u)
        assert residual <= 1e-8 * s1**2
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)


def test_power_iteration_of_a_zero_matrix_returns_its_start():
    # the first residual is 0 <= tol * 0, and lam = 0 meets the certificate
    # 0 <= tr / 2 = 0, so the loop stops at its start
    mat = np.zeros((3, 2))
    u = top_left_singular_vector(mat)
    assert u.tobytes() == (np.ones(3, dtype=complex) / np.sqrt(3)).tobytes()
    assert _sigma(mat, u) == _top_singular_value(mat) == 0.0


def test_a_zero_svd_beam_is_dropped_by_the_zf_condition_check():
    # the power iteration returns its start on the zero two-user beam, so its
    # column is zero, and the singular Gram fails the ZF certificate
    g = _grouping([[1, 2j], [0, 0], [0, 0]], beams=[[0], [1, 2]])
    eq = equivalent_channel_svd(g)
    assert eq[:, 0].all() and not eq[:, 1].any()
    with pytest.raises(PrecodingError, match="equivalent channel condition inf") as err:
        zf_precoder(eq)
    assert err.value.condition == np.inf


def test_power_iteration_rescales_a_matrix_whose_gram_overflows():
    # M M^H overflows, but the loop runs on M rescaled by a power of two, so
    # the pair is met without an SVD, with the oracle's bits
    mat = np.full((2, 3), 1e200 + 1e200j)
    calls = []
    with patch.object(np.linalg, "svd", _counting_svd(calls)):
        got = top_left_singular_vector(mat)
    assert calls == []
    assert got.tobytes() == reference_top_left_singular_vector(mat).tobytes()
    assert abs(np.vdot(np.linalg.svd(mat)[0][:, 0], got)) == pytest.approx(1.0, abs=1e-12)


def test_power_iteration_bits_do_not_depend_on_a_power_of_two_scale():
    # every rounding of the loop scales with the matrix, so M and 2**k M give
    # the same vector bit for bit, far past where M M^H or its norms would
    # overflow or underflow, and up to an entry whose modulus overflows (at
    # k = 1023); a two-user beam's pair always passes the certificate, so no
    # SVD answers
    rng = np.random.default_rng(11)
    mat = rng.standard_normal((2, 16)) + 1j * rng.standard_normal((2, 16))
    mat[1, 3] = 1.9 + 1.9j
    want = top_left_singular_vector(mat).tobytes()
    for k in (-1000, -700, -300, 300, 700, 1000, 1023):
        calls = []
        with patch.object(np.linalg, "svd", _counting_svd(calls)):
            assert top_left_singular_vector(mat * 2.0 ** k).tobytes() == want, k
        assert calls == []


def test_power_iteration_on_a_non_finite_matrix_returns_its_start_without_iterating():
    # the SVD does not take a NaN or an infinite entry, so the start answers
    start = (np.ones(3, dtype=complex) / np.sqrt(3)).tobytes()
    for entry in (np.nan, np.inf, complex(0.0, np.inf)):
        mat = np.ones((3, 3), dtype=complex)
        mat[1, 2] = entry
        with patch.object(np.linalg, "norm", lambda *a, **k: pytest.fail("iterated")):
            assert top_left_singular_vector(mat).tobytes() == start
        with np.errstate(all="ignore"):
            assert reference_top_left_singular_vector(mat, max_iters=10).tobytes() == start


def test_svd_equivalent_singleton_is_phase_scaled_channel():
    g = _grouping([[1 + 1j, 2], [0.5, 1j]], beams=[[0], [1]])
    eq = equivalent_channel_svd(g)
    for n in range(2):
        h = g.reduced[:, n]
        ratio = abs(np.vdot(eq[:, n], h)) / (np.linalg.norm(h) ** 2)
        assert ratio == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(eq[:, n]) == pytest.approx(np.linalg.norm(h), rel=1e-10)


def test_svd_equivalent_identical_users():
    g = _grouping([[1, 2j], [1, 2j], [0.1, 3]], beams=[[0, 1], [2]])
    eq = equivalent_channel_svd(g)
    h = g.reduced[:, 0]
    align = abs(np.vdot(eq[:, 0], h)) / (np.linalg.norm(eq[:, 0]) * np.linalg.norm(h))
    assert align == pytest.approx(1.0, abs=1e-10)


def test_svd_equivalent_norm_is_top_singular_value(random_link):
    for trial in range(10):
        _, _, grouping, _ = random_link(seed=31, trial=trial, n=16, k=6, min_groups=1)
        eq = equivalent_channel_svd(grouping)
        for n in range(grouping.n_rf):
            h_n = grouping.beam_channels(n)
            sigma1 = np.linalg.svd(h_n.T, compute_uv=False)[0]  # independent oracle
            assert np.linalg.norm(eq[:, n]) == pytest.approx(float(sigma1), rel=1e-9)


def test_zf_identity_and_diagonal():
    eye = np.eye(3, dtype=complex)
    np.testing.assert_allclose(zf_precoder(eye).matrix, np.eye(3), atol=1e-12)
    diag = np.diag([2.0, 3.0]).astype(complex)
    np.testing.assert_allclose(zf_precoder(diag).matrix, np.eye(2), atol=1e-12)


def test_zf_random_well_conditioned():
    rng = np.random.default_rng(5)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) + 4 * np.eye(4)
    w = zf_precoder(h)
    np.testing.assert_allclose(np.linalg.norm(w.matrix, axis=0), np.ones(4), atol=1e-12)
    assert w.zf_residual <= 1e-8
    cross = np.abs(h.conj().T @ w.matrix)
    for n in range(4):
        off = np.delete(cross[:, n], n)
        assert np.max(off) <= 1e-9 * cross[n, n]


def test_zf_rejects_singular_equivalent():
    h = np.ones((3, 3), dtype=complex)
    with pytest.raises(PrecodingError) as err:
        zf_precoder(h)
    assert err.value.condition > 1e12


def test_zero_forcing_invariant_for_first_users(random_link):
    for trial in range(10):
        _, _, grouping, precoder = random_link(seed=33, trial=trial, n=32, k=6)
        firsts = [m[0] for m in grouping.beams]
        heff = np.abs(grouping.reduced[:, firsts].conj().T @ precoder.matrix)
        for n in range(grouping.n_rf):
            desired = heff[n, n]
            leak = np.delete(heff[:, n], n)
            if leak.size:
                assert np.max(leak) <= 1e-9 * desired


def test_phase_invariance_of_equivalent_columns():
    rng = np.random.default_rng(6)
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) + 3 * np.eye(3)
    probes = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    w1 = zf_precoder(h).matrix
    h2 = h.copy()
    h2[:, 1] *= np.exp(1j * 0.73)
    w2 = zf_precoder(h2).matrix
    np.testing.assert_allclose(np.abs(probes.conj().T @ w1),
                               np.abs(probes.conj().T @ w2), atol=1e-10)


def test_variants_agree_on_singleton_grouping(random_link, budget):
    realization, beamspace, grouping, _ = random_link(seed=35, trial=0, n=32, k=4)
    if any(len(m) > 1 for m in grouping.beams):
        pytest.skip("draw had conflicts")
    powers = np.full(4, budget.total_power_mw / 4)
    w_strong = zf_precoder(equivalent_channel_strongest(grouping))
    w_svd = zf_precoder(equivalent_channel_svd(grouping))
    r1 = sum_rate(grouping, w_strong, powers, budget).sum_rate
    r2 = sum_rate(grouping, w_svd, powers, budget).sum_rate
    assert r1 == pytest.approx(r2, abs=1e-9)


def test_every_zf_user_drops_singular_input_with_its_message():
    from beamspace_noma import beamspace_mimo_single_user, fully_digital_zf

    budget = LinkBudget(noise_mw=1.0, total_power_mw=2.0)
    same = np.ones((4, 2), dtype=complex)
    with pytest.raises(PrecodingError, match=r"^channel condition "):
        fully_digital_zf(same, budget)
    # a NaN entry drops before the condition check's SVD, which would raise
    with pytest.raises(PrecodingError, match=r"^channel has non-finite entries$"):
        fully_digital_zf(np.where(np.eye(4, 2) == 1, np.nan, same), budget)
    # distinct beams 0 and 1, but the 2 x 2 reduced matrix has equal rows
    beamspace = np.array([[1, 1], [1, 1], [0, 0], [0, 0]], dtype=complex)
    with pytest.raises(PrecodingError, match=r"^equivalent channel condition "):
        beamspace_mimo_single_user(beamspace, budget)
    with pytest.raises(PrecodingError, match=r"^equivalent channel condition "):
        zf_precoder(same[:2])


def _unitary(rng, m, n):
    q, _ = np.linalg.qr(rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
    return q


def _zf_sweep(seed=2024, count=2100):
    """Seeded tall and square matrices for the ZF certificate: conditions 1..1e17
    (a third of them within half a decade of COND_LIMIT), scales 1e-150..1e150,
    plus exactly singular, duplicate-column and one-NaN matrices, and graded
    ones (orthogonal columns of spread norms, whose Gram inverse is accurate
    however large cond(H) is)."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(1, 65))
        m = n if rng.random() < 0.5 else n + int(rng.integers(1, 65))
        log_cond = rng.uniform(11.5, 12.5) if i % 3 == 0 else rng.uniform(0.0, 17.0)
        s = np.sort(10.0 ** -rng.uniform(0.0, log_cond, n))[::-1]
        s[0], s[-1] = 1.0, 10.0 ** -log_cond if n > 1 else 1.0
        kind = i % 10
        h = _unitary(rng, m, n) * s
        if kind != 4:
            h = h @ _unitary(rng, n, n).conj().T
        h *= 10.0 ** rng.uniform(-150.0, 150.0)
        if kind == 1:
            h[:, int(rng.integers(n))] = 0.0
        elif kind == 2 and n > 1:
            j, k = rng.choice(n, 2, replace=False)
            h[:, j] = h[:, k]
        elif kind == 3:
            h[int(rng.integers(m)), int(rng.integers(n))] = np.nan
        yield h


def _zf_outcome(fn, h):
    try:
        w, residual = fn(h, "channel")
    except PrecodingError as exc:
        return type(exc), str(exc), np.float64(exc.condition).tobytes()
    return w.dtype, w.shape, w.tobytes(), np.float64(residual).tobytes()


def test_zf_certificate_matches_the_svd_check_on_a_seeded_sweep(monkeypatch):
    svd_calls = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda h: svd_calls.append(1) or cond(h))
    kinds = {"certified": 0, "fallback kept": 0, "ill-conditioned": 0, "non-finite": 0}
    with np.errstate(all="ignore"):
        for h in _zf_sweep():
            expected = _zf_outcome(reference_zf_columns, h)
            before = len(svd_calls)
            assert _zf_outcome(zf_columns, h) == expected
            if expected[0] is PrecodingError:
                # a NaN channel drops before the condition check's SVD
                assert ("non-finite" in expected[1]) == bool(np.isnan(h).any())
                kinds["non-finite" if "non-finite" in expected[1] else "ill-conditioned"] += 1
            else:
                # a kept channel is zero-forced, on either route
                assert np.frombuffer(expected[-1])[0] < 0.5
                kinds["fallback kept" if len(svd_calls) > before else "certified"] += 1
    # every branch of the certificate and of its fallback is exercised
    assert min(kinds.values()) >= 20, kinds


def test_zf_drops_a_wide_matrix_as_infinitely_conditioned():
    # over its two columns a 1 x 2 matrix has a zero singular value, so its
    # condition is inf: a drop, and its exactly singular Gram raises nothing
    h = np.array([[1.0, 0.0]])
    for zf in (zf_columns, reference_zf_columns):
        with pytest.raises(PrecodingError, match=r"^channel condition inf exceeds 1e\+12$") as exc:
            zf(h, "channel")
        assert exc.value.condition == np.inf


def test_full_scale_links_rarely_fall_back_to_the_svd(monkeypatch):
    calls, svd_calls = [], []
    cond, zf = np.linalg.cond, precoding.zf_columns

    def counted(h, what):
        calls.append(what)
        return zf(h, what)

    monkeypatch.setattr(np.linalg, "cond", lambda h: svd_calls.append(1) or cond(h))
    monkeypatch.setattr(precoding, "zf_columns", counted)
    monkeypatch.setattr(baselines, "zf_columns", counted)
    for variant in ("strongest", "svd"):
        config = SystemConfig(snr_db=[10.0], trials=2, variant=variant)
        for trial in range(2):
            run_trial(config, trial)
    assert len(calls) >= 12  # NOMA link, beamspace MIMO and fully digital ZF
    assert len(svd_calls) <= 0.1 * len(calls), (len(svd_calls), len(calls))


@pytest.mark.parametrize("part", ["real", "imag", "complex"])
def test_one_row_singular_vector_matches_the_power_iteration(part):
    # equivalent_channel_svd answers every one-member beam without the loop:
    # the loop must stop at u = [1+0j] on every finite row, bit for bit
    rng = np.random.default_rng({"real": 5, "imag": 6, "complex": 7}[part])
    for n in range(1, 65):
        for scale in 10.0 ** np.linspace(-150, 150, 13):
            re, im = rng.standard_normal(n), rng.standard_normal(n)
            row = {"real": re + 0j, "imag": 1j * im, "complex": re + 1j * im}[part] * scale
            for mat in (row, row[None, :]):
                u = top_left_singular_vector(mat)
                assert (u.dtype, u.shape, u.tobytes()) == (np.dtype(complex), (1,),
                                                           np.array([1.0 + 0j]).tobytes())
                assert _sigma(mat, u) == pytest.approx(_top_singular_value(mat), rel=1e-12)


def _counting_svd(calls):
    svd = np.linalg.svd
    return lambda *args, **kwargs: calls.append(args[0].shape) or svd(*args, **kwargs)


def _near_twin(delta, eps):
    """2 x 2 with singular values near sqrt(1 +- delta) whose second left
    singular vector lies near the power iteration's start."""
    t = 0.5 * np.arccos(-delta)
    return np.array([[np.cos(t) * (1 + eps), np.sin(t)], [np.cos(t), -np.sin(t)]], dtype=complex)


@pytest.mark.parametrize("delta, eps", [(1e-3, 1e-7), (1e-4, 1e-8)])
def test_a_capped_power_iteration_returns_the_svd_top_pair(delta, eps):
    # sigma_2 / sigma_1 is near 1, so the residual test is not met within
    # the cap and the SVD's top vector answers: ||M^H u|| is sqrt(1 + delta),
    # never the second singular value sqrt(1 - delta)
    mat = _near_twin(delta, eps)
    calls = []
    with patch.object(np.linalg, "svd", _counting_svd(calls)):
        u = top_left_singular_vector(mat)
    assert calls == [(2, 2)]
    left, s, _ = np.linalg.svd(mat)
    assert _sigma(mat, u) == pytest.approx(s[0], rel=1e-12)
    assert s[0] == pytest.approx(np.sqrt(1 + delta), rel=1e-12)
    assert abs(np.vdot(left[:, 0], u)) == pytest.approx(1.0, abs=1e-12)
    assert u[np.argmax(np.abs(u))].imag == 0 and u[np.argmax(np.abs(u))].real > 0
    assert u.tobytes() == reference_top_left_singular_vector(mat).tobytes()


@st.composite
def _gapped_matrices(draw):
    """Complex 2-6 x 1-8 matrices whose largest entry has magnitude 10^e, with
    a relative gap of at least 1e-6 below the top singular value.

    e spans -300..300: unscaled, the norm of M M^H x overflows above about
    1e77, and below about 1e-80 the squared norms of the residual underflow,
    so the residual test could pass on a vector that is not yet the top one.
    The loop's power-of-two rescale must keep both ends right."""
    m, n = draw(st.integers(2, 6)), draw(st.integers(1, 8))
    parts = st.floats(-1.0, 1.0, allow_subnormal=False)
    raw = np.array(draw(st.lists(parts, min_size=2 * m * n, max_size=2 * m * n)))
    mat = (raw[::2] + 1j * raw[1::2]).reshape(m, n)
    peak = np.abs(mat).max()
    assume(peak > 0)
    mat = mat / peak * 10.0 ** draw(st.floats(-300.0, 300.0))
    s = np.linalg.svd(mat, compute_uv=False)
    assume(len(s) == 1 or s[0] - s[1] >= 1e-6 * s[0])
    return mat


def _one_large_entry():
    mat = np.zeros((4, 5), dtype=complex)
    mat[1, 2] = 1e78j
    return mat


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mat=_gapped_matrices())
@example(mat=_near_twin(1e-4, 1e-8))
# the top left singular vector is orthogonal to the real positive start, and
# the residual test passes on the second pair
@example(mat=np.array([[1, 0.5], [-1, 0.5]], dtype=complex))
@example(mat=np.array([[1, 0], [-1, 0]], dtype=complex))
# M M^H is finite, but unscaled the norm of M M^H x would overflow
@example(mat=_one_large_entry())
def test_power_iteration_is_the_svd_top_pair(mat):
    u = top_left_singular_vector(mat)
    left, s, _ = np.linalg.svd(mat)
    # ||M^H u|| itself over- or underflows at the ends of the drawn range
    assert _sigma(mat / s[0], u) == pytest.approx(1.0, rel=1e-9)
    assert abs(np.vdot(left[:, 0], u)) == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)


def test_drawn_svd_links_never_reach_the_svd_fallback(monkeypatch):
    # every drawn multi-user beam meets the residual test well within the
    # cap; a change that made ordinary beams stall would show here first
    real, calls, svd_calls = precoding.top_left_singular_vector, [], []

    def counted(mat):
        calls.append(mat.shape)
        with patch.object(np.linalg, "svd", _counting_svd(svd_calls)):
            return real(mat)

    monkeypatch.setattr(precoding, "top_left_singular_vector", counted)
    for n, k, trials in ((16, 8, 200), (64, 40, 100)):
        config = SystemConfig(n_antennas=n, n_users=k, variant="svd", schemes=["noma"],
                              trials=trials)
        for trial in range(trials):
            runner.trial_link(config, trial)
    assert len(calls) > 1000 and svd_calls == []


@pytest.mark.parametrize("row", [np.zeros(5, complex), np.full((1, 3), 1e-170 + 0j)])
def test_one_row_zero_matrix_returns_the_start(row):
    u = top_left_singular_vector(row)
    u_ref = reference_top_left_singular_vector(row)
    assert u.tobytes() == u_ref.tobytes() == np.array([1.0 + 0j]).tobytes()


def test_one_row_overflow_keeps_the_power_iteration_answer():
    # |b_00| and ||M||_F^2 would overflow to inf, but the rescaled loop meets
    # its pair at once: u = [1] without an SVD, as the oracle's is
    row = np.full((1, 4), 1e160 + 0j)
    calls = []
    with patch.object(np.linalg, "svd", _counting_svd(calls)):
        u = top_left_singular_vector(row)
    assert calls == []
    assert u.tobytes() == reference_top_left_singular_vector(row).tobytes()
    assert np.array_equal(u, [1.0])


def test_the_svd_fallback_takes_the_rescaled_matrix():
    # every entry is finite but the diagonal's moduli overflow a double; the
    # pair fails the tr/2 certificate, and the SVD of M itself is off
    # (overlap 0.956 with the top vector of the unscaled base), that of the
    # rescaled matrix is not
    base = np.diag([1.8 + 1.8j, 1.7 + 1.7j, 1.6 + 1.6j]) + 0.05
    mat = 2.0 ** 1023 * base
    calls = []
    with patch.object(np.linalg, "svd", _counting_svd(calls)):
        u = top_left_singular_vector(mat)
    assert calls == [(3, 3)]
    assert abs(np.vdot(np.linalg.svd(base)[0][:, 0], u)) == pytest.approx(1.0, abs=1e-12)
    assert u.tobytes() == reference_top_left_singular_vector(mat).tobytes()


@pytest.mark.parametrize("los_variance, nlos_variance", [(1e-200, 1e-201), (1e-322, 0.0)])
def test_tiny_channels_get_the_top_singular_vector(monkeypatch, los_variance, nlos_variance):
    # these beams' entries lie below about 1e-77, where an unscaled loop's
    # squared residual underflows and passes its test on a vector that is not
    # the top one (|<u, u_svd>| of 0.69-0.77 on some calls)
    real, overlaps = precoding.top_left_singular_vector, []

    def checked(mat):
        u = real(mat)
        overlaps.append(abs(np.vdot(np.linalg.svd(mat)[0][:, 0], u)))
        return u

    monkeypatch.setattr(precoding, "top_left_singular_vector", checked)
    config = SystemConfig(n_antennas=16, n_users=4, variant="svd", snr_db=[10.0],
                          los_variance=los_variance, nlos_variance=nlos_variance, trials=20)
    with np.errstate(all="ignore"):  # ZF's column norms underflow at 1e-322
        for trial in range(20):
            runner.trial_link(config, trial)
    assert len(overlaps) >= 6
    assert min(overlaps) >= 1 - 1e-9, overlaps
