import numpy as np
import pytest

from beamspace_noma import (BeamGrouping, LinkBudget, PrecodingError, SystemConfig, baselines,
                            equivalent_channel_strongest, equivalent_channel_svd,
                            precoding, run_trial, sum_rate, top_left_singular_vector,
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


def test_power_iteration_diagonal():
    u, s1 = top_left_singular_vector(np.array([[2.0, 0.0], [0.0, 1.0]]))
    assert s1 == pytest.approx(2.0, abs=1e-12)
    np.testing.assert_allclose(u, [1.0, 0.0], atol=1e-10)  # phase convention: +e1


def test_power_iteration_single_column():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    u, s1 = top_left_singular_vector(v[:, None])
    assert s1 == pytest.approx(np.linalg.norm(v), rel=1e-12)
    assert abs(np.vdot(u, v / np.linalg.norm(v))) == pytest.approx(1.0, abs=1e-12)


def test_power_iteration_matches_eigensolver_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        u, s1 = top_left_singular_vector(m)
        evals = np.linalg.eigvalsh(m @ m.conj().T)
        assert s1**2 == pytest.approx(float(evals[-1]), rel=1e-9)
        residual = np.linalg.norm(m @ m.conj().T @ u - s1**2 * u)
        assert residual <= 1e-8 * s1**2
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)


def test_power_iteration_rejects_zero_matrix():
    with pytest.raises(ValueError):
        top_left_singular_vector(np.zeros((3, 2)))


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
    except (PrecodingError, np.linalg.LinAlgError) as exc:
        condition = np.float64(getattr(exc, "condition", 0.0)).tobytes()
        return type(exc), str(exc), condition
    return w.dtype, w.shape, w.tobytes(), np.float64(residual).tobytes()


def test_zf_certificate_matches_the_svd_check_on_a_seeded_sweep(monkeypatch):
    svd_calls = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda h: svd_calls.append(1) or cond(h))
    kinds = {"certified": 0, "fallback kept": 0, "PrecodingError": 0, "LinAlgError": 0}
    with np.errstate(all="ignore"):
        for h in _zf_sweep():
            expected = _zf_outcome(reference_zf_columns, h)
            before = len(svd_calls)
            assert _zf_outcome(zf_columns, h) == expected
            if isinstance(expected[0], type) and issubclass(expected[0], Exception):
                kinds[expected[0].__name__] += 1
            else:
                kinds["fallback kept" if len(svd_calls) > before else "certified"] += 1
    # every branch of the certificate and of its fallback is exercised
    assert min(kinds.values()) >= 20, kinds


def test_zf_certificate_keeps_the_singular_gram_error():
    # cond(H) passes (a wide matrix has a finite ratio over its m singular values),
    # the Gram is exactly singular and inv raises, as it did after the SVD check
    h = np.array([[1.0, 0.0]])
    with pytest.raises(np.linalg.LinAlgError) as new:
        zf_columns(h, "channel")
    with pytest.raises(np.linalg.LinAlgError) as old:
        reference_zf_columns(h, "channel")
    assert str(new.value) == str(old.value)


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
    # equivalent_channel_svd answers a one-member beam without the loop
    # wherever _one_row_closed(b00) holds: the loop must stop at u = [1+0j]
    # with sigma = sqrt(max(Re b00, 0)) there, bit for bit
    rng = np.random.default_rng({"real": 5, "imag": 6, "complex": 7}[part])
    closed = 0
    for n in range(1, 65):
        for scale in 10.0 ** np.linspace(-150, 150, 13):
            re, im = rng.standard_normal(n), rng.standard_normal(n)
            row = {"real": re + 0j, "imag": 1j * im, "complex": re + 1j * im}[part] * scale
            for mat in (row, row[None, :]):
                b00 = (np.atleast_2d(mat) @ np.atleast_2d(mat).conj().T)[0, 0]
                if not precoding._one_row_closed(b00):
                    continue
                closed += 1
                u, sigma = top_left_singular_vector(mat)
                assert (u.dtype, u.shape, u.tobytes()) == (np.dtype(complex), (1,),
                                                           np.array([1.0 + 0j]).tobytes())
                want = np.sqrt(max(float(b00.real), 0.0))
                assert np.float64(sigma).tobytes() == np.float64(want).tobytes()
    assert closed == 64 * 13 * 2  # every drawn row, at every scale, takes the closed form


@pytest.mark.parametrize("row", [np.zeros(5, complex), np.full((1, 3), 1e-170 + 0j)])
def test_one_row_zero_matrix_still_raises(row):
    with pytest.raises(ValueError, match="zero matrix") as new:
        top_left_singular_vector(row)
    with pytest.raises(ValueError) as old:
        reference_top_left_singular_vector(row)
    assert str(new.value) == str(old.value)


def test_one_row_overflow_keeps_the_power_iteration_answer():
    # |b_00| overflows to inf: the loop never meets its residual test, so the
    # closed form must not answer for it
    row = np.full((1, 4), 1e160 + 0j)
    with np.errstate(all="ignore"):
        u, sigma = top_left_singular_vector(row, max_iters=200)
        u_ref, sigma_ref = reference_top_left_singular_vector(row, max_iters=200)
    assert u.tobytes() == u_ref.tobytes()
    assert np.float64(sigma).tobytes() == np.float64(sigma_ref).tobytes()
