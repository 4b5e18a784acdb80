"""Per-beam equivalent channels and the normalized zero-forcing precoder.

With more users than RF chains the reduced beamspace matrix has no
pseudo-inverse, so each beam is collapsed to one representative vector:
either its strongest user's channel or a dominant-singular-vector mix of
all its users' channels. `make_equivalent` returns the square equivalent
matrix as a plain array, and `zf_precoder` takes ZF on it.

A channel whose condition number exceeds COND_LIMIT drops the trial. ZF
builds the Gram inverse anyway, so it first tries to certify the
conditioning from that inverse. For G = H^H H, its computed inverse X and
E = G X - I (the ZF residual H^H W - I, up to rounding far below 1/2),
||E||_2 <= n max|E_ij| <= 1/2 gives ||G^-1||_2 <= 2 ||X||_2, hence
cond_2(G) <= 2n ||G||_1 ||X||_1, and cond(H) = sqrt(cond_2(G)). With the
product of 1-norms at most CERT_LIMIT, cond(H) <= 1e4 sqrt(2n): for any
realistic n that is many orders of magnitude below COND_LIMIT, far outside
the SVD's own rounding, so the SVD would pass the channel too. Only channels
the bound cannot place (a singular Gram, a NaN, a loose bound) pay for the
SVD, which then decides exactly as before.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beams import BeamGrouping

COND_LIMIT = 1e12
# power-iteration stop: residual ||M M^H x - lam x|| at most this times ||M||_F^2
POWER_ITER_TOL = 1e-12
POWER_ITER_CAP = 10_000  # iterations before the best iterate is returned
# ||H^H H||_1 ||(H^H H)^-1||_1 below which ZF skips the SVD: cond(H) <= 1e4 sqrt(2n)
CERT_LIMIT = 1e8


class PrecodingError(RuntimeError):
    """Equivalent channel too ill-conditioned to invert; trial should be dropped."""

    def __init__(self, message: str, condition: float = float("inf")):
        super().__init__(message)
        self.condition = condition


@dataclass
class Precoder:
    """Unit-norm ZF precoding columns w_n."""

    matrix: np.ndarray
    zf_residual: float  # max |(H~^H W~ - I)_ij| before normalization


def equivalent_channel_strongest(grouping: BeamGrouping) -> np.ndarray:
    """N_RF x N_RF equivalent channel: column n is beam n's strongest user's."""
    if any(len(members) == 0 for members in grouping.beams):
        raise ValueError("every beam must contain at least one user")
    first = [members[0] for members in grouping.beams]
    return grouping.reduced[:, first].copy()


def _one_row_closed(b00):
    """Whether the one-row power iteration stops at its start [1+0j]: with a
    real, finite b00 = m m^H its first iteration meets the residual test
    exactly. Elementwise over an array of b00 values."""
    return (b00.imag == 0) & np.isfinite(b00.real)


def top_left_singular_vector(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """Dominant left singular pair of a complex matrix via power iteration.

    Iterates on M M^H from a fixed real positive start, with one seeded random
    restart if the residual stagnates. The returned vector is unit norm with
    its largest-magnitude entry made real positive; if the top two singular
    values (nearly) coincide any vector of the dominant subspace may come back.
    """
    mat = np.atleast_2d(np.asarray(mat))
    scale = np.linalg.norm(mat)
    if scale == 0:
        raise ValueError("zero matrix has no dominant singular vector")
    b = mat @ mat.conj().T
    r = b.shape[0]
    x = np.ones(r) / np.sqrt(r)
    best_x, best_res, lam = x, np.inf, 0.0
    stall, restarted = 0, False
    for _ in range(POWER_ITER_CAP):
        y = b @ x
        lam = float(np.real(x.conj() @ y))
        res = float(np.linalg.norm(y - lam * x))
        if res < best_res:
            best_x, best_res, stall = x, res, 0
        else:
            stall += 1
        if res <= POWER_ITER_TOL * scale**2:
            break
        if stall > 50 and not restarted:
            # stagnation: one random restart, then keep the better run
            rng = np.random.default_rng(0)
            x = rng.standard_normal(r) + 1j * rng.standard_normal(r)
            x /= np.linalg.norm(x)
            stall, restarted = 0, True
            continue
        ny = np.linalg.norm(y)
        if ny == 0:
            # start vector in the null space; restart from random
            rng = np.random.default_rng(1)
            x = rng.standard_normal(r) + 1j * rng.standard_normal(r)
            x /= np.linalg.norm(x)
            continue
        x = y / ny
    else:
        x = best_x
        lam = float(np.real(x.conj() @ (b @ x)))
    pivot = np.argmax(np.abs(x))
    phase = x[pivot] / abs(x[pivot])
    u = np.asarray(x / phase, dtype=complex)
    return u, float(np.sqrt(max(lam, 0.0)))


def equivalent_channel_svd(grouping: BeamGrouping) -> np.ndarray:
    """The square equivalent channel whose column n is H_n u_n*, with u_n the
    dominant left singular vector of H_n^T, mixing all of the beam's users.

    One-member beams are built together from their stacked rows h^T, with
    the steps `top_left_singular_vector` takes on one row: the zero-matrix
    ValueError, b00 = h^T conj(h) and, where `_one_row_closed(b00)` says its
    loop stops at u = [1+0j], the column h @ [1-0j]. b00 and the column are
    stacked matmuls with the one-beam shapes, so they run the same numpy
    kernels and keep the bits. One-member beams that fail the closed form,
    and every beam with more members, run the power iteration one by one.
    """
    if any(len(members) == 0 for members in grouping.beams):
        raise ValueError("every beam must contain at least one user")
    lone = [n for n, members in enumerate(grouping.beams) if len(members) == 1]
    iterate = [n for n, members in enumerate(grouping.beams) if len(members) > 1]
    eq = np.empty((grouping.reduced.shape[0], grouping.n_rf), dtype=complex)
    # squares that overflow (a huge LoS variance) end in non-finite entries, which
    # `zf_precoder` drops with its one check per link, silently in `run_trial`
    if lone:
        users = [grouping.beams[n][0] for n in lone]
        rows = np.ascontiguousarray(grouping.reduced[:, users].T)
        # ||h||_F == 0 exactly when every squared part underflows to zero
        if not (rows.real ** 2 + rows.imag ** 2).any(axis=1).all():
            raise ValueError("zero matrix has no dominant singular vector")
        closed = _one_row_closed((rows[:, None, :] @ rows.conj()[:, :, None])[:, 0, 0])
        cols = rows[closed][:, :, None] @ np.array([[1.0 + 0j]]).conj()  # h @ u* at u = [1+0j]
        eq[:, np.asarray(lone)[closed]] = cols[:, :, 0].T
        iterate += [n for n, c in zip(lone, closed.tolist()) if not c]
    for n in iterate:
        h_n = grouping.beam_channels(n)
        u, _ = top_left_singular_vector(h_n.T)
        eq[:, n] = h_n @ u.conj()
    return eq


def zf_columns(h: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    """Unit-norm ZF columns W = H (H^H H)^{-1} of a tall matrix and the residual
    max |(H^H W - I)_ij| before normalization. Raises PrecodingError naming
    `what` when cond(H) exceeds COND_LIMIT (the trial is dropped, not regularized).

    The SVD behind np.linalg.cond runs only when the Gram-inverse certificate
    (module docstring) fails: n * residual <= 1/2 and
    ||H^H H||_1 ||(H^H H)^{-1}||_1 <= CERT_LIMIT. The fallback keeps the
    SVD's verdict, message, `.condition` and LinAlgError exactly.
    """
    n = h.shape[1]
    gram = h.conj().T @ h
    try:
        inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError as exc:
        singular, certified = exc, False
    else:
        singular = None
        w_raw = h @ inv
        residual = float(np.max(np.abs(h.conj().T @ w_raw - np.eye(n))))
        bound = float(np.linalg.norm(gram, 1)) * float(np.linalg.norm(inv, 1))
        certified = n * residual <= 0.5 and bound <= CERT_LIMIT
    if not certified:
        cond = float(np.linalg.cond(h))
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise PrecodingError(f"{what} condition {cond:.3e} exceeds {COND_LIMIT:.0e}",
                                 condition=cond)
        if singular is not None:
            raise singular
    return w_raw / np.linalg.norm(w_raw, axis=0, keepdims=True), residual


def zf_precoder(equivalent: np.ndarray) -> Precoder:
    """Zero-forcing precoder W~ = H~ (H~^H H~)^{-1} with unit-norm columns.

    An equivalent channel with a NaN or infinite entry (an SVD mix whose
    power iteration overflowed) raises PrecodingError before ZF, so the trial
    records a drop instead of aborting in the condition check's SVD."""
    if not np.isfinite(equivalent).all():
        raise PrecodingError("equivalent channel has non-finite entries",
                             condition=float("nan"))
    w, residual = zf_columns(equivalent, "equivalent channel")
    return Precoder(matrix=w, zf_residual=residual)


def make_equivalent(grouping: BeamGrouping, variant: str) -> np.ndarray:
    """Dispatch on the configured equivalent-channel variant."""
    if variant == "strongest":
        return equivalent_channel_strongest(grouping)
    if variant == "svd":
        return equivalent_channel_svd(grouping)
    raise ValueError(f"unknown equivalent-channel variant {variant!r}")
