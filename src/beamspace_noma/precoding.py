"""Per-beam equivalent channels and the normalized zero-forcing precoder.

With more users than RF chains the reduced beamspace matrix has no
pseudo-inverse, so each beam is collapsed to one representative vector:
either its strongest user's channel or a dominant-singular-vector mix of
all its users' channels. ZF is then taken on the square equivalent matrix.

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
# ||H^H H||_1 ||(H^H H)^-1||_1 below which ZF skips the SVD: cond(H) <= 1e4 sqrt(2n)
CERT_LIMIT = 1e8


class PrecodingError(RuntimeError):
    """Equivalent channel too ill-conditioned to invert; trial should be dropped."""

    def __init__(self, message: str, condition: float = float("inf")):
        super().__init__(message)
        self.condition = condition


@dataclass
class EquivalentChannel:
    """Square N_RF x N_RF matrix whose column n represents beam n."""

    matrix: np.ndarray
    variant: str  # "strongest" | "svd"


@dataclass
class Precoder:
    """Unit-norm ZF precoding columns w_n plus their source equivalent channel."""

    matrix: np.ndarray
    equivalent: EquivalentChannel
    zf_residual: float  # max |(H~^H W~ - I)_ij| before normalization


def equivalent_channel_strongest(grouping: BeamGrouping) -> EquivalentChannel:
    """Represent each beam by its first (strongest) user's reduced channel."""
    if any(len(members) == 0 for members in grouping.beams):
        raise ValueError("every beam must contain at least one user")
    first = [members[0] for members in grouping.beams]
    return EquivalentChannel(matrix=grouping.reduced[:, first].copy(), variant="strongest")


def top_left_singular_vector(mat: np.ndarray, tol: float = 1e-12,
                             max_iters: int = 10_000) -> tuple[np.ndarray, float]:
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
    if r == 1 and b[0, 0].imag == 0 and np.isfinite(b[0, 0].real):
        # one row: the loop's first iteration meets its residual test exactly
        return np.array([1.0 + 0j]), float(np.sqrt(max(float(b[0, 0].real), 0.0)))
    x = np.ones(r) / np.sqrt(r)
    best_x, best_res, lam = x, np.inf, 0.0
    stall, restarted = 0, False
    for _ in range(max_iters):
        y = b @ x
        lam = float(np.real(x.conj() @ y))
        res = float(np.linalg.norm(y - lam * x))
        if res < best_res:
            best_x, best_res, stall = x, res, 0
        else:
            stall += 1
        if res <= tol * scale**2:
            best_x, best_res = x, res
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


def equivalent_channel_svd(grouping: BeamGrouping) -> EquivalentChannel:
    """Represent beam n by H_n u_n* with u_n the dominant left singular
    vector of H_n^T, mixing all of the beam's user channels."""
    if any(len(members) == 0 for members in grouping.beams):
        raise ValueError("every beam must contain at least one user")
    cols = []
    for n in range(grouping.n_rf):
        h_n = grouping.beam_channels(n)
        u, _ = top_left_singular_vector(h_n.T)
        cols.append(h_n @ u.conj())
    return EquivalentChannel(matrix=np.stack(cols, axis=1), variant="svd")


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


def zf_precoder(equivalent: EquivalentChannel) -> Precoder:
    """Zero-forcing precoder W~ = H~ (H~^H H~)^{-1} with unit-norm columns."""
    w, residual = zf_columns(equivalent.matrix, "equivalent channel")
    return Precoder(matrix=w, equivalent=equivalent, zf_residual=residual)


def make_equivalent(grouping: BeamGrouping, variant: str) -> EquivalentChannel:
    """Dispatch on the configured equivalent-channel variant."""
    if variant == "strongest":
        return equivalent_channel_strongest(grouping)
    if variant == "svd":
        return equivalent_channel_svd(grouping)
    raise ValueError(f"unknown equivalent-channel variant {variant!r}")
