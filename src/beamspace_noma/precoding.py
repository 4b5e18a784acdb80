"""Per-beam equivalent channels and the normalized zero-forcing precoder.

With more users than RF chains the reduced beamspace matrix has no
pseudo-inverse, so each beam is collapsed to one representative vector:
either its strongest user's channel or a dominant-singular-vector mix of
all its users' channels. `make_equivalent` returns the square equivalent
matrix as a plain array, and `zf_precoder` takes ZF on it. The mix takes a
beam's singular vector from a power iteration whose pair must prove itself
the top one (lam >= tr(M M^H)/2), and from one SVD otherwise.

A channel with a NaN or infinite entry, or whose condition number exceeds
COND_LIMIT, drops the trial, and any other gets columns that zero-force it.
ZF first tries to certify the Gram inverse. For G = H^H H, its computed
inverse X and E = G X - I (the ZF residual H^H W - I, up to rounding far
below 1/2), ||E||_2 <= n max|E_ij| <= 1/2 gives ||G^-1||_2 <= 2 ||X||_2,
hence cond_2(G) <= 2n ||G||_1 ||X||_1, and cond(H) = sqrt(cond_2(G)). With
the product of 1-norms at most CERT_LIMIT, cond(H) <= 1e4 sqrt(2n): for any
realistic n that is many orders of magnitude below COND_LIMIT, far outside
the SVD's own rounding, so the SVD would pass the channel too. Past the
certificate (a singular Gram, a NaN from an overflowing one, a loose bound)
the SVD condition number decides the drop, and since the Gram squares
cond(H), a kept channel takes its columns from one SVD instead.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .beams import BeamGrouping

COND_LIMIT = 1e12
# power-iteration stop: residual ||M M^H x - lam x|| at most this times ||M||_F^2
POWER_ITER_TOL = 1e-12
POWER_ITER_CAP = 10_000  # iterations before the SVD answers
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


def top_left_singular_vector(mat: np.ndarray) -> np.ndarray:
    """Dominant left singular vector of a complex matrix via power iteration.

    Iterates on S S^H from a fixed real positive start until the residual test
    is met, where S is M rescaled by an exact power of two so that its largest
    entry modulus lies in [1/2, 1) (below sqrt(2) where that modulus
    overflows a double). Every rounding of the loop scales with it, so the
    bits are those of the loop on M wherever that loop neither underflows
    nor overflows, and the loop on S does neither at any magnitude of M.
    With tr = ||S||_F^2 = tr(S S^H), a met pair with lam >= tr/2 stands: the
    other eigenvalues sum to tr - lam <= lam, so none exceeds lam. Every
    other outcome (past POWER_ITER_CAP iterations, a pair that fails the
    certificate) takes the top vector of one SVD of S. The returned vector is
    unit norm with its largest-magnitude entry made real positive; if the top
    two singular values coincide any vector of the dominant subspace may come
    back. A zero matrix returns the start (0 <= 0), and so does a matrix with
    a non-finite entry, which the SVD does not take: it raises on a NaN and
    may not return on an infinite entry.
    """
    mat = np.atleast_2d(np.asarray(mat))
    r = mat.shape[0]
    x = np.ones(r) / np.sqrt(r)
    if np.isfinite(mat).all():
        # an entry whose modulus overflows counts as the largest double; two
        # factors, since 2**-exponent alone overflows for a subnormal peak
        exponent = -math.frexp(min(np.abs(mat).max(), sys.float_info.max))[1]
        scaled = mat * math.ldexp(1.0, exponent // 2) * math.ldexp(1.0, exponent - exponent // 2)
        tr = np.linalg.norm(scaled) ** 2
        b = scaled @ scaled.conj().T
        for _ in range(POWER_ITER_CAP):
            y = b @ x
            lam = float(np.real(x.conj() @ y))
            res = np.linalg.norm(y - lam * x)
            if not res > POWER_ITER_TOL * tr:
                break
            x = y / np.linalg.norm(y)  # y = 0 has residual 0 and broke above
        if not (res <= POWER_ITER_TOL * tr and tr / 2 <= lam):
            x = np.linalg.svd(scaled)[0][:, 0]
    pivot = np.argmax(np.abs(x))
    phase = x[pivot] / abs(x[pivot])
    return np.asarray(x / phase, dtype=complex)


def equivalent_channel_svd(grouping: BeamGrouping) -> np.ndarray:
    """The square equivalent channel whose column n is H_n u_n*, with u_n the
    dominant left singular vector of H_n^T, mixing all of the beam's users.

    A one-member beam's u is [1], so its column is its user's channel, as in
    the strongest variant; beams of two or more users run the power iteration
    one by one. A zero or non-finite column reaches `zf_columns`, whose
    checks drop the link.
    """
    eq = equivalent_channel_strongest(grouping).astype(complex, copy=False)
    for n, members in enumerate(grouping.beams):
        if len(members) > 1:
            h_n = grouping.beam_channels(n)
            eq[:, n] = h_n @ top_left_singular_vector(h_n.T).conj()
    return eq


def zf_columns(h: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    """Unit-norm ZF columns W = H (H^H H)^{-1} of a tall matrix and the residual
    max |(H^H W - I)_ij| before normalization. Raises PrecodingError naming
    `what` when H has a NaN or infinite entry (condition NaN), which the
    condition check's SVD does not take, or when cond(H) exceeds COND_LIMIT
    (the trial is dropped, not regularized).

    The SVD behind np.linalg.cond runs only when the Gram-inverse certificate
    (module docstring) fails: n * residual <= 1/2 and
    ||H^H H||_1 ||(H^H H)^{-1}||_1 <= CERT_LIMIT. A wide H has cond inf; a kept
    uncertified H takes W = U S^-1 V^H from one thin SVD, with that W's residual.
    """
    if not np.isfinite(h).all():
        raise PrecodingError(f"{what} has non-finite entries", condition=float("nan"))
    m, n = h.shape
    gram = h.conj().T @ h
    try:
        inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        certified = False
    else:
        w_raw = h @ inv
        residual = float(np.max(np.abs(h.conj().T @ w_raw - np.eye(n))))
        bound = float(np.linalg.norm(gram, 1)) * float(np.linalg.norm(inv, 1))
        certified = n * residual <= 0.5 and bound <= CERT_LIMIT
    if not certified:
        cond = float(np.linalg.cond(h)) if m >= n else np.inf
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise PrecodingError(f"{what} condition {cond:.3e} exceeds {COND_LIMIT:.0e}",
                                 condition=cond)
        u, s, vh = np.linalg.svd(h, full_matrices=False)
        w_raw = (u / s) @ vh
        residual = float(np.max(np.abs(h.conj().T @ w_raw - np.eye(n))))
    return w_raw / np.linalg.norm(w_raw, axis=0, keepdims=True), residual


def zf_precoder(equivalent: np.ndarray) -> Precoder:
    """Zero-forcing precoder W~ = H~ (H~^H H~)^{-1} with unit-norm columns,
    `zf_columns` of the equivalent channel."""
    w, residual = zf_columns(equivalent, "equivalent channel")
    return Precoder(matrix=w, zf_residual=residual)


def make_equivalent(grouping: BeamGrouping, variant: str) -> np.ndarray:
    """Dispatch on the configured equivalent-channel variant."""
    if variant == "strongest":
        return equivalent_channel_strongest(grouping)
    if variant == "svd":
        return equivalent_channel_svd(grouping)
    raise ValueError(f"unknown equivalent-channel variant {variant!r}")
