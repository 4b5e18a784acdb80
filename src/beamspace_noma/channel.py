"""Saleh-Valenzuela spatial channels for a ULA and the lens (DFT) beamspace transform.

Spatial directions are used directly: theta = (d/lambda)*sin(phi) with
half-wavelength spacing, so theta lives in [-1/2, 1/2] and the lens grid
is orthonormal. Wavelength and physical angles never need to be instantiated.

A trial's steering matrix exp(-j 2 pi theta m)/sqrt(N), and the lens (the
steering matrix at the negated grid, transposed), is computed on the m >= 0
rows only; each m < 0 row is the conjugate of its mirror row, bit for bit:
- the index set is exactly symmetric (m and -m are both exact), so the
  products x = m*theta of mirror rows are exact negations;
- numpy multiplies x by the scalar -2j*pi = (+0.0) + (-2 pi)j as the complex
  x + 0j: the real part 0*x - (-2 pi)*0 is +0.0 for every finite x, and the
  imaginary part 0*0 + (-2 pi)*x is an exact negation between mirror rows
  whenever x != 0;
- exp(+0.0 + jy) = cos y + j sin y with cos even and sin odd, so
  exp(conj z) = conj(exp z), and dividing by the real sqrt(N) commutes with
  conjugation.
A zero product (theta = 0, or |theta| so small that m*theta underflows) has
imaginary part +0.0 on both rows, which conjugation would not reproduce, so a
direction outside MIRROR_RANGE (the zero grid direction of an odd-N lens
among them) sends the whole matrix to the direct exp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# |theta| range whose steering rows are mirrored (module docstring); NaN fails it
MIRROR_RANGE = (1e-300, 1.0)
# interval every spatial direction is drawn from
DIRECTION_RANGE = (-0.5, 0.5)


@dataclass
class ChannelParams:
    """Scenario constants for drawing multipath channels.

    n_antennas : BS ULA size N (>= 2)
    n_users    : number of single-antenna users K (>= 1)
    n_nlos     : NLoS paths per user L (>= 0); one LoS path is always present
    los_var    : total variance of the LoS complex gain (finite, > 0)
    nlos_var   : total variance of each NLoS complex gain (finite, >= 0)

    Every path's spatial direction is drawn from DIRECTION_RANGE.
    """

    n_antennas: int
    n_users: int
    n_nlos: int = 2
    los_var: float = 1.0
    nlos_var: float = 0.1

    def __post_init__(self):
        if self.n_antennas < 2:
            raise ValueError(f"need at least 2 antennas, got {self.n_antennas}")
        if self.n_users < 1:
            raise ValueError(f"need at least 1 user, got {self.n_users}")
        if self.n_nlos < 0:
            raise ValueError(f"NLoS path count must be >= 0, got {self.n_nlos}")
        if not (math.isfinite(self.los_var) and self.los_var > 0):
            raise ValueError(f"LoS variance (los_variance) must be finite and > 0, "
                             f"got {self.los_var}")
        if not (math.isfinite(self.nlos_var) and self.nlos_var >= 0):
            raise ValueError(f"NLoS variance (nlos_variance) must be finite and >= 0, "
                             f"got {self.nlos_var}")


@dataclass
class ChannelRealization:
    """Spatial channels of all K users for one Monte Carlo trial."""

    matrix: np.ndarray           # (N, K) complex, column k = user k
    path_gains: np.ndarray       # (K, L+1) complex
    path_directions: np.ndarray  # (K, L+1) real


@dataclass
class LensMatrix:
    """Unitary N x N spatial-DFT matrix of the lens antenna array.

    Row n is the conjugate-transposed steering vector at grid direction
    directions[n] = (1/N)*(n+1 - (N+1)/2).
    """

    matrix: np.ndarray     # (N, N) complex
    directions: np.ndarray  # (N,) real grid directions, ascending


def _sym_indices(n: int) -> np.ndarray:
    # symmetric index set {i - (N-1)/2 : i = 0..N-1}
    return np.arange(n) - (n - 1) / 2.0


def _steering_matrix(n: int, directions: np.ndarray) -> np.ndarray:
    """(N, D) matrix of steering vectors, one column per direction, with each
    m < 0 row the conjugate of its mirror row when every |theta| lies in
    MIRROR_RANGE (bit-equal to the direct exp over all rows; module docstring)."""
    m = _sym_indices(n)
    mag = np.abs(directions)
    lo, hi = MIRROR_RANGE
    if not (mag.min() >= lo and mag.max() <= hi):
        return np.exp(-2j * np.pi * np.outer(m, directions)) / np.sqrt(n)
    half = n // 2
    steer = np.empty((n, directions.size), dtype=complex)
    upper = steer[half:]
    np.exp(-2j * np.pi * np.outer(m[half:], directions), out=upper)
    np.divide(upper, np.sqrt(n), out=upper)
    # row i < half mirrors row n-1-i
    np.conjugate(steer[:n - half - 1:-1], out=steer[:half])
    return steer


def steering_vector(theta: float, n_antennas: int) -> np.ndarray:
    """Unit-norm ULA array response at spatial direction theta.

    Entry for symmetric index m is exp(-j*2*pi*theta*m)/sqrt(N), indices
    ascending from -(N-1)/2 to +(N-1)/2.
    """
    if n_antennas < 1:
        raise ValueError(f"invalid antenna count {n_antennas}")
    m = _sym_indices(n_antennas)
    return np.exp(-2j * np.pi * theta * m) / np.sqrt(n_antennas)


def lens_transform_matrix(n_antennas: int) -> LensMatrix:
    """DFT transform of the lens array over N evenly spaced grid directions."""
    if n_antennas < 2:
        raise ValueError(f"lens needs at least 2 antennas, got {n_antennas}")
    n = n_antennas
    grid = (np.arange(1, n + 1) - (n + 1) / 2.0) / n
    # row i = conj(a(grid[i]))^T = a(-grid[i])^T, bit for bit on the symmetric
    # grid; C order, since the bits of the per-trial U @ H follow the layout
    u = np.ascontiguousarray(_steering_matrix(n, -grid).T)
    return LensMatrix(matrix=u, directions=grid)


def _complex_gaussian(rng: np.random.Generator, variance: float, size) -> np.ndarray:
    # circular-symmetric CN(0, variance): total variance split over re/im
    scale = np.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent substream for one trial.

    Counter scheme: SeedSequence(master_seed, spawn_key=(trial_index,)), so any
    trial is reproducible in isolation regardless of execution order. Within a
    trial, draws happen in fixed user order (all directions first, then gains).
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(trial_index,)))


def sample_realization(params: ChannelParams, rng: np.random.Generator) -> ChannelRealization:
    """Draw spatial channels for all K users of one trial (vectorized)."""
    k, n_paths = params.n_users, params.n_nlos + 1
    directions = rng.uniform(*DIRECTION_RANGE, size=(k, n_paths))
    gains = np.empty((k, n_paths), dtype=complex)
    gains[:, 0] = _complex_gaussian(rng, params.los_var, k)
    if params.n_nlos:
        gains[:, 1:] = _complex_gaussian(rng, params.nlos_var, (k, params.n_nlos))
    # (N, K*(L+1)) steering matrix, then per-user gain contraction
    steer = _steering_matrix(params.n_antennas, directions.ravel())
    steer = steer.reshape(params.n_antennas, k, n_paths)
    h = np.einsum("nkl,kl->nk", steer, gains)
    return ChannelRealization(matrix=h, path_gains=gains, path_directions=directions)


def to_beamspace(spatial: np.ndarray, lens: LensMatrix) -> np.ndarray:
    """Transform the (N, K) spatial channel columns into the beamspace
    domain: U @ H.

    Column norms are preserved (U is unitary).
    """
    spatial = np.asarray(spatial)
    if spatial.shape[0] != lens.matrix.shape[1]:
        raise ValueError(
            f"channel has {spatial.shape[0]} antennas but lens expects {lens.matrix.shape[1]}"
        )
    return lens.matrix @ spatial
