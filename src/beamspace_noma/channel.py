"""Saleh-Valenzuela spatial channels for a ULA and the lens (DFT) beamspace transform.

Spatial directions are used directly: theta = (d/lambda)*sin(phi) with
half-wavelength spacing, so theta lives in [-1/2, 1/2] and the lens grid
is orthonormal. Wavelength and physical angles never need to be instantiated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class ChannelParams:
    """Scenario constants for drawing multipath channels.

    n_antennas : BS ULA size N (>= 2)
    n_users    : number of single-antenna users K (>= 1)
    n_nlos     : NLoS paths per user L (>= 0); one LoS path is always present
    los_var    : total variance of the LoS complex gain (finite, > 0)
    nlos_var   : total variance of each NLoS complex gain (finite, >= 0)
    direction_range : interval the spatial directions are drawn from
    """

    n_antennas: int
    n_users: int
    n_nlos: int = 2
    los_var: float = 1.0
    nlos_var: float = 0.1
    direction_range: tuple[float, float] = (-0.5, 0.5)

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
        lo, hi = self.direction_range
        if not lo < hi:
            raise ValueError(f"empty direction range {self.direction_range}")


@dataclass
class SpatialChannel:
    """One user's spatial channel with its path records.

    vector equals sum_l path_gains[l] * steering_vector(path_directions[l], N)
    and is reconstructible from the records to 1e-12 relative error.
    """

    vector: np.ndarray          # (N,) complex
    path_gains: np.ndarray      # (L+1,) complex, index 0 = LoS
    path_directions: np.ndarray  # (L+1,) real


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
    m = _sym_indices(n)
    # row i = conj(a(grid[i]))^T
    u = np.exp(2j * np.pi * np.outer(grid, m)) / np.sqrt(n)
    return LensMatrix(matrix=u, directions=grid)


def _complex_gaussian(rng: np.random.Generator, variance: float, size) -> np.ndarray:
    # circular-symmetric CN(0, variance): total variance split over re/im
    scale = np.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))


def sample_user_channel(params: ChannelParams, rng: np.random.Generator) -> SpatialChannel:
    """Draw one user's multipath channel: LoS gain CN(0, los_var), NLoS gains
    CN(0, nlos_var), directions uniform on the configured range."""
    n_paths = params.n_nlos + 1
    lo, hi = params.direction_range
    directions = rng.uniform(lo, hi, size=n_paths)
    gains = np.empty(n_paths, dtype=complex)
    gains[0] = _complex_gaussian(rng, params.los_var, ())
    if params.n_nlos:
        gains[1:] = _complex_gaussian(rng, params.nlos_var, params.n_nlos)
    steer = np.stack([steering_vector(t, params.n_antennas) for t in directions], axis=1)
    return SpatialChannel(vector=steer @ gains, path_gains=gains, path_directions=directions)


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
    lo, hi = params.direction_range
    directions = rng.uniform(lo, hi, size=(k, n_paths))
    gains = np.empty((k, n_paths), dtype=complex)
    gains[:, 0] = _complex_gaussian(rng, params.los_var, k)
    if params.n_nlos:
        gains[:, 1:] = _complex_gaussian(rng, params.nlos_var, (k, params.n_nlos))
    # (N, K*(L+1)) steering matrix, then per-user gain contraction
    m = _sym_indices(params.n_antennas)
    steer = np.exp(-2j * np.pi * np.outer(m, directions.ravel())) / np.sqrt(params.n_antennas)
    steer = steer.reshape(params.n_antennas, k, n_paths)
    h = np.einsum("nkl,kl->nk", steer, gains)
    return ChannelRealization(matrix=h, path_gains=gains, path_directions=directions)


def to_beamspace(spatial: np.ndarray, lens: LensMatrix) -> np.ndarray:
    """Transform spatial channel columns into the beamspace domain: U @ H.

    Column norms are preserved (U is unitary).
    """
    spatial = np.asarray(spatial)
    if spatial.ndim == 1:
        spatial = spatial[:, None]
    if spatial.shape[0] != lens.matrix.shape[1]:
        raise ValueError(
            f"channel has {spatial.shape[0]} antennas but lens expects {lens.matrix.shape[1]}"
        )
    return lens.matrix @ spatial
