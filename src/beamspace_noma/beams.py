"""Beam selection and per-beam user grouping for NOMA service.

Each user is assigned the beam where its beamspace channel has maximum
magnitude; users that land on the same beam form one superposition-coded
group and are ordered for SIC by decreasing reduced-channel norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DegenerateChannelError(ValueError):
    """A user's beamspace channel is identically zero."""


@dataclass
class BeamGrouping:
    """Users partitioned into per-beam SIC groups with reduced channels.

    beams[n] lists user indices served by selected beam n, strongest first.
    reduced[:, k] is user k's beamspace channel restricted to the selected
    rows (bit-equal to those rows of the full beamspace column).
    """

    beams: list[np.ndarray]    # per-beam user index arrays, SIC order
    reduced: np.ndarray        # (N_RF, K) complex
    selected: np.ndarray       # (N_RF,) beam indices, ascending

    @property
    def n_rf(self) -> int:
        return len(self.selected)

    @property
    def users_flat(self) -> np.ndarray:
        """All user indices, beam by beam in SIC order."""
        return np.concatenate(self.beams)

    def beam_channels(self, n: int) -> np.ndarray:
        """Stacked reduced channels (N_RF x |S_n|) of beam n's users."""
        return self.reduced[:, self.beams[n]]


def select_beams(beamspace: np.ndarray) -> np.ndarray:
    """Each user's maximum-magnitude beam, as a (K,) array; ties resolve to
    the lowest beam index."""
    mags = np.abs(beamspace)
    dead = np.where(mags.max(axis=0) == 0)[0]
    if dead.size:
        raise DegenerateChannelError(f"user {dead[0]} has an all-zero beamspace channel")
    return mags.argmax(axis=0)


def group_users(beam_for_user: np.ndarray, beamspace: np.ndarray) -> BeamGrouping:
    """Group conflicting users per beam and extract reduced channels.

    The selected beams are the distinct beams the users take, ascending.
    Within a beam, users sort by decreasing reduced-channel norm; exact ties
    keep the lower user index first. One lexsort keyed on (beam, -norm, user)
    orders every user at once; each selected beam holds a user, so its
    members are the run in that order that ends where the next beam's begins.
    """
    selected = np.unique(beam_for_user)
    reduced = beamspace[selected, :]
    norms = np.linalg.norm(reduced, axis=0)
    order = np.lexsort((np.arange(len(beam_for_user)), -norms, beam_for_user))
    bounds = np.searchsorted(beam_for_user[order], selected).tolist() + [len(order)]
    beams = [order[start:end] for start, end in zip(bounds, bounds[1:])]
    return BeamGrouping(beams=beams, reduced=reduced, selected=selected)


def verify_order(grouping: BeamGrouping, precoder) -> dict[int, np.ndarray]:
    """Check that per-beam equivalent gains are non-increasing in SIC rank.

    Returns the repairs: each violating beam mapped to the permutation (gain
    descending, user index breaking ties) that restores the assumed decoding
    order. Whether to re-sort is the caller's decision.
    """
    repairs = {}
    for n, members in enumerate(grouping.beams):
        if len(members) == 1:  # a lone user has no order to violate
            continue
        g = np.abs(grouping.reduced[:, members].conj().T @ precoder.matrix[:, n])
        if np.any(np.diff(g) > 0):
            repairs[n] = np.lexsort((members, -g))
    return repairs


def reorder(grouping: BeamGrouping, repairs: dict[int, np.ndarray]) -> BeamGrouping:
    """Apply `verify_order`'s repairs; every other beam keeps its order."""
    beams = [m.copy() for m in grouping.beams]
    for n, perm in repairs.items():
        beams[n] = beams[n][perm]
    return BeamGrouping(beams=beams, reduced=grouping.reduced, selected=grouping.selected)
