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
class BeamAssignment:
    """Per-user dominant beam and the distinct selected-beam set."""

    beam_for_user: np.ndarray  # (K,) int, beam index in 1..N space stored 0-based
    selected: np.ndarray       # (N_RF,) distinct beam indices, ascending

    @property
    def n_rf(self) -> int:
        return len(self.selected)


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


@dataclass
class OrderReport:
    """Per-beam check that equivalent gains |h_{m}^H w_n| decay with SIC rank."""

    violations: list[int]           # beams whose gains are not non-increasing
    permutations: list[np.ndarray]  # per-beam reordering that restores the decay

    @property
    def ok(self) -> bool:
        return not self.violations


def select_beams(beamspace: np.ndarray) -> BeamAssignment:
    """Assign every user its maximum-magnitude beam.

    Ties resolve to the lowest beam index; the selected set is the distinct
    assignments in ascending order.
    """
    mags = np.abs(beamspace)
    dead = np.where(mags.max(axis=0) == 0)[0]
    if dead.size:
        raise DegenerateChannelError(f"user {dead[0]} has an all-zero beamspace channel")
    per_user = mags.argmax(axis=0)
    return BeamAssignment(beam_for_user=per_user, selected=np.unique(per_user))


def group_users(assignment: BeamAssignment, beamspace: np.ndarray) -> BeamGrouping:
    """Group conflicting users per beam and extract reduced channels.

    Within a beam, users sort by decreasing reduced-channel norm; exact ties
    keep the lower user index first. One lexsort keyed on (beam, -norm, user)
    orders every user at once; each selected beam's members are then the run
    of its index in that order. Users on an unselected beam are left out, and
    a selected beam without users gets an empty group.
    """
    reduced = beamspace[assignment.selected, :]
    norms = np.linalg.norm(reduced, axis=0)
    beam_for_user = assignment.beam_for_user
    order = np.lexsort((np.arange(len(beam_for_user)), -norms, beam_for_user))
    ranked = beam_for_user[order]
    starts = np.searchsorted(ranked, assignment.selected, side="left").tolist()
    ends = np.searchsorted(ranked, assignment.selected, side="right").tolist()
    beams = [order[start:end] for start, end in zip(starts, ends)]
    return BeamGrouping(beams=beams, reduced=reduced, selected=assignment.selected)


def verify_order(grouping: BeamGrouping, precoder) -> OrderReport:
    """Check that per-beam equivalent gains are non-increasing in SIC rank.

    Returns, for each violating beam, the permutation (gain descending, user
    index breaking ties) that restores the assumed decoding order; whether to
    re-sort is the caller's decision.
    """
    violations, perms = [], []
    for n, members in enumerate(grouping.beams):
        if len(members) == 1:  # a lone user has no order to violate
            perms.append(np.zeros(1, np.intp))
            continue
        g = np.abs(grouping.reduced[:, members].conj().T @ precoder.matrix[:, n])
        perm = np.lexsort((members, -g))
        perms.append(perm)
        if np.any(np.diff(g) > 0):
            violations.append(n)
    return OrderReport(violations=violations, permutations=perms)


def reorder(grouping: BeamGrouping, report: OrderReport) -> BeamGrouping:
    """Apply the report's permutations to the violating beams."""
    beams = [m.copy() for m in grouping.beams]
    for n in report.violations:
        beams[n] = beams[n][report.permutations[n]]
    return BeamGrouping(beams=beams, reduced=grouping.reduced, selected=grouping.selected)
