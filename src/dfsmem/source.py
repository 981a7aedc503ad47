"""Emission and retrieval primitives for the atomic-ensemble sources.

A short off-resonant Raman pulse leaves each ensemble in a number-correlated
(two-mode-squeezed-form) state of the collective spin mode and the emitted
Stokes mode: amplitudes proportional to pc^(n/2) on |n, n>; the two-ensemble
write source is :func:`dfsmem.protocol.joint_emission_state`. Retrieval swaps
a stored collective excitation back onto an anti-Stokes photon mode through a
lossy channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fock import (
    MixedState,
    ModeLabel,
    ModeRegistry,
    PureState,
    apply_unitary,
    project_occupation,
    superposition,
)
from .noise import apply_loss
from .optics import swap


@dataclass(frozen=True)
class PumpPhysical:
    """Physical pump parameters, in any one consistent unit system.

    g_c: atom-field coupling constant; n_density: linear atom density;
    length: ensemble length; omega: Rabi frequency magnitude; delta:
    detuning (nonzero, sign irrelevant); t_p: pulse duration; c: speed of
    light in the chosen units.
    """

    g_c: float
    n_density: float
    length: float
    omega: float
    delta: float
    t_p: float
    c: float

    def __post_init__(self):
        for name in ("g_c", "n_density", "length", "omega", "t_p", "c"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.delta == 0:
            raise ValueError("delta must be nonzero")


def pc_from_physical(p: PumpPhysical) -> float:
    """Excitation probability 4 g_c^2 N L / c * |Omega|^2 / Delta^2 * t_p."""
    return 4.0 * p.g_c**2 * p.n_density * p.length / p.c * p.omega**2 / p.delta**2 * p.t_p


def dualrail_emit(
    pc: float,
    atomic0: ModeLabel,
    atomic1: ModeLabel,
    photon_v: ModeLabel,
    photon_h: ModeLabel,
    registry: ModeRegistry,
    heralded: bool = True,
) -> PureState:
    """Single-ensemble dual-rail emission, quarter-wave relabeling built in.

    The two decay branches populate (atomic0, photon_v) and (atomic1,
    photon_h) with equal amplitude: the left-circular emission lands on the
    V output, the right-circular one on H. With ``heralded`` the vacuum
    component is projected out; otherwise it carries weight 1 - pc.
    """
    if not 0.0 <= pc < 1.0:
        raise ValueError(f"pc={pc} outside [0, 1)")
    v_branch = {atomic0: 1, photon_v: 1}
    h_branch = {atomic1: 1, photon_h: 1}
    branch = 1.0 / math.sqrt(2.0)
    if heralded:
        return superposition(registry, [(v_branch, branch), (h_branch, branch)])
    return superposition(registry, [
        ({}, math.sqrt(1.0 - pc)),
        (v_branch, math.sqrt(pc) * branch),
        (h_branch, math.sqrt(pc) * branch),
    ])


def retrieve(
    state: PureState,
    atomic: ModeLabel,
    anti_stokes: ModeLabel,
    efficiency: float,
) -> MixedState:
    """Convert a stored collective excitation into an anti-Stokes photon.

    Swaps the atomic occupation onto the anti-Stokes mode, which must start
    in vacuum, then passes it through a loss channel with the given survival
    probability (:func:`dfsmem.noise.apply_loss`). Returns the resulting
    ensemble.
    """
    _, p_vac = project_occupation(state, anti_stokes, 0)
    if abs(p_vac - 1.0) > 1e-9:
        raise ValueError(f"anti-Stokes mode {anti_stokes} is not in vacuum")
    swapped = apply_unitary(state, swap("retrieval_swap", atomic, anti_stokes))
    return apply_loss(swapped, [anti_stokes], efficiency)
