"""The pump-parameter formula: excitation probability from physical inputs.

A short off-resonant Raman pulse leaves each ensemble in a number-correlated
(two-mode-squeezed-form) state of the collective spin mode and the emitted
Stokes mode, with amplitudes proportional to pc^(n/2) on |n, n>. This module
computes pc from the pump and ensemble parameters; the two-ensemble write
source is :func:`dfsmem.protocol.joint_emission_state`. Retrieval maps each
ensemble's excitations one to one onto an anti-Stokes mode, so both of its
uses write it as a relabelling: :func:`dfsmem.protocol.read_memory` relabels
the stored pattern table onto the output pair, and
:class:`dfsmem.protocol.RemoteSetup` writes the sender and resource
excitations directly on the retrieved modes, then lifts only its two
splitters.
"""

from __future__ import annotations

from dataclasses import dataclass


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
