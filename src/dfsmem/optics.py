"""Constructors for the optical elements that the memory protocol lifts:
the which-path eraser's polarizing beam splitter and the remote transfer's
balanced splitter. The eraser's wave plates and rotator, which act before
the PBS, are relabellings that :mod:`dfsmem.protocol` writes into the
emission, and the Bell-state analyzer is written there as its
single-photon map.

Phase conventions: the polarizing beam splitter routes with unit matrix
elements (no reflection phase). Any self-consistent convention works
because the unused ports start in vacuum; the detector-mapping tests pin
these down end to end.

The constructors (``pbs``, ``bs50``) return shared elements: equal
arguments give the same :class:`~dfsmem.fock.OpticalElement`, whose matrix
is read-only and whose Fock-lift table therefore carries over from one
request to the next.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .fock import ModeLabel, OpticalElement

AMPLITUDE_PAIR_TOL = 1e-9
# distinct elements kept per constructor; the CLI grid builds 3 in all
_SHARED_ELEMENTS = 64


def check_amplitude_pair(alpha: complex, beta: complex) -> None:
    """Reject a qubit (alpha, beta) whose weights do not sum to one; a NaN
    or infinite amplitude fails the test too."""
    total = abs(alpha) ** 2 + abs(beta) ** 2
    if not abs(total - 1.0) <= AMPLITUDE_PAIR_TOL:
        raise ValueError(f"(alpha, beta) not normalized: |a|^2+|b|^2 = {total}")


@lru_cache(maxsize=_SHARED_ELEMENTS)
def pbs(
    in1_h: ModeLabel, in1_v: ModeLabel,
    in2_h: ModeLabel, in2_v: ModeLabel,
    out1_h: ModeLabel, out1_v: ModeLabel,
    out2_h: ModeLabel, out2_v: ModeLabel,
) -> OpticalElement:
    """Polarizing beam splitter: transmits H, reflects V, all amplitudes +1."""
    modes = (in1_h, in1_v, in2_h, in2_v, out1_h, out1_v, out2_h, out2_v)
    m = np.zeros((8, 8))
    routes = {
        0: 4,  # in1 H -> out1 H
        2: 6,  # in2 H -> out2 H
        1: 7,  # in1 V -> out2 V
        3: 5,  # in2 V -> out1 V
    }
    for src, dst in routes.items():
        m[dst, src] = 1.0
        m[src, dst] = 1.0
    return OpticalElement("pbs", modes, m)


@lru_cache(maxsize=_SHARED_ELEMENTS)
def bs50(mode_1: ModeLabel, mode_2: ModeLabel) -> OpticalElement:
    """Symmetric 50/50 beam splitter, matrix [[1, 1], [1, -1]]/sqrt(2)."""
    m = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    return OpticalElement("bs50", (mode_1, mode_2), m)

