"""Constructors for the optical elements used by the memory protocol.

Phase conventions: the polarizing beam splitter routes with unit matrix
elements (no reflection phase), and the spatial splitter completes its
unitary with the standard (-conj(beta), conj(alpha)) second column. Any
self-consistent convention works because the unused ports start in vacuum;
the detector-mapping tests pin these down end to end.

The fixed-matrix constructors (``qwp``, ``pbs``, ``hwp``, ``swap`` and
``pol_rotator`` through it, ``bs50``) return shared elements: equal
arguments give the same :class:`~dfsmem.fock.OpticalElement`, whose matrix
is read-only and whose Fock-lift table therefore carries over from one
request to the next. ``mz_split``, ``loss_coupler`` and ``phase_shifter``
depend on continuous parameters and build a new element per call.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from .fock import ModeLabel, OpticalElement

AMPLITUDE_PAIR_TOL = 1e-9
# distinct fixed elements kept per constructor; the CLI grid builds 20 in all
_SHARED_ELEMENTS = 64


def check_amplitude_pair(alpha: complex, beta: complex) -> None:
    """Reject a qubit (alpha, beta) whose weights do not sum to one."""
    total = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(total - 1.0) > AMPLITUDE_PAIR_TOL:
        raise ValueError(f"(alpha, beta) not normalized: |a|^2+|b|^2 = {total}")


@lru_cache(maxsize=_SHARED_ELEMENTS)
def qwp(
    in_rcirc: ModeLabel,
    in_lcirc: ModeLabel,
    out_h: ModeLabel,
    out_v: ModeLabel,
) -> OpticalElement:
    """Quarter-wave plate as a relabeling: Rcirc -> H, Lcirc -> V.

    The reverse routes (H -> Rcirc, V -> Lcirc) complete the permutation and
    never matter because the linear-polarization ports start empty.
    """
    modes = (in_rcirc, in_lcirc, out_h, out_v)
    m = np.zeros((4, 4))
    m[2, 0] = 1.0  # Rcirc -> H
    m[3, 1] = 1.0  # Lcirc -> V
    m[0, 2] = 1.0
    m[1, 3] = 1.0
    return OpticalElement("qwp", modes, m)


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
def hwp(mode_h: ModeLabel, mode_v: ModeLabel) -> OpticalElement:
    """Half-wave plate at 22.5 degrees: Hadamard on the polarization pair."""
    m = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    return OpticalElement("hwp", (mode_h, mode_v), m)


@lru_cache(maxsize=_SHARED_ELEMENTS)
def swap(name: str, mode_a: ModeLabel, mode_b: ModeLabel) -> OpticalElement:
    """Exchange the contents of two modes, named for the step it models."""
    return OpticalElement(name, (mode_a, mode_b), np.array([[0.0, 1.0], [1.0, 0.0]]))


def pol_rotator(mode_h: ModeLabel, mode_v: ModeLabel) -> OpticalElement:
    """90-degree polarization rotator: swaps the H and V amplitudes."""
    return swap("pol_rotator", mode_h, mode_v)


def loss_coupler(mode: ModeLabel, sink: ModeLabel, survival: float) -> OpticalElement:
    """Beam splitter of transmissivity sqrt(survival) from ``mode`` into a
    vacuum ``sink``; tracing the sink out leaves the lossy channel."""
    if not 0.0 <= survival <= 1.0:
        raise ValueError(f"survival {survival} outside [0, 1]")
    t = math.sqrt(survival)
    r = math.sqrt(1.0 - survival)
    return OpticalElement("loss_coupler", (mode, sink), np.array([[t, -r], [r, t]]))


def mz_split(
    in_mode: ModeLabel,
    out_a: ModeLabel,
    out_b: ModeLabel,
    alpha: complex,
    beta: complex,
) -> OpticalElement:
    """Mach-Zehnder spatial splitter: in -> alpha*out_a + beta*out_b.

    (alpha, beta) must be normalized; the caller applies one copy per
    polarization so the split is polarization independent.
    """
    check_amplitude_pair(alpha, beta)
    modes = (in_mode, out_a, out_b)
    m = np.zeros((3, 3), dtype=complex)
    m[1, 0] = alpha
    m[2, 0] = beta
    # vacuum-port completion: second column (-conj(beta), conj(alpha)),
    # third column routes out_b's empty port back to the input.
    m[1, 1] = -np.conj(beta)
    m[2, 1] = np.conj(alpha)
    m[0, 2] = 1.0
    return OpticalElement("mz_split", modes, m)


@lru_cache(maxsize=_SHARED_ELEMENTS)
def bs50(mode_1: ModeLabel, mode_2: ModeLabel) -> OpticalElement:
    """Symmetric 50/50 beam splitter, matrix [[1, 1], [1, -1]]/sqrt(2)."""
    m = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    return OpticalElement("bs50", (mode_1, mode_2), m)


def phase_shifter(modes: Sequence[ModeLabel], phases: Sequence[float]) -> OpticalElement:
    """Diagonal element exp(i*phi_k) on each listed mode."""
    if len(modes) != len(phases):
        raise ValueError("one phase per mode required")
    m = np.diag([cmath.exp(1j * p) for p in phases])
    return OpticalElement("phase_shifter", tuple(modes), m)
