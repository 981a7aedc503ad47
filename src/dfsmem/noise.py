"""Imperfection model: loss channels, detector-limited heralding, and the
analytic probability/fidelity/preparation-time formulas.

The heralded entangled state under realistic conditions is a mixture of a
vacuum part (dark-count heralds, weight p0), the ideal one-excitation part
(weight p1), and higher-excitation contamination that a non-number-resolving
detector cannot reject (weight po). Closed-form approximations:

    p1  ~ 2 pc chi eta_d exp(-L0/L_att)
    p0  ~ p_dc / (pc eta')
    po  ~ pc^n chi (1 - eta_d) exp(-L0/L_att)      n = excitation count
    T   ~ 1 / (p1 f_p)
    dF  ~ pc,  with pc(T) = 1 / (2 eta' f_p T) on the trade-off curves

where eta' = chi eta_d exp(-L0/L_att) is the overall collection, detection
and channel efficiency.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

from .fock import (
    MixedState,
    ModeLabel,
    PureState,
    apply_elements,
    embed_state,
    fidelity_mixed,
    photon_mode,
    project_total_occupation,
    register_modes,
    split_by_pattern,
)
from .optics import check_amplitude_pair, loss_coupler

WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class NoiseParams:
    """All knobs of the imperfection model.

    pc: per-pulse excitation probability; chi: photon-collection efficiency;
    eta_d: detector quantum efficiency; p_dc: dark-count probability per
    pulse window (a dark rate in Hz corresponds to p_dc = rate / f_p);
    L0: communication distance; L_att: channel attenuation length (same
    unit as L0); f_p: pulse repetition rate in Hz.
    """

    pc: float = 0.01
    chi: float = 1.0
    eta_d: float = 1.0
    p_dc: float = 0.0
    L0: float = 0.0
    L_att: float = 1.0
    f_p: float = 10e6

    def __post_init__(self):
        if not 0.0 <= self.pc < 0.5:
            raise ValueError(f"pc={self.pc} outside [0, 0.5)")
        for name in ("chi", "eta_d"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")
        if not 0.0 <= self.p_dc < 1.0:
            raise ValueError(f"p_dc={self.p_dc} outside [0, 1)")
        if self.L0 < 0.0:
            raise ValueError("L0 must be nonnegative")
        if self.L_att <= 0.0:
            raise ValueError("L_att must be positive")
        if self.f_p <= 0.0:
            raise ValueError("f_p must be positive")

    @property
    def attenuation(self) -> float:
        return math.exp(-self.L0 / self.L_att)

    @property
    def eta(self) -> float:
        return self.chi * self.eta_d

    @property
    def eta_prime(self) -> float:
        return self.eta * self.attenuation

    @property
    def channel_survival(self) -> float:
        """Photon survival up to the detector face (no quantum efficiency)."""
        return self.chi * self.attenuation


@dataclass(frozen=True)
class DetectorSpec:
    """One non-number-resolving detector channel.

    efficiency: per-photon click probability, already folded with collection
    and channel survival; dark_prob: dark-count probability per window.
    """

    efficiency: float
    dark_prob: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"efficiency {self.efficiency} outside [0, 1]")
        if not 0.0 <= self.dark_prob < 1.0:
            raise ValueError(f"dark_prob {self.dark_prob} outside [0, 1)")

    def click_probability(self, photons: int) -> float:
        return 1.0 - (1.0 - self.efficiency) ** photons * (1.0 - self.dark_prob)


def p1_analytic(n: NoiseParams) -> float:
    """Per-round probability of a true single-photon herald."""
    return 2.0 * n.pc * n.chi * n.eta_d * n.attenuation


def p0_analytic(n: NoiseParams) -> float:
    """Vacuum admixture from dark counts, relative to real heralds."""
    if n.pc * n.eta_prime == 0.0:
        raise ValueError("p0 undefined at zero pc or zero efficiency")
    return n.p_dc / (n.pc * n.eta_prime)


def po_analytic(n: NoiseParams, excitations: int) -> float:
    """Weight of an n-excitation event masquerading as a single click."""
    if excitations < 1:
        raise ValueError("excitations must be >= 1")
    return n.pc**excitations * n.chi * (1.0 - n.eta_d) * n.attenuation


def preparation_time(p1: float, f_p: float) -> float:
    """Expected wall-clock time to herald once: 1 / (p1 f_p) seconds."""
    if p1 <= 0.0 or f_p <= 0.0:
        raise ValueError("p1 and f_p must be positive")
    return 1.0 / (p1 * f_p)


def _pc_at(T: float, eta_prime: float, f_p: float) -> float:
    return 1.0 / (2.0 * eta_prime * f_p * T)


def fidelity_vs_T(
    eta_prime: float, f_p: float, T_values: Sequence[float]
) -> list[tuple[float, float]]:
    """Memory fidelity achievable at each average preparation time.

    Inverts T = 1/(p1 f_p) with p1 = 2 pc eta' to the excitation probability
    affordable at that time budget, then applies dF = pc. Clamped to [0, 1].
    """
    if not 0.0 < eta_prime <= 1.0:
        raise ValueError(f"eta_prime={eta_prime} outside (0, 1]")
    out = []
    for T in T_values:
        if T <= 0.0:
            raise ValueError("preparation times must be positive")
        F = 1.0 - _pc_at(T, eta_prime, f_p)
        out.append((T, min(max(F, 0.0), 1.0)))
    return out


def dF_vs_eta(
    T: float, f_p: float, eta_values: Sequence[float]
) -> list[tuple[float, float]]:
    """Fidelity imperfection versus overall efficiency at fixed prep time."""
    if T <= 0.0:
        raise ValueError("T must be positive")
    out = []
    for eta in eta_values:
        if not 0.0 < eta <= 1.0:
            raise ValueError(f"eta_prime={eta} outside (0, 1]")
        out.append((eta, _pc_at(T, eta, f_p)))
    return out


def apply_loss(
    state: PureState, modes: Sequence[ModeLabel], survival: float
) -> MixedState:
    """Photon loss on each listed mode via a beam splitter to its own sink.

    Every mode is coupled to a fresh vacuum sink mode with transmissivity
    sqrt(survival) (:func:`dfsmem.optics.loss_coupler`), all couplers are
    lifted on one enlarged registry, and the sinks are traced out in one
    split: each sink occupation pattern is a mixture component, in sorted
    pattern order, on the input registry. Trace (total weight) is preserved.
    """
    if not 0.0 <= survival <= 1.0:
        raise ValueError(f"survival {survival} outside [0, 1]")
    registry = state.registry
    sinks = [photon_mode("loss-sink", "H", f"of-{registry.index(m)}") for m in modes]
    couplers = [loss_coupler(m, sink, survival) for m, sink in zip(modes, sinks)]
    big = register_modes(list(registry.labels) + sinks, registry.d)
    lossy = apply_elements(embed_state(state, big), couplers)
    events = split_by_pattern(lossy, sinks, registry)
    return MixedState(tuple(events[pattern] for pattern in sorted(events)))


@dataclass(frozen=True)
class FidelityReport:
    """Exact pipeline numbers next to their closed-form approximations."""

    p0: float
    p1: float
    po: float
    eta_prime: float
    herald_probability: float
    T_seconds: float
    F: float
    delta_F: float
    p0_analytic: float
    p1_analytic: float
    po_analytic: float

    def __post_init__(self):
        if abs(self.F - (1.0 - self.delta_F)) > WEIGHT_TOL:
            raise ValueError("F and delta_F are inconsistent")
        if self.p0 + self.p1 + self.po > 1.0 + WEIGHT_TOL:
            raise ValueError("mixture weights exceed 1")


def end_to_end_fidelity(
    pc: float,
    noise: NoiseParams,
    alpha: complex = 1 / math.sqrt(2),
    beta: complex = 1 / math.sqrt(2),
) -> FidelityReport:
    """Exact heralded-state fidelity under loss, dark counts and detector
    non-resolution.

    Runs the emission and interference stage with the two-excitation source
    terms kept, pushes the photon modes through the channel loss, then
    conditions on a click of one non-resolving herald detector. The reported
    F is the overlap of that mixture with the ideal one-excitation state; it
    bounds the stored-qubit fidelity for every (alpha, beta), which enter
    only the downstream analyzer and are validated here for interface parity.
    """
    from .protocol import build_write_setup, entangled_state, ideal_entangled_state

    check_amplitude_pair(alpha, beta)
    params = dataclasses.replace(noise, pc=pc)
    setup = build_write_setup()
    state = entangled_state(pc, setup)
    fibers = [setup.photon("H", "fiber"), setup.photon("V", "fiber")]
    mixed = apply_loss(state, fibers, params.channel_survival)

    outputs = setup.output_modes()
    herald_detector = DetectorSpec(params.eta_d, params.p_dc)
    atomic_idx = (setup.registry.index(setup.s_l), setup.registry.index(setup.s_r))
    herald_prob = 0.0
    kept: list[tuple[float, PureState, int, int]] = []  # weight, state, n_phot, n_atom
    for w, s in mixed.components:
        for n in range(setup.registry.d):
            sector, prob = project_total_occupation(s, outputs, n)
            if prob <= 0.0:
                continue
            click = herald_detector.click_probability(n)
            if click <= 0.0:
                continue
            sector = sector.normalize()
            counts = {sum(p[i] for i in atomic_idx) for p in sector.support()}
            if len(counts) != 1:
                raise RuntimeError("herald sector mixes excitation numbers")
            herald_prob += w * prob * click
            kept.append((w * prob * click, sector, n, counts.pop()))
    if herald_prob <= 0.0:
        raise ValueError("herald never fires under these parameters")

    ideal = ideal_entangled_state(setup)
    rho = MixedState(tuple((wt / herald_prob, s) for wt, s, _, _ in kept))
    F = fidelity_mixed(rho, ideal)
    p0 = sum(wt for wt, _, n, a in kept if n == 0 and a == 0) / herald_prob
    p1 = sum(wt for wt, _, n, a in kept if n == 1 and a == 1) / herald_prob
    po = sum(wt for wt, _, _, a in kept if a >= 2) / herald_prob
    return FidelityReport(
        p0=p0,
        p1=p1,
        po=po,
        eta_prime=params.eta_prime,
        herald_probability=herald_prob,
        T_seconds=preparation_time(herald_prob, params.f_p),
        F=F,
        delta_F=1.0 - F,
        p0_analytic=(
            p0_analytic(params)
            if params.p_dc > 0 and params.pc * params.eta_prime > 0
            else 0.0
        ),
        p1_analytic=p1_analytic(params),
        po_analytic=po_analytic(params, 2),
    )
