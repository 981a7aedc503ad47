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
and channel efficiency. :func:`end_to_end_fidelity` gives the exact weights
from photon counts: sector (k, a), k of the a emitted photons surviving the
channel and a excitations stored, weighs w_a C(a, k) s^k (1 - s)^(a - k)
click(k), and F = p1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .fock import MixedState, ModeLabel, PureState, ordered_sum
from .optics import check_amplitude_pair

WEIGHT_TOL = 1e-12


def _check_positive_finite(name: str, v: float) -> None:
    if not 0.0 < v < math.inf:  # fails on NaN too
        raise ValueError(f"{name}={v} must be positive and finite")


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
        # each test is written to fail on NaN, and the open ends on infinity
        if not 0.0 <= self.L0 < math.inf:
            raise ValueError(f"L0={self.L0} must be nonnegative and finite")
        _check_positive_finite("L_att", self.L_att)
        _check_positive_finite("f_p", self.f_p)

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

    def clicks_probability(self, photons: Sequence[int], clicks: Sequence[bool]) -> float:
        """P(exactly the detectors flagged in ``clicks`` fire | ``photons`` on each).

        Detectors are independent copies of this one. The clicking factors
        are multiplied first, then the silent ones, each in index order.
        """
        w = 1.0
        for n, c in zip(photons, clicks):
            if c:
                w *= self.click_probability(n)
        for n, c in zip(photons, clicks):
            if not c:
                w *= 1.0 - self.click_probability(n)
        return w


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
    """Expected wall-clock time to herald once: 1 / (p1 f_p) seconds, for a
    per-round herald probability ``p1`` in (0, 1] and a positive, finite
    repetition rate ``f_p``."""
    if not 0.0 < p1 <= 1.0:  # fails on NaN too
        raise ValueError(f"p1={p1} outside (0, 1]")
    _check_positive_finite("f_p", f_p)
    return 1.0 / (p1 * f_p)


def _pc_at(T: float, eta_prime: float, f_p: float) -> float:
    return 1.0 / (2.0 * eta_prime * f_p * T)


def fidelity_vs_T(
    eta_prime: float, f_p: float, T_values: Sequence[float]
) -> list[tuple[float, float]]:
    """Memory fidelity achievable at each average preparation time.

    Inverts T = 1/(p1 f_p) with p1 = 2 pc eta' to the excitation probability
    affordable at that time budget, then applies dF = pc. Clamped to [0, 1].
    ``f_p`` and every T must be positive and finite.
    """
    if not 0.0 < eta_prime <= 1.0:
        raise ValueError(f"eta_prime={eta_prime} outside (0, 1]")
    _check_positive_finite("f_p", f_p)
    out = []
    for T in T_values:
        _check_positive_finite("T", T)
        F = 1.0 - _pc_at(T, eta_prime, f_p)
        out.append((T, min(max(F, 0.0), 1.0)))
    return out


def dF_vs_eta(
    T: float, f_p: float, eta_values: Sequence[float]
) -> list[tuple[float, float]]:
    """Fidelity imperfection versus overall efficiency at fixed prep time;
    ``T`` and ``f_p`` must be positive and finite."""
    _check_positive_finite("T", T)
    _check_positive_finite("f_p", f_p)
    out = []
    for eta in eta_values:
        if not 0.0 < eta <= 1.0:
            raise ValueError(f"eta_prime={eta} outside (0, 1]")
        out.append((eta, _pc_at(T, eta, f_p)))
    return out


def _loss_steps(survival: float, d: int) -> list[list[tuple[int, float, float, float]]]:
    """Per photon number n < d, the factors of losing k of the n photons:
    (k, sqrt(n!), c, sqrt((n-k)! k!)) with c = C(n, k) t^(n-k) r^k, so that
    a / sqrt(n!) * c * sqrt((n-k)! k!) = sqrt(C(n, k)) t^(n-k) r^k a.

    c comes from the photon-by-photon recursion c'[k] = c[k-1] r + c[k] t.
    These are the products, in the same order, that the Fock lift of the
    beam splitter [[t, -r], [r, t]] into a vacuum sink forms, so the closed
    form writes the bits that network wrote.
    """
    t = math.sqrt(survival)
    r = math.sqrt(1.0 - survival)
    steps: list[list[tuple[int, float, float, float]]] = [[(0, 1.0, 1.0, 1.0)]]
    c = [1.0]
    for n in range(1, d):
        c = [c[0] * t, *(c[k - 1] * r + c[k] * t for k in range(1, n)), c[n - 1] * r]
        den = math.sqrt(math.factorial(n))
        steps.append([
            (k, den, c[k], math.sqrt(math.factorial(n - k) * math.factorial(k)))
            for k in range(n + 1)
        ])
    return steps


def apply_loss(
    state: PureState, modes: Sequence[ModeLabel], survival: float
) -> MixedState:
    """Photon loss on each listed mode, in closed form.

    Each photon of a listed mode survives with amplitude t = sqrt(survival)
    and is lost with amplitude r = sqrt(1 - survival), as through a beam
    splitter into a vacuum sink that is then traced out (Leonhardt,
    *Measuring the Quantum State of Light*, 1997). Losing k_j of the n_j
    photons on each listed mode multiplies an amplitude by
    prod_j sqrt(C(n_j, k_j)) t^(n_j - k_j) r^(k_j); the terms of one loss
    vector (k_1, k_2, ...) form one mixture component, in sorted loss-vector
    order, normalized on the input registry. Amplitudes at or below
    ``PRUNE_TOL`` are dropped once, at the end. Trace (total weight) is
    preserved. A mode that is not registered or is listed twice raises.
    """
    if not 0.0 <= survival <= 1.0:
        raise ValueError(f"survival {survival} outside [0, 1]")
    registry = state.registry
    idx = [registry.index(m) for m in modes]
    if len(set(idx)) != len(idx):
        raise ValueError("a mode is listed twice for loss")
    steps = _loss_steps(survival, registry.d)
    groups: dict[tuple[int, ...], dict[tuple[int, ...], complex]] = {}
    for pattern, a in state.items():
        branches = [((), pattern, a)]
        for i in idx:
            n = pattern[i]
            branches = [
                (lost + (k,), p[:i] + (n - k,) + p[i + 1:], x / den * c * sf)
                for lost, p, x in branches
                for k, den, c, sf in steps[n]
            ]
        for lost, p, x in branches:
            groups.setdefault(lost, {})[p] = x
    components = []
    for lost in sorted(groups):
        kept = PureState._trusted(registry, groups[lost])
        weight = kept.norm_squared()
        if weight:  # normalized by the weight just summed, as normalize() would
            norm = math.sqrt(weight)
            components.append(
                (weight, PureState._trusted(registry, {p: a / norm for p, a in kept.items()})))
    return MixedState(tuple(components))


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

    Works on photon counts alone. The emission's a-excitation weight w_a
    (two-excitation source terms kept) carries a photons through the
    number-conserving eraser onto the fibers; each survives the channel
    with probability s = ``noise.channel_survival``, so the sector of k
    photons at the one non-resolving herald detector and a excitations
    weighs w_a C(a, k) s^k (1 - s)^(a - k) click(k). The reported F is the overlap of the heralded mixture with the
    ideal one-excitation state; it bounds the stored-qubit fidelity for every
    (alpha, beta), which enter only the downstream analyzer and are
    validated here for interface parity.
    """
    from .protocol import build_write_setup, joint_emission_state

    check_amplitude_pair(alpha, beta)
    if pc != noise.pc:
        raise ValueError(f"pc={pc} differs from noise.pc={noise.pc}")
    setup = build_write_setup()
    atoms = [setup.registry.index(setup.s_l), setup.registry.index(setup.s_r)]
    w: dict[int, float] = {}
    for pattern, amp in joint_emission_state(pc, setup).items():
        a = pattern[atoms[0]] + pattern[atoms[1]]
        w[a] = w.get(a, 0.0) + (amp.real * amp.real + amp.imag * amp.imag)

    s = noise.channel_survival
    herald_detector = DetectorSpec(noise.eta_d, noise.p_dc)
    weights = {
        (k, a): wa * math.comb(a, k) * s**k * (1.0 - s) ** (a - k)
        * herald_detector.click_probability(k)
        for a, wa in w.items()
        for k in range(a + 1)
    }
    # the sum can round one ulp above 1 when p_dc is next to 1
    herald_prob = min(ordered_sum(weights.values()), 1.0)
    if herald_prob <= 0.0:
        raise ValueError("herald never fires under these parameters")

    p0 = weights[0, 0] / herald_prob
    p1 = weights.get((1, 1), 0.0) / herald_prob
    po = ordered_sum(wt for (_, a), wt in weights.items() if a >= 2) / herald_prob
    return FidelityReport(
        p0=p0,
        p1=p1,
        po=po,
        eta_prime=noise.eta_prime,
        herald_probability=herald_prob,
        T_seconds=preparation_time(herald_prob, noise.f_p),
        # sector (1, 1) is exactly the ideal state: the (1, 0) and (0, 1)
        # emission amplitudes are equal and the loss acts alike on both
        # polarizations; every other sector has another photon or excitation
        # number, so it is orthogonal to the ideal state and F = p1
        F=p1,
        delta_F=1.0 - p1,
        p0_analytic=(
            p0_analytic(noise)
            if noise.p_dc > 0 and noise.pc * noise.eta_prime > 0
            else 0.0
        ),
        p1_analytic=p1_analytic(noise),
        po_analytic=po_analytic(noise, 2),
    )
