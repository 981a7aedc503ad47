"""The memory protocol: heralded entanglement, spatial encoding, Bell-state
analysis, Pauli-mark bookkeeping, read-out, and remote state transfer.

Two ensembles emit number-correlated Stokes photons. A quarter-wave plate
on each arm turns the circular photon into H, and a rotator on the right arm
turns that into V; both are unit-amplitude relabellings, so the emission is
written where they leave it, ensemble L's photons on H@arm-L and ensemble
R's on V@arm-R. A polarizing beam splitter merges the two arms onto one
fiber and erases the which-path information, so a lone surviving photon
carries H for "left ensemble excited" and V for "right ensemble excited".
The PBS is the one element lifted, on the write's registry: the two
ensembles and its eight ports. A Mach-Zehnder stage splits the fiber photon
over two paths with the amplitudes to store, and the Bell-state analyzer
routes each polarization-spatial Bell component to exactly one detector:

    D1 <-> (|H,b> + |V,a>)/sqrt(2)     correction I
    D2 <-> (|H,b> - |V,a>)/sqrt(2)     correction Z
    D3 <-> (|H,a> + |V,b>)/sqrt(2)     correction X
    D4 <-> (|H,a> - |V,b>)/sqrt(2)     correction ZX

The analyzer is one fixed single-photon map and the qubit enters the
encoder only as monomials in (alpha, beta), so :class:`WriteSetup` tables
both per fiber occupation when it is built (:func:`_fiber_table`), and the
path and analyzer modes are never registered.

The correction is recorded as a classical mark next to the memory instead of
being applied to the atoms; read-out applies it to the retrieved photon.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import product
from operator import itemgetter
from typing import Sequence

import numpy as np

from .fock import (
    MixedState,
    ModeLabel,
    ModeRegistry,
    OpticalElement,
    PureState,
    TruncationOverflowError,
    _lift_pattern,
    apply_elements,
    atomic_mode,
    ordered_sum,
    photon_mode,
    project_total_occupation,
    register_modes,
    split_by_pattern,
    superposition,
)
from .noise import apply_loss
from .optics import bs50, check_amplitude_pair, pbs


class BellOutcome(Enum):
    PSI_PLUS = "PsiPlus"
    PSI_MINUS = "PsiMinus"
    PHI_PLUS = "PhiPlus"
    PHI_MINUS = "PhiMinus"
    FAILURE = "Failure"


class PauliMark(Enum):
    I = "I"
    Z = "Z"
    X = "X"
    ZX = "ZX"  # equals -iY up to a global phase


_MARK_OF_OUTCOME = {
    BellOutcome.PSI_PLUS: PauliMark.I,
    BellOutcome.PSI_MINUS: PauliMark.Z,
    BellOutcome.PHI_PLUS: PauliMark.X,
    BellOutcome.PHI_MINUS: PauliMark.ZX,
}

OUTCOME_OF_DETECTOR = (
    BellOutcome.PSI_PLUS,
    BellOutcome.PSI_MINUS,
    BellOutcome.PHI_PLUS,
    BellOutcome.PHI_MINUS,
)


def pauli_mark(outcome: BellOutcome) -> PauliMark:
    """Classical correction implied by a Bell-analyzer outcome."""
    if outcome is BellOutcome.FAILURE:
        raise ValueError("a failed analysis carries no correction mark")
    return _MARK_OF_OUTCOME[outcome]


# The write's click rule: a lone click on detector k heralds its Bell
# outcome; every other click vector is no herald.
WRITE_CLICK_RULE: dict[tuple[bool, ...], BellOutcome] = {
    tuple(j == k for j in range(4)): outcome for k, outcome in enumerate(OUTCOME_OF_DETECTOR)
}


@dataclass(frozen=True)
class LogicalQubitMap:
    """Dual-rail logical encoding over an ensemble pair.

    |0> puts the single excitation in ``right``, |1> puts it in ``left``;
    the two patterns are orthogonal by construction.
    """

    left: ModeLabel
    right: ModeLabel

    def logical_state(
        self, registry: ModeRegistry, alpha: complex, beta: complex
    ) -> PureState:
        return superposition(registry, [({self.right: 1}, alpha), ({self.left: 1}, beta)])


def apply_logical_pauli(
    state: PureState, mark: PauliMark, qmap: LogicalQubitMap
) -> PureState:
    """Apply I/Z/X/ZX on the dual-rail logical qubit, on the pattern table:
    X exchanges the two rails' occupations, Z multiplies each amplitude by
    (-1)^n of the left rail, and ZX is X first, then Z. Global phases are
    not tracked (the mark is classical side information)."""
    if mark is PauliMark.I:
        return state
    reg = state.registry
    left, right = reg.index(qmap.left), reg.index(qmap.right)
    flip = mark in (PauliMark.X, PauliMark.ZX)
    sign = mark in (PauliMark.Z, PauliMark.ZX)
    out: dict[tuple[int, ...], complex] = {}
    for pattern, a in state.items():
        if flip:
            p = list(pattern)
            p[left], p[right] = pattern[right], pattern[left]
            pattern = tuple(p)
        out[pattern] = -a if sign and pattern[left] % 2 else a
    return PureState._trusted(reg, out)


# ---------------------------------------------------------------------------
# write-side setup
# ---------------------------------------------------------------------------


class WriteSetup:
    """Registry, eraser PBS and compiled analyzer table of the write
    pipeline. The registry holds the two ensembles and the PBS's eight
    ports; the analyzer's click modes D1..D4 (:attr:`detectors`) are
    reached only through the table, which the constructor builds."""

    def __init__(self, d: int = 3):
        self.d = d
        self.s_l = atomic_mode("ensemble-L")
        self.s_r = atomic_mode("ensemble-R")
        # the PBS's ports in its argument order: the arms in, fiber and dump out
        self._photon = {(pol, spot): photon_mode("stokes", pol, spot)
                        for spot in ("arm-L", "arm-R", "fiber", "dump") for pol in ("H", "V")}
        self.registry = register_modes([self.s_l, self.s_r, *self._photon.values()], d)
        self.detectors = tuple(photon_mode("stokes", *key) for key in (
            ("H", "det-1"), ("V", "det-2"), ("H", "det-3"), ("V", "det-4")))
        self.atomic_registry = register_modes([self.s_l, self.s_r], d)
        self.logical = LogicalQubitMap(left=self.s_l, right=self.s_r)
        # write_events' outputs: the click modes and the atoms
        self._events_registry = register_modes([*self.detectors, self.s_l, self.s_r], d)
        reg = self.registry
        fiber = [reg.index(self.photon(pol, "fiber")) for pol in ("H", "V")]
        atoms = [reg.index(self.s_l), reg.index(self.s_r)]
        self._fiber_of = itemgetter(*fiber)
        self._atoms_of = itemgetter(*atoms)
        self._strays_of = itemgetter(*(i for i in range(len(reg)) if i not in fiber + atoms))
        self._fiber_table = _fiber_table(d)

    def photon(self, polarization: str, spatial: str) -> ModeLabel:
        return self._photon[(polarization, spatial)]

    def output_modes(self) -> tuple[ModeLabel, ...]:
        return tuple(
            self.photon(pol, spot)
            for spot in ("fiber", "dump")
            for pol in ("H", "V")
        )

    def entangle_elements(self) -> list[OpticalElement]:
        """The which-path eraser: the PBS that merges the arms onto the fiber."""
        return [pbs(*self._photon.values())]


# The analyzer's single-photon map, from the path ports (H_a, H_b, V_a, V_b)
# onto the click modes D1..D4: H_b -> (D1 + D2)/sqrt(2), V_a -> (D1 - D2)/sqrt(2),
# H_a -> (D3 + D4)/sqrt(2), V_b -> (D3 - D4)/sqrt(2).
_S = 1 / math.sqrt(2)
_ANALYZER = np.array([
    [0.0, _S, _S, 0.0],
    [0.0, _S, -_S, 0.0],
    [_S, 0.0, 0.0, _S],
    [_S, 0.0, 0.0, -_S],
])


def _fiber_table(d: int) -> dict[tuple[int, int], tuple]:
    """The encoder and the analyzer of each fiber occupation (n_H, n_V) with
    n_H + n_V <= d - 1, as ``((p, q, ((clicks, c), ...)), ...)``: the fiber
    photons leave sum alpha^p beta^q c |clicks>, ``clicks`` the occupations
    of D1..D4.

    The n_H, n_V photons split onto path-a/path-b as k, l with weight
    sqrt(C(n_H, k) C(n_V, l)) and monomial alpha^(k+l) beta^(n_H+n_V-k-l);
    each split is lifted through :data:`_ANALYZER` by the arithmetic of
    :func:`dfsmem.fock.apply_unitary`, and a term that cancels to exactly 0
    is dropped.
    """
    table = {}
    for n_h in range(d):
        for n_v in range(d - n_h):
            monomials: dict[int, dict[tuple[int, ...], complex]] = {}
            for k in range(n_h + 1):
                for l in range(n_v + 1):
                    weight = math.sqrt(math.comb(n_h, k) * math.comb(n_v, l))
                    split = (k, n_h - k, l, n_v - l)
                    lifted = _lift_pattern(split, (0, 1, 2, 3), _ANALYZER, d)
                    terms = monomials.setdefault(k + l, {})
                    if lifted is None:  # the vacuum passes unchanged
                        terms[split] = complex(weight)
                        continue
                    denom, outputs = lifted
                    pre = weight / denom
                    for clicks, coeff, sf, _ in outputs:  # d - 1 photons never spill
                        terms[clicks] = terms.get(clicks, 0j) + pre * coeff * sf
            table[n_h, n_v] = tuple(
                (p, n_h + n_v - p, tuple((clicks, c) for clicks, c in terms.items() if c != 0))
                for p, terms in monomials.items())
    return table


@lru_cache(maxsize=8)
def build_write_setup(d: int = 3) -> WriteSetup:
    return WriteSetup(d)


def joint_emission_state(
    pc: float, setup: WriteSetup, max_total: int = 2
) -> PureState:
    """Joint two-ensemble emission state kept through total order ``max_total``.

    Amplitude pc^((m+n)/2) on m excitations in the left pair and n in the
    right, m + n <= max_total; higher joint orders carry probability below
    pc^(max_total+1) and are outside the modeled order. The Stokes photons
    sit where the wave plates and the rotator leave them: the left pair's on
    H@arm-L, the right pair's on V@arm-R.
    """
    top = setup.d - 1
    p_l = setup.photon("H", "arm-L")
    p_r = setup.photon("V", "arm-R")
    terms = [
        ({setup.s_l: m, p_l: m, setup.s_r: n, p_r: n}, pc ** ((m + n) / 2.0))
        for m in range(min(max_total, top) + 1)
        for n in range(min(max_total - m, top) + 1)
    ]
    return superposition(setup.registry, terms).normalize()


def entangled_state(pc: float, setup: WriteSetup) -> PureState:
    """Emission state after the which-path eraser, before any herald."""
    return apply_elements(joint_emission_state(pc, setup), setup.entangle_elements())


def generate_entanglement(
    pc: float, setup: WriteSetup | None = None
) -> tuple[PureState | None, float]:
    """Run the entanglement-generation stage and herald on one photon.

    Both ensembles are pumped with equal excitation probability; the emitted
    Stokes fields, H from the left arm and V from the right, meet on the PBS,
    which merges them onto the fiber. The returned state is the normalized
    component with exactly one photon across the PBS outputs, together with
    the exact probability of that component. At zero herald probability the
    state is None.
    """
    if not 0.0 <= pc < 0.5:
        raise ValueError(f"pc={pc} outside [0, 0.5)")
    setup = setup or build_write_setup()
    state = entangled_state(pc, setup)
    component, prob = project_total_occupation(state, setup.output_modes(), 1)
    if prob <= 0.0:
        return None, 0.0
    return component.normalize(), prob


def ideal_entangled_state(setup: WriteSetup | None = None) -> PureState:
    """The target one-photon atom-photon state: (|H>|1>_a + |V>|0>_a)/sqrt(2)."""
    setup = setup or build_write_setup()
    return superposition(setup.registry, [
        ({setup.s_l: 1, setup.photon("H", "fiber"): 1}, 1 / math.sqrt(2)),
        ({setup.s_r: 1, setup.photon("V", "fiber"): 1}, 1 / math.sqrt(2)),
    ])


def write_events(
    state: PureState, alpha: complex, beta: complex, setup: WriteSetup
) -> dict[tuple[int, ...], tuple[float, PureState]]:
    """Encode (alpha, beta) on the photon, run the analyzer, split on the
    detectors.

    Returns each detector occupation pattern with its exact probability and
    the normalized, uncorrected atomic state it leaves behind. Fed the
    heralded state this is the heralded write; fed :func:`entangled_state`
    it is the raw per-round event table.

    The qubit enters only through the encoder, so the outputs of each fiber
    occupation are fixed monomials in (alpha, beta), tabled on the setup
    (:func:`_fiber_table`); the atoms ride along. A call sums
    ``a * alpha^p beta^q * c`` over the input support and the table terms
    in order, then splits once per detector pattern. An input pattern with
    d or more fiber photons raises :class:`TruncationOverflowError`, whose
    ``lost_weight`` is the weight of every such pattern of ``state``, and
    one with a photon outside the fiber (on an emission arm or the dump)
    raises ValueError, whatever its amplitude.
    """
    table, fiber_of, atoms_of = setup._fiber_table, setup._fiber_of, setup._atoms_of
    inputs = []
    for pattern, a in state.items():
        entry = table.get(fiber_of(pattern))
        if entry is None:
            lost = ordered_sum(b.real * b.real + b.imag * b.imag
                               for p, b in state.items() if fiber_of(p) not in table)
            raise TruncationOverflowError(
                f"the write analyzer holds at most d - 1 = {setup.d - 1} photons", lost)
        if any(setup._strays_of(pattern)):
            raise ValueError("a photon is left outside the detector and atomic modes")
        inputs.append((a, atoms_of(pattern), entry))
    check_amplitude_pair(alpha, beta)
    # an entry holds at most d - 1 photons
    a_pow = [complex(alpha) ** p for p in range(setup.d)]
    b_pow = [complex(beta) ** q for q in range(setup.d)]
    out: dict[tuple[int, ...], complex] = {}
    for a, atoms, entry in inputs:
        for p, q, terms in entry:
            f = a * (a_pow[p] * b_pow[q])
            for clicks, c in terms:
                key = clicks + atoms
                out[key] = out.get(key, 0j) + f * c
    return split_by_pattern(PureState._trusted(setup._events_registry, out),
                            setup.detectors, setup.atomic_registry)


@dataclass(frozen=True)
class TrialRecord:
    """One write attempt: herald effort, analyzer result, stored state."""

    rounds_until_herald: int
    click_pattern: tuple[bool, bool, bool, bool]
    outcome: BellOutcome
    mark: PauliMark | None
    atomic_state: PureState | None
    success: bool

    def __post_init__(self):
        if self.success != (self.outcome is not BellOutcome.FAILURE):
            raise ValueError("success flag must track the outcome")
        if self.rounds_until_herald < 1:
            raise ValueError("rounds_until_herald must be >= 1")


@dataclass(frozen=True)
class WriteBranch:
    probability: float
    atomic_state: PureState  # on the two-mode atomic registry
    mark: PauliMark


def _heralded_write(
    alpha: complex, beta: complex, pc: float, setup: WriteSetup
) -> tuple[float, dict[BellOutcome, WriteBranch]]:
    """Herald probability and the single-click branches of one write, read
    off the one-photon detector patterns by :data:`WRITE_CLICK_RULE`."""
    heralded, p_herald = generate_entanglement(pc, setup)
    if heralded is None:
        raise ValueError("herald probability is zero; nothing to write")
    events = write_events(heralded, alpha, beta, setup)
    branches: dict[BellOutcome, WriteBranch] = {}
    for clicks, outcome in WRITE_CLICK_RULE.items():
        event = events.get(tuple(map(int, clicks)))  # its one-photon pattern
        if event is not None:
            branches[outcome] = WriteBranch(*event, pauli_mark(outcome))
    return p_herald, branches


def write_branches(
    alpha: complex,
    beta: complex,
    pc: float,
    setup: WriteSetup | None = None,
) -> dict[BellOutcome, WriteBranch]:
    """Exact per-outcome analysis of one heralded write.

    Returns, for each analyzer outcome, its exact probability and the
    conditional atomic state (uncorrected; the mark says what read-out must
    apply).
    """
    return _heralded_write(alpha, beta, pc, setup or build_write_setup())[1]


def event_cdf(p: np.ndarray) -> np.ndarray:
    """Normalised CDF of event probabilities ``p``: ``bisect_right(cdf.tolist(),
    u)`` on a uniform ``u`` in [0, 1) draws the index numpy's
    ``Generator.choice`` draws with ``p``, whose checks run here once per
    table."""
    p = np.asarray(p, dtype=float)
    # NaN fails both comparisons
    if not ((p >= 0.0).all() and abs(p.sum() - 1.0) <= math.sqrt(np.finfo(float).eps)):
        raise ValueError(f"event probabilities must be non-negative and sum to 1 "
                         f"(sum {float(p.sum())!r})")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _herald_rounds(u: float, p: float) -> int:
    """Rounds to the first herald at per-round probability ``p``, inverted
    from one uniform ``u`` so that ``P(rounds > k) = (1 - p)^k``: the same
    distribution as repeating the round until it heralds."""
    if p >= 1.0:  # log1p(-1) raises: the first round heralds
        return 1
    return max(1, math.ceil(math.log1p(-u) / math.log1p(-p)))


def write_memory(
    alpha: complex,
    beta: complex,
    pc: float,
    row: tuple[float, float],
    setup: WriteSetup | None = None,
) -> TrialRecord:
    """One simulated write with ideal detection, drawn from one row of two
    uniforms, such as :func:`dfsmem.trials.trial_rng`'s.

    ``u0`` gives the rounds until the one-photon herald fires (geometric in
    the exact herald probability, inverted as in a write trial), and ``u1``
    draws the analyzer outcome from the exact Born weights. The record stores
    the uncorrected atomic state plus its mark.
    """
    u0, u1 = row
    p_herald, branches = _heralded_write(alpha, beta, pc, setup or build_write_setup())
    rounds = _herald_rounds(u0, p_herald)
    outcomes = list(branches.keys())
    weights = np.array([branches[o].probability for o in outcomes])
    weights = weights / weights.sum()
    pick = outcomes[bisect_right(event_cdf(weights).tolist(), u1)]
    clicks = next(c for c, o in WRITE_CLICK_RULE.items() if o is pick)
    chosen = branches[pick]
    return TrialRecord(
        rounds_until_herald=rounds,
        click_pattern=clicks,
        outcome=pick,
        mark=chosen.mark,
        atomic_state=chosen.atomic_state,
        success=True,
    )


# ---------------------------------------------------------------------------
# read-out
# ---------------------------------------------------------------------------


class ReadSetup:
    """The read-out's output pair: the anti-Stokes H and V modes of the
    ``out`` port, and the atomic pair it reads from."""

    def __init__(self, d: int = 3):
        self.d = d
        self.atomic_registry = register_modes(
            [atomic_mode("ensemble-L"), atomic_mode("ensemble-R")], d)
        self.out_h = photon_mode("anti-stokes", "H", "out")
        self.out_v = photon_mode("anti-stokes", "V", "out")
        self.registry = register_modes([self.out_h, self.out_v], d)
        # the retrieved polarization qubit, |1> = H
        self.out_logical = LogicalQubitMap(left=self.out_h, right=self.out_v)


@lru_cache(maxsize=8)
def build_read_setup(d: int = 3) -> ReadSetup:
    return ReadSetup(d)


def read_memory(record: TrialRecord, retrieval_efficiency: float) -> MixedState:
    """Retrieve both ensembles, recombine on the PBS, apply the stored mark,
    and lose the photon with probability 1 - ``retrieval_efficiency``.

    At unit efficiency the output polarization qubit on the ``out`` port is
    alpha|V> + beta|H> for a stored alpha|0> + beta|1>; below unit efficiency
    the excitation survives with the given probability and is otherwise
    replaced by vacuum. Retrieval maps ensemble-L onto an H and ensemble-R
    onto a V anti-Stokes mode, and the recombining PBS routes those two one
    to one onto out H and out V, with unit amplitudes: the read-out is a
    relabelling of the stored pattern table onto the output pair, then
    :func:`apply_logical_pauli` and :func:`dfsmem.noise.apply_loss`. A
    stored state that is not on the write's atomic pair raises ValueError.
    """
    if not record.success:
        raise ValueError("cannot read an unsuccessful write record")
    stored = record.atomic_state
    setup = build_read_setup(stored.registry.d)
    if stored.registry != setup.atomic_registry:
        raise ValueError("the stored state is not on the write's atomic pair "
                         "(ensemble-L, ensemble-R)")
    # ensemble-L -> out H and ensemble-R -> out V keep each pattern as it is
    state = PureState._trusted(setup.registry, dict(stored.items()))
    state = apply_logical_pauli(state, record.mark, setup.out_logical)
    # Retrieval loss may act last: every mark commutes with equal loss on
    # the output pair (X swaps the two modes, Z is a sign).
    return apply_loss(state, [setup.out_h, setup.out_v], retrieval_efficiency)


def read_target(alpha: complex, beta: complex, setup: ReadSetup | None = None) -> PureState:
    """The ideal read-out photon: alpha|V> + beta|H> on the output port."""
    setup = setup or build_read_setup()
    return setup.out_logical.logical_state(setup.registry, alpha, beta)


def photon_present_probability(state: MixedState, modes: Sequence[ModeLabel]) -> float:
    """Total weight carrying at least one photon across the listed modes."""
    total = 0.0
    for w, s in state.components:
        _, p_vac = project_total_occupation(s, modes, 0)
        total += w * (1.0 - p_vac)
    return total


# ---------------------------------------------------------------------------
# remote transfer
# ---------------------------------------------------------------------------


class RemoteSetup:
    """The coincidence transfer's modes and its compiled transfer table.

    Retrieval maps each near ensemble's excitation one to one onto its
    anti-Stokes mode, as in :func:`read_memory`, so the sender and the near
    resource halves are written directly on the retrieved modes, which are
    also the detectors: D1/D2 after the (I1, L1) splitter, D3/D4 after the
    (I2, L2) one. The far pair (R1, R2) holds the other resource halves.
    """

    def __init__(self, d: int = 3):
        self.d = d
        self.p_i1 = photon_mode("anti-stokes", "H", "from-I1")
        self.p_l1 = photon_mode("anti-stokes", "H", "from-L1")
        self.p_i2 = photon_mode("anti-stokes", "H", "from-I2")
        self.p_l2 = photon_mode("anti-stokes", "H", "from-L2")
        self.r1 = atomic_mode("ensemble-R1")
        self.r2 = atomic_mode("ensemble-R2")
        self.detectors = (self.p_i1, self.p_l1, self.p_i2, self.p_l2)
        self.registry = register_modes([*self.detectors, self.r1, self.r2], d)
        self.r_registry = register_modes([self.r1, self.r2], d)
        self.r_logical = LogicalQubitMap(left=self.r1, right=self.r2)
        self._transfer = _transfer_table(self)


@lru_cache(maxsize=8)
def build_remote_setup(d: int = 3) -> RemoteSetup:
    return RemoteSetup(d)


def classify_remote_clicks(clicks: Sequence[bool]) -> tuple[bool, PauliMark | None]:
    """Coincidence rule: exactly one click on each splitter side.

    The relative sign of the transferred state flips with the click parity:
    (D1, D3) and (D2, D4) need no correction, (D1, D4) and (D2, D3) need the
    pi-phase (Z) mark.
    """
    if len(clicks) != 4:
        raise ValueError("expected four detector flags")
    left = [i for i in (0, 1) if clicks[i]]
    right = [i for i in (2, 3) if clicks[i]]
    if len(left) != 1 or len(right) != 1:
        return False, None
    parity = (left[0] % 2) ^ (right[0] % 2)
    return True, PauliMark.Z if parity else PauliMark.I


# The remote click rule: every click combination, in itertools.product
# order, with its coincidence verdict.
REMOTE_CLICK_RULE: dict[tuple[bool, ...], tuple[bool, PauliMark | None]] = {
    clicks: classify_remote_clicks(clicks) for clicks in product((False, True), repeat=4)
}


def _transfer_table(setup: RemoteSetup) -> tuple:
    """The transfer of each sender basis state, as ``((output, c_i2, c_i1),
    ...)``: the sender |i2> (the alpha term) and |i1> (the beta term), each
    with the fixed resource (|l1 r2> + |l2 r1>)/sqrt(2), written on the
    retrieved modes and lifted once through the balanced splitters of
    (I1, L1) and (I2, L2); outputs are patterns on ``setup.registry``."""
    splitters = (bs50(setup.p_i1, setup.p_l1), bs50(setup.p_i2, setup.p_l2))
    v1, v2 = (dict(apply_elements(superposition(setup.registry, [
        ({mode: 1, setup.p_l1: 1, setup.r2: 1}, 1 / math.sqrt(2)),
        ({mode: 1, setup.p_l2: 1, setup.r1: 1}, 1 / math.sqrt(2)),
    ]), splitters).items()) for mode in (setup.p_i2, setup.p_i1))
    # the outputs of |i2> in their lift order, then those only |i1> reaches
    return tuple((key, v1.get(key, 0j), v2.get(key, 0j)) for key in {**v1, **v2})


def remote_transfer(
    alpha: complex, beta: complex, setup: RemoteSetup | None = None
) -> dict[tuple[int, ...], tuple[float, PureState]]:
    """Transfer an unknown dual-rail state onto the far ensemble pair.

    The sender pair holds alpha|0> + beta|1>; the resource pairs share
    (|0>|1> + |1>|0>)/sqrt(2). Retrieval maps the sender and near-resource
    excitations one to one onto photons (a relabelling, as in
    :func:`read_memory`), which meet pairwise on two balanced splitters.

    Returns each photon pattern on the four detectors with its exact
    probability and the normalized, uncorrected far-pair state it leaves
    (on ``setup.r_registry``); :data:`REMOTE_CLICK_RULE` classifies the
    clicks. Both-photons-on-one-splitter patterns bunch (a non-resolving
    detector reports one click and no cross-side partner) and fail; the four
    one-click-per-side patterns each have exact probability 1/8 and leave
    the far pair in alpha|0> +/- beta|1>, the sign fixed by the click parity.

    The network is linear and the qubit enters only through the sender, so
    the setup lifts the two sender basis states through its two splitters
    once, when it is built (:func:`_transfer_table`), and a call sums
    ``alpha * c_i2 + beta * c_i1`` per output before splitting once per
    detector pattern. The two photons fit any truncation d >= 3; at d = 2
    their bunching overflows when the setup is built.
    """
    check_amplitude_pair(alpha, beta)
    setup = setup or build_remote_setup()
    out = {key: alpha * c1 + beta * c2 for key, c1, c2 in setup._transfer}
    return split_by_pattern(PureState._trusted(setup.registry, out),
                            setup.detectors, setup.r_registry)
