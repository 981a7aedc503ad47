"""The memory protocol: heralded entanglement, spatial encoding, Bell-state
analysis, Pauli-mark bookkeeping, read-out, and remote state transfer.

The write pipeline runs entirely on one mode registry. Two ensembles emit
number-correlated Stokes photons; quarter-wave plates, a polarization rotator
on the right arm and a polarizing beam splitter erase the which-path
information, so a lone surviving photon carries H for "left ensemble excited"
and V for "right ensemble excited". A Mach-Zehnder stage splits that photon
over two paths with the amplitudes to store, and the Bell-state analyzer
(path-combining PBS, half-wave plates, polarization-splitting PBSs) routes
each polarization-spatial Bell component to exactly one detector:

    D1 <-> (|H,b> + |V,a>)/sqrt(2)     correction I
    D2 <-> (|H,b> - |V,a>)/sqrt(2)     correction Z
    D3 <-> (|H,a> + |V,b>)/sqrt(2)     correction X
    D4 <-> (|H,a> - |V,b>)/sqrt(2)     correction ZX

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
from typing import Sequence

import numpy as np

from .fock import (
    MixedState,
    ModeLabel,
    ModeRegistry,
    OpticalElement,
    PureState,
    apply_elements,
    apply_unitary,
    atomic_mode,
    born_probabilities,
    embed_state,
    photon_mode,
    product_state,
    project_total_occupation,
    register_modes,
    split_by_pattern,
    superposition,
)
from .noise import apply_loss
from .optics import (
    bs50,
    check_amplitude_pair,
    hwp,
    mz_split,
    pbs,
    phase_shifter,
    pol_rotator,
    qwp,
    swap,
)


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
    """Apply I/Z/X/ZX on the dual-rail logical qubit; global phases are not
    tracked (the mark is classical side information)."""
    if mark in (PauliMark.X, PauliMark.ZX):  # ZX: X first, then Z
        state = apply_unitary(state, swap("logical_x", qmap.left, qmap.right))
    if mark in (PauliMark.Z, PauliMark.ZX):
        # (-1)^(n_left): sign on |1>
        state = apply_unitary(state, phase_shifter([qmap.left], [math.pi]))
    return state


# ---------------------------------------------------------------------------
# write-side setup
# ---------------------------------------------------------------------------


class WriteSetup:
    """Registry and element inventory for the write pipeline."""

    def __init__(self, d: int = 3):
        self.d = d
        self.s_l = atomic_mode("ensemble-L")
        self.s_r = atomic_mode("ensemble-R")
        spots = [
            ("Rcirc", "arm-L"), ("Lcirc", "arm-L"),
            ("Rcirc", "arm-R"), ("Lcirc", "arm-R"),
            ("H", "arm-L"), ("V", "arm-L"), ("H", "arm-R"), ("V", "arm-R"),
            ("H", "fiber"), ("V", "fiber"), ("H", "dump"), ("V", "dump"),
            ("H", "path-a"), ("V", "path-a"), ("H", "path-b"), ("V", "path-b"),
            ("H", "bsm-1"), ("V", "bsm-1"), ("H", "bsm-2"), ("V", "bsm-2"),
            ("H", "idle-1"), ("V", "idle-1"), ("H", "idle-2"), ("V", "idle-2"),
            ("H", "det-1"), ("V", "det-1"), ("H", "det-2"), ("V", "det-2"),
            ("H", "det-3"), ("V", "det-3"), ("H", "det-4"), ("V", "det-4"),
        ]
        self._photon = {key: photon_mode("stokes", *key) for key in spots}
        self.registry = register_modes(
            [self.s_l, self.s_r] + [self._photon[k] for k in spots], d
        )
        self.detectors = (
            self.photon("H", "det-1"),
            self.photon("V", "det-2"),
            self.photon("H", "det-3"),
            self.photon("V", "det-4"),
        )
        self.atomic_registry = register_modes([self.s_l, self.s_r], d)
        self.logical = LogicalQubitMap(left=self.s_l, right=self.s_r)

    def photon(self, polarization: str, spatial: str) -> ModeLabel:
        return self._photon[(polarization, spatial)]

    def output_modes(self) -> tuple[ModeLabel, ...]:
        return tuple(
            self.photon(pol, spot)
            for spot in ("fiber", "dump")
            for pol in ("H", "V")
        )

    def entangle_elements(self) -> list[OpticalElement]:
        ph = self.photon
        return [
            qwp(ph("Rcirc", "arm-L"), ph("Lcirc", "arm-L"), ph("H", "arm-L"), ph("V", "arm-L")),
            qwp(ph("Rcirc", "arm-R"), ph("Lcirc", "arm-R"), ph("H", "arm-R"), ph("V", "arm-R")),
            pol_rotator(ph("H", "arm-R"), ph("V", "arm-R")),
            pbs(
                ph("H", "arm-L"), ph("V", "arm-L"), ph("H", "arm-R"), ph("V", "arm-R"),
                ph("H", "fiber"), ph("V", "fiber"), ph("H", "dump"), ph("V", "dump"),
            ),
        ]

    def encode_elements(self, alpha: complex, beta: complex) -> list[OpticalElement]:
        ph = self.photon
        return [
            mz_split(ph("H", "fiber"), ph("H", "path-a"), ph("H", "path-b"), alpha, beta),
            mz_split(ph("V", "fiber"), ph("V", "path-a"), ph("V", "path-b"), alpha, beta),
        ]

    def bsm_elements(self) -> list[OpticalElement]:
        ph = self.photon
        return [
            pbs(
                ph("H", "path-a"), ph("V", "path-a"), ph("H", "path-b"), ph("V", "path-b"),
                ph("H", "bsm-1"), ph("V", "bsm-1"), ph("H", "bsm-2"), ph("V", "bsm-2"),
            ),
            hwp(ph("H", "bsm-1"), ph("V", "bsm-1")),
            hwp(ph("H", "bsm-2"), ph("V", "bsm-2")),
            pbs(
                ph("H", "bsm-2"), ph("V", "bsm-2"), ph("H", "idle-2"), ph("V", "idle-2"),
                ph("H", "det-1"), ph("V", "det-1"), ph("H", "det-2"), ph("V", "det-2"),
            ),
            pbs(
                ph("H", "bsm-1"), ph("V", "bsm-1"), ph("H", "idle-1"), ph("V", "idle-1"),
                ph("H", "det-3"), ph("V", "det-3"), ph("H", "det-4"), ph("V", "det-4"),
            ),
        ]


@lru_cache(maxsize=8)
def build_write_setup(d: int = 3) -> WriteSetup:
    return WriteSetup(d)


def joint_emission_state(
    pc: float, setup: WriteSetup, max_total: int = 2
) -> PureState:
    """Joint two-ensemble emission state kept through total order ``max_total``.

    Amplitude pc^((m+n)/2) on m excitations in the left pair and n in the
    right, m + n <= max_total; higher joint orders carry probability below
    pc^(max_total+1) and are outside the modeled order.
    """
    top = setup.d - 1
    p_l = setup.photon("Rcirc", "arm-L")
    p_r = setup.photon("Rcirc", "arm-R")
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
    Stokes fields pass the wave plates and interfere on the PBS. The returned
    state is the normalized component with exactly one photon across the PBS
    outputs, together with the exact probability of that component. At zero
    herald probability the state is None.
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


def encode_spatial(
    state: PureState,
    alpha: complex,
    beta: complex,
    setup: WriteSetup | None = None,
) -> PureState:
    """Split the photon over two spatial paths with amplitudes (alpha, beta).

    The split acts identically on both polarization copies; the target path
    modes must start empty.
    """
    setup = setup or build_write_setup()
    paths = [setup.photon(pol, spot) for pol in ("H", "V") for spot in ("path-a", "path-b")]
    weights = born_probabilities(state, paths)  # one pass over the support
    for k in range(len(paths)):
        if sum(w for pattern, w in weights.items() if pattern[k]) > 1e-9:
            raise ValueError("spatial target modes are not empty")
    return apply_elements(state, setup.encode_elements(alpha, beta))


def write_events(
    state: PureState, alpha: complex, beta: complex, setup: WriteSetup
) -> dict[tuple[int, ...], tuple[float, PureState]]:
    """Encode (alpha, beta) on the photon, run the analyzer, split on the
    detectors.

    Returns each detector occupation pattern with its exact probability and
    the normalized, uncorrected atomic state it leaves behind. Fed the
    heralded state this is the heralded write; fed :func:`entangled_state`
    it is the raw per-round event table.
    """
    analyzed = apply_elements(encode_spatial(state, alpha, beta, setup), setup.bsm_elements())
    return split_by_pattern(analyzed, setup.detectors, setup.atomic_registry)


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
    """Registry and elements for retrieval and recombination."""

    def __init__(self, d: int = 3):
        self.d = d
        self.s_l = atomic_mode("ensemble-L")
        self.s_r = atomic_mode("ensemble-R")
        spots = [
            ("H", "read-L"), ("V", "read-L"), ("H", "read-R"), ("V", "read-R"),
            ("H", "out"), ("V", "out"), ("H", "spill"), ("V", "spill"),
        ]
        self._photon = {key: photon_mode("anti-stokes", *key) for key in spots}
        self.registry = register_modes(
            [self.s_l, self.s_r] + [self._photon[k] for k in spots], d
        )
        self.out_h = self.photon("H", "out")
        self.out_v = self.photon("V", "out")
        # the retrieved polarization qubit, |1> = H
        self.out_logical = LogicalQubitMap(left=self.out_h, right=self.out_v)

    def photon(self, polarization: str, spatial: str) -> ModeLabel:
        return self._photon[(polarization, spatial)]

    def recombine(self) -> OpticalElement:
        ph = self.photon
        return pbs(
            ph("H", "read-L"), ph("V", "read-L"), ph("H", "read-R"), ph("V", "read-R"),
            ph("H", "out"), ph("V", "out"), ph("H", "spill"), ph("V", "spill"),
        )

    def read_elements(self) -> list[OpticalElement]:
        """Lossless retrieval of both ensembles, then the recombining PBS."""
        return [
            swap("retrieval_swap", self.s_l, self.photon("H", "read-L")),
            swap("retrieval_swap", self.s_r, self.photon("V", "read-R")),
            self.recombine(),
        ]


@lru_cache(maxsize=8)
def build_read_setup(d: int = 3) -> ReadSetup:
    return ReadSetup(d)


def read_memory(record: TrialRecord, retrieval_efficiency: float) -> MixedState:
    """Retrieve both ensembles, recombine on the PBS, apply the stored mark,
    and lose the photon with probability 1 - ``retrieval_efficiency``.

    At unit efficiency the output polarization qubit on the ``out`` port is
    alpha|V> + beta|H> for a stored alpha|0> + beta|1>; below unit efficiency
    the excitation survives with the given probability and is otherwise
    replaced by vacuum. The state is lifted through
    :meth:`ReadSetup.read_elements` once and traced once by
    :func:`dfsmem.noise.apply_loss`.
    """
    if not record.success:
        raise ValueError("cannot read an unsuccessful write record")
    setup = build_read_setup(record.atomic_state.registry.d)
    state = apply_elements(
        embed_state(record.atomic_state, setup.registry), setup.read_elements()
    )
    state = apply_logical_pauli(state, record.mark, setup.out_logical)
    # Retrieval loss may act last: the PBS maps read-L H and read-R V one to
    # one onto out H and out V, and every mark commutes with equal loss on
    # that pair (X swaps the two modes, Z is a phase).
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
    """Registry and elements for the two-splitter coincidence transfer."""

    def __init__(self, d: int = 3):
        self.d = d
        self.i1 = atomic_mode("ensemble-I1")
        self.i2 = atomic_mode("ensemble-I2")
        self.l1 = atomic_mode("ensemble-L1")
        self.l2 = atomic_mode("ensemble-L2")
        self.r1 = atomic_mode("ensemble-R1")
        self.r2 = atomic_mode("ensemble-R2")
        self.p_i1 = photon_mode("anti-stokes", "H", "from-I1")
        self.p_l1 = photon_mode("anti-stokes", "H", "from-L1")
        self.p_i2 = photon_mode("anti-stokes", "H", "from-I2")
        self.p_l2 = photon_mode("anti-stokes", "H", "from-L2")
        self.registry = register_modes(
            [self.i1, self.i2, self.l1, self.l2, self.r1, self.r2,
             self.p_i1, self.p_l1, self.p_i2, self.p_l2],
            d,
        )
        # detectors sit on the splitter outputs: D1/D2 after the (I1, L1)
        # splitter, D3/D4 after the (I2, L2) one
        self.detectors = (self.p_i1, self.p_l1, self.p_i2, self.p_l2)
        self.r_registry = register_modes([self.r1, self.r2], d)
        self.r_logical = LogicalQubitMap(left=self.r1, right=self.r2)

    def transfer_elements(self) -> list[OpticalElement]:
        """Lossless retrieval of the four near ensembles, then the two
        balanced splitters."""
        return [
            swap("retrieval_swap", self.i1, self.p_i1),
            swap("retrieval_swap", self.l1, self.p_l1),
            swap("retrieval_swap", self.i2, self.p_i2),
            swap("retrieval_swap", self.l2, self.p_l2),
            bs50(self.p_i1, self.p_l1),
            bs50(self.p_i2, self.p_l2),
        ]


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


def remote_transfer(
    alpha: complex, beta: complex, setup: RemoteSetup | None = None
) -> dict[tuple[int, ...], tuple[float, PureState]]:
    """Transfer an unknown dual-rail state onto the far ensemble pair.

    The sender pair holds alpha|0> + beta|1>; the resource pairs share
    (|0>|1> + |1>|0>)/sqrt(2). Retrieval converts the sender and near-resource
    excitations to photons, which meet pairwise on two balanced splitters.

    Returns each photon pattern on the four detectors with its exact
    probability and the normalized, uncorrected far-pair state it leaves
    (on ``setup.r_registry``); :data:`REMOTE_CLICK_RULE` classifies the
    clicks. Both-photons-on-one-splitter patterns bunch (a non-resolving
    detector reports one click and no cross-side partner) and fail; the four
    one-click-per-side patterns each have exact probability 1/8 and leave
    the far pair in alpha|0> +/- beta|1>, the sign fixed by the click parity.
    """
    check_amplitude_pair(alpha, beta)
    setup = setup or build_remote_setup()
    sender = superposition(setup.registry, [({setup.i2: 1}, alpha), ({setup.i1: 1}, beta)])
    resource = superposition(setup.registry, [
        ({setup.l1: 1, setup.r2: 1}, 1 / math.sqrt(2)),
        ({setup.l2: 1, setup.r1: 1}, 1 / math.sqrt(2)),
    ])
    state = apply_elements(product_state(sender, resource), setup.transfer_elements())
    return split_by_pattern(state, setup.detectors, setup.r_registry)
