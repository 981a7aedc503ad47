"""Independent dense reference for checking the sparse Fock-space lift.

Matrix elements of the lifted unitary are computed from matrix permanents,
<m|U|n> = per(U[m;n]) / sqrt(prod m_i! prod n_j!), where U[m;n] repeats row i
m_i times and column j n_j times. This shares no code path with the
monomial-expansion implementation it cross-checks. ``compose`` and
``permanent_event_table`` apply the same rule to a whole experiment: its
elements multiplied into one single-particle matrix, and every output
amplitude summed from permanents, grouped by detector pattern.
``coupler_loss`` and ``permanent_loss`` are the two references for the
closed-form loss channel: ``loss_coupler`` beam splitters into vacuum
sinks, traced out through the sparse lift or through permanents. The
lifted eraser is the reference for ``protocol.entangled_state``, which
emits where the wave plates and the rotator leave the photons:
``eraser_registry`` (the write setup's modes plus the four circular arm
modes), ``circular_emission`` (the emission on the circular modes),
``eraser_elements`` (a quarter-wave plate ``qwp`` per arm, the rotator
``pol_rotator`` on arm R, the PBS) and ``lifted_eraser`` (the emission
lifted through them, restricted onto the setup's registry). The lifted
write is the reference for the compiled write table of
``protocol.write_events``: ``write_registry`` (the eraser's modes plus the
encoder's path modes and the analyzer's bsm, idle and detector modes),
the encoder (``mz_split``, one per polarization in ``encode_elements``,
applied by ``encode_spatial``) and the analyzer (``bsm_elements``, with its
half-wave plates ``hwp``); ``stokes`` labels their modes. The module also
holds the one-mode references ``apply_creation`` (bosonic raising) and
``project_occupation`` (one-mode projection) that the lift and
``split_by_pattern`` are checked against, ``born_probabilities`` (the
marginal probability of each occupation pattern on a set of modes),
``reference_split`` (the split as a normalize, then a ``restrict_state``
onto the kept modes), which ``split_by_pattern`` must equal exactly, and
the state builders
``basis_state`` and ``product_state``; the package itself needs none of
these. The lifted read-out is the reference for the closed-form marks and
read-out of ``protocol``: ``phase_shifter`` and ``lifted_logical_pauli``
(the X mark as a ``logical_x`` swap, the Z mark as a pi phase), and
``lifted_read`` (the stored state embedded by ``embed_state`` on the
retrieval registry of ``read_network``, the retrieval swaps and the
recombining PBS lifted, then the mark and ``noise.apply_loss``). The
lifted remote network is the reference for the compiled transfer table of
``protocol.remote_transfer``: ``remote_network`` (the four near ensembles,
their retrieval swaps and the two splitters), ``remote_input`` (sender
times resource on it) and ``lifted_transfer`` (the two sender basis states
lifted through it, weighted by the qubit and split on the detectors).
"""

import cmath
import itertools
import math

import numpy as np


def permanent(mat: np.ndarray) -> complex:
    n = mat.shape[0]
    if n == 0:
        return 1.0 + 0j
    if n == 1:
        return complex(mat[0, 0])
    total = 0j
    for j in range(n):
        if mat[0, j] == 0:
            continue
        minor = np.delete(np.delete(mat, 0, axis=0), j, axis=1)
        total += mat[0, j] * permanent(minor)
    return total


def lift_element(u: np.ndarray, out_pat, in_pat) -> complex:
    """<out|lift(u)|in> for occupation tuples over the acted modes."""
    if sum(out_pat) != sum(in_pat):
        return 0j
    if sum(in_pat) == 0:
        return 1.0 + 0j
    rows = [i for i, m in enumerate(out_pat) for _ in range(m)]
    cols = [j for j, n in enumerate(in_pat) for _ in range(n)]
    sub = u[np.ix_(rows, cols)]
    norm = math.sqrt(
        math.prod(math.factorial(m) for m in out_pat)
        * math.prod(math.factorial(n) for n in in_pat)
    )
    return permanent(sub) / norm


def dense_apply(state, element) -> dict:
    """Apply an element through the permanent-based dense lift.

    Groups the sparse amplitudes by spectator pattern, enumerates every
    candidate output pattern in the photon-number sectors present, and sums
    lift matrix elements. Returns pattern -> amplitude.
    """
    reg = state.registry
    acted = [reg.index(m) for m in element.modes]
    acted_set = set(acted)
    spectators = [i for i in range(len(reg)) if i not in acted_set]
    groups: dict[tuple, dict[tuple, complex]] = {}
    for pattern, amp in state.items():
        local = tuple(pattern[i] for i in acted)
        spect = tuple(pattern[i] for i in spectators)
        grp = groups.setdefault(spect, {})
        grp[local] = grp.get(local, 0j) + amp
    d = reg.d
    k = len(acted)
    out: dict[tuple, complex] = {}
    for spect, vec in groups.items():
        totals = {sum(p) for p in vec}
        for total in totals:
            ins = [p for p in vec if sum(p) == total]
            for cand in itertools.product(range(d), repeat=k):
                if sum(cand) != total:
                    continue
                amp = sum(lift_element(element.matrix, cand, p) * vec[p] for p in ins)
                if abs(amp) < 1e-16:
                    continue
                full = [0] * len(reg)
                for pos, o in zip(acted, cand):
                    full[pos] = o
                for pos, o in zip(spectators, spect):
                    full[pos] = o
                key = tuple(full)
                out[key] = out.get(key, 0j) + amp
    return {p: a for p, a in out.items() if abs(a) > 1e-16}


def compose(registry, elements) -> np.ndarray:
    """The single-particle matrix of ``elements`` applied in order, over
    every mode of ``registry``."""
    n = len(registry)
    u = np.eye(n, dtype=complex)
    for el in elements:
        idx = [registry.index(m) for m in el.modes]
        step = np.eye(n, dtype=complex)
        step[np.ix_(idx, idx)] = el.matrix
        u = step @ u
    return u


def permanent_event_table(state, u: np.ndarray, detectors, keep) -> dict:
    """Exact detector events of ``state`` sent through the single-particle
    matrix ``u``: {detector pattern: (probability, {pattern on ``keep``:
    normalized amplitude})}, the shape of ``protocol.write_events``.

    Every output amplitude is sum_in a_in per(u[rows, cols]) /
    sqrt(prod n! prod m!) (:func:`lift_element`); modes on which ``u`` is
    the identity (the atoms) ride along as spectators. Amplitudes at or
    below 1e-15 are dropped, as the sparse states drop them.
    """
    reg = state.registry
    n = len(reg)
    eye = np.eye(n)
    moving = [i for i in range(n) if (u[:, i] != eye[:, i]).any() or (u[i] != eye[i]).any()]
    sub = u[np.ix_(moving, moving)]
    out: dict[tuple, complex] = {}
    for pattern, a in state.items():
        occ = tuple(pattern[i] for i in moving)
        reachable = [r for r in range(len(moving))
                     if any(sub[r, c] != 0 for c, m in enumerate(occ) if m)]
        for rows in itertools.combinations_with_replacement(reachable, sum(occ)):
            local = [0] * len(moving)
            for r in rows:
                local[r] += 1
            full = list(pattern)
            for i, m in zip(moving, local):
                full[i] = m
            key = tuple(full)
            out[key] = out.get(key, 0j) + a * lift_element(sub, local, occ)
    det_idx = [reg.index(m) for m in detectors]
    keep_idx = [reg.index(m) for m in keep.labels]
    groups: dict[tuple, dict[tuple, complex]] = {}
    for pattern, amp in out.items():
        if abs(amp) <= 1e-15:
            continue
        group = groups.setdefault(tuple(pattern[i] for i in det_idx), {})
        kept = tuple(pattern[i] for i in keep_idx)
        if kept in group:
            raise ValueError("the kept modes do not determine the output pattern")
        group[kept] = amp
    table = {}
    for det, group in groups.items():
        prob = sum(abs(amp) ** 2 for amp in group.values())
        table[det] = (prob, {k: amp / math.sqrt(prob) for k, amp in group.items()})
    return table


def basis_state(registry, occupations):
    """Occupation eigenstate with the given per-mode counts (zero elsewhere)."""
    from dfsmem.fock import PureState

    pattern = [0] * len(registry)
    for label, n in occupations.items():
        pattern[registry.index(label)] = n
    return PureState(registry, {tuple(pattern): 1.0})


def product_state(a, b):
    """Merge two states on the same registry that excite disjoint mode sets."""
    from dfsmem.fock import PureState

    if a.registry != b.registry:
        raise ValueError("states live on different registries")
    n = len(a.registry)
    a_max = [0] * n
    for p in a.support():
        for i, o in enumerate(p):
            a_max[i] = max(a_max[i], o)
    b_max = [0] * n
    for p in b.support():
        for i, o in enumerate(p):
            b_max[i] = max(b_max[i], o)
    for i in range(n):
        if a_max[i] and b_max[i]:
            raise ValueError(
                f"both factors excite mode {a.registry.labels[i]}; product is ambiguous"
            )
    out: dict[tuple[int, ...], complex] = {}
    for pa, va in a.items():
        for pb, vb in b.items():
            key = tuple(x + y for x, y in zip(pa, pb))
            out[key] = out.get(key, 0j) + va * vb
    return PureState(a.registry, out)


def stokes(polarization: str, spatial: str):
    """A Stokes photon mode of the write, labelled as ``protocol.WriteSetup``
    labels its own."""
    from dfsmem.fock import photon_mode

    return photon_mode("stokes", polarization, spatial)


def qwp(in_rcirc, in_lcirc, out_h, out_v):
    """Quarter-wave plate as a relabeling: Rcirc -> H, Lcirc -> V.

    The reverse routes (H -> Rcirc, V -> Lcirc) complete the permutation and
    never matter because the linear-polarization ports start empty.
    """
    from dfsmem.fock import OpticalElement

    m = np.zeros((4, 4))
    m[2, 0] = 1.0  # Rcirc -> H
    m[3, 1] = 1.0  # Lcirc -> V
    m[0, 2] = 1.0
    m[1, 3] = 1.0
    return OpticalElement("qwp", (in_rcirc, in_lcirc, out_h, out_v), m)


def pol_rotator(mode_h, mode_v):
    """90-degree polarization rotator: swaps the H and V amplitudes."""
    from dfsmem.fock import OpticalElement

    return OpticalElement("pol_rotator", (mode_h, mode_v), np.array([[0.0, 1.0], [1.0, 0.0]]))


# the circular arm modes the emission leaves before the wave plates, which
# protocol.WriteSetup does not register: it emits where the rotator leaves it
_CIRCULAR = (("Rcirc", "arm-L"), ("Lcirc", "arm-L"), ("Rcirc", "arm-R"), ("Lcirc", "arm-R"))


def eraser_registry(d: int):
    """The registry of the lifted eraser: ``protocol.WriteSetup(d)``'s two
    ensembles, the circular modes of both arms, then the setup's photon
    modes (the ports of the PBS)."""
    from dfsmem.fock import register_modes
    from dfsmem.protocol import build_write_setup

    labels = build_write_setup(d).registry.labels
    return register_modes([*labels[:2], *(stokes(*key) for key in _CIRCULAR), *labels[2:]], d)


def circular_emission(pc: float, d: int, max_total: int = 2):
    """The write's emission on :func:`eraser_registry`, before the eraser:
    amplitude pc^((m+n)/2) on m pairs of ensemble L with Rcirc@arm-L and n
    pairs of ensemble R with Rcirc@arm-R, m + n <= max_total, normalized."""
    from dfsmem.fock import atomic_mode, superposition

    s_l, s_r = atomic_mode("ensemble-L"), atomic_mode("ensemble-R")
    p_l, p_r = stokes("Rcirc", "arm-L"), stokes("Rcirc", "arm-R")
    terms = [({s_l: m, p_l: m, s_r: n, p_r: n}, pc ** ((m + n) / 2.0))
             for m in range(max_total + 1) for n in range(max_total + 1 - m)]
    return superposition(eraser_registry(d), terms).normalize()


def eraser_elements() -> list:
    """The which-path eraser as lifted elements on :func:`eraser_registry`:
    a ``qwp`` per arm (Rcirc -> H), the ``pol_rotator`` on arm R (H <-> V),
    and the PBS from the arms onto the fiber and the dump."""
    from dfsmem.optics import pbs

    plates = [qwp(stokes("Rcirc", arm), stokes("Lcirc", arm), stokes("H", arm), stokes("V", arm))
              for arm in ("arm-L", "arm-R")]
    return [*plates, pol_rotator(stokes("H", "arm-R"), stokes("V", "arm-R")),
            pbs(*(stokes(pol, spot) for spot in ("arm-L", "arm-R", "fiber", "dump")
                  for pol in ("H", "V")))]


def lifted_eraser(pc: float, d: int):
    """``protocol.entangled_state`` through the lift: :func:`circular_emission`
    sent through :func:`eraser_elements` and restricted onto
    ``protocol.WriteSetup(d)``'s registry, which holds every mode but the
    circular ones, empty once the wave plates have acted."""
    from dfsmem.fock import apply_elements
    from dfsmem.protocol import build_write_setup

    lifted = apply_elements(circular_emission(pc, d), eraser_elements())
    return restrict_state(lifted, build_write_setup(d).registry)


# the encoder's and the analyzer's modes, which protocol.WriteSetup does not
# register: the write table goes from the fiber straight to the click modes
_ANALYZER_SPOTS = ("path-a", "path-b", "bsm-1", "bsm-2", "idle-1", "idle-2",
                   "det-1", "det-2", "det-3", "det-4")


def write_registry(d: int):
    """The registry of the lifted write: :func:`eraser_registry`'s modes,
    then the H and V modes of path-a, path-b, bsm-1, bsm-2, idle-1, idle-2
    and det-1..det-4. A write state moves onto it by :func:`embed_state`."""
    from dfsmem.fock import register_modes

    return register_modes([*eraser_registry(d).labels,
                           *(stokes(pol, spot) for spot in _ANALYZER_SPOTS
                             for pol in ("H", "V"))], d)


def hwp(mode_h, mode_v):
    """Half-wave plate at 22.5 degrees: Hadamard on the polarization pair."""
    from dfsmem.fock import OpticalElement

    m = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    return OpticalElement("hwp", (mode_h, mode_v), m)


def bsm_elements() -> list:
    """The Bell-state analyzer as optical elements on :func:`write_registry`:
    a PBS combines path-a and path-b onto bsm-1/bsm-2, a half-wave plate
    acts on each, and a PBS per port splits it by polarization onto the
    detector modes; the click modes are H@det-1, V@det-2, H@det-3 and
    V@det-4, ``protocol.WriteSetup.detectors``."""
    from dfsmem.optics import pbs

    def ports(*spots):
        return [stokes(pol, spot) for spot in spots for pol in ("H", "V")]

    return [
        pbs(*ports("path-a", "path-b", "bsm-1", "bsm-2")),
        hwp(stokes("H", "bsm-1"), stokes("V", "bsm-1")),
        hwp(stokes("H", "bsm-2"), stokes("V", "bsm-2")),
        pbs(*ports("bsm-2", "idle-2", "det-1", "det-2")),
        pbs(*ports("bsm-1", "idle-1", "det-3", "det-4")),
    ]


def mz_split(in_mode, out_a, out_b, alpha: complex, beta: complex):
    """Mach-Zehnder spatial splitter: in -> alpha*out_a + beta*out_b.

    (alpha, beta) must be normalized; one copy per polarization makes the
    split polarization independent. The unitary is completed with the
    (-conj(beta), conj(alpha)) second column, and the third column routes
    out_b's empty port back to the input.
    """
    from dfsmem.fock import OpticalElement
    from dfsmem.optics import check_amplitude_pair

    check_amplitude_pair(alpha, beta)
    m = np.zeros((3, 3), dtype=complex)
    m[1, 0] = alpha
    m[2, 0] = beta
    m[1, 1] = -np.conj(beta)
    m[2, 1] = np.conj(alpha)
    m[0, 2] = 1.0
    return OpticalElement("mz_split", (in_mode, out_a, out_b), m)


def encode_elements(alpha: complex, beta: complex) -> list:
    """The write's encoder on :func:`write_registry`: one ``mz_split`` from
    the fiber onto path-a/path-b per polarization."""
    return [
        mz_split(stokes(pol, "fiber"), stokes(pol, "path-a"), stokes(pol, "path-b"),
                 alpha, beta)
        for pol in ("H", "V")
    ]


def encode_spatial(state, alpha: complex, beta: complex):
    """Split the photon of a state on :func:`write_registry` over two
    spatial paths with amplitudes (alpha, beta) by lifting
    :func:`encode_elements`. The target path modes must start empty: a
    path weight above 1e-9 raises."""
    from dfsmem.fock import apply_elements

    paths = [stokes(pol, spot) for pol in ("H", "V") for spot in ("path-a", "path-b")]
    weights = born_probabilities(state, paths)
    for k in range(len(paths)):
        if sum(w for pattern, w in weights.items() if pattern[k]) > 1e-9:
            raise ValueError("spatial target modes are not empty")
    return apply_elements(state, encode_elements(alpha, beta))


def loss_coupler(mode, sink, survival: float):
    """Beam splitter of transmissivity sqrt(survival) from ``mode`` into a
    vacuum ``sink``; tracing the sink out leaves the lossy channel that
    ``noise.apply_loss`` computes in closed form."""
    from dfsmem.fock import OpticalElement

    if not 0.0 <= survival <= 1.0:
        raise ValueError(f"survival {survival} outside [0, 1]")
    t = math.sqrt(survival)
    r = math.sqrt(1.0 - survival)
    return OpticalElement("loss_coupler", (mode, sink), np.array([[t, -r], [r, t]]))


def _loss_network(state, modes, survival):
    """The loss channel as a network: one vacuum sink per listed mode, the
    state embedded on the registry enlarged by the sinks, and one
    ``loss_coupler`` from each mode into its sink."""
    from dfsmem.fock import photon_mode, register_modes

    registry = state.registry
    sinks = [photon_mode("loss-sink", "H", f"of-{registry.index(m)}") for m in modes]
    big = register_modes(list(registry.labels) + sinks, registry.d)
    couplers = [loss_coupler(m, sink, survival) for m, sink in zip(modes, sinks)]
    return embed_state(state, big), sinks, couplers


def coupler_loss(state, modes, survival) -> list:
    """Reference loss channel through the sparse lift: the couplers of
    :func:`_loss_network` applied with ``apply_elements``, and the sinks
    traced out by ``split_by_pattern``. [(sink pattern, weight, {pattern on
    the input registry: normalized amplitude})], in sorted sink order."""
    from dfsmem.fock import apply_elements, split_by_pattern

    big, sinks, couplers = _loss_network(state, modes, survival)
    events = split_by_pattern(apply_elements(big, couplers), sinks, state.registry)
    return [(k, w, dict(s.items())) for k, (w, s) in sorted(events.items())]


def permanent_loss(state, modes, survival) -> list:
    """Reference loss channel from permanents: the couplers composed into
    one single-particle matrix and sent through :func:`permanent_event_table`
    with the sinks as its detectors; the shape of :func:`coupler_loss`."""
    big, sinks, couplers = _loss_network(state, modes, survival)
    table = permanent_event_table(big, compose(big.registry, couplers), sinks, state.registry)
    return [(k, w, amps) for k, (w, amps) in sorted(table.items())]


def embed_state(state, registry):
    """Extend a state onto a larger registry, new modes in vacuum. A mode of
    the state that ``registry`` does not hold, or another truncation,
    raises ValueError."""
    from dfsmem.fock import PureState

    src = state.registry
    if registry.d != src.d:
        raise ValueError("registries disagree on truncation")
    pos = [registry.index(lab) for lab in src.labels]
    out: dict[tuple[int, ...], complex] = {}
    for pattern, a in state.items():
        new = [0] * len(registry)
        for p, o in zip(pos, pattern):
            new[p] = o
        out[tuple(new)] = a
    return PureState(registry, out)


def restrictor(src, registry):
    """:func:`restrict_state` from registry ``src`` onto ``registry`` as a
    function of the state, with the mode positions worked out once."""
    from dfsmem.fock import PureState

    if registry.d != src.d:
        raise ValueError("registries disagree on truncation")
    keep_idx = [src.index(lab) for lab in registry.labels]
    kept = set(keep_idx)
    drop_idx = [i for i in range(len(src)) if i not in kept]

    def restrict(state):
        drop_ref = None
        out: dict[tuple[int, ...], complex] = {}
        for pattern, a in state.items():
            dropped = tuple(pattern[i] for i in drop_idx)
            if drop_ref is None:
                drop_ref = dropped
            elif dropped != drop_ref:
                raise ValueError("state does not factorize against the dropped modes")
            out[tuple(pattern[i] for i in keep_idx)] = a
        return PureState._trusted(registry, out)

    return restrict


def restrict_state(state, registry):
    """Drop modes not present in the target registry.

    Valid only when the dropped modes carry the same occupations in every
    support pattern (i.e. the state factorizes against them); raises
    otherwise since dropping would not be a pure-state operation.
    """
    return restrictor(state.registry, registry)(state)


def reference_split(state, modes, keep) -> dict:
    """``fock.split_by_pattern`` in two steps: group the amplitudes by their
    pattern on ``modes``, summing each pattern's probability, then
    normalize each group with ``PureState.normalize`` and restrict it onto
    ``keep`` with :func:`restrict_state`."""
    from dfsmem.fock import PureState

    reg = state.registry
    idx = [reg.index(m) for m in modes]
    probs: dict[tuple[int, ...], float] = {}
    groups: dict[tuple[int, ...], dict[tuple[int, ...], complex]] = {}
    for pattern, a in state.items():
        key = tuple(pattern[i] for i in idx)
        probs[key] = probs.get(key, 0.0) + (a.real * a.real + a.imag * a.imag)
        groups.setdefault(key, {})[pattern] = a
    if not groups:
        return {}
    restrict = restrictor(reg, keep)
    return {
        key: (probs[key], restrict(PureState._trusted(reg, amp).normalize()))
        for key, amp in groups.items()
    }


def swap(name: str, mode_a, mode_b):
    """Exchange the contents of two modes, named for the step it models."""
    from dfsmem.fock import OpticalElement

    return OpticalElement(name, (mode_a, mode_b), np.array([[0.0, 1.0], [1.0, 0.0]]))


def phase_shifter(modes, phases):
    """Diagonal element exp(i*phi_k) on each listed mode."""
    from dfsmem.fock import OpticalElement

    if len(modes) != len(phases):
        raise ValueError("one phase per mode required")
    m = np.diag([cmath.exp(1j * p) for p in phases])
    return OpticalElement("phase_shifter", tuple(modes), m)


def lifted_logical_pauli(state, mark, qmap):
    """The dual-rail mark through the Fock lift: X as the ``logical_x`` swap
    of the two rails, then Z as a pi phase on the left rail. exp(i pi)
    carries an imaginary part of 1.2e-16, so the lifted Z is -1 only to
    that accuracy."""
    from dfsmem.fock import apply_unitary
    from dfsmem.protocol import PauliMark

    if mark in (PauliMark.X, PauliMark.ZX):
        state = apply_unitary(state, swap("logical_x", qmap.left, qmap.right))
    if mark in (PauliMark.Z, PauliMark.ZX):
        state = apply_unitary(state, phase_shifter([qmap.left], [math.pi]))
    return state


def read_network(d: int):
    """The read-out as an optical network: (registry, elements, out H, out
    V). Both ensembles are swapped onto anti-Stokes modes (ensemble-L onto
    H@read-L, ensemble-R onto V@read-R), and a PBS recombines read-L and
    read-R onto the ``out`` port, its other port ``spill``."""
    from dfsmem.fock import atomic_mode, photon_mode, register_modes
    from dfsmem.optics import pbs

    s_l, s_r = atomic_mode("ensemble-L"), atomic_mode("ensemble-R")
    ph = {(pol, spot): photon_mode("anti-stokes", pol, spot)
          for spot in ("read-L", "read-R", "out", "spill") for pol in ("H", "V")}
    registry = register_modes([s_l, s_r, *ph.values()], d)
    elements = [
        swap("retrieval_swap", s_l, ph["H", "read-L"]),
        swap("retrieval_swap", s_r, ph["V", "read-R"]),
        pbs(*(ph[pol, spot] for spot in ("read-L", "read-R", "out", "spill")
              for pol in ("H", "V"))),
    ]
    return registry, elements, ph["H", "out"], ph["V", "out"]


def lifted_read(record, efficiency: float):
    """``protocol.read_memory`` through the Fock lift: the stored state
    embedded on :func:`read_network`'s registry, the network lifted, the
    mark applied by :func:`lifted_logical_pauli` on the output pair, and
    the loss of ``noise.apply_loss``; each mixture component is returned
    restricted to the output pair, where ``read_memory`` leaves it."""
    from dfsmem.fock import MixedState, apply_elements, register_modes
    from dfsmem.noise import apply_loss
    from dfsmem.protocol import LogicalQubitMap

    registry, elements, out_h, out_v = read_network(record.atomic_state.registry.d)
    state = apply_elements(embed_state(record.atomic_state, registry), elements)
    state = lifted_logical_pauli(state, record.mark, LogicalQubitMap(left=out_h, right=out_v))
    pair = register_modes([out_h, out_v], registry.d)
    mixed = apply_loss(state, [out_h, out_v], efficiency)
    return MixedState(tuple((w, restrict_state(s, pair)) for w, s in mixed.components))


def remote_network(d: int):
    """The remote transfer as an optical network: (registry, elements,
    sender modes (I2, I1), resource pairs ((L1, R2), (L2, R1))). The four
    near ensembles are swapped onto the retrieved anti-Stokes modes that
    are ``protocol.RemoteSetup``'s detectors, and a balanced splitter mixes
    the (I1, L1) and the (I2, L2) photons; the far pair is that setup's."""
    from dfsmem.fock import atomic_mode, register_modes
    from dfsmem.optics import bs50
    from dfsmem.protocol import build_remote_setup

    setup = build_remote_setup(d)
    i1, i2, l1, l2 = (atomic_mode(f"ensemble-{n}") for n in ("I1", "I2", "L1", "L2"))
    registry = register_modes([i1, i2, l1, l2, setup.r1, setup.r2, *setup.detectors], d)
    elements = [
        swap("retrieval_swap", i1, setup.p_i1),
        swap("retrieval_swap", l1, setup.p_l1),
        swap("retrieval_swap", i2, setup.p_i2),
        swap("retrieval_swap", l2, setup.p_l2),
        bs50(setup.p_i1, setup.p_l1),
        bs50(setup.p_i2, setup.p_l2),
    ]
    return registry, elements, (i2, i1), ((l1, setup.r2), (l2, setup.r1))


def remote_input(d: int, alpha, beta):
    """The remote transfer's input on :func:`remote_network`'s registry: the
    sender alpha|I2> + beta|I1> times the resource (|L1 R2> + |L2 R1>)/sqrt(2)."""
    from dfsmem.fock import superposition

    registry, _, (i2, i1), resource = remote_network(d)
    sender = superposition(registry, [({i2: 1}, alpha), ({i1: 1}, beta)])
    pairs = superposition(registry, [({near: 1, far: 1}, 1 / math.sqrt(2))
                                     for near, far in resource])
    return product_state(sender, pairs)


def lifted_transfer(alpha, beta, d: int) -> dict:
    """``protocol.remote_transfer`` through :func:`remote_network`: each
    sender basis state with the resource lifted through the whole network
    and restricted onto the detectors and the far pair, ``alpha * c_I2 +
    beta * c_I1`` per output in the order the outputs first occur, and that
    split on the detectors by :func:`reference_split`."""
    from dfsmem.fock import PureState, apply_elements
    from dfsmem.protocol import build_remote_setup

    setup = build_remote_setup(d)
    registry, elements, _, _ = remote_network(d)
    restrict = restrictor(registry, setup.registry)
    c_i2, c_i1 = (dict(restrict(apply_elements(remote_input(d, *basis), elements)).items())
                  for basis in ((1.0, 0.0), (0.0, 1.0)))
    out = {key: alpha * c_i2.get(key, 0j) + beta * c_i1.get(key, 0j)
           for key in {**c_i2, **c_i1}}
    return reference_split(PureState._trusted(setup.registry, out),
                           setup.detectors, setup.r_registry)


def apply_creation(state, mode):
    """Bosonic raising on one mode: |n> -> sqrt(n+1) |n+1>.

    The result is not renormalized. Raising past the truncation raises
    :class:`TruncationOverflowError` carrying the squared amplitude that
    would be lost.
    """
    from dfsmem.fock import OVERFLOW_TOL, PureState, TruncationOverflowError

    reg = state.registry
    i = reg.index(mode)
    out: dict[tuple[int, ...], complex] = {}
    lost = 0.0
    for pattern, a in state.items():
        n = pattern[i]
        if n + 1 >= reg.d:
            lost += (n + 1) * (a.real * a.real + a.imag * a.imag)
            continue
        new = pattern[:i] + (n + 1,) + pattern[i + 1:]
        out[new] = out.get(new, 0j) + a * math.sqrt(n + 1)
    if lost > OVERFLOW_TOL:
        raise TruncationOverflowError(
            f"creation on {mode} overflows truncation d={reg.d}", lost
        )
    return PureState(reg, out)


def project_occupation(state, mode, n: int):
    """Component with occupation n on one mode, plus its probability.

    The component is returned unnormalized; renormalization is the caller's
    choice. Probability is the squared norm of the component relative to the
    input's squared norm being 1.
    """
    from dfsmem.fock import PureState

    reg = state.registry
    if n < 0 or n >= reg.d:
        raise ValueError(f"occupation {n} outside 0..{reg.d - 1}")
    i = reg.index(mode)
    kept = {p: a for p, a in state.items() if p[i] == n}
    prob = sum(a.real * a.real + a.imag * a.imag for a in kept.values())
    return PureState(reg, kept), prob


def born_probabilities(state, modes) -> dict:
    """Exact marginal probability of each joint occupation pattern on modes."""
    reg = state.registry
    idx = [reg.index(m) for m in modes]
    probs = {}
    for pattern, a in state.items():
        key = tuple(pattern[i] for i in idx)
        probs[key] = probs.get(key, 0.0) + (a.real * a.real + a.imag * a.imag)
    return probs


def max_amplitude_diff(sparse_state, dense_table: dict) -> float:
    keys = set(sparse_state.support()) | set(dense_table.keys())
    return max(
        (abs(sparse_state.amplitude(kk) - dense_table.get(kk, 0j)) for kk in keys),
        default=0.0,
    )


def sparse_vs_dense(state, element) -> float:
    """Max amplitude deviation between the two lift implementations."""
    from dfsmem.fock import apply_unitary

    return max_amplitude_diff(apply_unitary(state, element), dense_apply(state, element))


def random_unitary(k: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(registry, rng: np.random.Generator, max_total: int | None = None):
    """Random normalized state with bounded total photon number."""
    from dfsmem.fock import PureState

    n = len(registry)
    cap = registry.d - 1 if max_total is None else max_total
    patterns = [
        p for p in itertools.product(range(registry.d), repeat=n) if sum(p) <= cap
    ]
    picks = rng.choice(len(patterns), size=min(6, len(patterns)), replace=False)
    amp = {
        patterns[int(i)]: complex(rng.normal(), rng.normal()) for i in picks
    }
    return PureState(registry, amp).normalize()
