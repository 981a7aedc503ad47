"""Sparse linear-algebra engine for truncated multimode bosonic Fock states.

States are amplitude tables over occupation vectors of a fixed mode registry.
Occupations run 0..d-1 per mode; anything that would spill past the truncation
raises instead of being clipped silently, so norm bookkeeping stays exact.

The Fock lift of an :class:`OpticalElement` is tabled on the element per
(d, mode positions in the registry, input pattern): the first
:func:`apply_unitary` that meets a pattern expands its creation-operator
monomials once, and every later lift of that pattern reads the table. Two
threads that miss on the same pattern both compute it and store equal
entries, so a race only repeats work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

NORM_TOL = 1e-12
UNITARY_TOL = 1e-12
OVERFLOW_TOL = 1e-12
PRUNE_TOL = 1e-15


def ordered_sum(values: Iterable[float]) -> float:
    """The floats added left to right from 0.0. Builtin ``sum()`` of floats
    is compensated from Python 3.12 on and can end in other bits, so every
    float sum that reaches an output is taken here."""
    total = 0.0
    for v in values:
        total += v
    return total


class TruncationOverflowError(ValueError):
    """Raised when an operation would push occupation past the truncation.

    ``lost_weight`` is the total squared amplitude that would have been
    dropped had the overflow been clipped.
    """

    def __init__(self, message: str, lost_weight: float):
        super().__init__(message)
        self.lost_weight = lost_weight


POLARIZATIONS = ("H", "V", "Lcirc", "Rcirc")


@dataclass(frozen=True)
class ModeLabel:
    """A registered bosonic mode: an atomic collective mode or a photon mode.

    Photonic labels carry a polarization and a spatial-path tag; atomic
    labels carry neither, so the tags alone say which kind a label is.
    Labels key every registry lookup and optics cache, so the hash of the
    three tags is computed once, on construction.
    """

    subsystem: str
    polarization: str | None = None
    spatial: str | None = None

    def __post_init__(self):
        if (self.polarization is None) != (self.spatial is None):
            raise ValueError(
                f"mode {self.subsystem!r} needs both polarization and spatial tags or neither"
            )
        if self.polarization is not None and self.polarization not in POLARIZATIONS:
            raise ValueError(
                f"mode {self.subsystem!r}: unknown polarization tag {self.polarization!r}"
            )
        object.__setattr__(self, "_hash", hash((self.subsystem, self.polarization, self.spatial)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):  # rebuilt, so a copy in another process rehashes its strings
        return ModeLabel, (self.subsystem, self.polarization, self.spatial)

    def __str__(self):
        if self.polarization is None:
            return self.subsystem
        return f"{self.subsystem}[{self.polarization}@{self.spatial}]"


def atomic_mode(subsystem: str) -> ModeLabel:
    return ModeLabel(subsystem)


def photon_mode(subsystem: str, polarization: str, spatial: str) -> ModeLabel:
    return ModeLabel(subsystem, polarization, spatial)


class ModeRegistry:
    """Ordered set of modes plus the common occupation truncation d.

    The ordering is fixed for the registry's lifetime; occupation vectors are
    tuples aligned with it.
    """

    def __init__(self, labels: Sequence[ModeLabel], d: int):
        if d < 2:
            raise ValueError(f"truncation d must be >= 2, got {d}")
        seen = set()
        for lab in labels:
            if lab in seen:
                raise ValueError(f"duplicate mode label: {lab}")
            seen.add(lab)
        self._labels = tuple(labels)
        self._index = {lab: i for i, lab in enumerate(self._labels)}
        self.d = d

    @property
    def labels(self) -> tuple[ModeLabel, ...]:
        return self._labels

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModeRegistry):
            return NotImplemented
        return self.d == other.d and self._labels == other._labels

    def __hash__(self) -> int:
        return hash((self.d, self._labels))

    def index(self, label: ModeLabel) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"mode {label} is not registered") from None

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: ModeLabel) -> bool:
        return label in self._index

    def zero_pattern(self) -> tuple[int, ...]:
        return (0,) * len(self._labels)


def register_modes(labels: Sequence[ModeLabel], d: int) -> ModeRegistry:
    """Build a registry with fixed mode ordering and truncation d."""
    return ModeRegistry(labels, d)


class PureState:
    """Immutable sparse amplitude table over a registry's occupation basis.

    All operations return new states; instances are safe to share between
    threads. Amplitudes below ``PRUNE_TOL`` in magnitude are dropped at
    construction.
    """

    __slots__ = ("registry", "_amp")

    def __init__(self, registry: ModeRegistry, amplitudes: Mapping[tuple[int, ...], complex]):
        n = len(registry)
        allowed = range(registry.d)
        amp: dict[tuple[int, ...], complex] = {}
        for pattern, a in amplitudes.items():
            if len(pattern) != n:
                raise ValueError(f"occupation vector {pattern} has wrong length (want {n})")
            if not all(o in allowed for o in pattern):  # NaN and 0.5 are in no range
                raise ValueError(f"occupation vector {pattern} violates truncation d={registry.d}")
            if abs(a) > PRUNE_TOL:
                amp[tuple(pattern)] = complex(a)
        self.registry = registry
        self._amp = amp

    @classmethod
    def _trusted(
        cls, registry: ModeRegistry, amplitudes: Mapping[tuple[int, ...], complex]
    ) -> "PureState":
        """Construction for tuple patterns valid on ``registry`` by construction:
        prunes like the public constructor but skips the pattern checks."""
        state = cls.__new__(cls)
        state.registry = registry
        state._amp = {p: complex(a) for p, a in amplitudes.items() if abs(a) > PRUNE_TOL}
        return state

    def amplitude(self, pattern: Sequence[int]) -> complex:
        return self._amp.get(tuple(pattern), 0j)

    def items(self) -> Iterator[tuple[tuple[int, ...], complex]]:
        return iter(self._amp.items())

    def support(self) -> list[tuple[int, ...]]:
        return list(self._amp.keys())

    def norm_squared(self) -> float:
        # left to right, as split_by_pattern sums a pattern's probability:
        # from Python 3.12 on, sum() of floats is compensated and can differ
        total = 0.0
        for a in self._amp.values():
            total += a.real * a.real + a.imag * a.imag
        return total

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    def normalize(self) -> "PureState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return PureState._trusted(self.registry, {p: a / n for p, a in self._amp.items()})

    def __repr__(self):
        terms = ", ".join(f"{p}: {a:.4g}" for p, a in sorted(self._amp.items()))
        return f"PureState({terms})"


@dataclass(frozen=True)
class MixedState:
    """Weighted ensemble of normalized pure states (a density operator)."""

    components: tuple[tuple[float, PureState], ...]

    def __post_init__(self):
        total = ordered_sum(w for w, _ in self.components)
        if abs(total - 1.0) > NORM_TOL:
            raise ValueError(f"mixture weights sum to {total}, not 1")
        for w, s in self.components:
            if w < -NORM_TOL:
                raise ValueError(f"negative mixture weight {w}")
            if abs(s.norm() - 1.0) > 1e-9:
                raise ValueError("mixture component is not normalized")


class OpticalElement:
    """A named single-particle unitary over a labeled subset of modes.

    ``matrix[i, j]`` is the amplitude with which input mode ``modes[j]`` feeds
    output mode ``modes[i]``; the matrix is checked for unitarity on
    construction and is read-only. :func:`apply_unitary` lifts it to Fock
    space and tables each lifted input pattern on the element, keyed by
    (d, the element's mode positions in the registry), so an element that
    is lifted again, on any registry, expands each pattern only once.
    """

    def __init__(self, name: str, modes: Sequence[ModeLabel], matrix: np.ndarray):
        modes = tuple(modes)
        if len(set(modes)) != len(modes):
            raise ValueError(f"element {name!r} has colliding mode labels")
        matrix = np.asarray(matrix, dtype=complex)
        k = len(modes)
        if matrix.shape != (k, k):
            raise ValueError(f"element {name!r}: matrix shape {matrix.shape} != ({k}, {k})")
        dev = np.max(np.abs(matrix.conj().T @ matrix - np.eye(k)))
        if dev > UNITARY_TOL:
            raise ValueError(f"element {name!r}: matrix is not unitary (deviation {dev:.3g})")
        self.name = name
        self.modes = modes
        self.matrix = matrix
        self.matrix.setflags(write=False)
        # (d, mode positions) -> input pattern -> _lift_pattern(...) entry
        self._lifts: dict[tuple, dict] = {}

    def __repr__(self):
        return f"OpticalElement({self.name!r}, modes={[str(m) for m in self.modes]})"


def vacuum(registry: ModeRegistry) -> PureState:
    """Unit amplitude on the all-zero occupation vector."""
    return PureState(registry, {registry.zero_pattern(): 1.0})


def superposition(
    registry: ModeRegistry, terms: Iterable[tuple[Mapping[ModeLabel, int], complex]]
) -> PureState:
    """sum_k c_k |occupations_k> for (occupations_k, c_k) terms, unnormalized.

    Unlisted modes are empty, and a repeated occupation adds its amplitudes.
    Only the given labels and occupations are checked, each to be an integer
    in [0, d): every other entry of a pattern is 0.
    """
    allowed = range(registry.d)
    table: dict[tuple[int, ...], complex] = {}
    for occupations, amplitude in terms:
        pattern = list(registry.zero_pattern())
        for label, n in occupations.items():
            pattern[registry.index(label)] = n
        key = tuple(pattern)
        if not all(n in allowed for n in occupations.values()):
            raise ValueError(f"occupation vector {key} violates truncation d={registry.d}")
        table[key] = table.get(key, 0j) + amplitude
    return PureState._trusted(registry, table)


def _monomial_expand(
    occ: Sequence[int], matrix: np.ndarray
) -> dict[tuple[int, ...], complex]:
    """Expand prod_j (sum_i U[i,j] a_i^+)^(n_j) into output monomials.

    Creation operators commute, so a monomial is just the tuple of output
    powers. Returns monomial -> coefficient (vacuum normalization excluded).
    """
    k = len(occ)
    poly: dict[tuple[int, ...], complex] = {(0,) * k: 1.0 + 0j}
    for j, n_j in enumerate(occ):
        col = matrix[:, j]
        for _ in range(n_j):
            nxt: dict[tuple[int, ...], complex] = {}
            for mono, coeff in poly.items():
                for i in range(k):
                    c = col[i]
                    if c == 0:
                        continue
                    new = mono[:i] + (mono[i] + 1,) + mono[i + 1:]
                    nxt[new] = nxt.get(new, 0j) + coeff * c
            poly = nxt
    return poly


def _lift_pattern(
    pattern: tuple[int, ...], idx: tuple[int, ...], matrix: np.ndarray, d: int
) -> tuple | None:
    """One input pattern's lift: None when the acted modes are all empty,
    else (sqrt(prod occ!), terms), one (output pattern, coeff,
    sqrt(prod mono!), spills past d) term per output monomial."""
    occ = tuple(pattern[i] for i in idx)
    if all(n == 0 for n in occ):
        return None
    terms = []
    for mono, coeff in _monomial_expand(occ, matrix).items():
        new = list(pattern)
        for pos, m in zip(idx, mono):
            new[pos] = m
        terms.append((
            tuple(new),
            coeff,
            math.sqrt(math.prod(math.factorial(m) for m in mono)),
            any(m >= d for m in mono),
        ))
    return math.sqrt(math.prod(math.factorial(n) for n in occ)), tuple(terms)


def apply_unitary(state: PureState, element: OpticalElement) -> PureState:
    """Fock-space lift of the element's single-particle unitary.

    Works by transforming creation-operator monomials, so the norm is
    preserved exactly up to floating-point rounding; the expansions come
    from the element's lift table. Overflowing components of this call are
    accumulated first (interference may cancel them) and only then
    reported as :class:`TruncationOverflowError`.
    """
    reg = state.registry
    idx = tuple(reg.index(m) for m in element.modes)
    d = reg.d
    table = element._lifts.setdefault((d, idx), {})
    out: dict[tuple[int, ...], complex] = {}
    spilled: dict[tuple[int, ...], complex] = {}
    for pattern, a in state.items():
        try:
            entry = table[pattern]
        except KeyError:
            entry = table[pattern] = _lift_pattern(pattern, idx, element.matrix, d)
        if entry is None:
            out[pattern] = out.get(pattern, 0j) + a
            continue
        denom, terms = entry
        pre = a / denom
        for key, coeff, sf, spills in terms:
            amp = pre * coeff * sf
            if spills:
                spilled[key] = spilled.get(key, 0j) + amp
            else:
                out[key] = out.get(key, 0j) + amp
    lost = ordered_sum(a.real * a.real + a.imag * a.imag for a in spilled.values())
    if lost > OVERFLOW_TOL:
        raise TruncationOverflowError(
            f"element {element.name!r} overflows truncation d={d}", lost
        )
    return PureState._trusted(reg, out)


def apply_elements(state: PureState, elements: Iterable[OpticalElement]) -> PureState:
    for el in elements:
        state = apply_unitary(state, el)
    return state


def inner(s: PureState, t: PureState) -> complex:
    """<t|s> over a shared registry."""
    if s.registry != t.registry:
        raise ValueError("states live on different registries")
    if len(s._amp) > len(t._amp):
        return sum(t.amplitude(p).conjugate() * a for p, a in s.items())
    return sum(a.conjugate() * s.amplitude(p) for p, a in t.items())


def fidelity_pure(s: PureState, t: PureState) -> float:
    """|<t|s>|^2."""
    return abs(inner(s, t)) ** 2


def fidelity_mixed(rho: MixedState, t: PureState) -> float:
    """<t|rho|t> = sum_i w_i |<t|s_i>|^2."""
    return ordered_sum(w * fidelity_pure(s, t) for w, s in rho.components)


def project_total_occupation(
    state: PureState, modes: Sequence[ModeLabel], total: int
) -> tuple[PureState, float]:
    """Component whose summed occupation over the listed modes equals total."""
    reg = state.registry
    idx = [reg.index(m) for m in modes]
    kept = {p: a for p, a in state.items() if sum(p[i] for i in idx) == total}
    prob = ordered_sum(a.real * a.real + a.imag * a.imag for a in kept.values())
    return PureState._trusted(reg, kept), prob


def _picker(positions: Sequence[int]):
    """The function from a pattern to the tuple of its entries at
    ``positions``; an ``itemgetter`` where it returns a tuple (two or more
    positions), which costs about half of a tuple comprehension."""
    if len(positions) > 1:
        return itemgetter(*positions)
    return lambda pattern: tuple([pattern[i] for i in positions])


def split_by_pattern(
    state: PureState, modes: Sequence[ModeLabel], keep: ModeRegistry
) -> dict[tuple[int, ...], tuple[float, PureState]]:
    """Split a state by its joint occupation pattern on ``modes``.

    Returns pattern -> (probability, normalized component restricted to
    ``keep``) for every occupation pattern the state has on ``modes``, in
    the order the patterns first occur. One pass sums each pattern's
    probability and groups its amplitudes; each group is then divided by
    the square root of that sum and read at ``keep``'s positions, dropping
    amplitudes at or below ``PRUNE_TOL`` as :meth:`PureState.normalize`
    does. Dropping the modes that are neither split on nor kept is valid
    only when every kept amplitude of a group carries the same occupations
    there (the component factorizes against them); otherwise ValueError.
    """
    reg = state.registry
    idx = [reg.index(m) for m in modes]
    key_of = _picker(idx)
    probs: dict[tuple[int, ...], float] = {}
    groups: dict[tuple[int, ...], list[tuple[tuple[int, ...], complex]]] = {}
    for pattern, a in state.items():
        key = key_of(pattern)
        probs[key] = probs.get(key, 0.0) + (a.real * a.real + a.imag * a.imag)
        groups.setdefault(key, []).append((pattern, a))
    if not groups:
        return {}
    if keep.d != reg.d:
        raise ValueError("registries disagree on truncation")
    keep_idx = [reg.index(lab) for lab in keep.labels]
    kept_of = _picker(keep_idx)
    placed = {*idx, *keep_idx}
    free = [i for i in range(len(reg)) if i not in placed]
    free_of = _picker(free)
    out = {}
    for key, members in groups.items():
        p = probs[key]
        norm = math.sqrt(p)
        if free and len({free_of(pattern) for pattern, a in members
                         if abs(a / norm) > PRUNE_TOL}) > 1:
            raise ValueError("state does not factorize against the dropped modes")
        # already pruned, so built without PureState._trusted's second pass
        component = PureState.__new__(PureState)
        component.registry = keep
        component._amp = {kept_of(pattern): b
                          for pattern, a in members if abs(b := a / norm) > PRUNE_TOL}
        out[key] = (p, component)
    return out
