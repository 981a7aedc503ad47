"""Independent dense reference for checking the sparse Fock-space lift.

Matrix elements of the lifted unitary are computed from matrix permanents,
<m|U|n> = per(U[m;n]) / sqrt(prod m_i! prod n_j!), where U[m;n] repeats row i
m_i times and column j n_j times. This shares no code path with the
monomial-expansion implementation it cross-checks. The module also holds
the one-mode references ``apply_creation`` (bosonic raising) and
``project_occupation`` (one-mode projection) that the lift and
``split_by_pattern`` are checked against; the package itself needs neither.
"""

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
