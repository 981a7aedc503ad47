import math
import sys
import threading

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dfsmem.fock import (
    MixedState,
    ModeLabel,
    OpticalElement,
    PureState,
    TruncationOverflowError,
    apply_unitary,
    atomic_mode,
    basis_state,
    born_probabilities,
    fidelity_mixed,
    fidelity_pure,
    inner,
    photon_mode,
    product_state,
    register_modes,
    restrict_state,
    split_by_pattern,
    superposition,
    vacuum,
)
from dfsmem import optics
from dense_oracle import (
    apply_creation,
    dense_apply,
    max_amplitude_diff,
    project_occupation,
    random_state,
    random_unitary,
    sparse_vs_dense,
)

S_L = atomic_mode("ensemble-L")
S_R = atomic_mode("ensemble-R")
PH_H = photon_mode("stokes", "H", "fiber")
PH_V = photon_mode("stokes", "V", "fiber")


def two_mode(d=2):
    return register_modes([S_L, S_R], d)


def test_registry_rejects_duplicate_label():
    with pytest.raises(ValueError, match="ensemble-L"):
        register_modes([S_L, S_L], 2)


def test_registry_rejects_small_truncation():
    with pytest.raises(ValueError):
        register_modes([S_L], 1)


def test_mode_label_tag_rules():
    with pytest.raises(ValueError, match="stokes"):
        photon_mode("stokes", "H", None)  # type: ignore[arg-type]
    with pytest.raises(ValueError, match="ensemble-L"):
        ModeLabel("ensemble-L", polarization="H")
    with pytest.raises(ValueError, match="stokes"):
        photon_mode("stokes", "D", "fiber")
    # the tags alone say the kind, and the printed label follows it
    assert str(S_L) == "ensemble-L" and S_L == ModeLabel("ensemble-L")
    assert str(PH_H) == "stokes[H@fiber]"


def test_vacuum_properties():
    reg = two_mode()
    vac = vacuum(reg)
    assert vac.amplitude((0, 0)) == 1.0
    assert vac.norm() == pytest.approx(1.0, abs=1e-15)
    assert fidelity_pure(vac, vac) == pytest.approx(1.0, abs=1e-15)


def test_apply_creation_single_quantum():
    reg = two_mode(3)
    one = apply_creation(vacuum(reg), S_L)
    assert one.amplitude((1, 0)) == pytest.approx(1.0)
    assert one.amplitude((0, 0)) == 0.0


def test_apply_creation_bosonic_factor():
    reg = two_mode(3)
    two = apply_creation(apply_creation(vacuum(reg), S_L), S_L)
    assert two.amplitude((2, 0)) == pytest.approx(math.sqrt(2.0))


def test_apply_creation_overflow():
    reg = two_mode(3)
    top = basis_state(reg, {S_L: 2})
    with pytest.raises(TruncationOverflowError) as err:
        apply_creation(top, S_L)
    assert err.value.lost_weight == pytest.approx(3.0)  # (n+1) |amp|^2 at n=2


def test_apply_unitary_identity():
    reg = register_modes([PH_H, PH_V], 3)
    state = random_state(reg, np.random.default_rng(7))
    ident = OpticalElement("ident", (PH_H, PH_V), np.eye(2))
    out = apply_unitary(state, ident)
    for p in state.support():
        assert out.amplitude(p) == pytest.approx(state.amplitude(p), abs=1e-15)


def test_apply_unitary_balanced_splitter_single_photon():
    # one photon through [[1,1],[1,-1]]/sqrt(2): amplitudes follow the matrix column
    reg = register_modes([PH_H, PH_V], 2)
    m = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    el = OpticalElement("bs", (PH_H, PH_V), m)
    out = apply_unitary(basis_state(reg, {PH_H: 1}), el)
    assert out.amplitude((1, 0)) == pytest.approx(m[0, 0])
    assert out.amplitude((0, 1)) == pytest.approx(m[1, 0])


def test_apply_unitary_overflow_carries_lost_weight():
    reg = register_modes([PH_H, PH_V], 2)
    m = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    el = OpticalElement("bs", (PH_H, PH_V), m)
    both = basis_state(reg, {PH_H: 1, PH_V: 1})
    with pytest.raises(TruncationOverflowError) as err:
        apply_unitary(both, el)  # bunching needs occupation 2
    assert err.value.lost_weight == pytest.approx(1.0)


def test_optical_element_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        OpticalElement("bad", (PH_H, PH_V), np.array([[1.0, 0.0], [1.0, 1.0]]))


def test_inner_products():
    reg = register_modes([PH_H, PH_V], 2)
    h = basis_state(reg, {PH_H: 1})
    v = basis_state(reg, {PH_V: 1})
    plus = PureState(reg, {(1, 0): 1 / math.sqrt(2), (0, 1): 1 / math.sqrt(2)})
    assert inner(plus, plus) == pytest.approx(1.0)
    assert inner(v, h) == 0.0
    assert inner(plus, h) == pytest.approx(1 / math.sqrt(2))


def test_inner_requires_shared_registry():
    # registries compare by value: same labels and truncation interoperate,
    # anything else is a mismatch
    assert inner(vacuum(two_mode()), vacuum(two_mode())) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        inner(vacuum(two_mode(2)), vacuum(two_mode(3)))


def test_fidelity_pure_limits():
    reg = register_modes([PH_H, PH_V], 2)
    h = basis_state(reg, {PH_H: 1})
    v = basis_state(reg, {PH_V: 1})
    assert fidelity_pure(h, h) == pytest.approx(1.0)
    assert fidelity_pure(h, v) == 0.0


def test_fidelity_mixed_orthogonal_mixture():
    # <psi|(p0 vac + p1 psi)|psi> = p1 when <psi|vac> = 0
    reg = register_modes([PH_H, PH_V], 2)
    psi = PureState(reg, {(1, 0): 1 / math.sqrt(2), (0, 1): 1 / math.sqrt(2)})
    rho = MixedState(((0.3, vacuum(reg)), (0.7, psi)))
    assert fidelity_mixed(rho, psi) == pytest.approx(0.7, abs=1e-12)


def test_mixed_state_weight_validation():
    reg = two_mode()
    with pytest.raises(ValueError, match="weights"):
        MixedState(((0.5, vacuum(reg)),))


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: PureState(two_mode(3), {(0,): 1}), "wrong length", id="wrong-length"),
    pytest.param(lambda: PureState(two_mode(3), {(0, 3): 1}), "truncation d=3",
                 id="above-truncation"),
    pytest.param(lambda: PureState(two_mode(3), {(0, -1): 1}), "truncation d=3",
                 id="negative-occupation"),
    pytest.param(
        lambda: restrict_state(
            superposition(two_mode(3), [({S_L: 1}, 1.0), ({S_R: 1}, 1.0)]),
            register_modes([S_L], 3),
        ),
        "does not factorize", id="restrict-entangled",
    ),
    pytest.param(
        lambda: product_state(basis_state(two_mode(3), {S_L: 1}),
                              basis_state(two_mode(3), {S_L: 1, S_R: 1})),
        "both factors excite", id="product-shared-mode",
    ),
])
def test_state_constructors_reject_invalid_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_project_occupation_cases():
    reg = register_modes([PH_H, PH_V], 2)
    plus = PureState(reg, {(1, 0): 1 / math.sqrt(2), (0, 1): 1 / math.sqrt(2)})
    comp, prob = project_occupation(plus, PH_H, 1)
    assert prob == pytest.approx(0.5)
    assert comp.amplitude((1, 0)) == pytest.approx(1 / math.sqrt(2))
    _, p0 = project_occupation(vacuum(reg), PH_H, 0)
    assert p0 == pytest.approx(1.0)
    zero, p1 = project_occupation(vacuum(reg), PH_H, 1)
    assert p1 == 0.0 and zero.support() == []


def test_born_probabilities_bell_state():
    # dual-rail Bell state over four photonic modes: two patterns, 1/2 each
    ph = [photon_mode("stokes", pol, spot) for spot in ("a", "b") for pol in ("H", "V")]
    reg = register_modes(ph, 2)
    bell = PureState(
        reg, {(1, 0, 0, 1): 1 / math.sqrt(2), (0, 1, 1, 0): 1 / math.sqrt(2)}
    )
    probs = born_probabilities(bell, ph)
    assert probs[(1, 0, 0, 1)] == pytest.approx(0.5)
    assert probs[(0, 1, 1, 0)] == pytest.approx(0.5)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)


def test_superposition_adds_repeated_occupations():
    reg = two_mode()
    state = superposition(reg, [({S_L: 1}, 0.25), ({S_R: 1}, 0.5j), ({S_L: 1}, 0.5)])
    assert dict(state.items()) == {(1, 0): 0.75, (0, 1): 0.5j}


def test_superposition_empty_occupation_is_vacuum():
    reg = two_mode()
    assert dict(superposition(reg, [({}, 1.0)]).items()) == dict(vacuum(reg).items())


def test_superposition_single_term_is_basis_state():
    reg = register_modes([S_L, S_R, PH_H], 3)
    occupations = {S_R: 2, PH_H: 1}
    state = superposition(reg, [(occupations, 1.0)])
    assert dict(state.items()) == dict(basis_state(reg, occupations).items())


def test_born_probabilities_vacuum():
    reg = two_mode()
    probs = born_probabilities(vacuum(reg), [S_L, S_R])
    assert probs == {(0, 0): pytest.approx(1.0)}


# a real or imaginary part, |x| in (1e-3, 1]; a .filter here tripped the
# filter_too_much health check
_PART = st.floats(1e-3, 1.0, exclude_min=True) | st.floats(-1.0, -1e-3, exclude_max=True)


@st.composite
def _split_cases(draw):
    """A random small state, the modes to split on, and the rest to keep."""
    k = draw(st.integers(2, 4))
    d = draw(st.integers(2, 3))
    labels = [photon_mode("stokes", "H", f"m{i}") for i in range(k)]
    reg = register_modes(labels, d)
    patterns = draw(st.lists(
        st.sampled_from(list(itertools.product(range(d), repeat=k))),
        min_size=1, max_size=8, unique=True,
    ))
    amps = {p: complex(draw(_PART), draw(_PART)) for p in patterns}
    split = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=k - 1, unique=True))
    keep = register_modes([lab for lab in labels if lab not in split], d)
    return PureState(reg, amps).normalize(), split, keep


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_split_cases())
def test_split_by_pattern_matches_projection(case):
    state, modes, keep = case
    split = split_by_pattern(state, modes, keep)
    born = born_probabilities(state, modes)
    assert split.keys() == born.keys()
    for pattern, (prob, component) in split.items():
        assert prob == pytest.approx(born[pattern], abs=1e-12)
        projected = state
        for mode, n in zip(modes, pattern):
            projected, p_proj = project_occupation(projected, mode, n)
        assert prob == p_proj
        expected = restrict_state(projected.normalize(), keep)
        assert dict(component.items()) == dict(expected.items())


def test_born_marginal_consistency():
    rng = np.random.default_rng(11)
    reg = register_modes([S_L, S_R, PH_H], 3)
    state = random_state(reg, rng)
    joint = born_probabilities(state, [S_L, PH_H])
    single = born_probabilities(state, [S_L])
    marg: dict = {}
    for (a, _), p in joint.items():
        marg[(a,)] = marg.get((a,), 0.0) + p
    for key, p in single.items():
        assert marg.get(key, 0.0) == pytest.approx(p, abs=1e-12)


def test_norm_preserved_by_random_elements():
    rng = np.random.default_rng(23)
    labels = [S_L, S_R, PH_H, PH_V]
    reg = register_modes(labels, 3)
    for trial in range(20):
        k = int(rng.integers(2, 5))
        picks = rng.choice(4, size=k, replace=False)
        el = OpticalElement(
            f"rand{trial}", tuple(labels[int(i)] for i in picks), random_unitary(k, rng)
        )
        state = random_state(reg, rng)
        assert apply_unitary(state, el).norm() == pytest.approx(1.0, abs=1e-12)


def test_lift_consistency_with_creation():
    # lift(U) a_m^+ = sum_k U[k, m] a_k^+ lift(U), as operators
    rng = np.random.default_rng(5)
    labels = [PH_H, PH_V, photon_mode("stokes", "H", "b")]
    reg = register_modes(labels, 4)
    u = random_unitary(3, rng)
    el = OpticalElement("u3", tuple(labels), u)
    state = random_state(reg, rng, max_total=1)
    for m_idx, mode in enumerate(labels):
        lhs = apply_unitary(apply_creation(state, mode), el)
        rhs_table: dict = {}
        base = apply_unitary(state, el)
        for k_idx, out_mode in enumerate(labels):
            if u[k_idx, m_idx] == 0:
                continue
            term = apply_creation(base, out_mode)
            for p, a in term.items():
                rhs_table[p] = rhs_table.get(p, 0j) + u[k_idx, m_idx] * a
        keys = set(lhs.support()) | set(rhs_table.keys())
        for key in keys:
            assert lhs.amplitude(key) == pytest.approx(
                rhs_table.get(key, 0j), abs=1e-12
            )


def test_dense_oracle_equivalence_small_registries():
    rng = np.random.default_rng(37)
    for n_modes in (2, 3, 4, 6):
        labels = [photon_mode("stokes", "H", f"m{i}") for i in range(n_modes)]
        reg = register_modes(labels, 3)
        for _ in range(6):
            k = int(rng.integers(2, min(n_modes, 4) + 1))
            picks = rng.choice(n_modes, size=k, replace=False)
            el = OpticalElement(
                "rand", tuple(labels[int(i)] for i in picks), random_unitary(k, rng)
            )
            state = random_state(reg, rng)
            assert sparse_vs_dense(state, el) < 1e-12


# -- properties of the lift on random small registries ---------------------


@st.composite
def _unitaries(draw, k):
    """exp(iH) for a random Hermitian k x k matrix H: unitary for every draw."""
    entry = st.floats(-2.0, 2.0)
    h = np.array([[complex(draw(entry), draw(entry)) for _ in range(k)] for _ in range(k)])
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    return (v * np.exp(1j * w)) @ v.conj().T


@st.composite
def _lift_cases(draw):
    """A registry of 2-4 modes at d 2-3, a random state whose total photon
    number stays below d (so no lift can spill), and two random elements."""
    k = draw(st.integers(2, 4))
    d = draw(st.integers(2, 3))
    labels = [photon_mode("stokes", "H", f"m{i}") for i in range(k)]
    reg = register_modes(labels, d)
    basis = [p for p in itertools.product(range(d), repeat=k) if sum(p) < d]
    patterns = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=8, unique=True))
    state = PureState(reg, {p: complex(draw(_PART), draw(_PART)) for p in patterns}).normalize()
    elements = []
    for name in ("u", "v"):
        modes = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=k, unique=True))
        elements.append(OpticalElement(name, modes, draw(_unitaries(len(modes)))))
    return state, elements


def _photon_number_weights(state: PureState) -> dict[int, float]:
    weights: dict[int, float] = {}
    for pattern, a in state.items():
        weights[sum(pattern)] = weights.get(sum(pattern), 0.0) + abs(a) ** 2
    return weights


def _on_modes(el: OpticalElement, modes: list) -> np.ndarray:
    """The element's matrix on ``modes``, the identity on the ones it skips."""
    full = np.eye(len(modes), dtype=complex)
    pos = [modes.index(m) for m in el.modes]
    full[np.ix_(pos, pos)] = el.matrix
    return full


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_lift_cases())
def test_lift_of_product_is_product_of_lifts(case):
    state, (u, v) = case
    modes = list(dict.fromkeys(u.modes + v.modes))
    uv = OpticalElement("uv", modes, _on_modes(u, modes) @ _on_modes(v, modes))
    chained = apply_unitary(apply_unitary(state, v), u)
    assert max_amplitude_diff(chained, dict(apply_unitary(state, uv).items())) < 1e-12


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_lift_cases())
def test_lift_conserves_norm_and_photon_number(case):
    state, elements = case
    before = _photon_number_weights(state)
    for el in elements:
        out = apply_unitary(state, el)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)
        after = _photon_number_weights(out)
        for n in before.keys() | after.keys():
            assert after.get(n, 0.0) == pytest.approx(before.get(n, 0.0), abs=1e-12)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_lift_cases())
def test_lift_matches_dense_oracle_on_random_states(case):
    state, elements = case
    for el in elements:
        assert sparse_vs_dense(state, el) < 1e-12


# -- the lift table: each element tables its lifted input patterns ----------


def test_lift_table_cold_warm_and_fresh_agree_bit_for_bit():
    rng = np.random.default_rng(41)
    for n_modes in (2, 3, 4, 5):
        labels = [photon_mode("stokes", "H", f"m{i}") for i in range(n_modes)]
        reg = register_modes(labels, 3)
        for _ in range(4):
            k = int(rng.integers(2, min(n_modes, 4) + 1))
            picks = rng.choice(n_modes, size=k, replace=False)
            modes = tuple(labels[int(i)] for i in picks)
            el = OpticalElement("rand", modes, random_unitary(k, rng))
            state = random_state(reg, rng)
            cold = list(apply_unitary(state, el).items())
            warm = list(apply_unitary(state, el).items())
            fresh = list(apply_unitary(state, OpticalElement("rand", modes, el.matrix)).items())
            assert cold == warm == fresh  # same amplitudes, same insertion order
            assert max_amplitude_diff(apply_unitary(state, el), dense_apply(state, el)) < 1e-12
            # a second state meets a partly warm table
            other = random_state(reg, rng)
            partly = list(apply_unitary(other, el).items())
            fresh = OpticalElement("rand", modes, el.matrix)
            assert partly == list(apply_unitary(other, fresh).items())
            assert sparse_vs_dense(other, el) < 1e-12


def test_shared_element_on_reordered_registries_and_truncations():
    a, b, c, e = (photon_mode("stokes", "H", s) for s in "abce")
    el = OpticalElement("rand", (b, e), random_unitary(2, np.random.default_rng(43)))
    rng = np.random.default_rng(47)
    for _ in range(2):  # the second pass reads every table warm
        for d in (3, 4):
            for order in ([a, b, c, e], [e, c, b, a], [b, a, e, c]):
                reg = register_modes(order, d)
                state = random_state(reg, rng)
                assert sparse_vs_dense(state, el) < 1e-12
                # the same pattern tuple means other occupations on each order
                one = PureState(reg, {(1, 0, 0, 1): 1.0})
                assert max_amplitude_diff(apply_unitary(one, el), dense_apply(one, el)) < 1e-12


def test_lift_table_keeps_truncations_apart():
    # two photons in b and one in e: legal at d = 4, and at d = 3 the
    # bunched outputs spill, even after the d = 4 lift tabled that pattern
    b, e = photon_mode("stokes", "H", "b"), photon_mode("stokes", "V", "b")
    el = OpticalElement("bs", (b, e), np.array([[1, 1], [1, -1]]) / math.sqrt(2))
    big = basis_state(register_modes([b, e], 4), {b: 2, e: 1})
    assert apply_unitary(big, el).norm() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(TruncationOverflowError):
        apply_unitary(basis_state(register_modes([b, e], 3), {b: 2, e: 1}), el)


def test_warm_lift_table_still_reports_overflow():
    reg = register_modes([PH_H, PH_V], 2)
    el = OpticalElement("bs", (PH_H, PH_V), np.array([[1, 1], [1, -1]]) / math.sqrt(2))
    both = basis_state(reg, {PH_H: 1, PH_V: 1})
    lost = []
    for _ in range(2):
        with pytest.raises(TruncationOverflowError) as err:
            apply_unitary(both, el)
        lost.append(err.value.lost_weight)
    assert lost[0] == lost[1] == pytest.approx(1.0)
    # the overflow test reads this call's amplitudes, not the tabled ones:
    # a spill below OVERFLOW_TOL passes on the warm table, a full one raises
    eps = 1e-14
    faint = PureState(reg, {(1, 0): math.sqrt(1 - eps), (1, 1): math.sqrt(eps)})
    assert apply_unitary(faint, el).norm() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(TruncationOverflowError) as err:
        apply_unitary(both, el)
    assert err.value.lost_weight == lost[0]


def test_fixed_optics_constructors_return_shared_read_only_elements():
    labels = [photon_mode("stokes", pol, spot) for spot in ("p", "q", "r", "s")
              for pol in ("H", "V")]
    el = optics.pbs(*labels)
    assert optics.pbs(*labels) is el
    assert optics.hwp(*labels[:2]) is optics.hwp(*labels[:2])
    assert optics.bs50(*labels[:2]) is optics.bs50(*labels[:2])
    assert optics.pol_rotator(*labels[:2]) is optics.swap("pol_rotator", *labels[:2])
    assert not el.matrix.flags.writeable
    with pytest.raises(ValueError):
        el.matrix[0, 0] = 2.0
    # elements with continuous parameters are built per call
    assert optics.mz_split(*labels[:3], 0.6, 0.8) is not optics.mz_split(*labels[:3], 0.6, 0.8)


def test_lift_table_shared_between_threads():
    # four threads (more than the cores CI has) fill one element's table at
    # once; a race may only recompute an equal entry
    rng = np.random.default_rng(53)
    labels = [photon_mode("stokes", "H", f"m{i}") for i in range(5)]
    reg = register_modes(labels, 3)
    modes = tuple(labels[:4])
    u = random_unitary(4, rng)
    states = [random_state(reg, rng) for _ in range(12)]
    expected = [list(apply_unitary(s, OpticalElement("u", modes, u)).items()) for s in states]
    shared = OpticalElement("u", modes, u)
    results: dict[int, list] = {}

    def work(k):
        results[k] = [list(apply_unitary(s, shared).items()) for s in states[k:] + states[:k]]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for k in range(4):
        assert results[k] == expected[k:] + expected[:k]
