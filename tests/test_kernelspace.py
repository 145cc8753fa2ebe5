import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from horocomb import hypgeo, kernelspace, su11
from horocomb.blockrep import RepModel, apply, op_diag, op_sigma, op_unipotent, orbit_gram
from horocomb.combination import make_representation
from horocomb.errors import ReconstructionError, UsageError, ValidationError
from horocomb.kernelspace import (
    ETA1,
    ETA2,
    FormalVector,
    KernelContext,
    csym,
    cvec,
    eta1,
    eta2,
    pairing,
    pairing_matrix,
    phase_corrected_gram,
    positive_type_check,
    reconstruct_embedding,
    signature_count,
)


def ctx_for(t, r):
    return KernelContext(t, complex(-math.cos(r), math.sin(r)))


# ---------------------------------------------------------------------------
# context invariants

def test_context_validation():
    KernelContext(0.5, -1.0)
    KernelContext(2.0, -1.0)
    KernelContext(1.0, 1j)  # degenerate, allowed only at t = 1
    with pytest.raises(ValidationError):
        KernelContext(0.0, -1.0)
    with pytest.raises(ValidationError):
        KernelContext(2.5, -1.0)
    with pytest.raises(ValidationError):
        KernelContext(0.5, 0.0)
    with pytest.raises(ValidationError):
        KernelContext(0.5, 1.0)  # Re > 0
    with pytest.raises(ValidationError):
        KernelContext(0.5, -1.0 - 0.5j)  # Im < 0
    with pytest.raises(ValidationError):
        KernelContext(2.0, complex(-1.0, 0.5))  # t = 2 forces Im = 0
    with pytest.raises(ValidationError):
        KernelContext(0.5, 1j)  # Re = 0 forces t = 1


def test_degenerate_context_has_null_c_symbols():
    # Re K1 = 0 (t = 1): each C(b) pairs to 0 with everything, so the form is the hyperbolic line's
    ctx = KernelContext(1.0, 1j)
    assert ctx.degenerate
    vecs = [eta1(ctx), eta2(ctx), *(cvec(ctx, b) for b in (1, -2, Fraction(1, 3), Fraction(-7, 5)))]
    mat = pairing_matrix(vecs, vecs)
    assert_matches_scalar(mat, vecs, vecs)
    np.testing.assert_array_equal(mat[:2, :2], [[0, 1], [1, 0]])
    assert np.max(np.abs(mat[2:])) <= 1e-15 and np.max(np.abs(mat[:, 2:])) <= 1e-15
    assert ctx.c_pair(1, 2) == 0


# ---------------------------------------------------------------------------
# the kernel function

def test_k_scaling_and_conjugation():
    ctx = ctx_for(0.7, 0.3)
    assert ctx.k(2) == pytest.approx(2**0.7 * ctx.k1, abs=1e-15)
    assert ctx.k(-1) == pytest.approx(ctx.k1.conjugate(), abs=1e-15)
    assert ctx.k(0) == 0.0
    # the operator coefficient is the reflection -conj(K)
    assert ctx.block_k(1) == pytest.approx(-ctx.k1.conjugate(), abs=1e-15)
    assert abs(ctx.block_k(3)) == pytest.approx(abs(ctx.k(3)), abs=1e-15)


def test_k_addition_identity():
    # K(b+d) = K(b) + K(d) + <C(d), C(-b)> for the operator coefficient
    for (t, r) in [(0.5, 0.3), (0.9, 0.1), (1.0, 1.0), (0.3, 0.0)]:
        ctx = ctx_for(t, r)
        for b, d in [(1, 1), (2, 3), (-1, 2), (0.5, -2.5)]:
            lhs = ctx.block_k(b + d)
            rhs = ctx.block_k(b) + ctx.block_k(d) + ctx.c_pair(d, -b)
            assert lhs == pytest.approx(rhs, abs=1e-12)


# ---------------------------------------------------------------------------
# pairing

def test_eta_block_pairings():
    ctx = ctx_for(0.5, 0.2)
    assert pairing(eta1(ctx), eta2(ctx)) == 1.0
    assert pairing(eta1(ctx), eta1(ctx)) == 0.0
    assert pairing(eta2(ctx), eta2(ctx)) == 0.0
    assert pairing(eta1(ctx), cvec(ctx, 1)) == 0.0


def test_c_pair_values():
    ctx = ctx_for(0.5, 0.3)
    # the cocycle span is negative definite: <C(b), C(b)> = 2 Re K1 |b|^t
    assert pairing(cvec(ctx, 1), cvec(ctx, 1)) == pytest.approx(
        2 * ctx.k1.real, abs=1e-15
    )
    for b in (2, -3, 0.5):
        assert ctx.c_pair(b, b).real == pytest.approx(
            2 * ctx.k1.real * abs(b) ** ctx.t, abs=1e-13
        )
        assert ctx.c_pair(b, b).imag == 0.0


def test_c_pair_rejects_zero_parameter():
    ctx = ctx_for(0.5, 0.3)
    with pytest.raises(ValidationError):
        ctx.c_pair(0, 1)
    with pytest.raises(ValidationError):
        csym(0)


def test_pairing_mixed_contexts_rejected():
    c1, c2 = ctx_for(0.5, 0.2), ctx_for(0.5, 0.2)
    with pytest.raises(UsageError):
        pairing(eta1(c1), eta2(c2))


complex_st = st.builds(
    complex,
    st.floats(min_value=-3, max_value=3, allow_nan=False),
    st.floats(min_value=-3, max_value=3, allow_nan=False),
)


@settings(max_examples=60, deadline=None)
@given(complex_st, complex_st, complex_st, complex_st, complex_st)
def test_pairing_hermitian_and_sesquilinear(a, b, c, d, scale):
    ctx = ctx_for(0.5, 0.3)
    u = FormalVector(ctx, {ETA1: a, ETA2: b, csym(1): c})
    v = FormalVector(ctx, {ETA2: d, csym(1): a, csym(-2): b})
    w = FormalVector(ctx, {ETA1: c, csym(Fraction(1, 3)): d})
    assert pairing(u, v) == pytest.approx(pairing(v, u).conjugate(), abs=1e-9)
    scaled_u_plus_w = FormalVector(
        ctx, {ETA1: scale * a + c, ETA2: scale * b, csym(1): scale * c, csym(Fraction(1, 3)): d}
    )
    assert pairing(scaled_u_plus_w, v) == pytest.approx(
        scale * pairing(u, v) + pairing(w, v), abs=1e-9
    )
    scaled_v = FormalVector(ctx, {ETA2: scale * d, csym(1): scale * a, csym(-2): scale * b})
    assert pairing(u, scaled_v) == pytest.approx(
        scale.conjugate() * pairing(u, v), abs=1e-9
    )


def test_pairing_linear_in_k1():
    # branch additivity: the C-pairings are R-linear in K1
    t = 0.5
    k_a, k_b = complex(-0.4, 0.25), complex(-0.35, 0.6)
    ca, cb = KernelContext(t, k_a), KernelContext(t, k_b)
    csum = KernelContext(t, k_a + k_b)
    for b, d in [(1, 2), (-1, 3), (0.5, -0.25)]:
        assert csum.c_pair(b, d) == pytest.approx(
            ca.c_pair(b, d) + cb.c_pair(b, d), abs=1e-15
        )


# ---------------------------------------------------------------------------
# Gram matrices and signatures

def test_eta_gram():
    ctx = ctx_for(0.5, 0.2)
    vs = [eta1(ctx), eta2(ctx)]
    gram = pairing_matrix(vs, vs)
    np.testing.assert_allclose(gram, [[0, 1], [1, 0]], atol=1e-15)
    assert signature_count(gram) == (1, 0, 1)


def test_c_gram_negative_definite_and_nonsingular():
    ctx = KernelContext(0.5, -1.0)
    vs = [cvec(ctx, b) for b in (1, 2, 3)]
    gram = pairing_matrix(vs, vs)
    eigs = np.linalg.eigvalsh(gram)
    assert all(e < 0 for e in eigs)  # eigen oracle: strictly negative
    assert signature_count(gram) == (0, 0, 3)
    norm = np.linalg.norm(gram, 2)
    assert abs(np.linalg.det(gram / norm)) > 1e-12


@pytest.mark.parametrize("t", [0.3, 0.5, 0.9, 1.0])
def test_c_family_linearly_independent(t):
    ctx = ctx_for(t, min(0.8 * t * math.pi / 2, 0.7))
    params = [Fraction(k, 3) for k in (-9, -5, -2, -1, 1, 2, 5, 9)]
    vs = [cvec(ctx, b) for b in params]
    gram = pairing_matrix(vs, vs)
    norm = np.linalg.norm(gram, 2)
    assert abs(np.linalg.det(gram / norm)) > 1e-12


def test_signature_zero_band():
    mat = np.diag([1.0, -1.0, 1e-12])
    assert signature_count(mat) == (1, 1, 1)
    assert signature_count(np.zeros((3, 3))) == (0, 3, 0)  # no scale: every eigenvalue is zero


@pytest.mark.parametrize("mat", [np.diag([1.0, math.nan]), np.diag([1.0, math.inf]), [[1.0, math.nan], [math.nan, -1.0]]])
def test_signature_counts_a_non_finite_matrix_in_no_class(mat):
    # eigvalsh reads diag(1, nan) as two zero eigenvalues, which counted as (0, 2, 0)
    assert signature_count(np.array(mat)) == (0, 0, 0)


# ---------------------------------------------------------------------------
# pairing_matrix against the scalar pairing

PAIR_CONTEXTS = [
    ctx_for(0.3, 0.2),
    ctx_for(0.5, 0.0),
    ctx_for(0.7, 0.7 * math.pi / 2),
    ctx_for(1.0, 1.2),
    KernelContext(2.0, -1.0),
]
# a small pool, so that symbols repeat inside a vector family and are shared
# between the two families
PARAM_POOL = [Fraction(k, d) for k in (-7, -3, -1, 1, 2, 5) for d in (1, 3)]
SYMBOLS = st.one_of(st.just(ETA1), st.just(ETA2), st.sampled_from(PARAM_POOL).map(csym))
COEFFS = st.dictionaries(
    SYMBOLS,
    st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
    max_size=6,
)
ETA_COEFFS = st.dictionaries(
    st.sampled_from([ETA1, ETA2]),
    st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
)


def pairing_scale(ctx, u, v):
    """An upper bound on the summed moduli of the terms of B(u, v); both
    ways of computing B(u, v) round relative to it."""
    def weight(s):
        return 1.0 if s[0] != "c" else 1.0 + abs(float(s[1])) ** ctx.t

    return 1.0 + sum(
        abs(c1) * abs(c2) * weight(s1) * weight(s2) * 3.0
        for s1, c1 in u.coeffs.items()
        for s2, c2 in v.coeffs.items()
    )


def assert_matches_scalar(mat, us, vs):
    assert mat.shape == (len(us), len(vs))
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            want = pairing(u, v)
            assert abs(mat[i, j] - want) <= 1e-12 * pairing_scale(u.ctx, u, v)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(PAIR_CONTEXTS),
    st.lists(COEFFS, max_size=5),
    st.lists(COEFFS, max_size=5),
    st.lists(ETA_COEFFS, max_size=2),
)
# families of unequal slot counts: 0, 1 and 5 C-symbols against eta-only
@example(
    ctx=PAIR_CONTEXTS[2],
    left=[
        {ETA1: 1.5},
        {csym(PARAM_POOL[0]): 2 - 1j, ETA2: 0.5j},
        {csym(b): complex(k + 1, -k) for k, b in enumerate(PARAM_POOL[6:11])},
    ],
    right=[{ETA1: 1j, ETA2: 3.0}, {ETA2: -2.0}],
    eta_only=[],
)
def test_pairing_matrix_matches_scalar_pairing(ctx, left, right, eta_only):
    us = [FormalVector(ctx, c) for c in left + eta_only]
    vs = [FormalVector(ctx, c) for c in right]
    assert_matches_scalar(pairing_matrix(us, vs), us, vs)
    # one family against itself: the Gram of the concatenation
    assert_matches_scalar(pairing_matrix(us + vs, us + vs), us + vs, us + vs)


@pytest.mark.parametrize("slot_broadcast", [kernelspace.SLOT_BROADCAST, 0], ids=["broadcast", "slot_loop"])
def test_pairing_matrix_broadcast_and_slot_loop_agree(monkeypatch, slot_broadcast):
    # the whole-family broadcast and the slot-pair loop, on families of
    # unequal slot counts (0, 1, 2 and 5 C-symbols)
    monkeypatch.setattr(kernelspace, "SLOT_BROADCAST", slot_broadcast)
    ctx = PAIR_CONTEXTS[1]
    left = [
        {ETA1: 1.5},
        {csym(PARAM_POOL[0]): 2 - 1j, ETA2: 0.5j},
        {csym(b): complex(k + 1, -k) for k, b in enumerate(PARAM_POOL[6:11])},
    ]
    right = [{csym(PARAM_POOL[3]): 1j, csym(PARAM_POOL[6]): -0.5}, {ETA2: -2.0, csym(PARAM_POOL[1]): 3.0}]
    us = [FormalVector(ctx, c) for c in left]
    vs = [FormalVector(ctx, c) for c in right]
    assert_matches_scalar(pairing_matrix(us, vs), us, vs)
    assert_matches_scalar(pairing_matrix(vs, us + vs), vs, us + vs)


def test_pairing_matrix_empty_families():
    ctx = ctx_for(0.5, 0.2)
    assert pairing_matrix([], [cvec(ctx, 1)]).shape == (0, 1)
    assert pairing_matrix([cvec(ctx, 1), eta1(ctx)], []).shape == (2, 0)
    assert pairing_matrix([], []).shape == (0, 0)


def test_pairing_matrix_degenerate_context():
    # t = 1, Re K1 = 0: the eta-vectors span the hyperbolic line
    ctx = KernelContext(1.0, 1j)
    us = [eta1(ctx), eta2(ctx), FormalVector(ctx, {ETA1: 2.0, ETA2: 1j})]
    vs = us + [FormalVector(ctx, {})]
    mat = pairing_matrix(us, vs)
    assert_matches_scalar(mat, us, vs)
    np.testing.assert_array_equal(mat[:2, :2], [[0, 1], [1, 0]])


def test_pairing_matrix_rejects_mixed_contexts():
    c1, c2 = ctx_for(0.5, 0.1), ctx_for(0.5, 0.1)
    with pytest.raises(UsageError):
        pairing_matrix([cvec(c1, 1)], [cvec(c1, 2), cvec(c2, 2)])


def test_pairing_matrix_keeps_nearby_symbols_apart():
    # |b - d|^t is not Lipschitz at b = d: distinct rationals closer than any
    # float tolerance must stay distinct symbols
    ctx = ctx_for(0.3, 0.2)
    b = Fraction(1, 3)
    us = [cvec(ctx, b), cvec(ctx, b + Fraction(1, 10**15))]
    mat = pairing_matrix(us, us)
    assert_matches_scalar(mat, us, us)
    assert mat[0, 1] != mat[0, 0]


def assert_c_key(key, b):
    """key is C(b): ("c", n, d) in lowest terms with d > 0, read as the float of b."""
    _, n, d = key
    assert key == ("c", b.numerator, b.denominator)
    assert math.gcd(n, d) == 1 and d > 0 and n / d == float(Fraction(n, d))


@pytest.mark.parametrize(
    "b", [1, -2, 0.5, 1.0 + 1e-15, Fraction(1, 3), Fraction(-7, 2**16), Fraction(1, 3) + Fraction(1, 10**15)]
)
def test_csym_is_a_plain_fraction_key(b):
    key, plain = csym(b), ("c", *Fraction(b).as_integer_ratio())
    assert key == plain and hash(key) == hash(plain)
    assert {plain: 1}[key] == 1 and {key: 2}[plain] == 2
    _, n, d = key
    assert type(n) is int and type(d) is int
    assert Fraction(n, d) == Fraction(b) and n / d == float(Fraction(b))


@settings(deadline=None)
@given(st.integers(-(10**40), 10**40), st.integers(-(10**40), 10**40).filter(bool))
@example(0, -7)
@example(6, -4)
@example(-3, 2**61 - 1)  # a denominator divisible by the hash modulus 2**61 - 1
@example(2**200 + 1, 2**150)
def test_param_from_integers_is_the_fraction(n, d):
    # c_symbol(n, d) is C(n/d) in lowest terms, whichever multiple of the pair it is given
    f = Fraction(n, d)
    for k in (1, -1, 6):
        key = kernelspace.c_symbol(k * n, k * d)
        assert_c_key(key, f)
        assert hash(key) == hash(("c", f.numerator, f.denominator))


@settings(deadline=None)
@given(st.integers(-(10**40), 10**40), st.integers(-(10**40), 10**40).filter(bool))
@example(0, -7)
@example(6, -4)
@example(-3, 2**61 - 1)  # a denominator divisible by the hash modulus 2**61 - 1
@example(2**200 + 1, 2**150)
@example(1, 1)
@example(-2, 1)
@example(1, 2)
@example(*(1.0 + 1e-15).as_integer_ratio())
@example(1, 3)
@example(-7, 2**16)
@example(10**15 + 3, 3 * 10**15)
def test_c_symbols_are_reduced_integer_pairs(n, d):
    # csym and the three atoms key C(b) by b in lowest terms,
    # so that equal rationals give equal keys
    b = Fraction(n, d)
    if not b:
        with pytest.raises(ValidationError):
            csym(b)
        return
    assert_c_key(csym(b), b)
    model = RepModel(ctx_for(0.5, 0.3))
    for op, want in [
        (op_diag(model, 1 / abs(b)), [1 / b]),
        (op_sigma(model), [-1 / b]),
        (op_unipotent(model, b), [2 * b, b]),
    ]:
        keys = [s for s in apply(op, cvec(model.ctx, b)).coeffs if s[0] == "c"]
        assert len(keys) == len(want)
        for key, w in zip(keys, want):
            assert_c_key(key, w)


@pytest.mark.parametrize("b, d", [(1.0, 1.0 + 1e-15), (Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**15))])
def test_csym_keeps_nearby_parameters_apart(b, d):
    keys = {csym(b): 1, csym(d): 2}
    assert len(keys) == 2
    assert keys[("c", *Fraction(b).as_integer_ratio())] == 1
    assert keys[("c", *Fraction(d).as_integer_ratio())] == 2


def test_phase_corrected_gram_is_exactly_hermitian_with_unit_diagonal():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    bp = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    gram = phase_corrected_gram(z, bp)
    np.testing.assert_array_equal(gram, gram.conj().T)
    np.testing.assert_array_equal(np.diag(gram), np.ones(6))
    assert gram[1, 4] == pytest.approx(abs(z[1, 4]) * np.exp(-1j * np.angle(z[1, 4] * bp[4] * bp[1].conjugate())))


# ---------------------------------------------------------------------------
# orbit Grams for the finite-dimensional tautological action

def taut_orbit(elements):
    space = hypgeo.minkowski_space(1, "complex")
    base = np.array([1.0, 0.0], dtype=complex)
    vecs = [el.matrix() @ base for el in elements]
    return vecs, base, space.pair, space


def hyperbolic_orbit_gram(vecs, base, inner):
    """The phase-corrected Gram of unit lifts ``vecs`` at the unit lift ``base``."""
    z = np.array([[inner(v, w) for w in [*vecs, base]] for v in vecs])
    return phase_corrected_gram(z[:, :-1], z[:, -1])


def test_orbit_gram_single_element():
    vecs, base, inner, _ = taut_orbit([su11.SU11Element.identity()])
    gram = hyperbolic_orbit_gram(vecs, base, inner)
    np.testing.assert_allclose(gram, [[1.0]], atol=1e-15)
    assert signature_count(gram) == (1, 0, 0)


def test_orbit_gram_two_elements_hand_value():
    vecs, base, inner, _ = taut_orbit([su11.SU11Element.identity(), su11.g(2, 0)])
    gram = hyperbolic_orbit_gram(vecs, base, inner)
    np.testing.assert_allclose(gram, [[1.0, 1.25], [1.25, 1.0]], atol=1e-14)
    eigs = np.sort(np.linalg.eigvalsh(gram))
    np.testing.assert_allclose(eigs, [-0.25, 2.25], atol=1e-14)
    assert signature_count(gram) == (1, 0, 1)


def test_orbit_gram_matches_distances():
    rng = np.random.default_rng(21)
    els = [su11.SU11Element.identity()] + [su11.random_su11(rng) for _ in range(4)]
    vecs, base, inner, space = taut_orbit(els)
    gram = hyperbolic_orbit_gram(vecs, base, inner)
    for i in range(5):
        for j in range(5):
            d = hypgeo.distance(space.point(vecs[i]), space.point(vecs[j]))
            assert abs(gram[i, j]) == pytest.approx(math.cosh(d), abs=1e-10)


def test_positive_type_tautological():
    rng = np.random.default_rng(25)
    els = [su11.SU11Element.identity()] + [su11.random_su11(rng) for _ in range(9)]
    vecs, base, inner, _ = taut_orbit(els)
    assert positive_type_check(vecs, base, inner)["psd"]
    for t in (0.3, 0.5, 0.9):
        assert positive_type_check(vecs, base, inner, power=t)["psd"]


def test_positive_type_negative_control():
    rng = np.random.default_rng(27)
    els = [su11.SU11Element.identity(), su11.random_su11(rng), su11.random_su11(rng)]
    vecs, base, inner, _ = taut_orbit(els)
    report = positive_type_check(vecs, base, inner, unit_beta=True)
    assert not report["psd"]


# ---------------------------------------------------------------------------
# embedding reconstruction

def test_reconstruct_hyperbolic_plane_pair():
    gram = np.array([[0.0, 1.0], [1.0, 0.0]])
    space, pts = reconstruct_embedding(gram)
    assert space.dim == 2
    for i in range(2):
        for j in range(2):
            assert space.pair(pts[i], pts[j]) == pytest.approx(gram[i, j], abs=1e-12)


def test_reconstruct_roundtrip_tautological():
    rng = np.random.default_rng(33)
    els = [su11.SU11Element.identity()] + [su11.random_su11(rng) for _ in range(4)]
    vecs, base, inner, space0 = taut_orbit(els)
    gram = hyperbolic_orbit_gram(vecs, base, inner)
    space, pts = reconstruct_embedding(gram)
    # rank 2: three zero eigenvalues dropped, distances survive
    for i in range(5):
        for j in range(5):
            want = hypgeo.distance(space0.point(vecs[i]), space0.point(vecs[j]))
            got = hypgeo.distance(space.point(pts[i]), space.point(pts[j]))
            assert got == pytest.approx(want, abs=1e-7)


def test_reconstruct_rejects_wrong_signature():
    with pytest.raises(ReconstructionError):
        reconstruct_embedding(np.eye(2))


def roundtrip(space, pts, gram) -> float:
    p = np.array(pts)
    return float(np.max(np.abs(p @ space.matrix.T @ p.conj().T - gram)) / np.max(np.abs(gram)))


@pytest.mark.parametrize(
    "gram",
    [[[math.nan, 1.0], [1.0, 0.0]], [[1.0, math.inf], [math.inf, -1.0]], [[1.0, 0.5], [0.5, math.nan]]],
)
def test_reconstruct_refuses_a_non_finite_gram(gram):
    # eigh reads [[nan, 1], [1, 0]] as one positive direction with NaN points
    with pytest.raises(ReconstructionError):
        reconstruct_embedding(np.array(gram))


def test_reconstruct_factors_at_the_largest_diagonal_entry(monkeypatch):
    # a positive congruence D G D keeps the signature and moves the pivot off 0
    rng = np.random.default_rng(61)
    els = [su11.SU11Element.identity()] + [su11.random_su11(rng) for _ in range(7)]
    d = np.array([1.0, 1.5, 0.7, 2.0, 1.2, 0.9, 1.1, 0.8])
    gram = d[:, None] * orbit_gram(make_representation(0.5, 0.3), els) * d[None, :]
    assert np.argmax(gram.diagonal().real) == 3
    monkeypatch.setattr(np.linalg, "eigh", None)  # the Schur complement alone embeds it
    space, pts = reconstruct_embedding(gram)
    assert space.dim == 8
    assert roundtrip(space, pts, gram) <= 1e-12


@pytest.mark.parametrize("eps, dim", [(1e-11, 3), (1e-6, None), (-1e-11, 4)])
def test_reconstruct_accepts_a_near_null_direction_as_the_signature_does(eps, dim):
    # at +1e-11 the Schur complement is indefinite and eigh drops the null
    # direction; at -1e-11 it is definite and factors; 1e-6 is a second
    # positive direction
    rng = np.random.default_rng(67)
    v, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    gram = v @ np.diag([1.0, eps, -0.5, -0.3]) @ v.conj().T
    gram = (gram + gram.conj().T) / 2
    assert (kernelspace.eigenvalue_signature(np.linalg.eigvalsh(gram))[0] == 1) is (dim is not None)
    if dim is None:
        with pytest.raises(ReconstructionError):
            reconstruct_embedding(gram)
        return
    space, pts = reconstruct_embedding(gram)
    assert space.dim == dim and roundtrip(space, pts, gram) <= 1e-9


def test_reconstruct_refuses_a_positive_direction_inside_the_zero_band():
    # its Schur complement [[1]] factors, but the signature reads (0, 1, 1)
    gram = np.diag([1e-12, -1.0])
    assert signature_count(gram) == (0, 1, 1)
    with pytest.raises(ReconstructionError):
        reconstruct_embedding(gram)


def test_reconstruct_single_point():
    space, pts = reconstruct_embedding(np.array([[1.0]]))
    assert space.dim == 1 and space.pair(pts[0], pts[0]) == 1.0
