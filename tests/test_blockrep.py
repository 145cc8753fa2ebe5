import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from horocomb import su11
from horocomb.blockrep import (
    RepModel,
    RepOperator,
    apply,
    basepoint,
    compare_up_to_phase,
    evaluate,
    model_cartan,
    op_diag,
    op_sigma,
    op_unipotent,
    orbit_gram,
    orbit_vectors,
    probe_vectors,
    unip_atom,
)
from horocomb.errors import (
    DegenerateProbeError,
    ProbeOverflowError,
    UsageError,
    ValidationError,
)
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
    signature_count,
)
from horocomb.su11 import g, s_element
from horocomb.verification import group_law_words


def make(t, r):
    return RepModel.from_context(KernelContext(t, complex(-math.cos(r), math.sin(r))))


MODELS = [
    make(0.3, 0.1),
    make(0.5, 0.2),
    make(0.7, 0.2),
    make(0.9, 0.0),
    make(1.0, math.pi / 4),
]


def test_model_normalization_to_unit_k1():
    ctx = KernelContext(0.5, complex(-3.0, 4.0))
    model = RepModel.from_context(ctx)
    assert abs(model.ctx.k1) == pytest.approx(1.0, abs=1e-15)
    assert model.ctx.k1 == pytest.approx(complex(-0.6, 0.8), abs=1e-15)
    with pytest.raises(ValidationError):
        RepModel(ctx)


# ---------------------------------------------------------------------------
# single operators

def test_diag_identity():
    m = make(0.5, 0.2)
    probes = probe_vectors(m)
    for p in probes:
        assert apply(op_diag(m, 1), p).coeffs == p.coeffs


def test_diag_moves_cocycle_parameter():
    m = make(0.5, 0.2)
    img = apply(op_diag(m, 2), cvec(m.ctx, 1))
    assert img.coeffs == {csym(4): pytest.approx(2**-0.5)}


def test_diag_preserves_pairing_with_prefactor():
    for m in MODELS:
        if m.ctx.degenerate:
            continue
        for b, d in [(1, 2), (-1, 3)]:
            lhs = pairing(
                apply(op_diag(m, Fraction(3, 2)), cvec(m.ctx, b)),
                apply(op_diag(m, Fraction(3, 2)), cvec(m.ctx, d)),
            )
            assert lhs == pytest.approx(m.ctx.c_pair(b, d), abs=1e-12)


@pytest.mark.parametrize("lam", [0, -2, Fraction(-1, 3)])
def test_diag_refuses_a_non_positive_parameter(lam):
    with pytest.raises(ValidationError):
        op_diag(make(0.5, 0.2), lam)


def test_unipotent_zero_is_identity():
    m = make(0.5, 0.2)
    for p in probe_vectors(m):
        assert apply(op_unipotent(m, 0), p).coeffs == p.coeffs


def test_unipotent_inverse():
    m = make(0.5, 0.2)
    op = RepOperator(
        m, op_unipotent(m, Fraction(5, 3)).atoms + op_unipotent(m, Fraction(-5, 3)).atoms
    )
    for p in probe_vectors(m):  # on a C-probe the eta1-coefficient cancels to rounding, not 0
        img = apply(op, p).coeffs
        assert all(abs(img.get(s, 0) - p.coeffs.get(s, 0)) <= 1e-12 for s in {**img, **p.coeffs})


def test_unipotent_eta1_coefficient():
    # at t = 1, r = pi/4 the eta1-coefficient on eta2 is (1+i)/sqrt(2):
    # the reflected kernel constant -conj(K1), not K1 itself
    m = make(1.0, math.pi / 4)
    img = apply(op_unipotent(m, 1), eta2(m.ctx))
    want = complex(1.0, 1.0) / math.sqrt(2.0)
    assert img.coeffs[ETA1] == pytest.approx(want, abs=1e-14)
    assert img.coeffs[ETA2] == 1.0
    assert img.coeffs[csym(1)] == 1.0


def test_sigma_involution_and_swap():
    m = make(0.5, 0.2)
    x = basepoint(m)
    assert apply(op_sigma(m), eta1(m.ctx)).coeffs == eta2(m.ctx).coeffs
    assert apply(op_sigma(m), x).coeffs == pytest.approx(x.coeffs, abs=1e-15)
    op2 = RepOperator(m, op_sigma(m).atoms + op_sigma(m).atoms)
    for p in probe_vectors(m):
        assert apply(op2, p).coeffs == pytest.approx(p.coeffs, abs=1e-12)


def test_sigma_on_cocycle_vector():
    m = make(0.5, 0.2)
    img = apply(op_sigma(m), cvec(m.ctx, 1))
    assert img.coeffs == {csym(-1): pytest.approx(m.ctx.block_k(1))}


def test_sigma_unitary_three_regimes():
    for m in MODELS:
        if m.ctx.degenerate:
            continue
        sig = op_sigma(m)
        for b, d in [(2, -3), (3, 1), (-4, -1), (2, 2)]:
            lhs = pairing(
                apply(sig, cvec(m.ctx, b)), apply(sig, cvec(m.ctx, d))
            )
            assert lhs == pytest.approx(m.ctx.c_pair(b, d), abs=1e-12)


# ---------------------------------------------------------------------------
# composition and evaluation

def test_operators_preserve_the_form():
    rng = np.random.default_rng(37)
    for m in MODELS:
        if m.ctx.degenerate:
            continue
        ops = [
            op_diag(m, Fraction(5, 3)),
            op_unipotent(m, Fraction(-3, 4)),
            op_sigma(m),
            RepOperator(
                m,
                op_sigma(m).atoms
                + op_unipotent(m, Fraction(2)).atoms
                + op_diag(m, Fraction(1, 2)).atoms,
            ),
        ]
        params = (Fraction(1), Fraction(-2), Fraction(1, 3))
        for _ in range(10):
            coeffs_u = rng.normal(size=5) + 1j * rng.normal(size=5)
            coeffs_v = rng.normal(size=5) + 1j * rng.normal(size=5)
            u = FormalVector(
                m.ctx,
                {
                    ETA1: coeffs_u[0],
                    ETA2: coeffs_u[1],
                    **{csym(p): coeffs_u[2 + i] for i, p in enumerate(params)},
                },
            )
            v = FormalVector(
                m.ctx,
                {
                    ETA1: coeffs_v[0],
                    ETA2: coeffs_v[1],
                    **{csym(p): coeffs_v[2 + i] for i, p in enumerate(params)},
                },
            )
            want = pairing(u, v)
            for op in ops:
                got = pairing(apply(op, u), apply(op, v))
                assert got == pytest.approx(want, abs=1e-11 * max(1.0, abs(want)))


def test_apply_rejects_foreign_vectors():
    m1, m2 = make(0.5, 0.2), make(0.5, 0.3)
    with pytest.raises(UsageError):
        apply(op_sigma(m1), eta1(m2.ctx))


def test_diag_unipotent_column_matches_group_element():
    # diag(lam) unip(b) applied to eta2 is the eta2-column of the operator
    # for g(lam, lam b)
    m = make(0.5, 0.2)
    lam, b = Fraction(2), Fraction(3, 4)
    composite = RepOperator(m, op_diag(m, lam).atoms + op_unipotent(m, b).atoms)
    img = apply(composite, eta2(m.ctx))
    t = m.t
    want = {
        ETA1: float(lam) ** t * m.ctx.block_k(b),
        ETA2: float(lam) ** -t,
        csym(lam * lam * b): float(lam) ** -t,
    }
    assert set(img.coeffs) == set(want)
    for s, c in want.items():
        assert img.coeffs[s] == pytest.approx(c, abs=1e-14)
    assert compare_up_to_phase(m, composite, evaluate(m, g(lam, lam * b))) < 1e-12


def test_evaluate_parabolic_factorization():
    m = make(0.5, 0.2)
    lam, b = Fraction(3, 2), Fraction(-2, 5)
    res = compare_up_to_phase(
        m,
        evaluate(m, g(lam, b)),
        RepOperator(m, op_diag(m, lam).atoms + op_unipotent(m, b / lam).atoms),
    )
    assert res < 1e-12


def test_evaluate_minus_identity():
    m = make(0.5, 0.2)
    res = compare_up_to_phase(m, evaluate(m, su11.SU11Element.identity().neg()), RepOperator(m, ()))
    assert res < 1e-12


def test_evaluate_sandwich_identity():
    # s g(1,b) s g(1, b/|b|^2) s  =  e^{i sign(b) r} g(1/|b|, -b/|b|): the
    # group-law phase of s g(1, b) . s with x = b
    m = make(0.5, 0.2)
    for b in (Fraction(2), Fraction(1, 3), Fraction(-2)):
        inv = b / (b * b)
        word = s_element() * g(1, b) * s_element() * g(1, inv) * s_element()
        assert isinstance(su11.bruhat_factor(word), su11.ParabolicCoords)
        composite = RepOperator(
            m,
            evaluate(m, s_element()).atoms
            + evaluate(m, g(1, b)).atoms
            + evaluate(m, s_element()).atoms
            + evaluate(m, g(1, inv)).atoms
            + evaluate(m, s_element()).atoms,
        )
        target = evaluate(m, g(1 / abs(b), -b / abs(b)))
        n = 1 if b > 0 else -1
        assert compare_up_to_phase(m, composite, target, cmath.exp(0.2j * n)) < 1e-12
        assert compare_up_to_phase(m, composite, target, cmath.exp(-0.2j * n)) > 0.1


# ---------------------------------------------------------------------------
# projective comparison

def test_compare_equal_operators():
    m = make(0.5, 0.2)
    op = RepOperator(m, op_diag(m, 2).atoms + op_sigma(m).atoms)
    assert compare_up_to_phase(m, op, op) == 0.0
    assert compare_up_to_phase(m, op, op, cmath.exp(0.1j)) > 0.05


def test_compare_distinct_operators():
    # unequal at every phase, not just at 1
    m = make(0.5, 0.2)
    phases = [cmath.exp(2j * math.pi * k / 64) for k in range(64)]
    assert min(compare_up_to_phase(m, op_diag(m, 2), op_diag(m, 3), z) for z in phases) > 0.1


def test_compare_sigma_conjugation_phase():
    # sigma diag(b) unip(-1/b) sigma = conj(block K(1)) * unip(1/b) sigma unip(b)
    m = make(0.7, 0.2)
    b = Fraction(2)
    lhs = RepOperator(
        m,
        op_sigma(m).atoms
        + evaluate(m, g(b, 0)).atoms
        + op_unipotent(m, -1 / b).atoms
        + op_sigma(m).atoms,
    )
    rhs = RepOperator(
        m, op_unipotent(m, 1 / b).atoms + op_sigma(m).atoms + op_unipotent(m, b).atoms
    )
    assert m.ctx.block_k(-1) == pytest.approx(cmath.exp(-0.2j), abs=1e-15)
    assert compare_up_to_phase(m, lhs, rhs, cmath.exp(-0.2j)) < 1e-12
    assert compare_up_to_phase(m, lhs, rhs) > 0.1


def test_probe_cap_overflow():
    m = make(0.5, 0.2)
    with pytest.raises(ProbeOverflowError):
        probe_vectors(m, RepOperator(m, tuple(unip_atom(Fraction(k, 7)) for k in range(1, 70))))


def test_compare_images_without_a_common_symbol():
    # sigma C(2) = k*(2) C(-1/2) and unip(1) C(2) = <C(2), C(-1)> eta1 + C(3) - C(1)
    # share no symbol: at any phase the whole image is the residual
    m = make(0.5, 0.2)
    for z in (1, cmath.exp(0.7j), -1j):
        res = compare_up_to_phase(m, op_sigma(m), op_unipotent(m, 1), z, probes=[cvec(m.ctx, 2)])
        assert res == pytest.approx(1.0)


def test_empty_probes_rejected():
    m = make(0.5, 0.2)
    with pytest.raises(DegenerateProbeError):
        compare_up_to_phase(m, op_sigma(m), op_sigma(m), probes=[])
    with pytest.raises(DegenerateProbeError):  # an image of the zero probe is zero
        compare_up_to_phase(m, op_sigma(m), op_sigma(m), probes=[FormalVector(m.ctx, {})])


# ---------------------------------------------------------------------------
# group law and phases

def test_parabolic_group_law_exact_phase():
    m = make(0.5, 0.25)
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(200):
        lam1 = Fraction(math.exp(rng.uniform(-1, 1))).limit_denominator(999)
        lam2 = Fraction(math.exp(rng.uniform(-1, 1))).limit_denominator(999)
        b1 = Fraction(float(rng.uniform(-2, 2))).limit_denominator(999)
        b2 = Fraction(float(rng.uniform(-2, 2))).limit_denominator(999)
        ga, gb = g(lam1, b1), g(lam2, b2)
        res = compare_up_to_phase(
            m,
            RepOperator(m, evaluate(m, ga).atoms + evaluate(m, gb).atoms),
            evaluate(m, ga * gb),
        )
        worst = max(worst, res)
    assert worst < 1e-10


def test_projective_homomorphism_with_phase_identity():
    # products of evaluations differ from evaluation of products by the
    # unimodular cocycle exp(-i alpha(gl, g, e)) once lifts are normalized
    # to pair positively with the basepoint
    m = make(0.7, 0.2)
    x = basepoint(m)
    rng = np.random.default_rng(43)

    def unit_phase(el):
        z = pairing(apply(evaluate(m, el), x), x)
        return z / abs(z)

    seen = set()
    for _ in range(25):
        a, b = su11.random_su11(rng), su11.random_su11(rng)
        lhs, rhs, n = group_law_words(m, a, b)
        theta = cmath.exp(0.2j * n)
        assert compare_up_to_phase(m, RepOperator(m, lhs), RepOperator(m, rhs), theta) < 1e-10
        alpha = model_cartan(m, evaluate(m, a * b), evaluate(m, a))
        corrected = theta * unit_phase(a * b) / (unit_phase(a) * unit_phase(b))
        assert corrected == pytest.approx(cmath.exp(-1j * alpha), abs=1e-10)
        seen.add(n)
    assert seen == {-1, 0, 1}


# one exact pair per branch of the group-law phase rule; a = g(2, 1/3) s g(1, d_a)
# and b = g(3/2, 1/2) s g(1, -2) give x = d_a / lam_b^2 + b_b / lam_b = 4 d_a / 9 + 1/3
PSP_B = su11.reconstruct(su11.PsPFactors(Fraction(3, 2), Fraction(1, 2), Fraction(-2)))


def psp_a(d_a):
    return su11.reconstruct(su11.PsPFactors(Fraction(2), Fraction(1, 3), d_a))


GROUP_LAW_BRANCHES = {
    "psp_psp_x_positive": (psp_a(Fraction(1)), PSP_B, 1),
    "psp_psp_x_negative": (psp_a(Fraction(-3)), PSP_B, -1),
    "psp_psp_x_zero": (psp_a(Fraction(-3, 4)), PSP_B, 0),
    "p_psp": (g(2, Fraction(1, 3)), PSP_B, 0),
    "psp_p": (psp_a(Fraction(1)), g(Fraction(3, 2), Fraction(1, 2)), 0),
}


@pytest.mark.parametrize("branch", sorted(GROUP_LAW_BRANCHES))
@pytest.mark.parametrize("t, r", [(0.5, 0.3), (1.0, 0.9)])
def test_group_law_phase_rule_branches(branch, t, r):
    a, b, want = GROUP_LAW_BRANCHES[branch]
    m = make(t, r)
    lhs, rhs, n = group_law_words(m, a, b)
    assert n == want
    lands_in_p = isinstance(su11.bruhat_factor(a * b), su11.ParabolicCoords)
    assert lands_in_p == (branch == "psp_psp_x_zero")
    ops = RepOperator(m, lhs), RepOperator(m, rhs)
    assert compare_up_to_phase(m, *ops, cmath.exp(1j * n * r)) < 1e-10
    for wrong in (n - 1, n + 1):
        assert compare_up_to_phase(m, *ops, cmath.exp(1j * wrong * r)) > 1e-3


def test_busemann_character_model():
    m = make(0.5, 0.2)
    from horocomb.blockrep import busemann_character_model

    assert busemann_character_model(m, g(4, 0)) == pytest.approx(math.log(2.0))
    assert busemann_character_model(m, g(1, 5)) == 0.0
    with pytest.raises(UsageError):
        busemann_character_model(m, s_element())
    # character slope recovers t on hyperbolic translations
    for lam in (Fraction(2), Fraction(7, 3)):
        assert busemann_character_model(m, g(lam, 0)) == pytest.approx(
            m.t * su11.displacement_su11(g(lam, 0)), abs=1e-12
        )


def test_sigma_helper_identities_at_fixed_parameters():
    # 1 + K(eb) K(e/b) + <AC(eb), C(-e/b)>  =  0
    # K(eb) C(e/b) + pi(e/b) AC(eb)         =  0
    for t, r in [(0.5, 0.2), (0.9, 0.7), (1.0, math.pi / 4)]:
        m = make(t, r)
        ctx = m.ctx
        for eps in (1, -1):
            for b in (Fraction(1, 2), Fraction(1), Fraction(2)):
                eb, ebi = eps * b, Fraction(eps) / b
                ac = apply(op_sigma(m), cvec(ctx, eb))
                scalar = 1.0 + ctx.block_k(eb) * ctx.block_k(ebi) + pairing(
                    ac, cvec(ctx, -ebi)
                )
                assert abs(scalar) < 1e-10
                img = apply(op_unipotent(m, ebi), ac)
                total = {s: c for s, c in img.coeffs.items() if s[0] == "c"}
                total[csym(ebi)] = total.get(csym(ebi), 0.0) + ctx.block_k(eb)
                assert FormalVector(ctx, total).is_zero(1e-10)


def test_orbit_continuity_surrogate():
    m = make(0.5, 0.3)
    x = basepoint(m)
    values = []
    for n in range(1, 61):
        el = g(1 + Fraction(1, 2**n), Fraction(1, 2**n))
        values.append(abs(pairing(apply(evaluate(m, el), x), x)))
    tail = values[10:]
    assert all(tail[i + 1] < tail[i] for i in range(len(tail) - 1))
    assert tail[-1] == pytest.approx(1.0, abs=1e-8)  # decay rate is 2^(-n t)
    assert all(v >= 1.0 - 1e-12 for v in values)


def test_orbit_gram_one_positive_eigenvalue():
    rng = np.random.default_rng(47)
    m = make(0.5, 0.2)
    els = [su11.SU11Element.identity()] + [su11.random_su11(rng) for _ in range(7)]
    sig = signature_count(orbit_gram(m, els))
    assert sig == (1, 0, 7)


def test_orbit_gram_reconstruction_roundtrip():
    from horocomb.kernelspace import reconstruct_embedding

    rng = np.random.default_rng(49)
    m = make(0.5, 0.3)
    els = [su11.SU11Element.identity()] + [su11.random_su11(rng) for _ in range(5)]
    gram = orbit_gram(m, els)
    space, pts = reconstruct_embedding(gram)
    for i in range(6):
        for j in range(6):
            assert space.pair(pts[i], pts[j]) == pytest.approx(gram[i, j], abs=1e-7)


def test_reconstructed_points_carry_the_triple_angles():
    # dual route: distances of the embedded points match the formal cosh
    # pairings, and their angular invariants match the formal ones up to
    # the global orientation flip carried by the exp(-i alpha) Gram phases
    from horocomb import hypgeo
    from horocomb.kernelspace import reconstruct_embedding

    rng = np.random.default_rng(59)
    m = make(0.5, 0.3)
    els = [su11.SU11Element.identity()] + [su11.random_su11(rng) for _ in range(4)]
    vecs = orbit_vectors(m, els)
    gram = orbit_gram(m, els)
    space, pts = reconstruct_embedding(gram)
    points = [space.point(p) for p in pts]
    for i in range(5):
        for j in range(5):
            if i == j:
                continue  # acosh amplifies rounding at coincident points
            want = math.acosh(max(1.0, abs(pairing(vecs[i], vecs[j]))))
            assert hypgeo.distance(points[i], points[j]) == pytest.approx(want, abs=1e-9)
    for (i, j, k) in [(0, 1, 2), (1, 3, 4), (0, 2, 4)]:
        formal = cmath.phase(
            pairing(vecs[i], vecs[j])
            * pairing(vecs[j], vecs[k])
            * pairing(vecs[k], vecs[i])
        )
        embedded = hypgeo.cartan_argument(points[i], points[j], points[k])
        assert embedded == pytest.approx(-formal, abs=1e-9)


# ---------------------------------------------------------------------------
# the batched orbit Gram against a per-entry loop


def loop_orbit_gram(model, elements):
    """Scalar pairings and cmath phases, one entry at a time."""
    vecs = orbit_vectors(model, elements)
    base = basepoint(model)
    base_pair = [pairing(v, base) for v in vecs]
    n = len(vecs)
    out = np.eye(n, dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            z = pairing(vecs[i], vecs[j])
            alpha = cmath.phase(z * base_pair[j] * base_pair[i].conjugate())
            out[i, j] = abs(z) * cmath.exp(-1j * alpha)
            out[j, i] = out[i, j].conjugate()
    return out


STRATA = {
    "interior": (0.6, 0.5 * 0.6 * math.pi / 2),
    "real_edge": (0.4, 0.0),
    "power_edge": (0.7, 0.7 * math.pi / 2),
    "t_one": (1.0, 0.9),
}


@pytest.mark.parametrize("stratum", sorted(STRATA))
@pytest.mark.parametrize("n", [1, 2, 16, 64])
def test_orbit_gram_matches_loop_reference(stratum, n):
    from horocomb.combination import make_representation

    model = make_representation(*STRATA[stratum])
    rng = np.random.default_rng(100 + n)
    els = [su11.SU11Element.identity()] + [su11.random_su11(rng) for _ in range(n - 1)]
    got = orbit_gram(model, els)
    want = loop_orbit_gram(model, els)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12
    np.testing.assert_array_equal(got, got.conj().T)
    np.testing.assert_array_equal(np.diag(got), np.ones(n))


# ---------------------------------------------------------------------------
# the atoms against a restatement in Fraction arithmetic


def fraction_apply(op, v):
    """`apply` restated in Fraction arithmetic: new parameters from Fraction
    operators, floats from float(Fraction), one FormalVector per atom.
    C(b) is keyed ("c", b.numerator, b.denominator)."""
    ctx = op.model.ctx
    for kind, *param in reversed(op.atoms):
        out = {}

        def add(s, c):
            out[s] = out.get(s, 0.0) + c

        def add_c(b, c):
            if b != 0 and c != 0:
                add(("c", b.numerator, b.denominator), c)

        params = {s: Fraction(s[1], s[2]) for s in v.coeffs if s[0] == "c"}
        if kind == "diag":
            lam = Fraction(param[0])
            lam_t = float(lam) ** ctx.t
            for s, c in v.coeffs.items():
                if s[0] == "c":
                    add_c(lam * lam * params[s], c / lam_t)
                else:
                    add(s, c * lam_t if s == ETA1 else c / lam_t)
        elif kind == "unip":
            b = Fraction(param[0])
            if b == 0:
                continue
            for s, c in v.coeffs.items():
                if s == ETA1:
                    add(ETA1, c)
                elif s == ETA2:
                    add(ETA1, c * ctx.block_k(float(b)))
                    add(ETA2, c)
                    add_c(b, c)
                else:
                    add(ETA1, c * ctx.c_pair(float(params[s]), float(-b)))
                    add_c(b + params[s], c)
                    add_c(b, -c)
        else:
            for s, c in v.coeffs.items():
                if s[0] == "c":
                    add_c(-1 / params[s], c * ctx.block_k(float(params[s])))
                else:
                    add(ETA2 if s == ETA1 else ETA1, c)
        v = FormalVector(ctx, out)
    return v


def bits(v):
    """Symbols in order, with each coefficient's exact bits."""
    return [(s, c.real.hex(), c.imag.hex()) for s, c in v.coeffs.items()]


def fraction_evaluate(model, m):
    """`evaluate` with its unipotent parameters as Fraction quotients."""
    f = su11.bruhat_factor(m)
    atoms = (("diag", f.lam), ("unip", f.b / f.lam))
    if not isinstance(f, su11.ParabolicCoords):
        atoms += (("sigma",), ("unip", f.d))
    return RepOperator(model, atoms)


def assert_atoms_match_fractions(op, vectors, reference=None):
    for v in vectors:
        got = apply(op, v)
        assert bits(got) == bits(fraction_apply(reference or op, v))


@pytest.mark.parametrize("stratum", sorted(STRATA))
def test_atoms_match_fraction_arithmetic_on_evaluated_elements(stratum):
    from horocomb.combination import make_representation

    model = make_representation(*STRATA[stratum])
    rng = np.random.default_rng(17)
    els = [su11.random_su11(rng) for _ in range(12)]
    ops = [evaluate(model, m) for m in els]
    refs = [fraction_evaluate(model, m) for m in els]
    assert [op.atoms for op in ops] == [ref.atoms for ref in refs]
    for words in (ops, refs):  # products of neighbours, then a sigma a for the first three
        words += [RepOperator(model, a.atoms + b.atoms) for a, b in zip(words, words[1:])]
        words += [RepOperator(model, a.atoms + op_sigma(model).atoms + a.atoms) for a in words[:3]]
    for op, ref in zip(ops, refs):
        assert_atoms_match_fractions(op, [basepoint(model), *probe_vectors(model, op)], ref)


@pytest.mark.parametrize("m", MODELS, ids=range(len(MODELS)))
def test_atoms_match_fraction_arithmetic_when_parameters_cancel(m):
    b = Fraction(-5, 3)
    undo = RepOperator(m, op_unipotent(m, -b).atoms + op_unipotent(m, b).atoms)
    # C(b + d) with b + d = 0 is never a symbol, and unip(-b) unip(b) cancels C(b)
    assert all(s[1] != 0 for s in apply(op_unipotent(m, b), cvec(m.ctx, -b)).coeffs if s[0] == "c")
    assert not [s for s in apply(undo, eta2(m.ctx)).coeffs if s[0] == "c"]
    sandwich = op_diag(m, Fraction(3, 2)).atoms + op_sigma(m).atoms + op_unipotent(m, 0).atoms
    ops = [op_unipotent(m, b), undo, RepOperator(m, sandwich)]
    for op in ops:
        assert_atoms_match_fractions(op, [eta1(m.ctx), eta2(m.ctx), cvec(m.ctx, -b), cvec(m.ctx, b)])


def test_atoms_refuse_a_degenerate_context_as_fraction_arithmetic_does():
    m = RepModel(KernelContext(1.0, 1j))
    diag_unip = RepOperator(m, op_diag(m, 3).atoms + op_unipotent(m, Fraction(1, 2)).atoms)
    for op in [op_unipotent(m, 2), diag_unip]:
        for run in (apply, fraction_apply):
            with pytest.raises(UsageError, match="degenerate"):
                run(op, eta2(m.ctx))
    op = RepOperator(m, op_sigma(m).atoms + op_diag(m, 2).atoms)
    assert_atoms_match_fractions(op, [eta1(m.ctx), eta2(m.ctx), basepoint(m)])
