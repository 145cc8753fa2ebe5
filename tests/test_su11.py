import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from horocomb import hypgeo
from horocomb.errors import ValidationError
from horocomb.su11 import (
    ParabolicCoords,
    PsPFactors,
    SU11Element,
    _frac,
    bruhat_factor,
    classify_su11,
    displacement_su11,
    g,
    phi_to_so12,
    psi_to_sl2,
    random_su11,
    rationalize,
    reconstruct,
    s_element,
    to_su11,
    SO12_FORM,
)
from horocomb.verification import relation_words


def matrix_deviation(a: SU11Element, b: SU11Element) -> float:
    # distance up to the overall sign +/- Id
    return min(
        float(np.max(np.abs(a.matrix() - b.matrix()))),
        float(np.max(np.abs(a.matrix() + b.matrix()))),
    )


# ---------------------------------------------------------------------------
# parabolic coordinates

def test_identity_coordinates():
    assert to_su11(ParabolicCoords(Fraction(1), Fraction(0))) == SU11Element.identity()


def test_unit_determinant_enforced():
    with pytest.raises(ValidationError):
        SU11Element(Fraction(2), Fraction(0), Fraction(0), Fraction(0))


@pytest.mark.parametrize(
    "a_re, b_re, shown",
    [(2, 0, "4.0"), (10**400, 0, "inf"), (0, 10**400, "-inf"), (2**512, 0, "inf")],
)
def test_determinant_message_never_overflows(a_re, b_re, shown):
    # the message shows |alpha|^2 - |beta|^2 as a float, and +/-inf from 2^1023 on
    with pytest.raises(ValidationError, match=rf"^\|alpha\|\^2 - \|beta\|\^2 = {shown} != 1$"):
        SU11Element(a_re, 0, b_re, 0)


def test_parabolic_group_law():
    rng = np.random.default_rng(2)
    for _ in range(50):
        lam = Fraction(math.exp(rng.uniform(-1, 1))).limit_denominator(9999)
        gam = Fraction(math.exp(rng.uniform(-1, 1))).limit_denominator(9999)
        b = Fraction(float(rng.uniform(-2, 2))).limit_denominator(9999)
        d = Fraction(float(rng.uniform(-2, 2))).limit_denominator(9999)
        assert g(lam, b) * g(gam, d) == g(lam * gam, b / gam + lam * d)


def test_factor_parabolic_roundtrip():
    assert bruhat_factor(g(2, 1)) == ParabolicCoords(Fraction(2), Fraction(1))
    assert bruhat_factor(g(2, 1).neg()) == ParabolicCoords(Fraction(2), Fraction(1))
    assert not isinstance(bruhat_factor(s_element()), ParabolicCoords)


def test_lambda_must_be_positive():
    with pytest.raises(ValidationError):
        ParabolicCoords(Fraction(-1), Fraction(0))


@pytest.mark.parametrize("x", ["3/2", 1j, None])
def test_rational_intake_refuses_other_types(x):
    with pytest.raises(TypeError):
        _frac(x)


# ---------------------------------------------------------------------------
# Bruhat factorization

def test_bruhat_of_s_is_trivial_sandwich():
    f = bruhat_factor(s_element())
    assert f == PsPFactors(Fraction(1), Fraction(0), Fraction(0))


def test_bruhat_of_displayed_matrix():
    # the element with isotropic-basis matrix [[-2, i(3-10)], [i/3, -5/3]]
    m = g(3, 2) * s_element() * g(1, 5)
    p, q, r, s = ref_xi(entries(m))
    assert (p, q, r, s) == (Fraction(-2), Fraction(3 - 10), Fraction(1, 3), Fraction(-5, 3))
    assert bruhat_factor(m) == PsPFactors(Fraction(3), Fraction(2), Fraction(5))


def test_bruhat_reconstruction_random():
    rng = np.random.default_rng(4)
    for _ in range(100):
        m = random_su11(rng)
        rec = reconstruct(bruhat_factor(m))
        assert matrix_deviation(rec, m) < 1e-10


def test_bruhat_p_branch():
    assert bruhat_factor(g(2, 1)) == ParabolicCoords(Fraction(2), Fraction(1))


def test_bruhat_p_branch_is_exact_beyond_the_float_range():
    lam = Fraction(10**400, 3)
    for m in (g(lam, 7), g(1 / lam, -7), g(lam, 7).neg()):
        f = bruhat_factor(m)
        assert isinstance(f, ParabolicCoords) and reconstruct(f) in (m, m.neg())
    assert bruhat_factor(g(lam, 7)) == ParabolicCoords(lam, Fraction(7))


def test_decomposition_coverage():
    rng = np.random.default_rng(6)
    kinds = set()
    for _ in range(100):
        f = bruhat_factor(random_su11(rng))
        kinds.add(type(f).__name__)
        assert isinstance(f, (ParabolicCoords, PsPFactors))
    assert kinds == {"ParabolicCoords", "PsPFactors"}


# ---------------------------------------------------------------------------
# classical maps

def test_psi_displayed_images():
    lam, b = Fraction(3, 2), Fraction(-5, 7)
    np.testing.assert_allclose(
        psi_to_sl2(g(lam, b)),
        [[float(lam), float(b)], [0.0, float(1 / lam)]],
        atol=1e-14,
    )
    np.testing.assert_allclose(psi_to_sl2(s_element()), [[0, 1], [-1, 0]], atol=1e-14)
    np.testing.assert_allclose(psi_to_sl2(SU11Element.identity()), np.eye(2), atol=1e-15)


def exact_psi(m: SU11Element) -> list[list[Fraction]]:
    # T^T raw T with T = [[1, -1], [1, 1]] / sqrt2, the change to the
    # isotropic basis, is rational: (1/2) [[1, 1], [-1, 1]] raw [[1, -1], [1, 1]]
    ar, ai, br, bi = m.a_re, m.a_im, m.b_re, m.b_im
    raw = [[ar + bi, br + ai], [br - ai, ar - bi]]
    left = [[raw[0][0] + raw[1][0], raw[0][1] + raw[1][1]], [raw[1][0] - raw[0][0], raw[1][1] - raw[0][1]]]
    return [[(row[0] + row[1]) / 2, (row[1] - row[0]) / 2] for row in left]


def psi_phi_cases():
    rng = np.random.default_rng(16)
    return [s_element(), SU11Element.identity(), g(Fraction(3, 2), Fraction(1, 3))] + [
        random_su11(rng) for _ in range(200)
    ]


def test_psi_entries_are_the_exact_entries_correctly_rounded():
    for m in psi_phi_cases():
        want = np.array([[float(x) for x in row] for row in exact_psi(m)])
        assert psi_to_sl2(m).tobytes() == want.tobytes(), m


def test_phi_is_the_symmetric_square_of_exact_psi():
    # Phi = [[a^2, b^2, -sqrt2 ab], [c^2, d^2, -sqrt2 cd], [-sqrt2 ac, -sqrt2 bd, ad + bc]]
    # for psi = [[a, b], [c, d]], here at 50 digits from the exact entries
    def mp(x: Fraction):
        return mpmath.mpf(x.numerator) / x.denominator

    with mpmath.workdps(50):
        r2 = mpmath.sqrt(2)
        for m in psi_phi_cases():
            (a, b), (c, d) = exact_psi(m)
            want = [
                [mp(a * a), mp(b * b), -r2 * mp(a * b)],
                [mp(c * c), mp(d * d), -r2 * mp(c * d)],
                [-r2 * mp(a * c), -r2 * mp(b * d), mp(a * d + b * c)],
            ]
            got = phi_to_so12(m)
            bound = 2e-15 * max(1.0, float(np.max(np.abs(got))))
            err = max(abs(got[i, j] - want[i][j]) for i in range(3) for j in range(3))
            assert err <= bound, (m, float(err))


def test_psi_determinant_and_homomorphism():
    rng = np.random.default_rng(8)
    for _ in range(50):
        x, y = random_su11(rng), random_su11(rng)
        assert np.linalg.det(psi_to_sl2(x)) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(
            psi_to_sl2(x * y), psi_to_sl2(x) @ psi_to_sl2(y), atol=1e-12
        )


def test_phi_displayed_images():
    np.testing.assert_allclose(
        phi_to_so12(g(2, 0)), np.diag([4.0, 0.25, 1.0]), atol=1e-13
    )
    np.testing.assert_allclose(
        phi_to_so12(s_element()), [[0, 1, 0], [1, 0, 0], [0, 0, -1]], atol=1e-13
    )
    np.testing.assert_allclose(
        phi_to_so12(SU11Element.identity().neg()), np.eye(3), atol=1e-13
    )


def test_phi_unipotent_image():
    # eta'1 fixed; the mixed entries carry sqrt(2) b, not sqrt(b)
    b = 3.0
    expect = np.array(
        [
            [1.0, b * b, -math.sqrt(2.0) * b],
            [0.0, 1.0, 0.0],
            [0.0, -math.sqrt(2.0) * b, 1.0],
        ]
    )
    np.testing.assert_allclose(phi_to_so12(g(1, 3)), expect, atol=1e-13)


def test_phi_preserves_form_and_multiplies():
    rng = np.random.default_rng(10)
    for _ in range(50):
        x, y = random_su11(rng), random_su11(rng)
        px = phi_to_so12(x)
        assert np.max(np.abs(px.T @ SO12_FORM @ px - SO12_FORM)) < 1e-11
        np.testing.assert_allclose(
            phi_to_so12(x * y), phi_to_so12(x) @ phi_to_so12(y), atol=1e-11
        )


def test_phi_kernel_is_plus_minus_identity():
    assert np.max(np.abs(phi_to_so12(SU11Element.identity()) - np.eye(3))) < 1e-14
    assert np.max(np.abs(phi_to_so12(SU11Element.identity().neg()) - np.eye(3))) < 1e-14
    rng = np.random.default_rng(12)
    for _ in range(50):
        m = random_su11(rng)
        if matrix_deviation(m, SU11Element.identity()) > 1e-6:
            assert np.max(np.abs(phi_to_so12(m) - np.eye(3))) > 1e-6


def test_phi_preserves_type():
    rng = np.random.default_rng(14)
    so12 = hypgeo.HermitianFormSpace("real", SO12_FORM)
    cases = [g(2, 1), g(1, 3), s_element(), g(1, 0)]
    count = 0
    while count < 60:
        m = random_su11(rng)
        if abs(abs(float(m.a_re)) - 1.0) < 1e-3:
            continue  # stay clear of the numerical classification boundary
        cases.append(m)
        count += 1
    for m in cases:
        got = hypgeo.classify_isometry(so12.isometry(phi_to_so12(m))).kind
        assert got == classify_su11(m)


# ---------------------------------------------------------------------------
# displacement

def test_displacement_examples():
    assert displacement_su11(g(2, 0)) == pytest.approx(math.log(2.0), abs=1e-14)
    assert displacement_su11(g(1, 7)) == 0.0
    assert displacement_su11(SU11Element.identity()) == 0.0


def test_displacement_doubles_under_phi():
    rng = np.random.default_rng(16)
    so12 = hypgeo.HermitianFormSpace("real", SO12_FORM)
    for _ in range(30):
        lam = Fraction(float(rng.uniform(1.2, 3.0))).limit_denominator(9999)
        h = random_su11(rng)
        m = h * g(lam, 0) * h.inv()
        cls = hypgeo.classify_isometry(so12.isometry(phi_to_so12(m)))
        assert cls.kind == "hyperbolic"
        assert cls.displacement == pytest.approx(2 * displacement_su11(m), abs=1e-10)


# ---------------------------------------------------------------------------
# the verdict's relation words, evaluated in the group
#
# `relation_words` gives the (lhs, rhs, n) atom words and phases that
# `relation_checks` and `sigma_relation_checks` compare; here each atom maps
# to the group element it represents, and each word to the left-to-right
# product of its atoms.  The group does not see the phase e^{inr}.

def element(word, unip=lambda b: g(1, b)) -> SU11Element:
    images = {"unip": unip, "sigma": s_element, "diag": lambda lam: g(lam, 0)}
    out = SU11Element.identity()
    for kind, *params in word:
        out = out * images[kind](*params)
    return out


PRESENTATION = [
    "relation_s_multiplicative",
    "relation_s_u_conjugation",
    "relation_u_additive",
    "relation_w_squared",
]


def test_empty_word_is_identity():
    assert element(()) == SU11Element.identity()
    # u(a) u(-a) = u(0): the u(0) atom is the identity too
    pairs = relation_words()["relation_u_additive"]
    zero_sums = [(lhs, rhs) for lhs, rhs, _ in pairs if rhs == (("unip", 0),)]
    assert len(zero_sums) == 6
    assert all(element(lhs) == element(rhs) == SU11Element.identity() for lhs, rhs in zero_sums)


def test_w_squared_equals_s_minus_one():
    [(lhs, rhs, _)] = relation_words()["relation_w_squared"]
    assert element(lhs) == element(rhs) == s_element() * s_element()


def test_s_conjugation_relation():
    pairs = relation_words()["relation_s_u_conjugation"]
    assert len(pairs) == 49
    assert all(element(lhs) == element(rhs) for lhs, rhs, _ in pairs)


def test_s_word_lands_on_diagonal():
    # s(b) = g(b, 0) and s(-b) = -g(b, 0): equal up to the centre, which the
    # projective comparison does not see
    words = relation_words()
    assert all(element(lhs) == element(rhs) for lhs, rhs, _ in words["sigma_relation_eps_plus"])
    minus = words["sigma_relation_eps_minus"]
    assert all(element(lhs) == element(rhs).neg() for lhs, rhs, _ in minus)


def test_presentation_check_canonical():
    words = relation_words()
    assert sorted(k for k in words if k.startswith("relation_")) == PRESENTATION
    assert all(element(lhs) == element(rhs) for k in PRESENTATION for lhs, rhs, _ in words[k])


def test_presentation_check_under_phi():
    worst = max(
        float(np.max(np.abs(phi_to_so12(element(lhs)) - phi_to_so12(element(rhs)))))
        for pairs in relation_words().values()
        for lhs, rhs, _ in pairs
    )
    assert worst < 1e-9


def test_presentation_check_negative_control():
    # corrupting u(1) by a 1% parameter shift must blow up the additive relation
    unip = lambda b: g(1, Fraction(101, 100) if b == 1 else b)
    worst = max(
        matrix_deviation(element(lhs, unip), element(rhs, unip))
        for lhs, rhs, _ in relation_words()["relation_u_additive"]
    )
    assert worst > 1e-3


# ---------------------------------------------------------------------------
# integer storage against the Fraction formulas it replaced
#
# Reference elements are 4-tuples (Re alpha, Im alpha, Re beta, Im beta) of
# Fractions, computed with one Fraction operation at a time.

def ref_mul(x, y):
    a1r, a1i, b1r, b1i = x
    a2r, a2i, b2r, b2i = y
    return (
        a1r * a2r - a1i * a2i + b1r * b2r + b1i * b2i,
        a1r * a2i + a1i * a2r + b1i * b2r - b1r * b2i,
        a1r * b2r - a1i * b2i + b1r * a2r + b1i * a2i,
        a1r * b2i + a1i * b2r + b1i * a2r - b1r * a2i,
    )


def ref_inv(x):
    return (x[0], -x[1], -x[2], -x[3])


def ref_neg(x):
    return tuple(-v for v in x)


def ref_xi(x):
    ar, ai, br, bi = x
    return (ar + br, ai - bi, ai + bi, ar - br)


def ref_to_su11(lam, b):
    half = Fraction(1, 2)
    return ((lam + 1 / lam) * half, b * half, (lam - 1 / lam) * half, -b * half)


def ref_bruhat(x):
    p, q, r, s = ref_xi(x)
    if r == 0:
        sign = 1 if p > 0 else -1
        return ParabolicCoords(sign * p, sign * q)
    sign = 1 if r > 0 else -1
    lam = 1 / (sign * r)
    return PsPFactors(lam, -sign * p, -lam * sign * s)


def entries(m: SU11Element):
    return (m.a_re, m.a_im, m.b_re, m.b_im)


RATS = st.fractions(min_value=-4, max_value=4, max_denominator=2**16)
LAMS = st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=2**16)
# g(lam, b) s^eps g(1, d); with no s in a product it stays in P
FACTORS = st.tuples(LAMS, RATS, st.booleans(), RATS)


@settings(max_examples=150, deadline=None)
@given(st.lists(FACTORS, min_size=1, max_size=5))
def test_integer_storage_matches_fraction_formulas(factors):
    m, ref = SU11Element.identity(), entries(SU11Element.identity())
    for lam, b, eps, d in factors:
        el, el_ref = g(lam, b), ref_to_su11(lam, b)
        assert entries(el) == el_ref
        if eps:
            el, el_ref = el * s_element(), ref_mul(el_ref, entries(s_element()))
        el, el_ref = el * g(1, d), ref_mul(el_ref, ref_to_su11(Fraction(1), d))
        m, ref = m * el, ref_mul(ref, el_ref)
        assert entries(m) == ref
    assert entries(m.inv()) == ref_inv(ref)
    assert entries(m.neg()) == ref_neg(ref)
    assert bruhat_factor(m) == ref_bruhat(ref)
    assert reconstruct(bruhat_factor(m)) in (m, m.neg())
    assert m * m.inv() == SU11Element.identity()


@pytest.mark.parametrize(
    "excess, accepted", [(5e-13, True), (-5e-13, True), (2e-12, False), (-2e-12, False)]
)
def test_determinant_band(excess, accepted):
    # |alpha|^2 - |beta|^2 = 1 + excess, with exact parts close to the floats
    a_re, b_im = rationalize(math.sqrt(1.25 + excess), 10**15), Fraction(1, 2)
    if accepted:
        m = SU11Element(a_re, 0, 0, b_im)
        det = m.a_re**2 + m.a_im**2 - m.b_re**2 - m.b_im**2
        assert float(det) - 1.0 == pytest.approx(excess, rel=1e-2)
    else:
        with pytest.raises(ValidationError):
            SU11Element(a_re, 0, 0, b_im)


def test_determinant_checked_on_integer_input_and_products():
    with pytest.raises(ValidationError):
        SU11Element(2, 0, 0, 0)
    # inside the band alone, outside it after enough factors
    near = SU11Element(rationalize(math.sqrt(1 + 9e-13), 10**15), 0, 0, 0)
    with pytest.raises(ValidationError):
        near * near


def test_unnormalized_inputs_give_equal_elements():
    a = SU11Element(Fraction(5, 4), Fraction(0), Fraction(3, 4), Fraction(0))
    b = SU11Element(Fraction(10, 8), 0, 0.75, Fraction(0, 7))
    c = g(2, 0)
    assert a == b == c and hash(a) == hash(b) == hash(c)
    assert len({a, b, c}) == 1
    assert a != a.neg() and a.inv() * a == SU11Element.identity()


def test_entry_properties_are_fractions():
    m = random_su11(np.random.default_rng(3))
    for value in entries(m):
        assert type(value) is Fraction
    assert m.alpha == complex(float(m.a_re), float(m.a_im))
    assert m.beta == complex(float(m.b_re), float(m.b_im))


@settings(max_examples=400, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False), st.integers(1, 2**20))
@example(0.0, 1)
@example(-0.0, 2**20)
@example(5e-324, 2**16)  # smallest subnormal
@example(-2.2250738585072014e-308, 10**6)  # smallest normal
@example(1.7976931348623157e308, 1)
@example(-3.0, 7)
@example(0.5, 1)  # a tie between 0 and 1: the stdlib keeps the convergent
@example(-1.5, 1)
def test_rationalize_is_limit_denominator(x, cap):
    got, want = rationalize(x, cap), Fraction(x).limit_denominator(cap)
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


@pytest.mark.parametrize(
    "x, error", [(math.inf, OverflowError), (-math.inf, OverflowError), (math.nan, ValueError)]
)
def test_rationalize_rejects_non_finite_like_fraction(x, error):
    with pytest.raises(error):
        Fraction(x).limit_denominator(2**16)
    with pytest.raises(error):
        rationalize(x, 2**16)
