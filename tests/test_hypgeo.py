import cmath
import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from horocomb import su11
from horocomb.errors import DegenerateConfigurationError, UsageError, ValidationError
from horocomb.hypgeo import (
    HermitianFormSpace,
    cartan_argument,
    cartan_phase,
    classify_isometry,
    distance,
    minkowski_space,
)


@pytest.fixture
def h1():
    return minkowski_space(1, "complex")


@pytest.fixture
def h2r():
    return minkowski_space(2, "real")


def random_point(space, rng):
    n = space.dim - 1
    rest = rng.normal(size=n) + 1j * rng.normal(size=n)
    top = math.sqrt(1.0 + float(np.vdot(rest, rest).real)) * (1.0 + rng.uniform(0, 1))
    return space.point(np.concatenate([[top], rest]))


def random_su11_isometry(space, rng):
    return space.isometry(su11.random_su11(rng).matrix())


# ---------------------------------------------------------------------------
# space and point validation

def test_form_must_be_self_adjoint():
    with pytest.raises(ValidationError):
        HermitianFormSpace("complex", np.array([[1.0, 1.0], [0.0, -1.0]]))


@pytest.mark.parametrize(
    "tag, matrix",
    [("complex", np.ones((2, 3))), ("complex", np.ones(2)), ("quaternion", np.diag([1.0, -1.0]))],
)
def test_form_must_be_square_over_a_known_field(tag, matrix):
    with pytest.raises(ValidationError):
        HermitianFormSpace(tag, matrix)


def test_form_must_have_one_positive_direction():
    with pytest.raises(ValidationError):
        HermitianFormSpace("complex", np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(ValidationError):
        HermitianFormSpace("real", np.diag([-1.0, -1.0]))


@pytest.mark.parametrize("k", [1, 5, 255])
def test_diagonal_form_pairs_bitwise_like_the_matrix(k):
    space = minkowski_space(k, "complex")
    rng = np.random.default_rng(k)
    for _ in range(20):
        v, w = rng.normal(size=(2, k + 1)) + 1j * rng.normal(size=(2, k + 1))
        assert space.pair(v, w) == complex(np.conj(w) @ (space.matrix @ v))


def test_diagonal_form_signature_still_validated():
    for diag in ([1.0, 0.0, -1.0], [1.0, 1.0, -1.0]):
        with pytest.raises(ValidationError):
            HermitianFormSpace("complex", np.diag(diag))


def test_diagonal_form_self_adjointness_still_validated():
    # a diagonal form is checked on its diagonal alone, against the dense band
    with pytest.raises(ValidationError, match="self-adjoint"):
        HermitianFormSpace("complex", np.diag([1.0, -1.0 + 1e-6j, -1.0]))
    HermitianFormSpace("complex", np.diag([1.0, -1.0 + 1e-14j, -1.0]))


@pytest.mark.parametrize(
    "matrix",
    [np.diag([1.0, math.nan]), np.diag([1.0, -math.inf]), np.array([[1.0, math.nan], [math.nan, -1.0]])],
)
def test_form_refuses_a_non_finite_entry(matrix):
    # every comparison with NaN is False, so diag(1, nan) read as signature (1, 1)
    with pytest.raises(ValidationError, match="non-finite"):
        HermitianFormSpace("complex", matrix)


def test_non_diagonal_form_still_accepted_and_pairs_by_the_matrix():
    so12 = HermitianFormSpace("real", su11.SO12_FORM)
    rng = np.random.default_rng(12)
    for _ in range(20):
        v, w = rng.normal(size=(2, 3))
        assert so12.pair(v, w) == complex(np.conj(w) @ (so12.matrix @ v))
        assert so12.pair(v, w) == pytest.approx(v[0] * w[1] + v[1] * w[0] - v[2] * w[2], abs=1e-12)


def test_point_needs_positive_norm(h1):
    with pytest.raises(ValidationError):
        h1.point([0.0, 1.0])
    with pytest.raises(ValidationError):
        h1.point([1.0, 1.0])  # isotropic


def test_isometry_validation(h1):
    h1.isometry(su11.g(2, 3).matrix())
    with pytest.raises(ValidationError):
        h1.isometry(np.array([[2.0, 0.0], [0.0, 2.0]]))


def test_projective_equality(h1):
    assert h1.point([2.0, 1.0]) == h1.point([2.0j, 1.0j])
    assert h1.point([2.0, 1.0]) != h1.point([2.0, -1.0])


# ---------------------------------------------------------------------------
# distance

def test_distance_identity_case(h1):
    x = h1.point([1.0, 0.0])
    assert distance(x, x) == 0.0


def test_distance_against_geodesic_parametrization(h1):
    # brute-force oracle: points cosh(t) x + sinh(t) u lie at distance t
    x = h1.point([1.0, 0.0])
    u = np.array([0.0, 1.0])  # B(u,u) = -1, orthogonal to x
    for t in np.linspace(0.1, 3.0, 12):
        y = h1.point(math.cosh(t) * x.lift + math.sinh(t) * u)
        assert distance(x, y) == pytest.approx(t, abs=1e-12)
    # y = [2 e1 + sqrt(3) e2] sits at parameter arccosh(2) on this geodesic
    y = h1.point([2.0, math.sqrt(3.0)])
    assert distance(x, y) == pytest.approx(math.acosh(2.0), abs=1e-12)


def test_distance_isometry_invariant(h1):
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, y = random_point(h1, rng), random_point(h1, rng)
        g = random_su11_isometry(h1, rng)
        assert distance(g @ x, g @ y) == pytest.approx(distance(x, y), abs=1e-10)


def test_distance_needs_same_space(h1):
    other = minkowski_space(1, "complex")
    with pytest.raises(UsageError):
        distance(h1.point([1, 0]), other.point([1, 0]))


def test_triangle_inequality(h1):
    rng = np.random.default_rng(11)
    for _ in range(100):
        x, y, z = (random_point(h1, rng) for _ in range(3))
        assert distance(x, z) <= distance(x, y) + distance(y, z) + 1e-9


# ---------------------------------------------------------------------------
# angular invariant

def test_cartan_repeated_point_is_zero(h1):
    rng = np.random.default_rng(5)
    x, z = random_point(h1, rng), random_point(h1, rng)
    assert cartan_argument(x, x, z) == pytest.approx(0.0, abs=1e-14)


def test_cartan_parabolic_triple_value(h1):
    # triple (g(1,1) y, g(1,-1) y, y) at y = [xi1 + xi2] = [e1]
    y = h1.point([math.sqrt(2.0), 0.0])
    gp = h1.isometry(su11.g(1, 1).matrix())
    gm = h1.isometry(su11.g(1, -1).matrix())
    val = cartan_argument(gp @ y, gm @ y, y)

    # oracle: raw pairing products in the isotropic basis, where
    # g(1,b) = [[1, ib], [0, 1]] and the lift of y is (1, 1)
    pair = lambda a, b: a[0] * np.conj(b[1]) + a[1] * np.conj(b[0])
    w = np.array([1.0, 1.0], dtype=complex)
    wp = np.array([1.0 + 1.0j, 1.0])
    wm = np.array([1.0 - 1.0j, 1.0])
    prod = pair(wp, wm) * pair(wm, w) * pair(w, wp)
    assert prod == pytest.approx(14.0 - 2.0j, abs=1e-12)
    assert val == pytest.approx(math.atan2(-2.0, 14.0), abs=1e-12)
    assert val == pytest.approx(-0.14189705460416394, abs=1e-12)


def test_cartan_vanishes_on_real_subspace(h2r):
    rng = np.random.default_rng(9)
    for _ in range(20):
        pts = []
        for _ in range(3):
            rest = rng.normal(size=2)
            top = math.sqrt(1.0 + float(rest @ rest)) * (1 + rng.uniform(0, 1))
            pts.append(h2r.point(np.concatenate([[top], rest])))
        assert cartan_argument(*pts) == pytest.approx(0.0, abs=1e-12)


def test_cartan_lift_independent(h1):
    rng = np.random.default_rng(13)
    x, y, z = (random_point(h1, rng) for _ in range(3))
    base = cartan_argument(x, y, z)
    for _ in range(10):
        scales = rng.normal(size=3) + 1j * rng.normal(size=3)
        xs = h1.point(scales[0] * x.lift)
        ys = h1.point(scales[1] * y.lift) if abs(scales[1]) else y
        zs = h1.point(scales[2] * z.lift)
        assert cartan_argument(xs, ys, zs) == pytest.approx(base, abs=1e-12)


def test_cartan_alternating_and_invariant(h1):
    rng = np.random.default_rng(17)
    pts = [random_point(h1, rng) for _ in range(3)]
    base = cartan_argument(*pts)
    assert abs(base) > 1e-6  # generic triple
    for perm in permutations(range(3)):
        sign = (-1) ** sum(
            1 for i in range(3) for j in range(i + 1, 3) if perm[i] > perm[j]
        )
        val = cartan_argument(*(pts[i] for i in perm))
        assert val == pytest.approx(sign * base, abs=1e-12)
    for _ in range(10):
        g = random_su11_isometry(h1, rng)
        moved = [g @ p for p in pts]
        assert cartan_argument(*moved) == pytest.approx(base, abs=1e-10)


def test_cartan_cocycle_relation(h1):
    rng = np.random.default_rng(19)
    for _ in range(20):
        x, y, z, w = (random_point(h1, rng) for _ in range(4))
        total = (
            cartan_argument(y, z, w)
            - cartan_argument(x, z, w)
            + cartan_argument(x, y, w)
            - cartan_argument(x, y, z)
        )
        assert total == pytest.approx(0.0, abs=1e-9)


def test_cartan_boundary_degenerate_configuration(h1):
    # a nearly isotropic point taken three times: the triple product is
    # about (4e-12)^3, below 1e-30 times the product of the lifts' squared norms
    x = h1.point([1.0, 1.0 - 2e-12])
    with pytest.raises(DegenerateConfigurationError):
        cartan_argument(x, x, x)


def test_cartan_phase_keeps_the_phase_of_a_product_beyond_the_float_range():
    # the unscaled product of three pairings of modulus 1e200 overflows (to NaN here)
    zs = [1e200 * cmath.exp(1j * a) for a in (0.3, -1.1, 0.5)]
    assert not math.isfinite(abs(zs[0] * zs[1] * zs[2]))
    assert cartan_phase(zs) == pytest.approx(-0.3, abs=1e-15)
    assert cartan_phase([1e-200 * z for z in zs]) == pytest.approx(-0.3, abs=1e-15)


def test_cartan_phase_of_a_zero_product_is_zero():
    # signed zeros would give pi: (-2.2e-16 + 0j) * 0j * 0j is -0.0 + 0j
    assert cartan_phase([complex(-2.2e-16, 0.0), 0j, 0j]) == 0.0
    assert cartan_phase([0j, 0j, 0j]) == 0.0


# ---------------------------------------------------------------------------
# classification

def test_classify_examples(h1):
    hyp = classify_isometry(h1.isometry(su11.g(2, 0).matrix()))
    assert hyp.kind == "hyperbolic"
    assert hyp.displacement == pytest.approx(math.log(2.0), abs=1e-12)

    par = classify_isometry(h1.isometry(su11.g(1, 3).matrix()))
    assert (par.kind, par.displacement) == ("parabolic", 0.0)

    ell = classify_isometry(h1.isometry(np.eye(2)))
    assert (ell.kind, ell.displacement) == ("elliptic", 0.0)


def test_classify_so12_images():
    so12 = HermitianFormSpace("real", su11.SO12_FORM)
    hyp = classify_isometry(so12.isometry(su11.phi_to_so12(su11.g(2, 0))))
    assert hyp.kind == "hyperbolic"
    assert hyp.displacement == pytest.approx(2 * math.log(2.0), abs=1e-12)
    par = classify_isometry(so12.isometry(su11.phi_to_so12(su11.g(1, 2))))
    assert par.kind == "parabolic"


def test_classify_conjugation_invariant(h1):
    rng = np.random.default_rng(31)
    cases = [su11.g(2, 1), su11.g(1, 3), su11.g(1, 0), su11.s_element()]
    for el in cases:
        base = classify_isometry(h1.isometry(el.matrix()))
        for _ in range(5):
            h = su11.random_su11(rng)
            conj = h * el * h.inv()
            got = classify_isometry(h1.isometry(conj.matrix()))
            assert got.kind == base.kind
            assert got.displacement == pytest.approx(base.displacement, abs=1e-9)


def test_classify_rejects_large_dimension():
    space = minkowski_space(3, "real")
    with pytest.raises(UsageError):
        classify_isometry(space.isometry(np.eye(4)))


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=0.2, max_value=4.0),
)
def test_parabolic_and_diagonal_families(b, lam):
    # keep lambda clear of the classifier's unit-modulus band
    assume(lam == 1.0 or abs(lam - 1.0) > 1e-3)
    h1 = minkowski_space(1, "complex")
    from fractions import Fraction

    el = su11.g(Fraction(lam).limit_denominator(10**6), Fraction(b).limit_denominator(10**6))
    kind = classify_isometry(h1.isometry(el.matrix())).kind
    if lam == 1.0:
        assert kind in ("parabolic", "elliptic")
    else:
        assert kind == "hyperbolic"
