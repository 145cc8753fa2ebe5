"""Named numerical checks over a model, shared by the CLI and the test suite.

Every check is a dict {name, residual, tolerance, pass} built by `check`,
the one verdict rule: the worst of the check's scale-normalized samples is
its residual, and it passes when that residual is at most the tolerance.
A NaN sample makes the residual NaN (printed as `NaN` in JSON), so the
check fails.  A suite is a list of checks.
"""

from __future__ import annotations

import cmath
import math
from collections import defaultdict
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import su11
from .blockrep import (
    RepModel,
    RepOperator,
    apply,
    compare_up_to_phase,
    evaluate,
    op_diag,
    op_sigma,
    op_unipotent,
    orbit_gram,
    pairing,
    unip_atom,
)
from .invariants import CartanLimit, cartan_limit_estimate, model_arg
from .kernelspace import (
    ETA2,
    ZERO_BAND,
    FormalVector,
    KernelContext,
    csym,
    cvec,
    eigenvalue_signature,
    reconstruct_embedding,
)

RELATION_SAMPLES = (
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(3),
)
SIGMA_SAMPLES = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))  # b in s(eps b) = diag(b)
AMAP_PAIRS = (
    (Fraction(2), Fraction(-3)),   # b > 0 > d
    (Fraction(3), Fraction(1)),    # b > d > 0
    (Fraction(-4), Fraction(-1)),  # b < d < 0
    (Fraction(5), Fraction(5)),
)
BRANCH_SAMPLES = 50  # draws of b in `combined_k_additivity_check`
GRAM_SIZES = (4, 8, 12)  # orbit sizes in `gram_checks`
ROUNDTRIP_TOL = 1e-7  # tolerance of the embedding round trip in `gram_checks`


def check(name: str, residuals, tolerance: float) -> dict:
    """The record of one check: the worst of its residuals (one value or a
    sequence of samples) against the tolerance; a NaN sample fails."""
    residual = float(np.max(residuals, initial=0.0))
    return {
        "name": name,
        "residual": residual,
        "tolerance": float(tolerance),
        "pass": bool(residual <= tolerance),
    }


def _nonzero_rational(rng: np.random.Generator, lo=-2.0, hi=2.0) -> Fraction:
    while True:
        x = su11.rationalize(float(rng.uniform(lo, hi)), su11.DENOM_CAP)
        if x != 0:
            return x


def _plus_c_part(coeffs: dict, v: FormalVector) -> dict:
    for s, c in v.coeffs.items():
        if s[0] == "c":
            coeffs[s] = coeffs.get(s, 0.0) + c
    return coeffs


# ---------------------------------------------------------------------------
# operator identities

SIGMA = ("sigma",)


def s_word(r: Fraction) -> tuple:
    """s(r) = w u(1/r) w u(r) w u(1/r) as atoms, with w acting as sigma."""
    return (SIGMA, unip_atom(1 / r), SIGMA, unip_atom(r), SIGMA, unip_atom(1 / r))


def relation_words(
    samples: Sequence[Fraction] = RELATION_SAMPLES,
    bs: Sequence[Fraction] = SIGMA_SAMPLES,
) -> dict[str, list[tuple[tuple, tuple, int]]]:
    """(lhs, rhs, n) of each relation check, by check name: lhs = e^{inr} rhs.

    Exact rules: P-atoms compose as the group does, sigma^2 = 1 and
    sigma diag(l) = diag(1/l) sigma.  The sigma relation s(a) = e^{ip} diag(|a|),
    p = sign(a) r, reads off eta1: s(a) eta1 = k*(a) eta1, as the eta2-coefficient
    1 + k*(a) k*(1/a) + k*(a) <C(-1/a), C(-1/a)> = 1 + e^{2ip} - 2 cos(r) e^{ip} is 0.
    Over the sample grid, n is 0 for u(a) u(b) = u(a+b); sign(a) + sign(b) - sign(ab)
    for s(a) s(b) = s(ab); -sign(-1) for w^2 = s(-1); sign(a) + sign(1/a) for
    s(a) u(b) s(1/a) = u(b a^2); and eps for sigma_relation_eps_*: s(eps b) = diag(b).
    """
    samples, bs = [su11._frac(x) for x in samples], [su11._frac(x) for x in bs]
    grid = [(a, b) for a in samples for b in samples]
    u, sign = unip_atom, lambda x: 1 if x > 0 else -1
    return {
        "relation_s_multiplicative": [
            (s_word(a) + s_word(b), s_word(a * b), sign(a) + sign(b) - sign(a * b)) for a, b in grid
        ],
        "relation_s_u_conjugation": [
            (s_word(a) + (u(b),) + s_word(1 / a), (u(b * a * a),), 2 * sign(a)) for a, b in grid
        ],
        "relation_u_additive": [((u(a), u(b)), (u(a + b),), 0) for a, b in grid],
        "relation_w_squared": [((SIGMA, SIGMA), s_word(Fraction(-1)), 1)],
        "sigma_relation_eps_minus": [(s_word(-b), (("diag", b),), -1) for b in bs],
        "sigma_relation_eps_plus": [(s_word(b), (("diag", b),), 1) for b in bs],
    }


def group_law_words(model: RepModel, a: su11.SU11Element, b: su11.SU11Element) -> tuple:
    """(lhs, rhs, n) of rho(a) rho(b) = e^{inr} rho(ab): n = 0 if a or b is in P.
    Else rho(a) rho(b) = D U sigma D(lam_b) U(x) sigma U, x = d_a / lam_b^2 + b_b / lam_b,
    and the sigma relation at 1/x gives n = sign(x) (sigma^2 = 1 if x = 0)."""
    wa, wb = evaluate(model, a).atoms, evaluate(model, b).atoms
    x = wa[3][1] / wb[0][1] ** 2 + wb[1][1] if SIGMA in wa and SIGMA in wb else 0
    return wa + wb, evaluate(model, a * b).atoms, (x > 0) - (x < 0)


def _identity_check(name: str, model: RepModel, words, tolerance: float) -> dict:
    """`compare_up_to_phase` residuals over (lhs, rhs, n) atom words at e^{inr}."""
    r = model_arg(model)
    op = lambda word: RepOperator(model, word)
    res = [compare_up_to_phase(model, op(a), op(b), cmath.exp(1j * n * r)) for a, b, n in words]
    return check(name, res, tolerance)


def relation_checks(
    model: RepModel,
    samples: Sequence[Fraction] = RELATION_SAMPLES,
    tolerance: float = 1e-9,
) -> list[dict]:
    """The four presentation relations, verified projectively on probes."""
    words = relation_words(samples=samples).items()
    return [_identity_check(k, model, v, tolerance) for k, v in words if k.startswith("relation_")]


def sigma_relation_checks(
    model: RepModel,
    bs: Sequence[Fraction] = SIGMA_SAMPLES,
    tolerance: float = 1e-9,
) -> list[dict]:
    """s(eps b) = diag(b), projectively, for both signs of eps."""
    words = relation_words(bs=bs).items()
    return [_identity_check(k, model, v, tolerance) for k, v in words if k.startswith("sigma_")]


# ---------------------------------------------------------------------------
# kernel identities

def kernel_identity_checks(
    model: RepModel,
    rng: np.random.Generator,
    n_samples: int = 200,
    tolerance: float = 1e-10,
) -> list[dict]:
    """Block-operator and combined-kernel identities at seeded rational
    (lam, b, d) triples.  K below is the operator coefficient block_k."""
    ctx = model.ctx
    t = ctx.t
    res: dict[str, list[float]] = defaultdict(list)
    for _ in range(n_samples):
        lam = su11.rationalize(math.exp(rng.uniform(-1.0, 1.0)), su11.DENOM_CAP)
        b = _nonzero_rational(rng)
        d = _nonzero_rational(rng)
        lam_f, b_f, d_f = float(lam), float(b), float(d)
        kb, kd = ctx.block_k(b_f), ctx.block_k(d_f)
        scale = max(1.0, abs(kb), abs(kd))

        # vector identities: every coefficient of lhs - rhs, over scale, is a sample
        # c-cocycle: c(b+d) = c(b) + pi(b) c(d)
        diff = _plus_c_part({csym(b): 1.0}, apply(op_unipotent(model, b), cvec(ctx, d)))
        if b + d != 0:
            s = csym(b + d)
            diff[s] = 1.0 - diff.get(s, 0.0)
        res["c_cocycle"] += [abs(c) / scale for c in diff.values()]

        # dilation intertwiner: lam^t pi(lam,0) c(b) = c(lam^2 b)
        diff = {s: lam_f**t * c for s, c in apply(op_diag(model, lam), cvec(ctx, b)).coeffs.items()}
        s = csym(lam * lam * b)
        diff[s] = diff.get(s, 0.0) - 1.0
        res["c_dilation"] += [abs(c) / scale for c in diff.values()]

        # diagonal part carries no cocycle or kernel term
        diag_img = apply(op_diag(model, lam), FormalVector(ctx, {ETA2: 1.0}))
        res["diag_no_cocycle"] += [abs(c) / scale for s, c in diag_img.coeffs.items() if s != ETA2]

        # Delta scaling, and Delta against Im K, which is stated apart from it
        res["delta_scaling"].append(
            abs(lam_f ** (2 * t) * ctx.delta(b_f) - ctx.delta(lam_f**2 * b_f)) / scale
        )
        res["delta_odd"].append(abs(ctx.delta(b_f) + ctx.k(-b_f).imag) / scale)

        # pairing vs Im K and norms (the two sesquilinear identities)
        pd = ctx.c_pair(b_f, d_f)
        res["pair_imag_delta"].append(
            abs(pd.imag - (ctx.k(b_f - d_f).imag - ctx.k(b_f).imag + ctx.k(d_f).imag)) / scale
        )
        norm2 = lambda x: ctx.c_pair(x, x).real
        target = 0.0 if b == d else -norm2(b_f - d_f) / 2
        res["pair_real_norms"].append(
            abs(pd.real - (target + norm2(b_f) / 2 + norm2(d_f) / 2)) / scale
        )

        # K homogeneity, conjugation, addition
        res["k_homogeneous"].append(abs(ctx.block_k(lam_f * b_f) - lam_f**t * kb) / scale)
        res["k_conjugation"].append(abs(ctx.block_k(-b_f) - kb.conjugate()) / scale)
        ksum = kb + kd + ctx.c_pair(d_f, -b_f)
        res["k_addition"].append(abs(ctx.block_k(b_f + d_f) - ksum) / scale)

        # sigma-helper identities at eps b and eps / b
        for eps in (1, -1):
            eb, ebi = eps * b, Fraction(eps) / b
            ac = apply(op_sigma(model), cvec(ctx, eb))
            lhs1 = 1.0 + ctx.block_k(float(eb)) * ctx.block_k(float(ebi)) + pairing(
                ac, cvec(ctx, -ebi)
            )
            res["sigma_helper_scalar"].append(abs(lhs1) / scale)
            vec = _plus_c_part(
                {csym(ebi): ctx.block_k(float(eb))}, apply(op_unipotent(model, ebi), ac)
            )
            res["sigma_helper_vector"] += [abs(c) / scale for c in vec.values()]

    return [check(f"kernel_{k}", v, tolerance) for k, v in sorted(res.items())]


def combined_k_additivity_check(
    t: float, k1a: complex, k1b: complex, rng: np.random.Generator
) -> dict:
    """K of the summed context equals the sum of the branch K's."""
    ca, cb = KernelContext(t, k1a), KernelContext(t, k1b)
    csum = KernelContext(t, k1a + k1b)
    res = []
    for _ in range(BRANCH_SAMPLES):
        b = float(_nonzero_rational(rng))
        lhs = csum.block_k(b)
        rhs = ca.block_k(b) + cb.block_k(b)
        res.append(abs(lhs - rhs) / max(1.0, abs(lhs)))
    return check("kernel_branch_additivity", res, 1e-10)


def amap_checks(model: RepModel, tolerance: float = 1e-10) -> list[dict]:
    """Unitarity of the sigma action on the cocycle span, plus sigma^2 = 1."""
    ctx = model.ctx
    sig = op_sigma(model)
    res = []
    for b, d in AMAP_PAIRS:
        lhs = pairing(apply(sig, cvec(ctx, b)), apply(sig, cvec(ctx, d)))
        rhs = pairing(cvec(ctx, b), cvec(ctx, d))
        res.append(abs(lhs - rhs) / max(1.0, abs(rhs)))
    return [
        check("amap_unitary", res, tolerance),
        _identity_check("amap_involution", model, [((SIGMA, SIGMA), (), 0)], tolerance),
    ]


# ---------------------------------------------------------------------------
# orbit geometry

def orbit_spectrum(model: RepModel, rng: np.random.Generator, size: int) -> tuple:
    """The orbit Gram of the identity and size - 1 seeded elements, and its
    ascending eigenvalues: all NaN for a non-finite Gram, where eigvalsh would raise."""
    els = [su11.SU11Element.identity()] + [su11.random_su11(rng) for _ in range(size - 1)]
    gram = orbit_gram(model, els)
    return gram, np.linalg.eigvalsh(gram) if np.isfinite(gram).all() else np.full(size, math.nan)


def gram_checks(model: RepModel, rng: np.random.Generator) -> list[dict]:
    """One positive eigenvalue in orbit Grams; embedding round-trips them."""
    sig, roundtrip = [], []
    for size in GRAM_SIZES:
        gram, eigs = orbit_spectrum(model, rng, size)
        scale = float(np.max(np.abs(eigs)))
        sig.append(float(eigs[-2]) / scale)
        if math.isnan(scale):  # a non-finite Gram fails both checks
            roundtrip.append(scale)
        elif eigenvalue_signature(eigs)[0] == 1:  # else no (1, k) embedding to round-trip
            space, pts = reconstruct_embedding(gram)
            p = np.array(pts)
            rt = float(np.max(np.abs(p @ space.matrix.T @ p.conj().T - gram)))
            roundtrip.append(rt / max(1.0, scale))
    return [
        check("gram_one_positive", sig, ZERO_BAND),
        check("gram_embedding_roundtrip", roundtrip, ROUNDTRIP_TOL),
    ]


def homomorphism_checks(
    model: RepModel,
    rng: np.random.Generator,
    n_pairs: int = 25,
) -> list[dict]:
    """The group law at the phases of `group_law_words`, to within 1e-10."""
    draw_p = lambda: su11.g(_nonzero_rational(rng, 0.5, 2.0), _nonzero_rational(rng))
    parabolic = [group_law_words(model, draw_p(), draw_p()) for _ in range(n_pairs)]
    draw = su11.random_su11
    full = [group_law_words(model, draw(rng), draw(rng)) for _ in range(n_pairs)]
    return [
        _identity_check("homomorphism_parabolic_exact", model, parabolic, 1e-10),
        _identity_check("homomorphism_projective", model, full, 1e-10),
    ]


def limit_checks(model: RepModel, est: CartanLimit) -> list[dict]:
    """The last angle and the extrapolated limit each approach minus the
    angular invariant within max(1e-3, 5 b_max^-t)."""
    b_max, last = est.points[-1]
    tolerance = max(1e-3, 5.0 * b_max ** (-model.t))
    limits = {"cartan_limit_raw": last, "cartan_limit_extrapolated": est.extrapolated}
    return [check(name, abs(v + model_arg(model)), tolerance) for name, v in limits.items()]


# ---------------------------------------------------------------------------
# suite assembly

def run_suite(model: RepModel, suite: str, rng: np.random.Generator, schedule) -> list[dict]:
    checks: list[dict] = []
    if suite in ("relations", "all"):
        checks += relation_checks(model)
        checks += sigma_relation_checks(model)
        checks += homomorphism_checks(model, rng)
    if suite in ("kernel", "all"):
        checks += kernel_identity_checks(model, rng, n_samples=60)
        checks += amap_checks(model)
        k1 = model.ctx.k1
        ka = complex(0.4 * k1.real, 0.9 * k1.imag)
        kb = complex(0.6 * k1.real, 0.1 * k1.imag)
        checks.append(combined_k_additivity_check(model.t, ka, kb, rng))
    if suite in ("gram", "all"):
        checks += gram_checks(model, rng)
    if suite in ("limits", "all"):
        checks += limit_checks(model, cartan_limit_estimate(model, schedule))
    return sorted(checks, key=lambda c: c["name"])
