"""The three closed-loop workloads and the output gate of each.

A workload turns ``(seed, rep, i)`` into the inputs of op ``i`` of pass
``rep`` with numpy's seeded generator, runs the op through horocomb's public API, and checks the
op's output with a gate written here, independently of horocomb's own
``pass`` flags.  The gate returns a list of problems; an empty list means
the op passed.  An op that raises fails too (the runner records that).

Op ``i`` belongs to stratum ``i % cycle`` in every pass, so every run of
any length covers the strata in the same proportions; each pass draws fresh
inputs, so no pass repeats an input that a cache could remember.  Ops
``0 .. cycle-1`` of pass 0 form the fixed cycle that the traced run replays.

``hc`` below is the namespace of horocomb modules loaded for this run; ops
look functions up through it at call time, so a traced run sees the wrapped
versions.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from fractions import Fraction

import numpy as np

HALF_PI = math.pi / 2

# ---------------------------------------------------------------------------
# seeded inputs shared by the workloads


def op_rng(seed: int, stream: int, rep: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, rep, i])


def rational(x: float, cap: int = 2**16) -> Fraction:
    return Fraction(x).limit_denominator(cap)


def nonzero_rational(rng, lo: float = -2.0, hi: float = 2.0, cap: int = 2**16) -> Fraction:
    while True:
        x = rational(float(rng.uniform(lo, hi)), cap)
        if x != 0:
            return x


def draw_params(rng, stratum: int) -> tuple[float, float]:
    """A constructible (t, r): 0 interior, 1 the real edge r = 0, 2 the
    fractional-power edge r = t*pi/2, 3 the line t = 1."""
    t = float(rng.uniform(0.02, 0.98))
    if stratum == 0:
        return t, float(rng.uniform(0.05, 0.95)) * t * HALF_PI
    if stratum == 1:
        return t, 0.0
    if stratum == 2:
        return t, t * HALF_PI
    return 1.0, float(rng.uniform(0.0, 0.98)) * HALF_PI


def draw_element(hc, rng):
    """g(lam, b) s^eps g(1, d) with lam = exp(U[-1, 1]), b, d ~ U[-2, 2]."""
    lam = rational(math.exp(rng.uniform(-1.0, 1.0)))
    b = rational(float(rng.uniform(-2.0, 2.0)))
    d = rational(float(rng.uniform(-2.0, 2.0)))
    out = hc.su11.g(lam, b)
    if rng.integers(0, 2):
        out = out * hc.su11.s_element()
    return out * hc.su11.g(1, d)


def check_records(checks, problems: list, ceilings: dict | None = None) -> None:
    """Recompute every verdict from residual and tolerance instead of
    trusting ``pass``; with ``ceilings``, a tolerance may not exceed the
    ceiling for its check name (a loosened check fails the gate)."""
    for c in checks:
        name, res, tol = c.get("name"), c.get("residual"), c.get("tolerance")
        if not all(isinstance(x, float) and math.isfinite(x) for x in (res, tol)):
            problems.append(f"{name}: residual/tolerance not finite floats")
            continue
        if not res <= tol:
            problems.append(f"{name}: residual {res:.3g} above tolerance {tol:.3g}")
        if c.get("pass") is not True:
            problems.append(f"{name}: pass is {c.get('pass')!r}")
        if ceilings is not None and tol > ceilings.get(name, 0.0) * (1 + 1e-12):
            problems.append(f"{name}: tolerance {tol:.3g} above ceiling {ceilings.get(name)}")


# ---------------------------------------------------------------------------
# verify_grid: run_suite(model, "all") on a fresh model per op

SCHEDULE_B_MAX = 1e8  # geometric_schedule(1, 10, 9) ends at 10**8
SUITE_TOLERANCES = {
    **{f"relation_{k}": 1e-9 for k in ("s_multiplicative", "s_u_conjugation", "u_additive", "w_squared")},
    "sigma_relation_eps_minus": 1e-9,
    "sigma_relation_eps_plus": 1e-9,
    "homomorphism_parabolic_exact": 1e-10,
    "homomorphism_projective": 1e-10,
    **{
        f"kernel_{k}": 1e-10
        for k in (
            "branch_additivity", "c_cocycle", "c_dilation", "delta_odd", "delta_scaling",
            "diag_no_cocycle", "k_addition", "k_conjugation", "k_homogeneous",
            "pair_imag_delta", "pair_real_norms", "sigma_helper_scalar", "sigma_helper_vector",
        )
    },
    "amap_involution": 1e-10,
    "amap_unitary": 1e-10,
    "gram_one_positive": 1e-9,
    "gram_embedding_roundtrip": 1e-7,
}


def suite_ceilings(t: float) -> dict:
    """The tolerance of each check of the "all" suite at displacement t, as
    the suite sets it today; a check may tighten but not loosen it."""
    limit = max(1e-3, 5.0 * SCHEDULE_B_MAX ** (-t))
    return {
        **SUITE_TOLERANCES,
        "cartan_limit_extrapolated": limit,
        "cartan_limit_raw": max(limit, 2.0 * SCHEDULE_B_MAX ** (-t / 2)),
    }


class VerifyGrid:
    name = "verify_grid"
    cycle = slots = 4

    def prepare(self, hc, seed: int) -> dict:
        return {"seed": seed, "schedule": hc.invariants.geometric_schedule(1.0, 10.0, 9)}

    def inputs(self, hc, state: dict, i: int, rep: int = 0) -> dict:
        rng = op_rng(state["seed"], 0, rep, i)
        t, r = draw_params(rng, i % self.cycle)
        return {"label": f"stratum{i % self.cycle}", "t": t, "r": r,
                "rng": np.random.default_rng(int(rng.integers(2**31)))}

    def op(self, hc, state: dict, inp: dict):
        model = hc.combination.make_representation(inp["t"], inp["r"])
        return hc.verification.run_suite(model, "all", inp["rng"], state["schedule"])

    def gate(self, checks, inp: dict) -> list[str]:
        problems: list[str] = []
        ceilings = suite_ceilings(inp["t"])
        names = sorted(c.get("name") for c in checks)
        if names != sorted(ceilings):
            missing = sorted(set(ceilings) - set(names))
            extra = sorted(set(names) - set(ceilings))
            problems.append(f"check names differ: missing {missing}, unexpected {extra}")
        check_records(checks, problems, ceilings)
        return problems


# ---------------------------------------------------------------------------
# orbit_gram: orbit Gram, signature and embedding round trip on one warm model

ORBIT_SIZES = (32, 128, 256)
ZERO_BAND = 1e-9  # the relative eigenvalue band signature_count uses
ROUNDTRIP_TOL = 1e-7  # gram_checks' round-trip tolerance


class OrbitGram:
    name = "orbit_gram"
    cycle = slots = len(ORBIT_SIZES)

    def prepare(self, hc, seed: int) -> dict:
        t, r = draw_params(op_rng(seed, 4, 0, 0), 0)
        return {"seed": seed, "model": hc.combination.make_representation(t, r)}

    def inputs(self, hc, state: dict, i: int, rep: int = 0) -> dict:
        n = ORBIT_SIZES[i % self.cycle]
        rng = op_rng(state["seed"], 1, rep, i)
        els = [hc.su11.SU11Element.identity()] + [draw_element(hc, rng) for _ in range(n - 1)]
        return {"label": f"n{n}", "n": n, "elements": els}

    def op(self, hc, state: dict, inp: dict) -> dict:
        gram = hc.blockrep.orbit_gram(state["model"], inp["elements"])
        sig = hc.kernelspace.signature_count(gram)
        space, pts = hc.kernelspace.reconstruct_embedding(gram)
        n = len(pts)
        # the program-side round trip: basepoint row and diagonal
        rt = max(
            abs(space.pair(pts[i], pts[j]) - gram[i, j])
            for i, j in [(0, j) for j in range(n)] + [(j, j) for j in range(n)]
        ) / max(1.0, float(np.max(np.abs(gram))))
        return {"gram": gram, "signature": sig, "form": space.matrix, "points": pts, "roundtrip": rt}

    def gate(self, out: dict, inp: dict) -> list[str]:
        problems: list[str] = []
        gram = np.asarray(out["gram"])
        n = inp["n"]
        if gram.shape != (n, n):
            return [f"gram shape {gram.shape} != ({n}, {n})"]
        if not np.all(np.isfinite(gram)):
            return ["gram has non-finite entries"]
        scale = max(1.0, float(np.max(np.abs(gram))))
        if np.max(np.abs(gram - gram.conj().T)) > 1e-12 * scale:
            problems.append("gram is not Hermitian")
        if np.max(np.abs(np.diag(gram) - 1.0)) > 1e-9:
            problems.append("gram diagonal is not 1 (unit lifts)")
        if np.min(np.abs(gram)) < 1.0 - 1e-9:
            problems.append("an entry has modulus below 1 (two orbit points closer than possible)")
        eigs = np.linalg.eigvalsh(gram)
        top = float(np.max(np.abs(eigs)))
        npos = int(np.sum(eigs > ZERO_BAND * top))
        if npos != 1:
            problems.append(f"{npos} positive eigenvalues, expected exactly 1")
        if tuple(out["signature"])[:1] != (npos,):
            problems.append(f"signature_count {out['signature']} disagrees with {npos} positive")
        pts = np.array(out["points"])
        recon = pts @ np.asarray(out["form"]).T @ pts.conj().T
        rt = float(np.max(np.abs(recon - gram))) / max(1.0, top)
        if not rt <= ROUNDTRIP_TOL:
            problems.append(f"embedding round trip {rt:.3g} above {ROUNDTRIP_TOL}")
        if not out["roundtrip"] <= ROUNDTRIP_TOL:
            problems.append(f"program-side round trip {out['roundtrip']:.3g} above {ROUNDTRIP_TOL}")
        return problems


# ---------------------------------------------------------------------------
# cli_mix: in-process cli.main(argv) over every subcommand

def _f(x: float) -> str:
    return repr(float(x))


def _frac_text(rng, lo, hi, cap=50) -> str:
    """A rational in [lo, hi]; pass it as ``--flag=value`` when it may be
    negative, since argparse reads "-3/2" as an option."""
    return str(nonzero_rational(rng, lo, hi, cap))


def _lam_text(rng) -> str:
    return str(rational(math.exp(rng.uniform(-1.0, 1.0)), 50))


def _classify(rng):
    if rng.integers(0, 2):
        return ["classify", "--alpha", "0,1", "--beta", "0,0"]
    return ["classify", "--lam", _lam_text(rng), "--b=" + _frac_text(rng, -2, 2)]


def _maps(rng):
    return ["maps", "--lam", _lam_text(rng), "--b=" + _frac_text(rng, -2, 2),
            "--sample", "20", "--seed", str(int(rng.integers(1000)))]


def _tr(rng):
    t, r = draw_params(rng, int(rng.integers(0, 4)))
    return ["--t", _f(t), "--r", _f(r)]


def _build(rng):
    return ["model", "build", *_tr(rng)]


def _combine(rng):
    t = float(rng.uniform(0.02, 0.98))
    r1, r2 = sorted(float(x) for x in rng.uniform(0.0, 1.0, 2) * t * HALF_PI)
    return ["combine", "--t", _f(t), "--r1", _f(r1), "--r2", _f(r2), "--u", _f(rng.uniform(0, 1))]


def _cartan(rng):
    fmt = ["--format", "json"] if rng.integers(0, 2) else []
    return ["cartan-limit", *_tr(rng), *fmt]


def _gns(rng):
    return ["gns-check", *_tr(rng), "--sample", "8", "--seed", str(int(rng.integers(1000)))]


def _verify(suite):
    def make(rng):
        return ["model", "verify", *_tr(rng), "--suite", suite, "--seed", str(int(rng.integers(1000)))]
    return make


def _bad_params(rng):
    t = float(rng.uniform(0.1, 0.9))
    return ["model", "build", "--t", _f(t), "--r", _f(t * HALF_PI + rng.uniform(0.05, 0.5))]


def _bad_lam(rng):
    return ["classify", "--lam", "abc"]


def _bad_steps(rng):
    return ["cartan-limit", *_tr(rng), "--steps", "0"]


def _bad_gns_sample(rng):
    return ["gns-check", *_tr(rng), "--sample", "1"]


def _bad_maps_sample(rng):
    return ["maps", "--lam", _lam_text(rng), "--sample", "0"]


# (label, argv maker, expected exit code); valid kinds twice per cycle, each
# invalid kind once, so 5 of every 21 ops are invalid argv.
VALID = [
    ("classify", _classify), ("maps", _maps), ("model_build", _build), ("combine", _combine),
    ("cartan-limit", _cartan), ("gns-check", _gns),
    ("model_verify", _verify("kernel")), ("model_verify", _verify("limits")),
]
INVALID = [
    ("model_build", _bad_params), ("classify", _bad_lam), ("cartan-limit", _bad_steps),
    ("gns-check", _bad_gns_sample), ("maps", _bad_maps_sample),
]
CLI_KINDS = [(lbl, mk, 0) for lbl, mk in VALID] * 2 + [(lbl, mk, 2) for lbl, mk in INVALID]

VERIFY_NAMES = {
    "kernel": sorted(n for n in SUITE_TOLERANCES if n.startswith(("kernel_", "amap_"))),
    "limits": ["cartan_limit_extrapolated", "cartan_limit_raw"],
}


class CliMix:
    name = "cli_mix"
    cycle = len(CLI_KINDS)
    slots = 4 * cycle

    def prepare(self, hc, seed: int) -> dict:
        return {"seed": seed}

    def inputs(self, hc, state: dict, i: int, rep: int = 0) -> dict:
        label, make, code = CLI_KINDS[i % self.cycle]
        argv = make(op_rng(state["seed"], 3, rep, i))
        return {"label": label, "argv": argv, "expected_code": code}

    def op(self, hc, state: dict, inp: dict) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = hc.cli.main(inp["argv"])
        return code, out.getvalue()

    def gate(self, result: tuple, inp: dict) -> list[str]:
        code, stdout = result
        if code != inp["expected_code"]:
            return [f"exit code {code}, expected {inp['expected_code']}"]
        if code != 0:
            return []
        argv = inp["argv"]
        if argv[0] == "cartan-limit" and "json" not in argv:
            return _gate_csv(stdout)
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return [f"stdout is not JSON: {exc}"]
        return _gate_json(doc, argv)


def _gate_csv(stdout: str) -> list[str]:
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != ["b", "cartan", "extrapolated"]:
        return ["CSV header missing"]
    if len(rows) < 3:
        return ["CSV has fewer than two data rows"]
    try:
        values = [[float(x) for x in row] for row in rows[1:]]
    except ValueError as exc:
        return [f"CSV value does not parse: {exc}"]
    if any(len(v) != 3 or not all(map(math.isfinite, v)) for v in values):
        return ["CSV row is not three finite numbers"]
    return []


def _arg(argv: list, flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _gate_json(doc: dict, argv: list) -> list[str]:
    problems: list[str] = []
    cmd = argv[0]
    if cmd == "classify":
        if doc.get("type") not in ("elliptic", "parabolic", "hyperbolic"):
            problems.append(f"unknown element type {doc.get('type')!r}")
        if doc.get("factorization", {}).get("kind") not in ("P", "PsP"):
            problems.append("factorization kind missing")
    elif cmd in ("maps", "combine"):
        names = {"maps": ["phi_homomorphism", "psi_homomorphism"],
                 "combine": ["combination_affine_arg"]}[cmd]
        if sorted(c.get("name") for c in doc.get("checks", [])) != names:
            problems.append("check names differ")
        check_records(doc.get("checks", []), problems)
    elif cmd == "model" and argv[1] == "build":
        if doc.get("verdict") != "constructible":
            problems.append(f"verdict {doc.get('verdict')!r}")
        if abs(doc.get("r", math.inf) - float(_arg(argv, "--r"))) > 1e-12:
            problems.append("model angular invariant differs from the requested r")
    elif cmd == "model":
        suite = _arg(argv, "--suite")
        if sorted(c.get("name") for c in doc.get("checks", [])) != VERIFY_NAMES[suite]:
            problems.append("check names differ")
        check_records(doc.get("checks", []), problems)
        if doc.get("pass") is not True:
            problems.append("suite verdict is not pass")
    elif cmd == "cartan-limit":
        points = doc.get("points", [])
        if len(points) < 2:
            problems.append("fewer than two points")
        if abs(doc.get("target", math.inf) + float(_arg(argv, "--r"))) > 1e-12:
            problems.append("target is not -r")
    elif cmd == "gns-check":
        sig = doc.get("signature", {})
        eigs = doc.get("eigenvalues", [])
        top = max((abs(e) for e in eigs), default=0.0)
        npos = sum(e > ZERO_BAND * top for e in eigs)
        if len(eigs) != int(_arg(argv, "--sample")) or npos != 1 or sig.get("positive") != 1:
            problems.append(f"signature {sig} with {npos} positive of {len(eigs)} eigenvalues")
        if doc.get("pass") is not True:
            problems.append("verdict is not pass")
    return problems


WORKLOADS = {w.name: w for w in (VerifyGrid(), OrbitGram(), CliMix())}
