import contextlib
import io
import json
import math
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from horocomb.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_model_build(capsys):
    code, out, _ = run_cli(capsys, "model", "build", "--t", "0.5", "--r", "0")
    assert code == 0
    rep = json.loads(out)
    assert rep["k1"] == {"re": -1.0, "im": 0.0}
    assert rep["t"] == 0.5 and rep["verdict"] == "constructible"


def test_model_build_rejects_bad_params(capsys):
    code, out, err = run_cli(capsys, "model", "build", "--t", "0.5", "--r", "1.5")
    assert code == 2
    assert json.loads(err)["verdict"] == "unknown"


def test_classify_output(capsys):
    code, out, _ = run_cli(capsys, "classify", "--lam", "2", "--b", "0")
    assert code == 0
    rep = json.loads(out)
    assert rep["type"] == "hyperbolic"
    assert rep["displacement"] == pytest.approx(math.log(2.0))
    assert rep["factorization"] == {"kind": "P", "lam": "2", "b": "0"}


def test_classify_psp_element(capsys):
    code, out, _ = run_cli(capsys, "classify", "--alpha", "0,1", "--beta", "0,0")
    assert code == 0
    rep = json.loads(out)
    assert rep["factorization"]["kind"] == "PsP"
    assert rep["type"] == "elliptic"


def test_maps_checks_pass(capsys):
    code, out, _ = run_cli(capsys, "maps", "--lam", "3/2", "--b", "1/3", "--sample", "30")
    assert code == 0
    rep = json.loads(out)
    assert all(c["pass"] for c in rep["checks"])
    assert rep["psi"] == [[1.5, 1 / 3], [0.0, 2 / 3]]  # each entry correctly rounded


def test_verify_kernel_suite(capsys):
    code, out, _ = run_cli(
        capsys, "model", "verify", "--t", "0.5", "--r", "0.3", "--suite", "kernel", "--seed", "3"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] and all(c["pass"] for c in rep["checks"])
    names = {c["name"] for c in rep["checks"]}
    assert "amap_unitary" in names and "kernel_k_addition" in names


def test_verify_relations_suite(capsys):
    code, out, _ = run_cli(
        capsys, "model", "verify", "--t", "0.3", "--r", "0.1", "--suite", "relations", "--seed", "1"
    )
    assert code == 0
    names = {c["name"] for c in json.loads(out)["checks"]}
    assert "relation_w_squared" in names and "sigma_relation_eps_minus" in names


def test_verify_limits_suite(capsys):
    code, out, _ = run_cli(
        capsys,
        "model", "verify", "--t", "0.5", "--r", "0.3", "--suite", "limits",
        "--b-start", "1", "--b-ratio", "10", "--steps", "9",
    )
    assert code == 0
    rep = json.loads(out)
    assert {c["name"] for c in rep["checks"]} == {
        "cartan_limit_extrapolated",
        "cartan_limit_raw",
    }


def test_verify_deterministic_bytes(capsys):
    args = ["model", "verify", "--t", "0.5", "--r", "0.3", "--suite", "gram", "--seed", "7"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_cartan_limit_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "cartan-limit", "--t", "0.5", "--r", "0.3",
        "--b-start", "1", "--b-ratio", "10", "--steps", "9",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "b,cartan,extrapolated"
    assert len(lines) == 10
    last = lines[-1].split(",")
    assert float(last[0]) == pytest.approx(1e8)
    assert abs(float(last[1]) + 0.3) < 0.02


@pytest.mark.parametrize(
    "extra, scale, code",
    # --steps 208 ends at b = 1e207, where the pairings' product once overflowed;
    # --b-start 1e305 --steps 3 ends at b = 1e307, below half the largest float
    [
        ([], None, 0),
        (["--steps", "208"], None, 0),
        ([], "1e-18", 1),
        (["--b-start", "1e305", "--steps", "3"], None, 0),
    ],
)
def test_cartan_limit_exit_is_the_extrapolated_verdict(capsys, monkeypatch, extra, scale, code):
    # one verdict: cartan-limit's exit is the cartan_limit_extrapolated record of the limits suite
    if scale is not None:
        monkeypatch.setenv("HOROCOMB_TOLERANCE_SCALE", scale)
    tr = ["--t", "0.5", "--r", "0.3", *extra]
    _, out, _ = run_cli(capsys, "model", "verify", *tr, "--suite", "limits")
    verdict = {c["name"]: c for c in json.loads(out)["checks"]}["cartan_limit_extrapolated"]
    assert verdict["pass"] is (code == 0)
    assert run_cli(capsys, "cartan-limit", *tr)[0] == code


@pytest.mark.parametrize(
    "argv",
    [["cartan-limit", "--t", "1e-17", "--r", "0", "--format", "json"],
     ["model", "verify", "--t", "1e-300", "--r", "0", "--suite", "limits"]],
)
def test_a_t_whose_b_to_the_t_rounds_to_one_passes_the_limits(capsys, argv):
    # b^t rounds to 1, so every pairing change is 0 and the limit reads 0.0, the
    # angular invariant r = 0; the Richardson step refused these t (exit 2)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    rep = json.loads(out)
    if argv[0] == "cartan-limit":
        assert rep["extrapolated"] == 0.0
    else:
        assert {c["name"]: c["residual"] for c in rep["checks"]}["cartan_limit_extrapolated"] == 0.0


def test_combine_command(capsys):
    code, out, _ = run_cli(
        capsys, "combine", "--t", "0.5", "--r1", "0", "--r2", str(0.25 * math.pi), "--u", "0.5"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["arg"] == pytest.approx(0.125 * math.pi, abs=1e-12)
    assert rep["weights"]["p"] + rep["weights"]["q"] == pytest.approx(1.0)


def test_gns_check(capsys):
    code, out, _ = run_cli(
        capsys, "gns-check", "--t", "0.5", "--r", "0.3", "--sample", "6", "--seed", "11"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["signature"] == {"positive": 1, "zero": 0, "negative": 5}
    assert len(rep["eigenvalues"]) == 6


def test_tolerance_scale_env(capsys, monkeypatch):
    monkeypatch.setenv("HOROCOMB_TOLERANCE_SCALE", "1e-18")
    code, out, _ = run_cli(
        capsys, "model", "verify", "--t", "0.5", "--r", "0.3", "--suite", "kernel", "--seed", "3"
    )
    assert code == 1  # machine-epsilon residuals cannot beat a 1e-28 bar
    rep = json.loads(out)
    assert not rep["pass"]


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "horocomb.cli", "model", "build", "--t", "0.5", "--r", "0.2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "constructible"


# ---------------------------------------------------------------------------
# exit-code contract: malformed or out-of-range input is a usage error (2)

TR = ["--t", "0.5", "--r", "0.3"]


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--lam", "abc"],
        ["classify", "--lam", "1/0"],
        ["classify", "--lam", "2", "--b", "x"],
        ["classify", "--alpha", "1,x"],
        ["classify", "--alpha", "0,1", "--beta", "0"],
        ["maps", "--lam", "-2"],
        # the schedule's last b (10^309) is beyond the float range
        ["cartan-limit", *TR, "--steps", "310"],
        ["model", "verify", *TR, "--suite", "limits", "--steps", "310"],
        # a non-finite start or ratio, or one that rationalizes to 0 or 1
        ["cartan-limit", *TR, "--b-start", "inf"],
        ["cartan-limit", *TR, "--b-ratio", "nan"],
        ["cartan-limit", *TR, "--b-ratio", "inf"],
        ["cartan-limit", *TR, "--b-start", "1e-300"],
        ["cartan-limit", *TR, "--b-ratio", "1.0000001"],
        ["model", "verify", *TR, "--suite", "limits", "--b-start", "inf"],
        ["model", "verify", *TR, "--suite", "limits", "--b-ratio", "nan"],
        ["model", "verify", *TR, "--suite", "limits", "--b-start", "1e-300"],
        # element entries beyond float arithmetic, and a t at 0 or below it
        ["classify", "--lam", "1e400"],
        ["classify", "--lam", "1e-400"],
        ["classify", "--alpha", "1e400,1.5707963267948966"],
        ["maps", "--lam", "1e-400", "--sample", "2"],
        ["maps", "--lam", "1e160", "--sample", "1"],
        ["maps", "--lam", "1e-300", "--sample", "1"],
        ["cartan-limit", "--t", "0", "--r", "0"],
        ["model", "verify", "--t", "-1e-300", "--r", "0", "--suite", "limits"],
        # a mix of the two element forms is refused, not half read
        ["classify", "--alpha", "0,1", "--b", "5"],
        ["classify", "--lam", "2", "--alpha", "0,1"],
        ["classify", "--lam", "2", "--beta", "1,0"],
        ["maps", "--alpha", "0,1", "--b", "5"],
        ["maps", "--lam", "2", "--alpha", "0,1"],
        # the last b (10^308) is above half the largest float, so the kernel at 2b overflows
        ["cartan-limit", *TR, "--b-start", "1e306", "--steps", "3"],
        ["model", "verify", *TR, "--suite", "limits", "--b-start", "1e306", "--steps", "3"],
    ],
)
def test_malformed_element_exits_2_with_json_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and "Traceback" not in err
    assert "error" in json.loads(err)


def test_classify_keeps_large_float_entries(capsys):
    code, out, _ = run_cli(capsys, "classify", "--lam", "1e160")
    assert code == 0
    rep = json.loads(out)
    assert rep["factorization"] == {"kind": "P", "lam": str(10**160), "b": "0"}
    assert rep["alpha"]["re"] == 5e159 and rep["type"] == "hyperbolic"


@pytest.mark.parametrize(
    "argv",
    [
        ["cartan-limit", *TR, "--steps", "0"],
        ["cartan-limit", *TR, "--steps", "1"],
        ["model", "verify", *TR, "--suite", "limits", "--steps", "0"],
        ["gns-check", *TR, "--sample", "1"],
        ["gns-check", *TR, "--sample", "2"],
        ["maps", "--lam", "2", "--sample", "0"],
        ["maps", "--lam", "2", "--sample", "x"],
        ["maps", "--lam", "2", "--seed", "-1"],
        ["gns-check", *TR, "--seed", "-1"],
        ["model", "verify", *TR, "--suite", "kernel", "--seed", "-1"],
    ],
)
def test_out_of_range_count_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and "Traceback" not in err
    assert "must be at least" in err or "invalid integer value" in err


@pytest.mark.parametrize("scale", ["x", "0", "-1", "nan", "inf"])
def test_bad_tolerance_scale_exits_2(capsys, monkeypatch, scale):
    monkeypatch.setenv("HOROCOMB_TOLERANCE_SCALE", scale)
    code, out, err = run_cli(capsys, "model", "verify", *TR, "--suite", "limits")
    assert code == 2
    assert out == "" and "Traceback" not in err
    assert "HOROCOMB_TOLERANCE_SCALE" in json.loads(err)["error"]


def test_smallest_counts_still_run(capsys):
    code, out, _ = run_cli(capsys, "gns-check", *TR, "--sample", "3", "--seed", "2")
    assert code == 0 and len(json.loads(out)["eigenvalues"]) == 3
    code, out, _ = run_cli(capsys, "cartan-limit", *TR, "--steps", "2")
    assert code in (0, 1) and len(out.strip().splitlines()) == 3


def test_internal_error_exits_3(capsys, monkeypatch):
    import horocomb.cli as cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_model_build", broken)
    code, out, err = run_cli(capsys, "model", "build", *TR)
    assert code == 3
    assert out == "" and "Traceback" not in err
    payload = json.loads(err)
    assert payload["error"] == "internal error: RuntimeError: boom"
    # the innermost horocomb frame: here the dispatch in main
    assert payload["where"].startswith("cli.py:") and payload["where"].endswith(" in main")


def test_one_parser_serves_every_call(capsys):
    # the parser is built once per process; each call must print and exit
    # as it does on a freshly built parser
    import horocomb.cli as cli

    calls = [
        ["maps", "--lam", "2", "--sample", "0"],
        ["model", "verify", *TR, "--suite", "kernel", "--seed", "3"],
        ["maps", "--lam", "2", "--sample", "0"],
        ["--help"],
    ]
    first = []
    for argv in calls:
        cli.build_parser.cache_clear()
        first.append(run_cli(capsys, *argv))
    assert [code for code, _, _ in first] == [2, 0, 2, 0]
    cli.build_parser.cache_clear()
    assert [run_cli(capsys, *argv) for argv in calls] == first


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["classify", "--lam", "2"], "--b", "-1e-3"),
        (["classify", "--lam", "2"], "--b", "-3/2"),
        (["classify", "--lam", "2"], "--b", "-.5"),
        (["model", "build", "--t", "0.5"], "--r", "-1e-20"),
    ],
)
def test_negative_values_need_no_equals_sign(capsys, argv, flag, value):
    # argparse alone reads -1e-3 and -3/2 as options ("expected one argument")
    spaced = run_cli(capsys, *argv, flag, value)
    assert spaced == run_cli(capsys, *argv, f"{flag}={value}")
    assert spaced[0] == 0 and spaced[2] == ""


def test_tiny_negative_r_builds_the_r_zero_model(capsys):
    # validate_params accepts r down to -1e-12; the model keeps Im K1 >= 0
    code, out, err = run_cli(capsys, "model", "build", "--t", "0.5", "--r", "-1e-20")
    rep = json.loads(out)
    assert (code, err) == (0, "")
    assert rep["r"] == 0.0 and rep["k1"]["im"] == 0.0
    assert out == run_cli(capsys, "model", "build", "--t", "0.5", "--r", "0")[1]


@pytest.mark.parametrize("argv", [["gns-check"], ["cartan-limit", "--format", "json"]])
def test_commands_print_the_model_r_not_the_argv_r(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--t", "0.5", "--r", "-1e-20")
    rep = json.loads(out)
    assert (code, err) == (0, "")
    assert rep["t"] == 0.5 and rep["r"] == 0.0


def test_combine_prints_its_models_r_not_the_argv_r(capsys):
    # m1 is built as the r = 0 model, so its r and its weights read 0
    code, out, err = run_cli(capsys, "combine", "--t", "0.5", "--r1=-1e-20", "--r2", "0.4", "--u", "0.3")
    rep = json.loads(out)
    assert (code, err) == (0, "")
    assert (rep["t"], rep["r1"], rep["r2"]) == (0.5, 0.0, 0.4)


# ---------------------------------------------------------------------------
# the exit-code contract over generated argv

# extremes drawn for any value: beyond the float range, at its edges, non-finite, malformed
EXTREMES = [
    "0", "-1", "1/3", "1e-17", "1e-300", "1e400", "-1e400", "1e-400", "-1e-400", "1e160",
    "nan", "inf", "-inf", "3/0", "abc", "", "-1e-3", "-2.5e1", "-3/2", "-.5",
]


def values(*good: str) -> st.SearchStrategy:
    """A value from ``good`` about two times in three, else one from EXTREMES."""
    return st.one_of(st.sampled_from(good), st.sampled_from(good), st.sampled_from(EXTREMES))


PAIRS = st.sampled_from(
    ["5/4,0", "0,1", "0,3/4", "0,0", "1e400,1.5707963267948966", "1e-400,0", "1,x", "3/0,1", "0"]
)
COUNTS = st.sampled_from(["0", "1", "2", "3", "8", "16", "-1", "x"])  # at most 16
T, R = values("0.5", "0.3", "1", "0.01"), values("0", "0.3", "0.01")
ELEMENT = {
    "--lam": values("2", "3/2"), "--b": values("1", "1/2"), "--alpha": PAIRS, "--beta": PAIRS,
}
SCHEDULE = {"--b-start": values("1", "1/2"), "--b-ratio": values("10", "7/2"), "--steps": COUNTS}
COMMANDS = {
    ("classify",): ELEMENT,
    ("maps",): {**ELEMENT, "--sample": COUNTS, "--seed": COUNTS},
    ("model", "build"): {"--t": T, "--r": R},
    ("model", "verify"): {
        "--t": T, "--r": R, "--suite": st.sampled_from(["kernel", "limits", "gram"]),
        "--seed": COUNTS, **SCHEDULE,
    },
    ("combine",): {"--t": T, "--r1": R, "--r2": R, "--u": values("0", "0.5", "1")},
    ("cartan-limit",): {
        "--t": T, "--r": R, **SCHEDULE, "--format": st.sampled_from(["csv", "json"]),
    },
    ("gns-check",): {"--t": T, "--r": R, "--sample": COUNTS, "--seed": COUNTS},
}
# always given: the suite, so that `all` (the slow relations suite) never runs, the
# sample count, so that it stays at most 16, and t and r, so that most draws get past parsing
ALWAYS = {"--suite", "--sample", "--t", "--r"}


@st.composite
def cli_argv(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = list(command)
    for flag, value in COMMANDS[command].items():
        if flag in ALWAYS or draw(st.booleans()):
            argv += [flag, draw(value)]
    return argv


@settings(derandomize=True, max_examples=300, deadline=None)
@given(cli_argv())
# element entries beyond float arithmetic, and a t whose b^t rounds to 1
@example(["classify", "--lam", "1e400"])
@example(["classify", "--lam", "1e-400"])
@example(["classify", "--alpha", "1e400,1.5707963267948966"])
@example(["maps", "--lam", "1e-400", "--sample", "2"])
@example(["maps", "--lam", "1e160", "--sample", "1"])
@example(["maps", "--lam", "1e-300", "--sample", "1"])
@example(["cartan-limit", "--t", "1e-17", "--r", "0"])
@example(["model", "verify", "--t", "1e-300", "--r", "0", "--suite", "limits"])
def test_any_argv_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
    elif argv[0] == "cartan-limit" and "json" not in argv:
        assert out.getvalue().startswith("b,cartan,extrapolated\n")
    else:
        json.loads(out.getvalue())
