"""Per-layer metrics of a traced run: the layers are horocomb's modules.

`Counters` attaches the hooks that the ratio and size metrics need;
`layer_metrics` turns a finished `Tracer` into the per-layer metrics that
BENCHMARK.json declares, each normalised per op; `predictions` evaluates
the two predictions the benchmark makes about the compare layer.
"""

from __future__ import annotations

from collections import Counter

C_PAIR = "kernelspace.KernelContext.c_pair"
PAIRING = "kernelspace.pairing"
APPLY = "blockrep.apply"
COMPARE = "blockrep.compare_up_to_phase"
OP = "op"

# metric prefix -> (span name, fields reported per op)
SPANS = {
    "kernelspace.c_pair": (C_PAIR, ("calls", "self_s")),
    "kernelspace.block_k": ("kernelspace.KernelContext.block_k", ("calls", "self_s")),
    "kernelspace.delta": ("kernelspace.KernelContext.delta", ("calls", "self_s")),
    "kernelspace.pairing": (PAIRING, ("calls", "self_s")),
    "kernelspace.hyperbolic_orbit_gram": ("kernelspace.hyperbolic_orbit_gram", ("self_s",)),
    "kernelspace.signature_count": ("kernelspace.signature_count", ("self_s",)),
    "kernelspace.reconstruct_embedding": ("kernelspace.reconstruct_embedding", ("self_s",)),
    "hypgeo.HermitianFormSpace.pair": ("hypgeo.HermitianFormSpace.pair", ("calls", "self_s")),
    "blockrep.apply": (APPLY, ("calls", "self_s")),
    "blockrep.evaluate": ("blockrep.evaluate", ("calls",)),
    "blockrep.compare_up_to_phase": (COMPARE, ("calls", "self_s")),
    "blockrep.probe_vectors": ("blockrep.probe_vectors", ("self_s",)),
    "su11.SU11Element.__mul__": ("su11.SU11Element.__mul__", ("calls", "self_s")),
    "su11.bruhat_factor": ("su11.bruhat_factor", ("calls", "self_s")),
    "su11.presentation_check": ("su11.presentation_check", ("self_s",)),
    "su11.psi_to_sl2": ("su11.psi_to_sl2", ("calls", "self_s")),
    "su11.phi_to_so12": ("su11.phi_to_so12", ("calls", "self_s")),
    "invariants.cartan_limit_estimate": ("invariants.cartan_limit_estimate", ("calls", "self_s")),
    "invariants.model_cartan_at": ("invariants.model_cartan_at", ("calls",)),
    "combination.make_representation": ("combination.make_representation", ("self_s",)),
    "combination.combine_models": ("combination.combine_models", ("self_s",)),
}
CHECK_FAMILIES = ("relation", "sigma_relation", "homomorphism", "kernel_identity", "amap", "gram", "limit")
CLI_COMMANDS = ("classify", "maps", "model_build", "model_verify", "combine", "cartan-limit", "gns-check")
ATOMS = ("diag", "unip", "sigma")
UNITS = {"calls": "count/op", "self_s": "s/op", "total_s": "s/op"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out: dict[str, str] = {}
    for prefix, (_, fields) in SPANS.items():
        for f in fields:
            out[f"{prefix}.{f}_per_op"] = UNITS[f]
    out["kernelspace.c_pair.distinct_ratio"] = "ratio"
    out["kernelspace.pairing.terms_per_op"] = "count/op"
    for kind in ATOMS:
        out[f"blockrep.apply.atoms.{kind}_per_op"] = "count/op"
    out["blockrep.apply.out_symbols_mean"] = "count"
    out["blockrep.apply.out_symbols_max"] = "count"
    out["blockrep.compare_up_to_phase.pairings_per_call"] = "count"
    out["blockrep.compare_up_to_phase.subtree_share"] = "ratio"
    for fam in CHECK_FAMILIES:
        out[f"verification.{fam}_checks.total_s_per_op"] = "s/op"
    for cmd in CLI_COMMANDS:
        out[f"cli.main.{cmd}.calls_per_op"] = "count/op"
        out[f"cli.main.{cmd}.total_s_per_op"] = "s/op"
    out["trace.throughput_ops_s"] = "1/s"
    out["trace.untraced_throughput_ops_s"] = "1/s"
    out["trace.overhead_ratio"] = "ratio"
    out["trace.spans_per_op"] = "count/op"
    return out


class Counters:
    """Counts gathered by hooks on a few wrapped functions."""

    def __init__(self, tracer):
        self.c_pair_calls = 0
        self.c_pair_args: set = set()
        self.pairing_terms = 0
        self.pairings_in_compare = 0
        self.atoms: Counter = Counter()
        self.out_symbols: list[int] = []
        compare_id = tracer.name_index(COMPARE)
        depth = tracer.depth

        def on_c_pair(args, result):
            ctx, b, d = args
            self.c_pair_calls += 1
            self.c_pair_args.add((ctx.t, ctx.k1, b, d))

        def on_pairing(args, result):
            self.pairing_terms += len(args[0].coeffs) * len(args[1].coeffs)
            if depth[compare_id]:
                self.pairings_in_compare += 1

        def on_apply(args, result):
            self.atoms.update(atom[0] for atom in args[0].atoms)
            self.out_symbols.append(len(result.coeffs))

        tracer.hooks.update({C_PAIR: on_c_pair, PAIRING: on_pairing, APPLY: on_apply})


def layer_metrics(tracer, counters: Counters, n_ops: int, overhead: dict) -> dict[str, float]:
    agg = tracer.aggregate()
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    out: dict[str, float] = {}
    for prefix, (span, fields) in SPANS.items():
        for f in fields:
            out[f"{prefix}.{f}_per_op"] = agg.get(span, zero)[f] / n_ops
    out["kernelspace.c_pair.distinct_ratio"] = (
        len(counters.c_pair_args) / counters.c_pair_calls if counters.c_pair_calls else 0.0
    )
    out["kernelspace.pairing.terms_per_op"] = counters.pairing_terms / n_ops
    for kind in ATOMS:
        out[f"blockrep.apply.atoms.{kind}_per_op"] = counters.atoms[kind] / n_ops
    syms = counters.out_symbols
    out["blockrep.apply.out_symbols_mean"] = sum(syms) / len(syms) if syms else 0.0
    out["blockrep.apply.out_symbols_max"] = float(max(syms, default=0))
    compares = agg.get(COMPARE, zero)["calls"]
    out["blockrep.compare_up_to_phase.pairings_per_call"] = (
        counters.pairings_in_compare / compares if compares else 0.0
    )
    out["blockrep.compare_up_to_phase.subtree_share"] = subtree_shares(agg).get(COMPARE, 0.0)
    for fam in CHECK_FAMILIES:
        span = f"verification.{fam}_checks"
        out[f"{span}.total_s_per_op"] = agg.get(span, zero)["total_s"] / n_ops
    by_command = tracer.label_totals("cli.main")
    for cmd in CLI_COMMANDS:
        calls, total = by_command.get(cmd, (0, 0.0))
        out[f"cli.main.{cmd}.calls_per_op"] = calls / n_ops
        out[f"cli.main.{cmd}.total_s_per_op"] = total / n_ops
    out["trace.throughput_ops_s"] = overhead["traced"]
    out["trace.untraced_throughput_ops_s"] = overhead["untraced"]
    out["trace.overhead_ratio"] = overhead["untraced"] / overhead["traced"]
    out["trace.spans_per_op"] = len(tracer.start) / n_ops
    return out


def subtree_shares(agg: dict) -> dict[str, float]:
    """Inclusive time of each span name (outermost spans) over op time."""
    op_time = agg.get(OP, {}).get("total_s", 0.0)
    if not op_time:
        return {}
    return {name: v["total_s"] / op_time for name, v in agg.items() if name != OP}


def predictions(tracer, workload: str) -> list[tuple[str, bool, str]]:
    """(prediction, held, evidence) for the predictions about this workload."""
    agg = tracer.aggregate()
    if workload == "orbit_gram":
        calls = agg.get(COMPARE, {}).get("calls", 0)
        return [("compare_up_to_phase makes zero calls on orbit_gram", calls == 0, f"{calls} calls")]
    if workload != "verify_grid":
        return []
    shares = subtree_shares(agg)
    enclosing = tracer.ancestors_of(COMPARE) | {COMPARE}
    rivals = sorted(((s, n) for n, s in shares.items() if n not in enclosing), reverse=True)
    best_rival = rivals[0] if rivals else (0.0, "none")
    own = shares.get(COMPARE, 0.0)
    return [(
        "the compare_up_to_phase subtree is the largest share of verify_grid op time",
        own > best_rival[0],
        f"compare {own:.3f} of op time; largest other subtree {best_rival[1]} {best_rival[0]:.3f}",
    )]
