"""Run one treepack benchmark workload and print its metrics.

    python3 perfbench/run.py --workload frontier --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; treepack is imported from ``src/``.
``--trace 0`` makes ``--seconds`` worth of timed passes over the
workload's inputs, each counted at the workload's fixed
``pass_budget_s``, and reports the end-to-end metrics.  ``--trace 1``
runs one untraced and one traced pass and reports the per-layer
metrics.  The last line of standard output is one JSON object; the
lines before it are a readable report.  Exit status: 0 when every
output check passed, 1 when one failed, 2 when the arguments or the
treepack sources are wrong.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("sweep6", "frontier", "exhaustive")


def pass_count(workload, seconds: float) -> int:
    """Passes that fit in ``seconds`` at the workload's fixed
    ``pass_budget_s``, at least one.  The count never depends on how
    fast treepack runs, so faster code gets neither more best-of-N
    samples nor more passes held in memory."""
    return max(1, round(seconds / workload.pass_budget_s))


@contextmanager
def untraced_workload(name: str, seed: int):
    """The workload with its inputs built, untraced, timed at the
    reference speed.  ``phi_enumerate`` does not report nodes, so
    exhaustive runs meter the engine entry point: one counter call per
    search."""
    from perfbench import layers
    from perfbench.speed import SpeedMeter
    from perfbench.workloads import WORKLOADS

    meter = layers.node_meter() if name == "exhaustive" else None
    try:
        workload = WORKLOADS[name](seed, meter, SpeedMeter())
        workload.build()
        with workload.speed.running():
            yield workload
    finally:
        if meter is not None:
            meter.restore()


def node_digest(p) -> str:
    from perfbench.stats import ANSWERED
    from perfbench.workloads import digest

    return digest(sorted((it.key, it.nodes) for it in p.items if it.status == ANSWERED))


def untraced(name: str, seed: int, seconds: float) -> tuple[dict, int, list[str]]:
    from perfbench import measure
    from perfbench.speed import REFERENCE_PROBE_S
    from perfbench.stats import TIMED_OUT, family_summary
    from perfbench.workloads import GOLDEN

    setup = measure.setup_s(name, seed)
    with untraced_workload(name, seed) as workload:
        passes = [workload.run_pass() for _ in range(pass_count(workload, seconds))]
    probe_ms = statistics.median(workload.speed.took) * 1e3
    s = family_summary(passes)
    metrics = {
        "setup_s": (setup, "s"),
        "peak_rss_mb": (measure.peak_rss_mb(), "MB"),
        "ok_share": (s["ok_share"], "ratio"),
        "families_per_s": (s["families_per_s"], "1/s"),
        "family_p50_ms": (s["p50_ms"], "ms"),
        "family_tail_ms": (s["tail_ms"], "ms"),
    }
    # workload-specific names for the same figures, and figures only one
    # workload has; these stay in the report lines
    best = s["best"]
    lat = "phi" if name == "exhaustive" else "pack"
    extra = {
        "fail_share": (s["fail_share"], "ratio"),
        f"{lat}_p50_ms": (s["p50_ms"], "ms"),
        f"{lat}_tail_ms": (s["tail_ms"], "ms"),
        "pass_s": (best.timed_s, "s"),
        "pass_s on the clock": (best.raw_s, "s"),
    }
    if name == "exhaustive":
        phi = [it for it in best.items if it.per_family]
        extra["members_per_s"] = (
            sum(it.answers for it in phi) / sum(it.ms for it in phi) * 1e3, "1/s")
        extra["canonical_rep_s"] = (
            sum(it.ms for it in best.items if not it.per_family) / 1e3, "s")
    nodes = passes[0].nodes
    timed_out_keys = sorted({it.key for p in passes for it in p.items if it.status == TIMED_OUT})
    recorded = GOLDEN["recorded_nodes"][name]
    lines = [
        f"workload {name}  seed {seed}  passes {len(passes)}  "
        f"calls per pass {len(passes[0].items)}",
        f"  speed probe median {probe_ms:.4f} ms, reference "
        f"{REFERENCE_PROBE_S * 1e3:.2f} ms: timings below are at the reference speed",
        f"  tail percentile p{s['tail_pct']:g} over {s['samples']} families; "
        f"{s['timed_out']} of {s['attempted']} calls timed out {timed_out_keys}",
        f"  engine nodes per pass {nodes} (recorded {recorded['nodes']}), "
        f"per-family digest {node_digest(passes[0])} (recorded {recorded['digest']})",
    ]
    if any(p.nodes != nodes or node_digest(p) != node_digest(passes[0]) for p in passes):
        lines.append("  note: node counts differ between passes")
    for key, (value, unit) in {**metrics, **extra}.items():
        lines.append(f"  {key:<20} {value:.6g} {unit}")
    return metrics, s["attempted"], lines


def traced(name: str, seed: int) -> tuple[dict, int, list[str]]:
    from perfbench import layers, measure
    from perfbench.stats import ANSWERED
    from perfbench.workloads import FRONTIER_SIZES, WORKLOADS, CheckFailed
    from treepack import functree, solver

    with untraced_workload(name, seed) as ref:
        ref_pass = ref.run_pass()
    with layers.full_tracer() as tracer:
        workload = WORKLOADS[name](seed, tracer)
        workload.build()
        traced_pass = workload.run_pass()

    # tracing must not change what treepack computes: every call that
    # answered in both passes has the same node count and output
    before = {it.key: it for it in ref_pass.items}
    compared = 0
    for it in traced_pass.items:
        old = before[it.key]
        if it.status == old.status == ANSWERED:
            compared += 1
            if (it.nodes, it.output) != (old.nodes, old.output):
                raise CheckFailed(f"tracing changed the result for {it.key}")
    same_status = all(before[it.key].status == it.status for it in traced_pass.items)
    if same_status and traced_pass.nodes != ref_pass.nodes:
        raise CheckFailed("tracing changed the engine's node total")

    metrics = layers.per_layer(tracer, workload.families())
    n, count = FRONTIER_SIZES[0]
    pairs = []
    for j in range(count):
        family = functree.generate_family(n, "random-uniform", 7919 * n + j)
        pairs.append((family, solver.pack(family).labeling))
    is_complete_us, orientation_us = measure.verification_us(pairs)
    metrics["packing.is_complete_us"] = (is_complete_us, "us")
    metrics["packing.orientation_us"] = (orientation_us, "us")
    metrics["packing.orientation_ratio"] = (orientation_us / is_complete_us, "ratio")
    metrics["cli.cold_start_s"] = (measure.cli_cold_start_s(seed), "s")
    metrics["trace_overhead"] = (traced_pass.raw_s / ref_pass.raw_s, "ratio")
    lines = [
        f"workload {name}  seed {seed}  traced pass over {workload.families()} families",
        f"  pass seconds on the clock untraced {ref_pass.raw_s:.4f}, "
        f"traced {traced_pass.raw_s:.4f}",
        f"  engine nodes untraced {ref_pass.nodes}, traced {traced_pass.nodes}; "
        f"{compared} of {len(traced_pass.items)} calls compared equal",
    ]
    for key, (value, unit) in metrics.items():
        lines.append(f"  {key:<36} {value:.6g} {unit}")
    return metrics, len(traced_pass.items), lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import treepack
    except ImportError as exc:
        print(f"error: cannot import treepack from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(treepack.__file__).resolve().is_relative_to(src):
        print(f"error: treepack was imported from {treepack.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from perfbench.workloads import CheckFailed

    try:
        if args.trace:
            metrics, attempted, lines = traced(args.workload, args.seed)
        else:
            metrics, attempted, lines = untraced(args.workload, args.seed, args.seconds)
    except (CheckFailed, treepack.TreePackError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    print("\n".join(lines))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
