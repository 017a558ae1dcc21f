"""Which treepack names the traced run wraps, and the per-layer metrics.

Layers are the package modules.  Each span sits on a name that one
module (or the benchmark) calls in another: ``solver`` calls
``_search.search``, ``packing.is_complete`` and
``packing._labeling_from_injections``; ``packing`` calls the engine;
``certificate`` calls ``packing.phi_enumerate``; ``_search`` calls the
``functree`` helpers.  The helpers run millions of times in a sweep, so
they are counted, not timed.
"""

from __future__ import annotations

from treepack import _search, certificate, functree, packing, solver

from .tracing import Tracer

# (owner, attribute, span name)
SPANS = (
    (solver, "sweep", "solver.sweep"),
    (solver, "pack", "solver.pack"),
    (solver, "is_complete", "packing.verify"),
    (solver, "_labeling_from_injections", "packing.labeling"),
    (packing, "_labeling_from_injections", "packing.labeling"),
    (packing, "phi_enumerate", "packing.phi_enumerate"),
    (certificate, "phi_enumerate", "packing.phi_enumerate"),
    (certificate, "certificate_eval", "certificate.eval"),
    (certificate, "canonical_rep", "certificate.canonical_rep"),
    (functree, "generate_family", "functree.generate"),
)
ENGINE_CALLERS = (solver, packing)
ITERATORS = (
    (solver, "family_enumerate", "functree.enumerate"),
    (functree, "family_enumerate", "functree.enumerate"),
)
COUNTED = (
    (functree.AugFuncTree, "component", "functree.component"),
    (functree.AugFuncTree, "children", "functree.children"),
    (_search, "leaf_sibling_groups", "functree.leaf_sibling_groups"),
)


def _engine_result(tracer: Tracer, outcome, kwargs) -> None:
    counts = tracer.counts
    counts["search.nodes"] += outcome.nodes
    counts["search.solutions"] += len(outcome.solutions)
    if kwargs.get("first_only", True):
        counts["search.first_only"] += 1
        counts["search.restarted"] += outcome.nodes > _search.RESTART_BASE_BUDGET


def node_meter() -> Tracer:
    """A tracer on the engine entry point only: one wrapper call per
    search, which is how an untraced run reads phi_enumerate's nodes."""
    tracer = Tracer()
    for owner in ENGINE_CALLERS:
        tracer.span(owner, "search", "search", on_result=_engine_result)
    return tracer


def full_tracer() -> Tracer:
    tracer = node_meter()
    for owner, attr, name in SPANS:
        tracer.span(owner, attr, name)
    for owner, attr, name in ITERATORS:
        tracer.span_iter(owner, attr, name)
    for owner, attr, name in COUNTED:
        tracer.count(owner, attr, name)
    return tracer


def _per_call(tracer: Tracer, name: str, scale: float, self_time: bool = False) -> float:
    calls = tracer.calls[name]
    if not calls:
        return 0.0
    spent = tracer.self_time[name] if self_time else tracer.total[name]
    return spent / calls * scale


def per_layer(tracer: Tracer, families: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass over ``families`` families."""
    c = tracer.counts
    calls = tracer.calls["search"]
    busy = tracer.self_time["search"]
    nodes = c["search.nodes"]
    first_only = c["search.first_only"]
    return {
        "functree.enumerate_s": (tracer.total["functree.enumerate"], "s"),
        "functree.generate_ms": (_per_call(tracer, "functree.generate", 1e3), "ms"),
        "functree.component_calls": (c["functree.component"] / families, "count"),
        "functree.children_calls": (c["functree.children"] / families, "count"),
        "functree.leaf_sibling_groups_calls": (
            c["functree.leaf_sibling_groups"] / families, "count"),
        "search.calls": (calls, "count"),
        "search.nodes": (nodes, "count"),
        "search.busy_s": (busy, "s"),
        "search.us_per_call": (busy / calls * 1e6 if calls else 0.0, "us"),
        "search.nodes_per_s": (nodes / busy if busy else 0.0, "1/s"),
        "search.restarted_share": (
            c["search.restarted"] / first_only if first_only else 0.0, "ratio"),
        "search.nodes_per_member": (
            nodes / c["search.solutions"] if c["search.solutions"] else 0.0, "count"),
        "solver.pack_self_us": (_per_call(tracer, "solver.pack", 1e6, self_time=True), "us"),
        "solver.sweep_self_s": (tracer.self_time["solver.sweep"], "s"),
        "packing.verify_us": (_per_call(tracer, "packing.verify", 1e6), "us"),
        "packing.labeling_us": (_per_call(tracer, "packing.labeling", 1e6), "us"),
        "packing.phi_self_s": (tracer.self_time["packing.phi_enumerate"], "s"),
        "certificate.eval_calls": (tracer.calls["certificate.eval"], "count"),
        "certificate.eval_us": (_per_call(tracer, "certificate.eval", 1e6), "us"),
        "certificate.basis_self_s": (tracer.self_time["certificate.canonical_rep"], "s"),
    }
