"""The benchmark's own helpers: statistics, tracing and the checks.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import layers, workloads
from perfbench.stats import ANSWERED, TIMED_OUT, Item, Pass, family_summary, tail
from perfbench.speed import REFERENCE_PROBE_S, SpeedMeter
from perfbench.tracing import Tracer
from treepack import functree, packing, solver

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# --- tail percentile ------------------------------------------------------


def test_tail_picks_highest_percentile_with_ten_beyond():
    assert tail(range(1, 101)) == (90.0, 90)  # 91..100 lie beyond
    assert tail(range(1, 10001)) == (99.9, 9990)
    assert tail(range(1, 41)) == (75.0, 30)
    assert tail(range(1, 21)) == (50.0, 10)


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        tail(range(19))


def test_tail_ignores_input_order():
    assert tail([5, 1, 4, 2, 3] * 10) == tail(sorted([5, 1, 4, 2, 3] * 10))


# --- failure accounting ----------------------------------------------------


def _items(statuses_ms):
    return tuple(
        Item(key=str(i), status=st, nodes=1, ms=ms, answers=st == ANSWERED)
        for i, (st, ms) in enumerate(statuses_ms)
    )


def test_timeouts_count_as_failures_and_in_latency():
    rows = [(ANSWERED, 1.0)] * 17 + [(TIMED_OUT, 1200.0)] * 3
    p = Pass(timed_s=10.0, raw_s=10.0, items=_items(rows), nodes=17)
    s = family_summary([p])
    assert s["attempted"] == 20
    assert s["timed_out"] == 3
    assert s["fail_share"] == pytest.approx(0.15)
    assert s["ok_share"] == pytest.approx(0.85)
    assert s["families_per_s"] == pytest.approx(1.7)  # answered only
    assert s["tail_ms"] == 1.0  # p50 of 20: rank 10
    more = [(ANSWERED, 1.0)] * 10 + [(TIMED_OUT, 1200.0)] * 30
    s = family_summary([Pass(timed_s=1.0, raw_s=1.0, items=_items(more), nodes=10)])
    assert s["p50_ms"] == 1200.0  # 30 of 40 timed out: the median is a timeout


def test_a_timeout_counts_at_the_reference_limit():
    speed = SpeedMeter()
    speed.at = [0.0, 1.0, 2.0]
    speed.took = [REFERENCE_PROBE_S * 2] * 3
    late = Item(key="k", status=TIMED_OUT, nodes=9, ms=1900.0)
    assert workloads._scaled(late, speed).ms == workloads.FRONTIER_LIMIT_MS
    done = Item(key="k", status=ANSWERED, nodes=9, ms=1900.0)
    assert workloads._scaled(done, speed).ms == pytest.approx(950.0)


def test_latency_is_each_inputs_fastest_pass():
    slow = Pass(timed_s=4.0, raw_s=4.0, items=_items([(ANSWERED, 4.0)] * 20), nodes=20)
    fast = Pass(timed_s=2.0, raw_s=2.0, items=_items([(ANSWERED, 2.0)] * 20), nodes=20)
    s = family_summary([slow, fast])
    assert s["p50_ms"] == 2.0
    assert s["families_per_s"] == pytest.approx(10.0)
    assert s["attempted"] == 40


def test_only_per_family_calls_enter_the_percentiles():
    items = _items([(ANSWERED, 1.0)] * 20) + (
        Item(key="c", status=ANSWERED, nodes=1, ms=900.0, per_family=False),
    )
    s = family_summary([Pass(timed_s=1.0, raw_s=1.0, items=items, nodes=21)])
    assert s["samples"] == 20 and s["tail_ms"] == 1.0
    assert s["families_per_s"] == pytest.approx(21.0)


# --- speed scaling -----------------------------------------------------------


def test_scale_uses_the_median_probe_around_an_interval():
    speed = SpeedMeter()
    speed.at = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
    speed.took = [REFERENCE_PROBE_S * f for f in (9, 9, 1, 2, 2, 2, 4, 9, 9)]
    # [4.5, 5.5] holds the probe at 5.0; three neighbours on each side
    # give 2..8, whose median probe is twice the reference
    assert speed.scale(4.5, 5.5) == pytest.approx(0.5)
    assert speed.scale(0.0, 0.5) == pytest.approx(1 / 9)
    assert speed.probe_seconds(2.5, 5.0) == pytest.approx(REFERENCE_PROBE_S * 5)
    # the last second holds two probes; the slowdown takes the last seven
    assert speed.slowdown() == pytest.approx(2.0)
    speed.at = [t / 100 for t in speed.at]  # all nine inside the last second
    assert speed.slowdown() == pytest.approx(4.0)


def test_running_probes_inside_a_long_call_and_disarms():
    before = signal.getsignal(signal.SIGALRM)
    speed = SpeedMeter()
    with speed.running():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:  # one long call
            pass
        t1 = time.perf_counter()
    assert speed.probe_seconds(t0, t1) > 0
    assert len(speed.took) >= 3
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


# --- spans and self time ---------------------------------------------------


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    tr.enter("outer")  # 0
    clock.now = 1.0
    tr.enter("inner")
    clock.now = 3.0
    tr.exit()  # inner: 2
    clock.now = 4.0
    tr.enter("inner")
    tr.enter("leaf")
    clock.now = 4.5
    tr.exit()  # leaf: 0.5
    clock.now = 5.0
    tr.exit()  # inner: 1, of which 0.5 in leaf
    clock.now = 10.0
    tr.exit()  # outer: 10
    assert tr.calls == {"outer": 1, "inner": 2, "leaf": 1}
    assert tr.total["outer"] == 10.0
    assert tr.self_time["outer"] == 7.0
    assert tr.total["inner"] == 3.0
    assert tr.self_time["inner"] == 2.5
    assert tr.self_time["leaf"] == 0.5


def test_span_closes_when_the_call_raises():
    class Owner:
        @staticmethod
        def boom():
            raise RuntimeError("x")

    with Tracer() as tr:
        tr.span(Owner, "boom", "boom")
        with pytest.raises(RuntimeError):
            Owner.boom()
        assert tr.calls["boom"] == 1
        assert not tr._stack


def _wrapped_names():
    names = [(owner, "search") for owner in layers.ENGINE_CALLERS]
    names += [(o, a) for o, a, _ in layers.SPANS + layers.ITERATORS + layers.COUNTED]
    return names


def test_traced_run_restores_every_wrapped_name():
    names = _wrapped_names()
    before = [getattr(o, a) for o, a in names]
    with layers.full_tracer() as tr:
        assert all(getattr(o, a) is not b for (o, a), b in zip(names, before))
        with tr.suspended():
            assert all(getattr(o, a) is b for (o, a), b in zip(names, before))
        assert all(getattr(o, a) is not b for (o, a), b in zip(names, before))
        solver.sweep(4)
    assert all(getattr(o, a) is b for (o, a), b in zip(names, before))


def test_every_wrapped_name_exists_once():
    names = _wrapped_names()
    assert len({(id(o), a) for o, a in names}) == len(names)
    for owner, attr in names:
        assert callable(getattr(owner, attr))


def test_tracer_counts_sweep_work_exactly():
    with layers.full_tracer() as tr:
        report = solver.sweep(4)
    assert tr.calls["solver.pack"] == report.total == 12
    assert tr.calls["search"] == 12
    assert tr.counts["search.nodes"] == report.nodes_total
    assert tr.calls["functree.enumerate"] == 12
    assert tr.counts["functree.component"] > 0
    assert tr.self_time["solver.pack"] < tr.total["solver.pack"]


# --- traced and untraced passes agree ----------------------------------------


def _small(monkeypatch):
    monkeypatch.setattr(workloads.Sweep6, "n", 4)
    monkeypatch.setattr(workloads, "FRONTIER_SIZES", ((8, 6), (10, 4)))
    monkeypatch.setattr(workloads, "EXHAUSTIVE_SHAPES", 3)


@pytest.mark.parametrize("name", ["sweep6", "frontier", "exhaustive"])
def test_traced_pass_matches_untraced_pass(monkeypatch, name):
    _small(monkeypatch)
    meter = layers.node_meter()
    try:
        plain = workloads.WORKLOADS[name](
            5, meter if name == "exhaustive" else None, SpeedMeter()
        )
        plain.build()
        with plain.speed.running():
            ref = plain.run_pass()
    finally:
        meter.restore()
    with layers.full_tracer() as tr:
        wl = workloads.WORKLOADS[name](5, tr)
        wl.build()
        got = wl.run_pass()
    assert [(i.key, i.status, i.nodes, i.output) for i in got.items] == [
        (i.key, i.status, i.nodes, i.output) for i in ref.items
    ]
    assert got.nodes == ref.nodes > 0
    assert ref.timed_s > 0 and ref.raw_s > 0
    assert tr.counts["search.nodes"] == ref.nodes
    metrics = layers.per_layer(tr, wl.families())
    assert metrics["search.nodes"][0] == ref.nodes


def test_checks_do_not_count_as_traced_work(monkeypatch):
    _small(monkeypatch)
    with layers.full_tracer() as tr:
        wl = workloads.WORKLOADS["frontier"](5, tr)
        wl.build()
        p = wl.run_pass()
    # the checks call is_complete once per labeling; only pack's own
    # verification call is traced
    assert tr.calls["packing.verify"] == len(p.items)


# --- output checks -----------------------------------------------------------


def test_seed_relabels_exhaustive_inputs_without_changing_counts(monkeypatch):
    _small(monkeypatch)
    a = workloads.Exhaustive(1)
    b = workloads.Exhaustive(2)
    a.build()
    b.build()
    for (key, fa), (_, fb) in zip(a.inputs, b.inputs):
        assert packing.phi_enumerate(fa)[1] == packing.phi_enumerate(fb)[1]
        assert packing.phi_enumerate(fa)[1] == workloads.GOLDEN["exhaustive_members"][key]


def test_wrong_member_count_fails_the_run(monkeypatch):
    _small(monkeypatch)
    golden = dict(workloads.GOLDEN["exhaustive_members"], **{"5:1": 1})
    monkeypatch.setitem(workloads.GOLDEN, "exhaustive_members", golden)
    meter = layers.node_meter()
    try:
        wl = workloads.Exhaustive(1, meter)
        wl.build()
        with pytest.raises(workloads.CheckFailed):
            wl.run_pass()
    finally:
        meter.restore()


def test_exhausted_frontier_family_fails_the_run(monkeypatch):
    _small(monkeypatch)
    wl = workloads.Frontier(1)
    wl.build()
    key, family = wl.inputs[0]
    res = solver.pack(family, _blocked_pairs=[(0, 1)])
    assert res.status == solver.EXHAUSTED
    with pytest.raises(workloads.CheckFailed):
        wl._check(key, family, res, 0.0, 0.001)


def test_frontier_limit_stretches_with_the_slowdown(monkeypatch):
    _small(monkeypatch)

    class Slow:
        def slowdown(self):
            return 2.5

        def probe_seconds(self, a, b):
            return 0.0

        def scale(self, a, b):
            return 1.0

    limits = []
    original = solver.pack

    def pack(family, config):
        limits.append(config.time_limit_ms)
        return original(family, config)

    monkeypatch.setattr(solver, "pack", pack)
    wl = workloads.Frontier(1, speed=Slow())
    wl.build()
    wl.run_pass()
    assert limits == [round(workloads.FRONTIER_LIMIT_MS * 2.5)] * wl.families()


def test_pass_count_is_fixed_by_the_seconds_alone():
    from perfbench.run import pass_count

    counts = [pass_count(w, 30) for w in workloads.WORKLOADS.values()]
    assert counts == [2, 2, 1]
    assert pass_count(workloads.Sweep6, 1) == 1


def test_relabel_keeps_semigroup_form_and_shape():
    tree = functree.generate("random-recursive", 9, 9, seed=3)
    other = workloads.relabel(tree, random.Random(4))
    assert other.m == tree.m and other.root == 0
    assert all(other.map[v] < v for v in range(1, other.m))
    assert sorted(len(other.children(v)) for v in range(other.m)) == sorted(
        len(tree.children(v)) for v in range(tree.m)
    )


# --- the entry point ---------------------------------------------------------


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 2
    assert "correct" not in out.stdout
