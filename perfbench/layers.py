"""The traced run: every per-layer metric, from spans around public calls.

``run.py --trace 1`` runs this sweep whatever the workload; it covers the
layers of all three workloads:

1. ``cli-suite``: each design's CLI check once untraced (its wall time)
   and once under ``trace_cli.py`` (spans for import, decode, build, tree,
   compile, check and render). ``trace.coverage.<design>`` is the sum of
   the traced process's top-level spans over the untraced wall time.
2. ``engine-par``: a warm-up pass, an untraced pass and a traced pass of
   the parallel engine in process; GPU counters from the traced pass's
   ``CheckResult.stats``; CSV and JSON rendering of each report.
3. Each backend on the intra, spacing and enclosure decks, per design.
4. ``diff_layouts`` and ``Engine.recheck(old, new, cached=...)`` per edit of
   the served designs' first two rounds, decoded in process.
5. ``serve-edit``: one untraced and one traced round per client against a
   fresh daemon, then a concurrent phase (both clients recheck at the
   same moment, then each session is checked twice at once) that drives
   admission, inline routing and coalescing; ``/stats`` deltas over all
   of it and the daemon's engine counters over its life.

End-to-end metrics never come from this run. Spans are also written as
Chrome trace-event JSON to ``perfbench/out/``.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import uuid

import common
import engine_par
import oracle
import serve_edit
from common import Outcome
from repro.client import ServeClient

UNITS = {
    "s": ("cli.import_s", "gdsii.read_s", "layout.build_s", "hierarchy.tree_s", "plan.compile_s",
          "sequential.intra_s", "sequential.spacing_s", "sequential.enclosure_s",
          "parallel.intra_s", "parallel.spacing_s", "parallel.enclosure_s",
          "reporting.render_s", "diff.diff_s", "incremental.recheck_s",
          "server.engine_s", "server.overhead_s"),
    "count": ("gpu.kernel_launches", "gpu.h2d_copies", "gpu.fused_segments",
              "incremental.rules_cached", "incremental.rules_windowed", "incremental.rules_full",
              "server.engine_runs", "server.report_lru_hits", "server.admission_bypassed",
              "server.inline_routed", "server.coalesced", "server.max_active_seen",
              "multiproc.plan_compiles", "multiproc.pickle_probes", "costmodel.routed_inline"),
    "B": ("gpu.h2d_bytes",),
    "ratio": ("server.lru_hit_ratio", "packstore.hit_ratio", "trace.coverage",
              *(f"trace.coverage.{d}" for d in common.DESIGNS),
              "trace.overhead.cli-suite", "trace.overhead.engine-par", "trace.overhead.serve-edit"),
}
DECKS = ("intra", "spacing", "enclosure")


def _cli(ctx, inputs, tracer, out: Outcome, metrics):
    folder = inputs["dir"]
    cli = common.Tracer(tracer.trace_id)
    walls, traced_walls, roots = {}, {}, {}
    for name in common.DESIGNS:
        design = inputs["designs"][name]
        args = ["check", str(folder / design["gds"]), "--top", "top", "--format", "json",
                "--output", str(ctx.work / f"{name}.markers.json")]
        for traced in (False, True):
            spans = ctx.work / f"{name}.spans.json"
            argv = ([sys.executable, str(common.BENCH / "trace_cli.py"), str(spans), tracer.trace_id]
                    if traced else [sys.executable, "-m", "repro"]) + args
            report_path = ctx.work / f"{name}.{int(traced)}.json"
            code, wall, _ = ctx.reaper.run(argv, report_path, 150)
            if code != 1:  # the layer times need this process; no result without it
                raise RuntimeError(f"traced={traced} check of {name} exited {code}")
            with out.operation(f"cli {name}"):
                text = report_path.read_text()
                out.expect(oracle.mismatch(oracle.report_keys(json.loads(text[text.index("{"):])),
                                           oracle.expected_keys(design["expected"])), f"cli {name}")
            if traced:
                traced_walls[name] = wall
                recorded = json.loads(spans.read_text())
                roots[name] = sum(s["end"] - s["start"] for s in recorded["spans"] if s["parent"] is None)
                cli.extend(recorded["spans"], recorded["pid"])
            else:
                walls[name] = wall
    totals, own = cli.totals(), cli.self_totals()
    tracer.spans.extend(cli.spans)
    imports = [s["end"] - s["start"] for s in cli.spans if s["name"] == "cli.import"]
    metrics.update({
        "cli.import_s": common.median(imports),
        "gdsii.read_s": totals.get("gdsii.read", 0.0),
        "layout.build_s": totals.get("layout.build", 0.0),
        "hierarchy.tree_s": totals.get("hierarchy.tree", 0.0),
        "plan.compile_s": own.get("plan.compile", 0.0),
        "trace.overhead.cli-suite": sum(traced_walls.values()) / sum(walls.values()),
    })
    for name in common.DESIGNS:
        metrics[f"trace.coverage.{name}"] = roots[name] / walls[name]
    metrics["trace.coverage"] = min(metrics[f"trace.coverage.{d}"] for d in common.DESIGNS)


def _engine(inputs, tracer, out: Outcome, metrics):
    from repro.core import Engine, EngineOptions
    from repro.hierarchy.tree import HierarchyTree
    from repro.workloads import asap7

    with tracer.span("engine-par.setup"):
        loaded = engine_par.load(inputs)
    layouts = {name: pair[0] for name, pair in loaded.items()}

    def one_pass(engine):
        t0 = time.perf_counter()
        reports = {name: engine.check(layouts[name]) for name in common.DESIGNS}
        return time.perf_counter() - t0, reports

    with Engine(options=EngineOptions(mode="parallel", use_cache=False)) as engine:
        engine.add_rules(asap7.full_deck())
        one_pass(engine)  # warm-up: first-use costs of the process
        plain, _ = one_pass(engine)
        originals = [(Engine, "check"), (Engine, "compile"), (HierarchyTree, "__init__")]
        saved = [getattr(owner, attr) for owner, attr in originals]
        tracer.wrap(Engine, "check", "engine.check")
        tracer.wrap(Engine, "compile", "plan.compile")
        tracer.wrap(HierarchyTree, "__init__", "hierarchy.tree")
        try:
            with tracer.span("engine-par.pass"):
                traced, reports = one_pass(engine)
        finally:
            for (owner, attr), original in zip(originals, saved):
                setattr(owner, attr, original)
    metrics["trace.overhead.engine-par"] = traced / plain

    stats = {}
    for name, report in reports.items():
        with out.operation(f"engine {name}"):
            out.expect(oracle.mismatch(oracle.report_keys(json.loads(report.to_json())),
                                       oracle.expected_keys(inputs["designs"][name]["expected"])),
                       f"engine {name}")
        for result in report.results:
            for key, value in result.stats.items():
                stats[key] = stats.get(key, 0) + value
    for key in ("kernel_launches", "h2d_copies", "h2d_bytes", "fused_segments"):
        metrics[f"gpu.{key}"] = stats.get(key, 0)

    render = 0.0
    for report in reports.values():
        with tracer.span("reporting.render"):
            t0 = time.perf_counter()
            report.to_csv()
            report.to_json()
            render += time.perf_counter() - t0
    metrics["reporting.render_s"] = render

    for mode in ("sequential", "parallel"):
        with Engine(options=EngineOptions(mode=mode, use_cache=False)) as engine:
            for deck in DECKS:
                rules = getattr(asap7, f"{deck}_deck")()
                seconds = 0.0
                for name in common.DESIGNS:
                    with tracer.span(f"{mode}.{deck}", design=name):
                        t0 = time.perf_counter()
                        engine.check(layouts[name], rules=rules)
                        seconds += time.perf_counter() - t0
                metrics[f"{mode}.{deck}_s"] = seconds


def _incremental(inputs, tracer, out: Outcome, metrics):
    from repro.core import Engine
    from repro.core.diff import diff_layouts
    from repro.gdsii import read_bytes
    from repro.layout.builder import layout_from_gdsii
    from repro.workloads import asap7

    def decode(data):
        layout = layout_from_gdsii(read_bytes(data))
        layout.set_top("top")
        return layout

    diffs, rechecks, dispositions = [], [], {"cached": 0, "windowed": 0, "full": 0}
    with Engine() as engine:
        engine.add_rules(asap7.full_deck())
        for name in serve_edit.DESIGNS:
            spec = inputs["serve"][name]
            data = serve_edit.versions(inputs, name)
            old = decode(data[0])
            report = engine.check(old)
            for rnd in spec["rounds"][:2]:
                for version, planted in ((rnd["plant"], oracle.shifted(rnd["pattern"], *rnd["slot_a"])),
                                         (rnd["move"], oracle.shifted(rnd["pattern"], *rnd["slot_b"])),
                                         (0, [])):
                    new = decode(data[version])
                    with tracer.span("diff.diff", design=name):
                        t0 = time.perf_counter()
                        diff_layouts(old, new)
                        diffs.append(time.perf_counter() - t0)
                    with tracer.span("incremental.recheck", design=name):
                        t0 = time.perf_counter()
                        report = engine.recheck(old, new, cached=report)
                        rechecks.append(time.perf_counter() - t0)
                    for disposition in engine.last_recheck.disposition.values():
                        dispositions[disposition] = dispositions.get(disposition, 0) + 1
                    with out.operation(f"recheck {name} v{version}"):
                        out.expect(oracle.mismatch(oracle.report_keys(json.loads(report.to_json())),
                                                   oracle.expected_keys(spec["expected"] + planted)),
                                   f"recheck {name} v{version}")
                    old = new
    metrics.update({
        "diff.diff_s": common.median(diffs),
        "incremental.recheck_s": common.median(rechecks),
        "incremental.rules_cached": dispositions["cached"],
        "incremental.rules_windowed": dispositions["windowed"],
        "incremental.rules_full": dispositions["full"],
    })


def _concurrent(daemon, sessions, out: Outcome) -> None:
    """Both clients recheck at once, then each session is checked twice at once.

    The timed loop keeps engine runs apart; this phase drives the admission
    scheduler's concurrent path: two sessions' runs admitted together
    (``max_active_seen``), a check routed inline while another request is
    active, and identical concurrent checks of a version the report LRU has
    not seen, which coalesce.
    """
    def together(calls):
        gate = threading.Barrier(len(calls))
        replies = [None] * len(calls)

        def one(i, call):
            gate.wait()
            try:
                replies[i] = call()
            except Exception as error:  # counted as a failed operation below
                replies[i] = error

        threads = [threading.Thread(target=one, args=(i, c), daemon=True) for i, c in enumerate(calls)]
        for t in threads:
            t.start()
        for t in threads:
            while t.is_alive():
                t.join(0.1)
        return replies

    client = daemon.client
    wanted, uploads = {}, []
    for s in sessions:
        rnd = s.spec["rounds"][2]
        wanted[s.name] = s.base + oracle.shifted(rnd["pattern"], *rnd["slot_a"])
        uploads.append(lambda s=s, v=rnd["plant"]: client.recheck(s.sid, data=s.data[v], top="top"))
    checks = [lambda s=s: client.check(s.sid) for s in sessions for _ in range(2)]
    names = [f"concurrent recheck {s.name}" for s in sessions]
    names += [f"concurrent check {s.name}" for s in sessions for _ in range(2)]
    owners = list(sessions) + [s for s in sessions for _ in range(2)]
    for name, owner, reply in zip(names, owners, together(uploads) + together(checks)):
        with out.operation(name):
            if isinstance(reply, Exception):
                raise reply
            out.expect(oracle.mismatch(oracle.report_keys(reply["report"]),
                                       oracle.expected_keys(wanted[owner.name])), name)


def _served(ctx, inputs, tracer, out: Outcome, metrics):
    data = {name: serve_edit.versions(inputs, name) for name in serve_edit.DESIGNS}
    daemon, sessions = serve_edit.start(ctx, inputs, data, "--warm-pool")
    before = daemon.client.stats()
    plain = serve_edit.drive(sessions, 0, 1)

    original = ServeClient._request

    def spanned(self, method, path, **kw):
        with tracer.span("server." + path.rsplit("/", 1)[-1], method=method):
            return original(self, method, path, **kw)

    ServeClient._request = spanned
    try:
        traced = serve_edit.drive(sessions, 0, 1, first=1)
    finally:
        ServeClient._request = original
    _concurrent(daemon, sessions, out)
    after = daemon.client.stats()
    ctx.reaper.stop(daemon.proc)
    for s in sessions:
        out.absorb(s.out)
    metrics["trace.overhead.serve-edit"] = traced / plain

    engine_s = [e for s in sessions for e in s.engine_s]
    overhead = [w - e for s in sessions for w, e in zip(s.rechecks, s.engine_s)]
    delta = {k: v - before["counters"].get(k, 0) for k, v in after["counters"].items()}
    checks = 4 * len(sessions)  # per client: one /check in each of two rounds, two at once
    engine = after["engine"]  # over the daemon's life, set-up included
    hits, misses = engine.get("cache_hits", 0), engine.get("cache_misses", 0)
    metrics.update({
        "server.engine_s": common.median(engine_s),
        "server.overhead_s": common.median(overhead),
        "server.engine_runs": delta.get("engine_runs", 0),
        "server.report_lru_hits": delta.get("report_lru_hits", 0),
        "server.admission_bypassed": delta.get("admission_bypassed", 0),
        "server.inline_routed": delta.get("inline_routed", 0),
        "server.coalesced": delta.get("coalesced", 0),
        "server.max_active_seen": after["max_active_seen"],
        "server.lru_hit_ratio": delta.get("report_lru_hits", 0) / checks,
        "packstore.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "multiproc.plan_compiles": engine.get("mp_plan_compiles", 0),
        "multiproc.pickle_probes": engine.get("mp_pickle_probes", 0),
        "costmodel.routed_inline": engine.get("mp_cost_routed_inline", 0),
    })


def run(ctx) -> Outcome:
    inputs = ctx.generate(designs=common.DESIGNS, serve=serve_edit.DESIGNS)
    tracer = common.Tracer(uuid.uuid4().hex)
    out = Outcome()
    metrics = {}
    with tracer.span("cli-suite"):
        _cli(ctx, inputs, tracer, out, metrics)
    with tracer.span("engine-par"):
        _engine(inputs, tracer, out, metrics)
    with tracer.span("incremental"):
        _incremental(inputs, tracer, out, metrics)
    with tracer.span("serve-edit") as served:
        tracer.thread_parent = served  # the client threads' spans
        _served(ctx, inputs, tracer, out, metrics)
        tracer.thread_parent = None
    out.metrics = metrics
    out.units = {name: unit for unit, names in UNITS.items() for name in names}
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    common.write_json(common.OUT / f"trace-{ctx.workload}-seed{ctx.seed}-{stamp}.json", tracer.chrome())
    return out
