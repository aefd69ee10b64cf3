"""``engine-par``: the engine inside the caller's own process (the paper's ODRC-par).

Set-up imports the program cold, decodes and builds the six designs and
their hierarchy trees, and makes one ``Engine(mode="parallel")`` with the
full deck and no pack store. ``setup_s`` is the median of three such
set-ups, each in a fresh process (this file run as a script) timed from
its spawn to its ``ready`` line; the benchmark process then does the same
set-up untimed for itself. A pass then checks the six designs in order
with ``engine.check(layout)`` (plan compile, pack, partition, candidate
search, kernels) and after each check answers three queries on the report
in process (severity, rule and bbox filters). Once per run a translated
copy of one design is checked too: every violation must move by the same
vector.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import common
import oracle
from common import Outcome

#: Whole passes every run makes: 7 x 6 checks puts ten samples beyond p75.
MIN_PASSES = 7
#: Fresh-process set-ups timed for ``setup_s``; their median is reported.
SETUP_STARTS = 3


def load(inputs):
    """Decode, build and tree every design; returns name -> (layout, tree)."""
    from repro.gdsii import read
    from repro.hierarchy.tree import HierarchyTree
    from repro.layout.builder import layout_from_gdsii

    loaded = {}
    for name in common.DESIGNS:
        layout = layout_from_gdsii(read(str(inputs["dir"] / inputs["designs"][name]["gds"])))
        layout.set_top("top")
        loaded[name] = (layout, HierarchyTree(layout))
    return loaded


def make_engine():
    from repro.core import Engine, EngineOptions
    from repro.workloads import asap7

    engine = Engine(options=EngineOptions(mode="parallel", use_cache=False))
    engine.add_rules(asap7.full_deck())
    return engine


def timed_setup(ctx) -> float:
    """Seconds from spawning a fresh set-up process to its ``ready`` line."""
    start = time.perf_counter()
    proc = ctx.reaper.spawn([sys.executable, __file__, str(ctx.work / "inputs")],
                            stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    took = time.perf_counter() - start
    proc.stdout.close()
    code, _ = ctx.reaper.wait(proc, 60)
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError(f"set-up process printed {line[:80]!r} and exited {code}")
    return took


def translated(layout, dx: int, dy: int):
    """``layout`` placed once under a new top at offset (dx, dy)."""
    from repro.geometry.transform import Transform
    from repro.layout import Layout
    from repro.layout.cell import CellReference

    moved = Layout(layout.name + "-moved")
    for cell in layout.cells.values():
        moved.add_cell(cell)
    moved.new_cell("moved").add_reference(CellReference("top", Transform(dx=dx, dy=dy)))
    moved.set_top("moved")
    return moved


def queries(rng, expected):
    """Severity, rule and bbox queries that one planted violation answers."""
    target = rng.choice(expected)
    return ({"severity": "error"}, {"rules": [target["rule"]]}, {"bbox": oracle.box_around(target)})


def run(ctx) -> Outcome:
    inputs = ctx.generate(designs=common.DESIGNS)
    out = Outcome()

    setups = [timed_setup(ctx) for _ in range(SETUP_STARTS)]
    loaded = load(inputs)
    engine = make_engine()
    from repro.reporting import filter_violations_payload

    rng = random.Random(f"perfbench-engine-{ctx.seed}")
    checks = {name: [] for name in common.DESIGNS}
    asked, cpu, passes = [], 0.0, 0
    try:
        start = time.perf_counter()
        while passes < MIN_PASSES or time.perf_counter() - start < ctx.seconds:
            for name in common.DESIGNS:
                expected = inputs["designs"][name]["expected"]
                layout = loaded[name][0]
                report = None
                with out.operation(f"check {name}"):
                    cpu0, t0 = time.process_time(), time.perf_counter()
                    report = engine.check(layout)
                    checks[name].append(time.perf_counter() - t0)
                    cpu += time.process_time() - cpu0
                    payload = json.loads(report.to_json())
                    out.expect(oracle.mismatch(oracle.report_keys(payload),
                                               oracle.expected_keys(expected)), f"check {name}")
                if report is None:
                    continue
                for q in queries(rng, expected):
                    with out.operation(f"query {name} {q}"):
                        cpu0, t0 = time.process_time(), time.perf_counter()
                        listing = filter_violations_payload(report.payload(), **q)
                        asked.append(time.perf_counter() - t0)
                        cpu += time.process_time() - cpu0
                        out.expect(oracle.mismatch(oracle.listing_keys(listing["violations"]),
                                                   oracle.query(payload, **q)), f"query {name} {q}")
            passes += 1

        # The translation property, once per run (not timed).
        name = common.DESIGNS[ctx.seed % len(common.DESIGNS)]
        dx, dy = rng.randrange(-50_000, 50_000), rng.randrange(-50_000, 50_000)
        with out.operation(f"translate {name}"):
            moved = json.loads(engine.check(translated(loaded[name][0], dx, dy)).to_json())
            want = oracle.shifted(inputs["designs"][name]["expected"], dx, dy)
            out.expect(oracle.mismatch(oracle.report_keys(moved), oracle.expected_keys(want)),
                       f"translate {name} by ({dx}, {dy})")
    finally:
        engine.close()

    ops = [t for samples in checks.values() for t in samples]
    out.metrics = {
        "suite_s": common.per_key_median_sum(checks),
        "setup_s": common.median(setups),
        "op_s": common.median(ops),
        "op_tail_s": common.percentile(ops, common.TAIL_PERCENT),
        "query_s": common.median(asked),
        # Per second the program was busy: the oracle's checks are not its work.
        "throughput_ops_s": (len(ops) + len(asked)) / (sum(ops) + sum(asked)),
        "cpu_s_per_op": cpu / (len(ops) + len(asked)),
        "peak_rss_mb": common.proc_peak_rss_mb(os.getpid()),
    }
    out.details = {"passes": passes, "check_s": checks, "translate": [name, dx, dy],
                   "setup_starts_s": setups}
    return out


def main(folder: str) -> int:
    """The set-up of one run, alone in a fresh process; prints ``ready``."""
    common.use_sources()
    inputs = json.loads((Path(folder) / "inputs.json").read_text())
    inputs["dir"] = Path(folder)
    load(inputs)
    engine = make_engine()
    print("ready", flush=True)
    engine.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
