"""``cli-suite``: the sign-off path, one fresh CLI process per check.

A round runs, for each of the six paper designs in order,
``python -m repro check <file> --top top --format json --output <markers>``
(default deck and backend, no cache, no daemon), then one
``python -m repro violations <markers>`` query of the marker database it
wrote. Import, GDSII decode, layout build, tree and the default backend do
the work; no warm state survives between processes.
"""

from __future__ import annotations

import json
import random
import sys
import time

import common
import oracle
from common import Outcome

#: Whole rounds every run makes, however short ``--seconds`` is.
MIN_ROUNDS = 2
#: Fresh CLI starts timed for ``setup_s``; their median is reported.
SETUP_STARTS = 5
OP_TIMEOUT = 150


def run(ctx) -> Outcome:
    inputs = ctx.generate(designs=common.DESIGNS)
    folder = inputs["dir"]
    cli = [sys.executable, "-m", "repro"]
    out = Outcome()

    setups = []
    for _ in range(SETUP_STARTS):
        code, wall, _ = ctx.reaper.run(cli + ["check", "--help"], ctx.work / "help.txt", OP_TIMEOUT)
        if code != 0:
            raise RuntimeError(f"repro check --help exited {code}")
        setups.append(wall)

    rng = random.Random(f"perfbench-cli-{ctx.seed}")
    checks = {name: [] for name in common.DESIGNS}
    queries, cpu, peak_kb = [], 0.0, 0
    rounds = 0
    start = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - start < ctx.seconds:
        for name in common.DESIGNS:
            design = inputs["designs"][name]
            report_path = ctx.work / f"{name}.json"
            markers = ctx.work / f"{name}.markers.json"
            payload = None
            with out.operation(f"check {name}"):
                code, wall, usage = ctx.reaper.run(cli + [
                    "check", str(folder / design["gds"]), "--top", "top", "--format", "json",
                    "--output", str(markers),
                ], report_path, OP_TIMEOUT)
                cpu += usage.ru_utime + usage.ru_stime
                peak_kb = max(peak_kb, usage.ru_maxrss)
                if code != 1:  # 1: unwaived error violations remain, as planted
                    raise RuntimeError(f"repro check exited {code}")
                checks[name].append(wall)
                text = report_path.read_text()
                payload = json.loads(text[text.index("{"):])  # after "wrote marker database"
                out.expect(oracle.mismatch(oracle.report_keys(payload),
                                           oracle.expected_keys(design["expected"])), f"check {name}")
            if payload is None:
                continue  # no marker database to query

            target = rng.choice(design["expected"])
            q = {"severity": "error", "rules": [target["rule"]], "bbox": oracle.box_around(target)}
            with out.operation(f"query {name}"):
                code, wall, usage = ctx.reaper.run(cli + [
                    "violations", str(markers), "--severity", q["severity"], "--rule", q["rules"][0],
                    "--bbox", *map(str, q["bbox"]),
                ], ctx.work / f"{name}.query.json", OP_TIMEOUT)
                cpu += usage.ru_utime + usage.ru_stime
                peak_kb = max(peak_kb, usage.ru_maxrss)
                if code != 0:
                    raise RuntimeError(f"repro violations exited {code}")
                queries.append(wall)
                listing = json.loads((ctx.work / f"{name}.query.json").read_text())
                out.expect(oracle.mismatch(oracle.listing_keys(listing["violations"]),
                                           oracle.query(payload, **q)), f"query {name}")
        rounds += 1
    wall = time.perf_counter() - start
    done = out.attempted - out.failed

    ops = [t for samples in checks.values() for t in samples]
    out.metrics = {
        "suite_s": common.per_key_median_sum(checks),
        "setup_s": common.median(setups),
        "op_s": common.median(ops),
        "op_tail_s": common.percentile(ops, common.TAIL_PERCENT),
        "query_s": common.median(queries),
        "throughput_ops_s": done / wall,
        "cpu_s_per_op": cpu / done,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    out.details = {"rounds": rounds, "check_s": checks, "query_s": queries, "setup_starts_s": setups}
    return out
