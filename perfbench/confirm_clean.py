"""Confirm the oracle with an independent checker; writes ``clean_confirmation.json``.

    python3 perfbench/confirm_clean.py

The benchmark's expected violations are the list ``inject_violations``
returns, which is exact only if the synthesized base designs are clean.
This command checks that with ``KLayoutLikeChecker`` in flat mode
(flatten-and-sweepline code that shares no pruning with the engine) and
the full deck: every paper-scale base design must have no violation, and
every design injected as ``gen.py`` injects it, for seeds 0 and 1, must
have exactly the expected list. It also records the trap the injection
plan avoids: V2 vias planted on M2 pads (the default of
``inject_violations``) draw ``V2.M3.EN.1`` violations the returned list
omits. Takes about a minute at paper scale.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import gen  # noqa: E402  (puts src/ on the path)
import oracle  # noqa: E402
from repro.baselines.klayout_like import KLayoutLikeChecker  # noqa: E402
from repro.workloads import InjectionPlan, asap7, build_design, inject_violations  # noqa: E402

#: Workload seeds whose injected designs are confirmed exact.
SEEDS = (0, 1)


def flat_keys(layout):
    start = time.perf_counter()
    report = KLayoutLikeChecker(layout, "flat").check(asap7.full_deck())
    return oracle.report_keys(json.loads(report.to_json())), time.perf_counter() - start


def main() -> int:
    record = {"host": common.host_info(), "checker": "KLayoutLikeChecker flat, full deck",
              "scale": "paper", "plan": gen.PLAN, "designs": {}}
    ok = True
    for i, name in enumerate(common.DESIGNS):
        found, seconds = flat_keys(build_design(name, "paper"))
        entry = {"base_violations": sum(found.values()), "base_seconds": round(seconds, 3),
                 "injected": {}}
        ok &= not found
        for seed in SEEDS:
            layout = build_design(name, "paper")
            expected = gen.inject(layout, gen.PLAN, gen.design_seed(seed, name))
            found, _ = flat_keys(layout)
            problem = oracle.mismatch(found, oracle.expected_keys(expected))
            entry["injected"][str(seed)] = problem or f"exact: {len(expected)} violations"
            ok &= problem is None
        trap = build_design(name, "paper")
        listed = inject_violations(trap, InjectionPlan(enclosure=1), seed=i)
        found, _ = flat_keys(trap)
        entry["v2_on_m2_pad"] = {"listed": len(listed), "found": sum(found.values()),
                                 "rules": sorted({k[0] for k in found})}
        record["designs"][name] = entry
        print(name, json.dumps(entry, sort_keys=True), flush=True)
    record["confirmed"] = ok
    common.write_json(common.BENCH / "clean_confirmation.json", record)
    print("confirmed" if ok else "NOT CONFIRMED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
