"""The benchmark's one command.

    python3 perfbench/run.py --workload cli-suite --seed 1 --seconds 20 --trace 0

Run from the root of a repository checkout. Inputs are generated from the
seed by ``gen.py`` in a child process before any clock starts; the program
runs from ``src/``. With ``--trace 0`` the run measures the workload for at
least ``--seconds`` seconds (whole rounds, at least the workload's minimum)
and reports every end-to-end metric; with ``--trace 1`` it runs the traced
layer sweep of ``layers.py`` instead and reports every per-layer metric.
Every operation's output is checked against the oracle of ``oracle.py``.
The last line of standard output is the JSON result; a record with the
host, the samples and the details goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

#: Whole-run deadline (seconds): teardown and exit still fit in 180 s.
RUN_DEADLINE = 165

END_TO_END = {
    "suite_s": "s", "setup_s": "s", "op_s": "s", "op_tail_s": "s", "query_s": "s",
    "throughput_ops_s": "1/s", "cpu_s_per_op": "s", "peak_rss_mb": "MB",
}


@dataclasses.dataclass
class Context:
    workload: str
    seed: int
    seconds: int
    reaper: common.Reaper
    work: Path

    def generate(self, *, designs=(), serve=()) -> dict:
        """Synthesize, inject and encode every input in a child process."""
        proc = self.reaper.spawn([
            sys.executable, str(common.BENCH / "gen.py"), "--seed", str(self.seed),
            "--out", str(self.work / "inputs"),
            "--designs", ",".join(designs), "--serve", ",".join(serve),
        ])
        code, _ = self.reaper.wait(proc, 120)
        if code != 0:
            raise RuntimeError(f"input generation failed with exit code {code}")
        inputs = json.loads((self.work / "inputs" / "inputs.json").read_text())
        inputs["dir"] = self.work / "inputs"
        return inputs


def _workload(name: str):
    if name == "cli-suite":
        import cli_suite as module
    elif name == "engine-par":
        import engine_par as module
    else:
        import serve_edit as module
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["cli-suite", "engine-par", "serve-edit"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    common.require_sources()
    common.use_sources()

    started = time.time()
    host = common.host_info()
    work = common.OUT / f"work-{os.getpid()}"
    reaper = common.Reaper()
    ctx = Context(args.workload, args.seed, args.seconds, reaper, work)
    try:
        with common.interruptible(RUN_DEADLINE):
            if args.trace:
                import layers

                outcome = layers.run(ctx)
            else:
                outcome = _workload(args.workload).run(ctx)
    except common.Interrupted as stop:
        sys.stderr.write(f"perfbench: interrupted ({stop}); no result\n")
        return 130
    except Exception:
        traceback.print_exc()
        sys.stderr.write("perfbench: the run could not finish; no result\n")
        return 1
    finally:
        # SIGINT and SIGTERM are ignored by now (see common.interruptible).
        reaper.close()
        shutil.rmtree(work, ignore_errors=True)

    units = dict(END_TO_END, **outcome.units) if not args.trace else outcome.units
    result = {
        "correct": not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": outcome.metrics[k], "unit": units[k]} for k in sorted(outcome.metrics)},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, host=host, started=started, errors=outcome.errors,
                  faults=outcome.faults, details=outcome.details)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(started))
    common.write_json(common.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json", record)
    for line in outcome.errors[:20]:
        print(f"MISMATCH {line}")
    for line in outcome.faults[:20]:
        print(f"FAILED {line}")
    print("host " + json.dumps(host, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    sys.stdout.flush()
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
