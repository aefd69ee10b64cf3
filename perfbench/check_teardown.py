"""The benchmark's own test: an interrupted run leaves no process behind.

    python3 perfbench/check_teardown.py

Starts ``run.py`` on ``serve-edit`` and on ``cli-suite``, waits until the
program processes are up (for ``serve-edit``: the daemon and its warm pool
workers, partway through the timed loop), then sends SIGINT or SIGTERM to
the benchmark. The run must exit non-zero without printing a result, and
no process it started may remain. This process is a child subreaper, so
anything the run left orphaned would be re-parented here and be seen.
Exits 0 when every case passes.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

CASES = (
    ("serve-edit", signal.SIGINT, 4),
    ("serve-edit", signal.SIGTERM, 4),
    ("cli-suite", signal.SIGINT, 1),
)


def _cmdline(pid: int) -> str:
    try:
        return Path(f"/proc/{pid}/cmdline").read_bytes().replace(b"\0", b" ").decode()
    except OSError:
        return ""


def _program_processes(run_pid: int):
    """Descendants of the run that are program processes (not input generation)."""
    return [p for p in common.descendants(run_pid) if "gen.py" not in _cmdline(p)]


def case(workload: str, signum: int, wanted: int) -> bool:
    """One interrupted run; prints its verdict and returns True if it failed."""
    run = subprocess.Popen(
        [sys.executable, str(common.BENCH / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "20", "--trace", "0"],
        cwd=str(common.ROOT), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    deadline = time.monotonic() + 90
    seen = []
    while time.monotonic() < deadline and run.poll() is None:
        seen = _program_processes(run.pid)
        if len(seen) >= wanted:
            break
        time.sleep(0.05)
    else:
        run.kill()
        run.communicate()
        print(f"FAIL {workload}: never saw {wanted} program processes (saw {len(seen)})")
        return True
    time.sleep(3.0)  # let the timed part get going
    during = _program_processes(run.pid)
    run.send_signal(signum)
    try:
        stdout, _ = run.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        run.kill()
        run.communicate()
        print(f"FAIL {workload}: run still alive 60 s after {signal.Signals(signum).name}")
        return True
    time.sleep(0.5)
    left = common.descendants(os.getpid())
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    _reap()
    problems = []
    if run.returncode == 0:
        problems.append("exit code 0")
    if stdout.strip().endswith(b"}"):
        problems.append("printed a result")
    if left:
        problems.append(f"{len(left)} process(es) left: {[_cmdline(p)[:80] for p in left]}")
    name = f"{workload} + {signal.Signals(signum).name} with {len(during)} program processes up"
    print(("FAIL " if problems else "ok   ") + name + (": " + "; ".join(problems) if problems else ""))
    return bool(problems)


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if not pid:
            return


def main() -> int:
    common.become_subreaper()
    failures = sum(case(*c) for c in CASES)
    print("teardown: ok" if not failures else f"teardown: {failures} case(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
