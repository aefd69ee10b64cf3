"""Shared plumbing of the benchmark: paths, host facts, process lifetime,
per-process CPU and memory readings, statistics, and the span recorder.

Nothing here imports :mod:`repro`; the workloads import it only where the
program is meant to run inside the benchmark process.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: The six designs of the paper's tables, in the order every pass visits them.
DESIGNS = ("aes", "ethmac", "ibex", "jpeg", "sha3", "uart")
#: Percentile behind the ``op_tail_s`` metric.
TAIL_PERCENT = 75

_CLK_TCK = os.sysconf("SC_CLK_TCK")


class Interrupted(Exception):
    """SIGINT, SIGTERM or the run's own deadline stopped the benchmark."""


@dataclasses.dataclass
class Outcome:
    """What a workload measured and how its operations fared.

    ``failed`` counts the operations that raised (a wrong exit code, an HTTP
    error, a timeout) or whose output disagreed with the oracle; the run
    goes on after either. Only a disagreement makes the run incorrect.
    """

    attempted: int = 0
    failed: int = 0
    #: One line per operation whose output disagreed with the oracle.
    errors: List[str] = dataclasses.field(default_factory=list)
    #: One line per operation that raised.
    faults: List[str] = dataclasses.field(default_factory=list)
    metrics: Dict[str, float] = dataclasses.field(default_factory=dict)
    units: Dict[str, str] = dataclasses.field(default_factory=dict)
    details: Dict[str, object] = dataclasses.field(default_factory=dict)

    @contextlib.contextmanager
    def operation(self, what: str):
        """One attempted operation; an exception in it fails it, not the run."""
        self.attempted += 1
        wrong = len(self.errors)
        try:
            yield
        except Interrupted:
            raise
        except Exception as error:
            self.faults.append(f"{what}: {error!r}")
            self.failed += 1
        else:
            if len(self.errors) > wrong:
                self.failed += 1

    def expect(self, problem, what: str) -> None:
        """Record the oracle's verdict (None when the output was right)."""
        if problem:
            self.errors.append(f"{what}: {problem}")

    def absorb(self, other: "Outcome") -> None:
        """Add the operations another outcome (one client's) counted."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.extend(other.errors)
        self.faults.extend(other.faults)


def require_sources() -> None:
    """Exit non-zero unless the program's sources are present to build from."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"perfbench: no program sources at {SRC / 'repro'}; run from the "
            "root of a repository checkout\n"
        )
        raise SystemExit(2)


def program_env(**extra: str) -> Dict[str, str]:
    """Environment for program processes: sources on the path, no REPRO_* knobs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra)
    return env


def use_sources() -> None:
    """Make ``import repro`` in this process load the checkout's sources."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def host_info() -> Dict[str, object]:
    """The facts a reference figure needs beside it (numpy is not imported)."""
    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


# -- statistics --------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], percent: int) -> float:
    """``statistics.quantiles`` cut point (exclusive method) at ``percent``."""
    if len(values) < 2:
        return float(values[0])
    return float(statistics.quantiles(values, n=100)[percent - 1])


def per_key_median_sum(samples: Dict[str, List[float]]) -> float:
    """Sum over keys of each key's median: one pass over every design."""
    return sum(median(v) for v in samples.values())


# -- per-process readings -------------------------------------------------------


def proc_cpu_seconds(pid: int) -> float:
    """utime + stime of a live process and of the children it has reaped."""
    with open(f"/proc/{pid}/stat", "rb") as f:
        fields = f.read().rsplit(b")", 1)[1].split()
    # fields[0] is the state (field 3); utime..cstime are fields 14..17.
    return sum(int(x) for x in fields[11:15]) / _CLK_TCK


def proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def descendants(pid: int) -> List[int]:
    """Live descendants of ``pid`` (read from /proc, any depth)."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as f:
                fields = f.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        if fields[0] == b"Z":
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    found: List[int] = []
    frontier = [pid]
    while frontier:
        kids = children.get(frontier.pop(), [])
        found.extend(kids)
        frontier.extend(kids)
    return found


def tree_cpu_seconds(pid: int) -> float:
    """CPU seconds of ``pid`` and every live descendant."""
    total = 0.0
    for p in [pid] + descendants(pid):
        with contextlib.suppress(OSError):
            total += proc_cpu_seconds(p)
    return total


def tree_peak_rss_mb(pid: int) -> float:
    """Peak resident set of the largest process among ``pid`` and descendants."""
    peak = 0.0
    for p in [pid] + descendants(pid):
        with contextlib.suppress(OSError):
            peak = max(peak, proc_peak_rss_mb(p))
    return peak


# -- process lifetime -------------------------------------------------------------


def become_subreaper() -> None:
    """Adopt orphaned descendants (pool workers), so they can be waited for."""
    with contextlib.suppress(OSError, AttributeError):
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        libc.prctl.restype = ctypes.c_int
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


class Reaper:
    """Owns every process the benchmark starts and ends each of them.

    Each program process leads its own process group, so its own children
    (pool workers, a forkserver) share the group and die with it. Closing
    asks a process to stop (``stopper``), waits a bounded time, then kills
    the whole group; the benchmark is a child subreaper, so descendants
    orphaned on the way are re-parented to it and waited for too.
    """

    def __init__(self) -> None:
        become_subreaper()
        self._procs: List[subprocess.Popen] = []
        self._stoppers: Dict[int, object] = {}

    def spawn(self, argv: Sequence[str], *, stopper=None, **kwargs) -> subprocess.Popen:
        kwargs.setdefault("env", program_env())
        kwargs.setdefault("cwd", str(ROOT))
        proc = subprocess.Popen(list(argv), start_new_session=True, **kwargs)
        self._procs.append(proc)
        if stopper is not None:
            self._stoppers[proc.pid] = stopper
        return proc

    def wait(self, proc: subprocess.Popen, timeout: float):
        """Wait for one process; returns ``(returncode, rusage)`` of it alone."""
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                self._forget(proc)
                return proc.returncode, usage
            if time.monotonic() > deadline:
                raise TimeoutError(f"{proc.args[:4]} still running after {timeout:g}s")
            time.sleep(0.002)

    def run(self, argv: Sequence[str], stdout_path: Path, timeout: float):
        """One program process to its end; returns ``(code, wall seconds, rusage)``.

        A process still running after ``timeout`` is stopped before the
        :class:`TimeoutError` propagates.
        """
        with open(stdout_path, "wb") as out:
            start = time.perf_counter()
            proc = self.spawn(argv, stdout=out)
            try:
                code, usage = self.wait(proc, timeout)
            except TimeoutError:
                self.stop(proc)
                raise
            return code, time.perf_counter() - start, usage

    def _forget(self, proc: subprocess.Popen) -> None:
        with contextlib.suppress(ValueError):
            self._procs.remove(proc)
        self._stoppers.pop(proc.pid, None)
        with contextlib.suppress(ProcessLookupError, PermissionError):
            os.killpg(proc.pid, signal.SIGKILL)  # leftovers of its group

    def stop(self, proc: subprocess.Popen, grace: float = 10.0) -> None:
        """Stop one process: its stopper, a bounded wait, then SIGKILL."""
        stopper = self._stoppers.get(proc.pid)
        if proc.poll() is None and stopper is not None:
            with contextlib.suppress(Exception):
                stopper()
            with contextlib.suppress(subprocess.TimeoutExpired):
                proc.wait(timeout=grace)
        if proc.poll() is None:
            with contextlib.suppress(ProcessLookupError, PermissionError):
                os.killpg(proc.pid, signal.SIGTERM)
            with contextlib.suppress(subprocess.TimeoutExpired):
                proc.wait(timeout=2.0)
        with contextlib.suppress(ProcessLookupError, PermissionError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        self._forget(proc)

    def close(self) -> None:
        """Stop everything still running and wait for every descendant."""
        for proc in list(reversed(self._procs)):
            self.stop(proc)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            for pid in descendants(os.getpid()):
                with contextlib.suppress(ProcessLookupError, PermissionError):
                    os.kill(pid, signal.SIGKILL)
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return
            if not pid:
                time.sleep(0.01)


@contextlib.contextmanager
def interruptible(seconds: float):
    """SIGINT, SIGTERM and a whole-run deadline raise :class:`Interrupted`.

    On leaving, SIGINT and SIGTERM are ignored from then on: the teardown
    that follows must not be cut short by a second signal.
    """

    def _raise(signum, frame):
        raise Interrupted(signal.Signals(signum).name)

    for s in (signal.SIGINT, signal.SIGTERM, signal.SIGALRM):
        signal.signal(s, _raise)
    signal.alarm(int(seconds))
    try:
        yield
    finally:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.alarm(0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


# -- spans ---------------------------------------------------------------------------


class Tracer:
    """In-memory spans: name, start, end, parent span, and one shared trace id."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: List[Dict[str, object]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Parent of the outermost spans of threads that did not open one.
        self.thread_parent: Optional[int] = None

    @contextlib.contextmanager
    def span(self, name: str, **args):
        """Record the enclosed block; yields the span's id."""
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else self.thread_parent
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append({
                    "name": name, "start": start, "end": end, "id": span_id,
                    "parent": parent, "trace": self.trace_id,
                    "tid": threading.get_ident(), "args": args,
                })

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a spanned call of the original."""
        original = getattr(owner, attr)
        tracer = self

        def spanned(*a, **kw):
            with tracer.span(name):
                return original(*a, **kw)

        spanned.__wrapped__ = original
        setattr(owner, attr, spanned)

    def totals(self) -> Dict[str, float]:
        """Seconds per span name, summed."""
        out: Dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
        return out

    def self_totals(self) -> Dict[str, float]:
        """Seconds per span name minus the time its direct children cover."""
        child_time: Dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
        out: Dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def extend(self, spans: Iterable[Dict[str, object]], pid: int) -> None:
        """Adopt spans recorded by another process (ids made unique by pid)."""
        for s in spans:
            s = dict(s)
            s["id"] = f"{pid}:{s['id']}"
            s["parent"] = None if s["parent"] is None else f"{pid}:{s['parent']}"
            s["pid"] = pid
            self.spans.append(s)

    def chrome(self) -> Dict[str, object]:
        """Chrome trace-event JSON (opens in Perfetto)."""
        if not self.spans:
            return {"traceEvents": []}
        t0 = min(s["start"] for s in self.spans)
        events = [{
            "name": s["name"], "ph": "X", "cat": s["name"].split(".", 1)[0],
            "ts": round((s["start"] - t0) * 1e6, 3),
            "dur": round((s["end"] - s["start"]) * 1e6, 3),
            "pid": s.get("pid", os.getpid()), "tid": s["tid"],
            "args": dict(s["args"], span=str(s["id"]), parent=str(s["parent"]), trace=s["trace"]),
        } for s in self.spans]
        return {"traceEvents": events, "otherData": {"trace": self.trace_id}}


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True))
    os.replace(tmp, path)
