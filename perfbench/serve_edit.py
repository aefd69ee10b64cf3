"""``serve-edit``: a warm daemon taking small edits from two clients.

One daemon runs as the usage guide recommends, sized to a 2-core host:
``repro serve --port 0 --jobs 2 --warm-pool --cache-dir <fresh>``. Set-up
runs from its spawn to its ``listening on http://...`` line, then creates
one session per served design and checks each once. Two client threads
then loop in closed loop and in lockstep, each on its own session. A round
uploads three edit versions through ``recheck`` (plant a violation at slot
A, move that instance to slot B, remove it); the clients take turns to
upload, then both send three ``/violations`` queries (severity, rule and
bbox filters) on their latest report. The round ends with both clients
checking the base version, which the report LRU answers. Every
report is compared with the expected set the edits imply, every query
answer is recomputed from the last full report, and at the end each
session's last served recheck and check reports are compared with a cold
in-process check of the same bytes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

import common
import oracle
from common import Outcome
from repro.client import ServeClient

#: The two sessions' designs: the paper's densest and its second largest.
DESIGNS = ("aes", "sha3")
#: Whole rounds each client makes: 7 x 3 rechecks x 2 clients puts ten
#: samples beyond p75.
MIN_ROUNDS = 7
READY_TIMEOUT = 60.0
REQUEST_TIMEOUT = 120.0


class Daemon:
    """``repro serve`` as a child process, ready once it prints its URL.

    Readiness is read from the ``listening on http://...`` line rather
    than polled, so set-up time does not depend on a poll interval.
    """

    def __init__(self, ctx, cache_dir, *extra: str) -> None:
        self.ready = threading.Event()
        self.lines: List[str] = []
        self.url: Optional[str] = None
        with open(ctx.work / "serve.log", "ab") as log:
            self.proc = ctx.reaper.spawn(
                [sys.executable, "-m", "repro", "serve", "--port", "0", "--jobs", "2",
                 "--cache-dir", str(cache_dir), *extra],
                stdout=subprocess.PIPE, stderr=log, stopper=self.shutdown,
            )
        threading.Thread(target=self._read, daemon=True).start()
        if not self.ready.wait(READY_TIMEOUT) or self.url is None:
            raise RuntimeError(f"daemon never announced its address: {self.lines[-3:]}")
        # The daemon is on the loopback interface: no proxy setting may apply.
        os.environ["no_proxy"] = ",".join(filter(None, (os.environ.get("no_proxy"), "127.0.0.1")))
        self.client = ServeClient(self.url, timeout=REQUEST_TIMEOUT)

    def _read(self) -> None:
        for raw in self.proc.stdout:
            line = raw.decode(errors="replace").rstrip()
            self.lines.append(line)
            if "listening on http://" in line and self.url is None:
                self.url = "http://" + line.split("http://", 1)[1].split()[0]
                self.ready.set()
        self.ready.set()

    def shutdown(self) -> None:
        if self.url is not None:
            ServeClient(self.url, timeout=5.0).shutdown()


def versions(inputs, name: str) -> List[bytes]:
    """Every edit version of one design, assembled before any clock starts."""
    spec = inputs["serve"][name]
    prefix = (inputs["dir"] / spec["prefix"]).read_bytes()
    blob = (inputs["dir"] / spec["suffixes"]).read_bytes()
    return [prefix + blob[a:b] for a, b in spec["offsets"]]


class Session:
    """One client's session, its edit script, and what it measured."""

    def __init__(self, client: ServeClient, name: str, spec: Dict, data: List[bytes]) -> None:
        self.client, self.name, self.spec, self.data = client, name, spec, data
        self.base = spec["expected"]
        self.sid = ""
        self.rechecks: List[float] = []
        self.engine_s: List[float] = []
        self.queries: List[float] = []
        self.rounds: List[float] = []
        self.other: List[float] = []  # checks the LRU did not answer
        self.ops = 0  # timed operations that completed
        self.out = Outcome()  # this client's operations
        self.version = 0
        self.last_report: Optional[Dict] = None
        self.last_spliced: Optional[Dict] = None  # the last recheck's report

    def open(self) -> None:
        self.sid = self.client.create_session(data=self.data[0], top="top")["session"]
        with self.out.operation(f"{self.name} baseline check"):
            report = self.client.check(self.sid)["report"]
            self.last_report = report
            self._expect(oracle.report_keys(report), self.base, "baseline check")

    def _expect(self, got, want, what: str) -> None:
        want = oracle.expected_keys(want) if isinstance(want, list) else want
        self.out.expect(oracle.mismatch(got, want), f"{self.name} {what}")

    def round(self, index: int, gate: threading.Barrier, role: int) -> None:
        """Edit round ``index`` in step with the other client.

        Each of the three edits has three phases, lined up by ``gate``: the
        client with role 0 uploads its edit, then the one with role 1, then
        both query their latest report. So no recheck overlaps another
        request, and every run loads the daemon the same way. The round ends
        with both clients checking the base version, which the report LRU
        answers.
        """
        rnd = self.spec["rounds"][index % len(self.spec["rounds"])]
        start = time.perf_counter()
        steps = (
            ("plant", rnd["plant"], oracle.shifted(rnd["pattern"], *rnd["slot_a"]), rnd["box_a"]),
            ("move", rnd["move"], oracle.shifted(rnd["pattern"], *rnd["slot_b"]), rnd["box_a"]),
            ("remove", 0, [], rnd["box_b"]),
        )
        for step, version, planted, box in steps:
            for phase in (0, 1):
                gate.wait()
                if phase == role:
                    self.recheck(version, planted, f"round {index} {step}")
            gate.wait()
            self._queries(rnd["rule"], box, f"round {index} {step}")
        gate.wait()
        self.check(self.base, f"round {index} check")
        self.rounds.append(time.perf_counter() - start)

    def check(self, want: List[Dict], what: str) -> None:
        """One ``/check``; the LRU's answers count among the queries."""
        with self.out.operation(f"{self.name} {what}"):
            t0 = time.perf_counter()
            reply = self.client.check(self.sid)
            took = time.perf_counter() - t0
            self.ops += 1
            (self.queries if reply["meta"].get("source") == "report-lru" else self.other).append(took)
            self.last_report = reply["report"]
            self._expect(oracle.report_keys(reply["report"]), want, what)

    def recheck(self, version: int, planted: List[Dict], what: str) -> None:
        with self.out.operation(f"{self.name} {what}"):
            t0 = time.perf_counter()
            reply = self.client.recheck(self.sid, data=self.data[version], top="top")
            self.rechecks.append(time.perf_counter() - t0)
            self.engine_s.append(reply["meta"]["seconds"])
            self.ops += 1
            self.version = version
            self.last_report = self.last_spliced = reply["report"]
            self._expect(oracle.report_keys(self.last_report), self.base + planted, what)

    def _queries(self, rule: str, box: List[int], what: str) -> None:
        """Severity, rule and bbox queries, each recomputed from the last full report."""
        report = self.last_report
        for q in ({"severity": "error"}, {"rules": [rule]}, {"bbox": box}):
            with self.out.operation(f"{self.name} {what} query {q}"):
                t0 = time.perf_counter()
                listing = self.client.violations(self.sid, **q)
                self.queries.append(time.perf_counter() - t0)
                self.ops += 1
                self._expect(oracle.listing_keys(listing["violations"]), oracle.query(report, **q),
                             f"{what} query {q}")


def drive(sessions: List[Session], seconds: float, min_rounds: int, first: int = 0) -> float:
    """Run two clients in lockstep, one thread each; returns wall seconds.

    The clients make rounds ``first``, ``first + 1``, ... until they have
    made ``min_rounds`` and ``seconds`` have passed (see
    :meth:`Session.round` for how they take turns within a round).
    """
    failures: List[BaseException] = []
    deadline = time.perf_counter() + seconds
    plan = {"go": True, "made": 0}

    def decide() -> None:
        plan["go"] = plan["made"] < min_rounds or time.perf_counter() < deadline
        plan["made"] += 1

    start_gate = threading.Barrier(len(sessions), action=decide, timeout=REQUEST_TIMEOUT)
    step_gate = threading.Barrier(len(sessions), timeout=REQUEST_TIMEOUT)

    def loop(session: Session, role: int) -> None:
        try:
            while True:
                start_gate.wait()
                if not plan["go"]:
                    return
                session.round(first + plan["made"] - 1, step_gate, role)
        except threading.BrokenBarrierError:
            pass  # another client failed; its error is reported
        except BaseException as error:  # reported by the driving thread
            failures.append(error)
            start_gate.abort()
            step_gate.abort()

    start = time.perf_counter()
    threads = [threading.Thread(target=loop, args=(s, role), daemon=True)
               for role, s in enumerate(sessions)]
    for t in threads:
        t.start()
    for t in threads:
        while t.is_alive():
            t.join(0.1)
    if failures:
        raise RuntimeError(f"a client failed: {failures[0]!r}") from failures[0]
    return time.perf_counter() - start


def cold_compare(sessions: List[Session], out: Outcome) -> None:
    """Each session's last served reports vs a cold in-process check of its bytes.

    A round ends on the base version, so both the last recheck's spliced
    report and the LRU's answer to the last check describe those bytes.
    """
    from repro.core import Engine, EngineOptions
    from repro.gdsii import read_bytes
    from repro.layout.builder import layout_from_gdsii
    from repro.workloads import asap7

    with Engine(options=EngineOptions(mode="parallel", use_cache=False)) as engine:
        engine.add_rules(asap7.full_deck())
        for s in sessions:
            layout = layout_from_gdsii(read_bytes(s.data[s.version]))
            layout.set_top("top")
            cold = json.loads(engine.check(layout).to_json())
            local = {r["rule"]: r["violations"] for r in cold["results"]}
            for what, payload in (("recheck", s.last_spliced), ("check", s.last_report)):
                with out.operation(f"{s.name} cold {what}"):
                    served = {r["rule"]: r["violations"] for r in payload["results"]}
                    if served != local:
                        out.expect(f"last served {what} report differs from a cold check", s.name)


def start(ctx, inputs, data, *extra: str):
    """Spawn the daemon and open both sessions; returns (daemon, sessions)."""
    daemon = Daemon(ctx, ctx.work / "cache", *extra)
    sessions = [Session(daemon.client, name, inputs["serve"][name], data[name]) for name in DESIGNS]
    for s in sessions:
        s.open()
    return daemon, sessions


def run(ctx) -> Outcome:
    inputs = ctx.generate(serve=DESIGNS)
    data = {name: versions(inputs, name) for name in DESIGNS}
    out = Outcome()

    t0 = time.perf_counter()
    daemon, sessions = start(ctx, inputs, data, "--warm-pool")
    setup = time.perf_counter() - t0

    pid = daemon.proc.pid
    cpu0 = common.tree_cpu_seconds(pid)
    wall = drive(sessions, ctx.seconds, MIN_ROUNDS)
    cpu = common.tree_cpu_seconds(pid) - cpu0
    rss = common.tree_peak_rss_mb(pid)
    ctx.reaper.stop(daemon.proc)

    ops = sum(s.ops for s in sessions)
    for s in sessions:
        out.absorb(s.out)
    cold_compare(sessions, out)

    rechecks = [t for s in sessions for t in s.rechecks]
    out.metrics = {
        # Both clients finish a round together; the slower one sets its time.
        "suite_s": common.median([max(r) for r in zip(*(s.rounds for s in sessions))]),
        "setup_s": setup,
        "op_s": common.median(rechecks),
        "op_tail_s": common.percentile(rechecks, common.TAIL_PERCENT),
        "query_s": common.median([t for s in sessions for t in s.queries]),
        "throughput_ops_s": ops / wall,
        "cpu_s_per_op": cpu / ops,
        "peak_rss_mb": rss,
    }
    out.details = {s.name: {"rounds": len(s.rounds), "recheck_s": s.rechecks, "engine_s": s.engine_s,
                            "lru_missed": len(s.other)} for s in sessions}
    out.details["daemon"] = daemon.lines
    return out
