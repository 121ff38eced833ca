"""``serve_mixed``: ``repro serve`` under a closed loop of cold, warm
and hot job requests.

The server runs as ``python -m repro serve --jobs <nproc>`` in its own
process.  ``nproc`` client threads each hold one keep-alive connection;
one operation is ``POST /v1/runs?wait=1`` followed by
``GET /v1/runs/<digest>/result``.  Requests come in rounds, and every
connection finishes a round before the next begins, so that each hot
request names a job the server has already finished.  In round ``r``
connection ``r % nproc`` opens with one cold spec and, every
``WARM_EVERY`` rounds, the next connection with one warm spec; then
every connection sends ``HOT_PER_CONNECTION`` hot specs, so reads run
beside the one cold execution.  Riggings cycle through ``RIGS`` in a fixed order; spec
seeds and hot targets follow from the workload seed.

* cold — a spec the server has never seen: executed in a pool worker
  and written to the cache;
* warm — a spec whose result was put in the cache directory before
  the server started: answered by a cache read and unpickle;
* hot — a spec this server already finished: answered from its ledger.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import common
from common import Checks

HOST = "127.0.0.1"
#: Simulated iterations of the BT.B.4 job every served spec runs.
ITERATIONS = 20
#: Hot requests per connection and round.
HOT_PER_CONNECTION = 20
#: Rounds between two warm requests (each warm spec is executed before
#: the server starts, so warm requests cost set-up time).
WARM_EVERY = 3
#: Rounds the pre-filled cache can serve, per second of run; a run ends
#: early if it completes this many rounds.
MAX_ROUNDS_PER_SECOND = 9
#: Cold specs re-executed locally to check the served bytes.
COLD_SAMPLE = 4
#: Percentile of the hot tail reported by traced runs; it needs at
#: least 10 samples beyond it.
HOT_TAIL_Q = 0.99
SERVER_SETUPS = 5

#: Governor riggings from the paper's experiments, used in turn.
RIGS = (
    (("dynamic_fan", {"pp": 25, "max_duty": 0.5}),),
    (("dynamic_fan", {"pp": 50, "max_duty": 0.75}),),
    (("dynamic_fan", {"pp": 75, "max_duty": 1.0}),),
    (("dynamic_fan", {"pp": 50, "max_duty": 0.25}), ("tdvfs", {})),
    (("dynamic_fan", {"pp": 50, "max_duty": 0.25}), ("cpuspeed", {})),
    (("traditional_fan", {"max_duty": 0.25}), ("tdvfs", {})),
    (("hybrid", {"pp": 50}),),
)


def make_spec(seed: int, rig: int, *where: object):
    """A served spec: rigging ``RIGS[rig % len(RIGS)]``, seed from
    the workload seed and ``where``."""
    from repro.runtime import RunSpec

    spec_seed = common.derive_seed(seed, "serve_mixed", *where)
    rigs = RIGS[rig % len(RIGS)]
    return RunSpec.of(
        "bt_b_4",
        {"iterations": ITERATIONS},
        rigs=[(name, dict(params)) for name, params in rigs],
        n_nodes=4,
        seed=spec_seed,
    )


class Request:
    """One planned operation and, once sent, its outcome."""

    __slots__ = ("kind", "spec", "body", "digest", "status", "disposition",
                 "latency", "post_s", "get_s", "result", "error")

    def __init__(self, kind: str, spec) -> None:
        self.kind = kind
        self.spec = spec
        self.body = spec.to_json().encode()
        self.digest: Optional[str] = None
        self.status: Tuple[int, int] = (0, 0)
        self.disposition = ""
        self.latency = 0.0
        self.post_s = 0.0
        self.get_s = 0.0
        self.result = b""
        self.error = ""

    @property
    def ok(self) -> bool:
        return self.status == (200, 200) and not self.error


class Plan:
    """The seeded request schedule, generated round by round."""

    def __init__(self, seed: int, connections: int) -> None:
        self.seed = seed
        self.connections = connections
        self.warmup = [
            make_spec(seed, k, "warmup", k) for k in range(SERVER_SETUPS)
        ]
        self.finished = [self.warmup[-1]]

    def warm_spec(self, k: int):
        return make_spec(self.seed, k, "warm", k)

    def round(self, r: int) -> List[List[Request]]:
        rng = random.Random(common.derive_seed(self.seed, "serve_mixed", "round", r))
        writer = r % self.connections
        lanes: List[List[Request]] = [[] for _ in range(self.connections)]
        lanes[writer].append(Request("cold", make_spec(self.seed, r, "cold", r)))
        if r % WARM_EVERY == 0:
            lanes[(writer + 1) % self.connections].append(
                Request("warm", self.warm_spec(r // WARM_EVERY))
            )
        for lane in lanes:
            lane += [
                Request("hot", rng.choice(self.finished))
                for _ in range(HOT_PER_CONNECTION)
            ]
        # Everything of this round is finished before the next begins.
        self.finished += [q.spec for lane in lanes for q in lane if q.kind != "hot"]
        return lanes


# -- the server process -------------------------------------------------------


class Server:
    """``python -m repro serve`` in its own session."""

    def __init__(self, cache_dir: Path, log_path: Path) -> None:
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--jobs", str(common.nproc()),
                "--cache-dir", str(cache_dir),
            ],
            cwd=str(common.ROOT),
            env=common.program_env(),
            stdout=self._log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        self.port = 0

    def wait_listening(self, timeout: float = 60.0) -> None:
        deadline = time.perf_counter() + timeout
        pattern = re.compile(rb"listening on http://[^:]+:(\d+)")
        while time.perf_counter() < deadline:
            found = pattern.search(self.log_path.read_bytes())
            if found:
                self.port = int(found.group(1))
                return
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(
            "server did not start: " + self.log_path.read_text(errors="replace")
        )

    def connect(self) -> "Connection":
        return Connection(self.port)

    def peak_rss_mb(self) -> float:
        pids = [self.proc.pid] + common.descendants(self.proc.pid)
        return max(common.vm_hwm_mb(pid) for pid in pids)

    def stop(self) -> None:
        """Interrupt the server, then make sure its whole session is gone."""
        group = self.proc.pid
        workers = common.descendants(group)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        deadline = time.perf_counter() + 10.0
        while _alive(workers) and time.perf_counter() < deadline:
            time.sleep(0.02)
        if _alive(workers):
            try:
                os.killpg(group, signal.SIGKILL)
            except ProcessLookupError:
                pass
            while _alive(workers):
                time.sleep(0.02)
        self._log.close()
        self.log_path.unlink()


def _alive(pids: List[int]) -> bool:
    for pid in pids:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            continue
        if stat[stat.rindex(")") + 2] != "Z":
            return True
    return False


class Connection:
    """One keep-alive HTTP/1.1 connection with the least client-side
    work: requests are written as prepared bytes, and responses are
    framed by ``Content-Length`` alone (the server always sends it)."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection((HOST, port), timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def close(self) -> None:
        self.sock.close()

    def _fill(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buffer += chunk

    def request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        head = f"{method} {path} HTTP/1.1\r\nHost: {HOST}\r\n"
        if body:
            head += "Content-Type: application/json\r\n"
        head += f"Content-Length: {len(body)}\r\n\r\n"
        self.sock.sendall(head.encode("latin-1") + body)
        while b"\r\n\r\n" not in self.buffer:
            self._fill()
        head_bytes, _, self.buffer = self.buffer.partition(b"\r\n\r\n")
        lines = head_bytes.split(b"\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(self.buffer) < length:
            self._fill()
        payload, self.buffer = self.buffer[:length], self.buffer[length:]
        return status, payload


def send(conn: Connection, q: Request) -> None:
    """One operation: POST and wait, then fetch the result bytes."""
    t0 = time.perf_counter()
    status, envelope = conn.request("POST", "/v1/runs?wait=1", q.body)
    t1 = time.perf_counter()
    if status != 200:
        q.status = (status, 0)
        q.error = envelope.decode(errors="replace")
        return
    document = json.loads(envelope)
    q.digest = document["digest"]
    q.disposition = document.get("disposition", "")
    status, q.result = conn.request("GET", f"/v1/runs/{q.digest}/result")
    t2 = time.perf_counter()
    q.status = (200, status)
    q.post_s, q.get_s, q.latency = t1 - t0, t2 - t1, t2 - t0


def boot(cache_dir: Path, warmup_spec, index: int) -> Tuple[Server, float]:
    """Start a server, wait until healthy, push one job through its pool.

    Returns the server and the seconds from spawn to the warm-up
    job's result bytes.
    """
    t0 = time.perf_counter()
    server = Server(cache_dir, common.WORK / f"serve-{os.getpid()}-{index}.log")
    try:
        server.wait_listening()
        conn = server.connect()
        while True:
            if conn.request("GET", "/healthz")[0] == 200:
                break
            time.sleep(0.005)
        q = Request("cold", warmup_spec)
        send(conn, q)
        elapsed = time.perf_counter() - t0
        conn.close()
        if not q.ok or q.disposition != "queued":
            raise RuntimeError(f"warm-up job failed: {q.status} {q.error}")
    except BaseException:
        server.stop()
        raise
    return server, elapsed


def scrape(server: Server) -> Dict[str, float]:
    """``/metrics`` summed over label sets, keyed by series name."""
    conn = server.connect()
    try:
        status, body = conn.request("GET", "/metrics")
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    totals: Dict[str, float] = {}
    for line in body.decode().splitlines():
        if not line or line.startswith("#"):
            continue
        series, value = line.rsplit(" ", 1)
        name = series.split("{", 1)[0]
        totals[name] = totals.get(name, 0.0) + float(value)
    return totals


# -- the closed loop ----------------------------------------------------------


def drive(server: Server, plan: Plan, seconds: float, max_rounds: int, tracer=None):
    """Run whole rounds until ``seconds`` pass or ``max_rounds`` are done.

    Returns the requests in send order per round and the timed wall.
    """
    connections = plan.connections
    rounds: List[List[List[Request]]] = [plan.round(0)]
    state = {"stop": False}
    began = time.perf_counter()

    def next_round() -> None:
        r = len(rounds)
        if time.perf_counter() - began >= seconds or r >= max_rounds:
            state["stop"] = True
        else:
            rounds.append(plan.round(r))

    barrier = threading.Barrier(connections, action=next_round)

    def client(c: int) -> None:
        conn = server.connect()
        try:
            while True:
                for q in rounds[-1][c]:
                    try:
                        if tracer is None:
                            send(conn, q)
                        else:
                            with tracer.span(f"serve.{q.kind}"):
                                send(conn, q)
                    except Exception:  # count it; a fresh connection goes on
                        q.error = traceback.format_exc()
                        conn.close()
                        conn = server.connect()
                barrier.wait()
                if state["stop"]:
                    return
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(c,)) for c in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - began
    return rounds, wall


# -- checks -------------------------------------------------------------------


def check_answers(
    requests: List[Request],
    expected: Dict[str, bytes],
    seed: int,
    checks: Checks,
) -> None:
    """Every answer matches the local computation for its digest.

    ``expected`` starts with the pre-filled (warm) results, computed in
    this process; a seeded sample of cold specs is re-executed here.
    Every later answer for a digest must equal the first.
    """
    from repro.runtime import execute_spec
    from repro.serve.payloads import summary_bytes

    dispositions = {"cold": "queued", "warm": "cache", "hot": "done"}
    cold = [q for q in requests if q.ok and q.kind == "cold"]
    for q in requests:
        if not q.ok:
            continue
        checks.require(
            q.disposition == dispositions[q.kind],
            f"{q.kind} request answered as {q.disposition!r}",
        )
        reference = expected.setdefault(q.digest, q.result)
        checks.require(
            q.result == reference,
            f"{q.kind} answer for {q.digest[:12]} differs from the first answer",
        )
    rng = random.Random(common.derive_seed(seed, "serve_mixed", "sample"))
    for q in rng.sample(cold, min(COLD_SAMPLE, len(cold))):
        local = summary_bytes(q.spec, execute_spec(q.spec))
        checks.require(
            q.result == local,
            f"served bytes for cold {q.digest[:12]} differ from a local run",
        )


def prefill(cache_dir: Path, specs) -> Dict[str, bytes]:
    """Put ``specs`` into the cache directory; return their result bytes."""
    from repro.runtime import RunExecutor
    from repro.serve.payloads import summary_bytes

    with RunExecutor(jobs=common.nproc(), cache_dir=str(cache_dir)) as executor:
        results = executor.map(specs)
        version = executor.cache_version
    return {
        spec.digest(version=version): summary_bytes(spec, result)
        for spec, result in zip(specs, results)
    }


def _session(seed: int, seconds: float, max_rounds: int, setups: int, tracer=None):
    """Pre-fill, boot, drive, measure, stop.  Returns a dict of figures."""
    cache_dir = common.WORK / f"serve-cache-{os.getpid()}"
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache_dir.mkdir(parents=True)
    try:
        plan = Plan(seed, common.nproc())
        warm = -(-max_rounds // WARM_EVERY)
        expected = prefill(cache_dir, [plan.warm_spec(k) for k in range(warm)])
        gen = time.perf_counter()
        Plan(seed, common.nproc()).round(0)  # spec generation, timed for set-up
        gen = time.perf_counter() - gen
        boots: List[float] = []
        server = None
        for k in range(setups):
            if server is not None:
                server.stop()
            server, elapsed = boot(cache_dir, plan.warmup[k - setups], k)
            boots.append(elapsed + gen)
        try:
            before = scrape(server) if tracer is not None else {}
            rounds, wall = drive(server, plan, seconds, max_rounds, tracer)
            after = scrape(server) if tracer is not None else {}
            peak = server.peak_rss_mb()
        finally:
            server.stop()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "setup": common.median(boots),
        "rounds": rounds,
        "wall": wall,
        "peak": peak,
        "expected": expected,
        "metrics": {k: after.get(k, 0.0) - before.get(k, 0.0) for k in after},
    }


def _requests(rounds) -> List[Request]:
    return [q for lanes in rounds for lane in lanes for q in lane]


def _ms(values: List[float], q: float = 0.5) -> float:
    return 1000.0 * common.percentile(values, q)


def run(seed: int, seconds: float, trace: bool) -> int:
    common.use_program_sources()
    common.WORK.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    max_rounds = max(1, int(MAX_ROUNDS_PER_SECOND * seconds))
    if trace:
        return _run_traced(seed, seconds, max_rounds, checks)
    got = _session(seed, seconds, max_rounds, SERVER_SETUPS)
    requests = _requests(got["rounds"])
    check_answers(requests, got["expected"], seed, checks)
    node_s = 0.0
    for q in requests:
        if q.ok and q.kind == "cold":
            summary = json.loads(q.result)
            node_s += summary["execution_time"] * summary["n_nodes"]
    failed = sum(1 for q in requests if not q.ok)
    for q in requests:
        if not q.ok:
            common.log(f"serve_mixed: {q.kind} request failed: {q.status} {q.error}")
    by_kind = _latencies(requests)
    common.log(
        f"serve_mixed: {len(got['rounds'])} rounds in {got['wall']:.2f}s, "
        + ", ".join(
            f"{k}={len(v)} p50 {_ms(v):.2f} ms" for k, v in by_kind.items()
        )
    )
    return common.emit(
        checks.ok,
        len(requests),
        failed,
        common.end_to_end(got["setup"], got["peak"], node_s / got["wall"]),
    )


def _latencies(requests: List[Request]) -> Dict[str, List[float]]:
    """Latencies of the answered requests, by kind."""
    by_kind: Dict[str, List[float]] = {"cold": [], "warm": [], "hot": []}
    for q in requests:
        if q.ok:
            by_kind[q.kind].append(q.latency)
    return by_kind


def _run_traced(seed: int, seconds: float, max_rounds: int, checks: Checks) -> int:
    import tracer as tracing

    plain = _session(seed, seconds, max_rounds, 1)
    plain_requests = _requests(plain["rounds"])
    check_answers(plain_requests, plain["expected"], seed, checks)
    tracer = tracing.Tracer()
    traced = _session(seed, float("inf"), len(plain["rounds"]), 1, tracer)
    traced_requests = _requests(traced["rounds"])
    checks.require(
        [(q.digest, q.result) for q in traced_requests]
        == [(q.digest, q.result) for q in plain_requests],
        "traced answers differ from untraced answers",
    )
    tracer.write(common.WORK / "spans-serve_mixed.npz")
    cold = [q for q in traced_requests if q.ok and q.kind == "cold"]
    by_kind = _latencies(traced_requests)
    hot = by_kind["hot"]
    if len(hot) * (1.0 - HOT_TAIL_Q) < 10.0:
        common.log(
            f"serve_mixed: only {len(hot)} hot samples, fewer than 10 beyond "
            f"the p{HOT_TAIL_Q * 100:g} tail: run longer to read it"
        )
    deltas = traced["metrics"]
    hits = deltas.get("repro_serve_runs_cache_hits_total", 0.0)
    misses = deltas.get("repro_host_cache_misses_total", 0.0)
    failed = sum(1 for q in plain_requests + traced_requests if not q.ok)
    layers = {
        "serve.post_wait_ms_p50": _ms([q.post_s for q in cold]),
        "serve.result_get_ms_p50": _ms([q.get_s for q in cold]),
        "serve.cold_latency_p50_ms": _ms(by_kind["cold"]),
        "serve.warm_latency_p50_ms": _ms(by_kind["warm"]),
        "serve.hot_latency_p50_ms": _ms(hot),
        "serve.hot_latency_p99_ms": _ms(hot, HOT_TAIL_Q),
        "serve.http_requests": deltas.get("repro_serve_http_requests_total", 0.0),
        "serve.http_server_s": deltas.get("repro_serve_http_latency_seconds_sum", 0.0),
        "serve.cache_hits": hits,
        "runtime.cache_misses": misses,
        "serve.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.cache_lookups": hits + misses,
        "runtime.executed": deltas.get("repro_host_exec_executed_total", 0.0),
        "runtime.spec_wall_s": deltas.get("repro_host_spec_wall_seconds_sum", 0.0),
        "trace.overhead_s": traced["wall"] - plain["wall"],
        "trace.untraced_wall_s": plain["wall"],
    }
    return common.emit(
        checks.ok,
        len(plain_requests) + len(traced_requests),
        failed,
        tracing.report(layers),
    )
