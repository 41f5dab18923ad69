"""``repro serve`` in its own process, and an open-loop HTTP load
generator that drives it.

The generator sends on a seeded Poisson schedule whatever the server
does (open loop), holds at most ``max_inflight`` connections at once
(one per core of the box the bounds were set on), and times every
request from the moment it was *due*, so a stall is charged to every
request queued behind it.  A request that could not even start within
the timeout is dropped and counted as timed out, which bounds how long
an overloaded step can run.
"""

from __future__ import annotations

import asyncio
import os
import random
import select
import signal
import subprocess
import sys
import time
import urllib.parse
from dataclasses import dataclass, field


#: Statuses the serve layer may answer a well-formed read with: served,
#: shed by admission control, or shed by a breaker/deadline.
ALLOWED_STATUSES = (200, 429, 503)


def endpoint_class(path: str) -> str:
    """``ip``, ``rounds``, ``round`` or ``clusters`` for a mix path."""
    segments = [s for s in urllib.parse.urlsplit(path).path.split("/") if s]
    if segments == ["rounds"]:
        return "rounds"
    return {"ip": "ip", "rounds": "round", "clusters": "clusters"}[segments[0]]


class ServeProcess:
    """``python -m repro serve <db> --port 0`` with the shipped config
    otherwise; the chosen port is read from the line the CLI prints."""

    def __init__(self, db_path: str, src_dir: str, *, start_timeout=30.0):
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env.pop("REPRO_STORE_BACKEND", None)
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", db_path, "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
            text=True,
        )
        self.port = self._read_port(start_timeout)

    def _read_port(self, timeout: float) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("serving "):
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        return int(line.rsplit(":", 1)[1].strip().strip("/"))

    def wait_ready(self, timeout: float = 30.0) -> float:
        """Poll ``/readyz`` until it answers 200; returns seconds since
        the process was launched."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            outcome = asyncio.run(fetch_once(self.port, "/readyz"))
            if outcome.status == 200:
                return time.perf_counter() - self.started
            time.sleep(0.01)
        raise RuntimeError("repro serve never became ready")

    def cpu_seconds(self) -> float:
        """User + system CPU the server process has used so far."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        """SIGTERM (the serve drain path), then wait for the exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


@dataclass
class Outcome:
    """One request: what was asked, when it was due, what came back."""

    path: str
    due: float = 0.0
    start: float = 0.0
    end: float = 0.0
    status: int = 0
    body: bytes = b""
    #: ``""`` when a framed response arrived; otherwise one of
    #: ``malformed``, ``timeout``, ``connect``, ``late``.
    error: str = ""

    @property
    def latency_ms(self) -> float:
        return (self.end - self.due) * 1000.0

    @property
    def late_ms(self) -> float:
        return (self.start - self.due) * 1000.0


async def _request(port: int, path: str, outcome: Outcome) -> None:
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
    except OSError:
        outcome.error = "connect"
        return
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
            .encode("ascii")
        )
        await writer.drain()
        raw = await reader.read()
    except OSError:
        outcome.error = "connect"
        return
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    head, sep, body = raw.partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    parts = lines[0].split(b" ", 2)
    length = None
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip()) if value.strip().isdigit() else -1
    if (not sep or len(parts) < 2 or not parts[0].startswith(b"HTTP/1.")
            or not parts[1].isdigit() or length != len(body)):
        outcome.error = "malformed"
        return
    outcome.status = int(parts[1])
    outcome.body = body


async def fetch_once(port: int, path: str, timeout: float = 5.0) -> Outcome:
    outcome = Outcome(path)
    try:
        await asyncio.wait_for(_request(port, path, outcome), timeout)
    except asyncio.TimeoutError:
        outcome.error = "timeout"
    return outcome


async def fetch_all(port: int, paths: list[str],
                    max_inflight: int) -> dict[str, Outcome]:
    """One quiet GET of every path, *max_inflight* at a time."""
    gate = asyncio.Semaphore(max_inflight)

    async def one(path: str) -> Outcome:
        async with gate:
            return await fetch_once(port, path)

    outcomes = await asyncio.gather(*(one(path) for path in paths))
    return dict(zip(paths, outcomes))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank value at quantile *q* of a non-empty list."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


def poisson_schedule(rate: float, duration: float, paths: list[str],
                     cum_weights: list[float],
                     seed: int) -> list[tuple[float, str]]:
    """Seeded open-loop schedule: exponential gaps at *rate* per second,
    each request's path drawn from the mix (cumulative weights)."""
    rng = random.Random(seed)
    schedule = []
    at = rng.expovariate(rate)
    while at < duration:
        schedule.append(
            (at, rng.choices(paths, cum_weights=cum_weights)[0])
        )
        at += rng.expovariate(rate)
    return schedule


@dataclass
class StepResult:
    """Every outcome of one offered-rate step."""

    rate: float
    duration: float
    outcomes: list[Outcome] = field(default_factory=list)
    max_inflight: int = 0

    @property
    def sent(self) -> int:
        return len(self.outcomes)

    def failed(self) -> list[Outcome]:
        return [o for o in self.outcomes if o.error or o.status != 200]

    def latency_percentile(self, q: float) -> float:
        """Latency at quantile *q* (ms); failed requests count as
        infinitely slow, so they miss any latency limit."""
        if not self.outcomes:
            return float("inf")
        return percentile([
            o.latency_ms if not o.error and o.status == 200 else float("inf")
            for o in self.outcomes
        ], q)

    def meets(self, p99_limit_ms: float, max_fail_share: float) -> bool:
        """p99 within the limit, few failures, and no backlog: nothing
        dropped for lateness, and the last tenth of requests started
        on time as well as the rest did."""
        if not self.outcomes:
            return False
        if len(self.failed()) > max_fail_share * self.sent:
            return False
        if any(o.error == "late" for o in self.outcomes):
            return False
        tail = self.outcomes[-max(1, self.sent // 10):]
        tail_late = sorted(o.late_ms for o in tail)[len(tail) // 2]
        return (self.latency_percentile(0.99) <= p99_limit_ms
                and tail_late <= p99_limit_ms)


async def run_open_loop(port: int, schedule: list[tuple[float, str]], *,
                        rate: float, duration: float, max_inflight: int,
                        timeout: float) -> StepResult:
    """Send *schedule* against the server, at most *max_inflight*
    connections at a time, and collect every outcome in due order."""
    loop = asyncio.get_running_loop()
    gate = asyncio.Semaphore(max_inflight)
    result = StepResult(rate, duration)
    inflight = 0

    async def one(outcome: Outcome) -> None:
        nonlocal inflight
        async with gate:
            outcome.start = loop.time()
            if outcome.start - outcome.due > timeout:
                outcome.error = "late"
                outcome.end = outcome.start
                return
            inflight += 1
            result.max_inflight = max(result.max_inflight, inflight)
            try:
                await asyncio.wait_for(
                    _request(port, outcome.path, outcome), timeout
                )
            except asyncio.TimeoutError:
                outcome.error = "timeout"
            finally:
                inflight -= 1
                outcome.end = loop.time()

    origin = loop.time() + 0.02
    tasks = []
    for offset, path in schedule:
        outcome = Outcome(path, due=origin + offset)
        result.outcomes.append(outcome)
        delay = outcome.due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(one(outcome)))
    await asyncio.gather(*tasks)
    return result
