"""The ``service`` workload: two closed-loop clients against ``ddoscovery serve``.

The daemon runs as a subprocess in its own process group with process
execution, ``--workers`` equal to the host's cores, ``--jobs 1`` and a
fresh cache directory.  In each iteration a client

1. submits a study job at a fresh seed derived from the workload seed,
   on a 16-week window, for four artifacts;
2. polls every 10 ms until the job is done;
3. fetches each artifact three times, revalidating it with
   ``If-None-Match`` after each fetch (must be ``304`` with no body);
4. resubmits the finished config once, which must coalesce.

The daemon runs at ``--jobs 1``: at the CLI default ``--jobs 0`` it does
not exit after SIGTERM once it has run a job (its pool workers wait on
their own sub-pool children).  The benchmark stops it with SIGTERM and,
if the drain does not finish, counts a failed operation and kills the
process group so no pool worker is orphaned.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path

from perfbench.common import (
    ROOT,
    Run,
    median,
    percentile,
    thread_cpu_s,
    tree_cpu_s,
    tree_peak_rss_mb,
)
from perfbench.spans import Tracer

ARTIFACTS = ("fig3_trends", "fig7_upset", "headline", "table1")
WEEKS = 16
FETCHES = 3
POLL_S = 0.01
CLIENTS = 2
#: Iterations per client in one traced-run session (a fixed amount of
#: work, so the jobs-executed count repeats exactly).
SESSION_ITERATIONS = 4
#: Daemons started per run; the set-up time is their median.
SETUPS = 3
EXECUTED = "service.jobs.executed{kind=study}"


class Daemon:
    """One ``ddoscovery serve`` subprocess in its own process group."""

    def __init__(self, workers: int, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        self.log_path = directory / "daemon.log"
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0",
            "--workers", str(workers),
            "--jobs", "1",
            "--execution", "process",
            "--cache-dir", str(directory / "cache"),
        ]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        started = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(
                command,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=log,
                env=env,
                cwd=ROOT,
                start_new_session=True,
            )
        try:
            self.host, self.port = self._announced(deadline=started + 120)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started

    def _announced(self, deadline: float) -> tuple[str, int]:
        pattern = re.compile(r"listening on http://([\d.]+):(\d+)")
        while time.perf_counter() < deadline:
            match = pattern.search(self.log_path.read_text())
            if match:
                return match.group(1), int(match.group(2))
            if self.process.poll() is not None:
                break
            time.sleep(0.002)
        raise RuntimeError(f"daemon did not announce a port: {self.log_path.read_text()[-400:]}")

    def request(
        self, method: str, path: str, body: dict | None = None, headers: dict | None = None
    ) -> tuple[int, dict, bytes]:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            payload = None if body is None else json.dumps(body).encode()
            connection.request(method, path, body=payload, headers=headers or {})
            response = connection.getresponse()
            return response.status, dict(response.getheaders()), response.read()
        finally:
            connection.close()

    def executed(self) -> int:
        status, _, body = self.request("GET", "/v1/metrics")
        return int(json.loads(body)["counters"].get(EXECUTED, 0)) if status == 200 else -1

    def stop(self, timeout: float = 60.0) -> bool:
        """SIGTERM and wait for the drain; kill the group if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            return False
        self.kill()  # reaps any worker that outlived a clean exit
        return code == 0 and "drained" in self.log_path.read_text()

    def kill(self) -> None:
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.process.wait()


class Client:
    """One closed-loop caller; records every latency and checks every answer."""

    def __init__(self, daemon: Daemon, run: Run, tracer: Tracer | None) -> None:
        self.daemon = daemon
        self.run = run
        self.tracer = tracer
        self.jobs: list[float] = []
        self.queue: list[float] = []
        self.execution: list[float] = []
        self.fetches: list[float] = []
        self.revalidations = 0
        self.not_modified = 0
        self.first: tuple[int, dict[str, bytes]] | None = None
        self.requests = 0

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def request(self, *args, **kwargs) -> tuple[int, dict, bytes]:
        self.requests += 1
        return self.daemon.request(*args, **kwargs)

    def iteration(self, seed: int) -> None:
        if self.tracer is not None:
            self.tracer.operation()
        submission = {
            "kind": "study",
            "config": {"seed": seed, "weeks": WEEKS},
            "artifacts": list(ARTIFACTS),
        }
        submitted = time.perf_counter()
        with self._span("service.submit"):
            status, _, body = self.request("POST", "/v1/jobs", submission)
        if not self.run.check(status == 202, f"service: submit answered {status}"):
            return
        job_id = json.loads(body)["id"]
        while True:
            time.sleep(POLL_S)
            with self._span("service.poll"):
                status, _, body = self.request("GET", f"/v1/jobs/{job_id}")
            document = json.loads(body)
            if status != 200 or document["status"] not in ("queued", "running"):
                break
        done = time.perf_counter()
        if not self.run.check(
            document.get("status") == "done", f"service: job ended {document.get('status')}"
        ):
            return
        self.jobs.append(done - submitted)
        self.queue.append(document["started_s"] - document["submitted_s"])
        self.execution.append(document["finished_s"] - document["started_s"])

        bodies: dict[str, bytes] = {}
        for name in ARTIFACTS:
            path = f"/v1/jobs/{job_id}/artifacts/{name}"
            for _ in range(FETCHES):
                started = time.perf_counter()
                with self._span("service.fetch"):
                    status, headers, body = self.request("GET", path)
                elapsed = time.perf_counter() - started
                first = bodies.setdefault(name, body)
                if not self.run.check(
                    status == 200 and body == first and "ETag" in headers,
                    f"service: fetch of {name} answered {status} or changed bytes",
                ):
                    continue
                self.fetches.append(elapsed)
                with self._span("service.revalidate"):
                    status, _, again = self.request(
                        "GET", path, headers={"If-None-Match": headers["ETag"]}
                    )
                self.revalidations += 1
                self.not_modified += status == 304
                self.run.check(
                    status == 304 and again == b"",
                    f"service: revalidation of {name} answered {status} "
                    f"with {len(again)} bytes",
                )
        if self.first is None:
            self.first = (seed, bodies)

        status, _, body = self.request("POST", "/v1/jobs", submission)
        again = json.loads(body) if status in (200, 202) else {}
        self.run.check(
            status == 200 and again.get("coalesced") is True and again.get("id") == job_id,
            f"service: resubmission answered {status}, not a coalesced {job_id}",
        )


class ServiceWorkload:
    """A daemon, two closed-loop clients, and the checks on every answer."""

    def __init__(self, seed: int, jobs: int, work: Path, run: Run) -> None:
        from repro.core.study import StudyConfig
        from repro.util.calendar import calendar_for_weeks

        self.seed = seed
        self.jobs = jobs
        self.work = work
        self.run = run
        self._seeds = itertools.count(seed * 100_000)
        self._lock = threading.Lock()
        self.replay_config = StudyConfig(seed=seed * 100_000, calendar=calendar_for_weeks(WEEKS))
        self.daemon: Daemon | None = None
        #: Spawn-to-announce seconds of every daemon started (``setup_s``).
        self.setups: list[float] = []
        self.submitted = 0
        self.first: tuple[int, dict[str, bytes]] | None = None
        self.traced_clients: list[Client] = []
        self.session_executed = 0

    def params(self) -> dict:
        return {
            "weeks": WEEKS,
            "artifacts": list(ARTIFACTS),
            "clients": CLIENTS,
            "poll_s": POLL_S,
            "fetches_per_artifact": FETCHES,
            "daemon": f"serve --execution process --workers {self.jobs} --jobs 1",
            "first_job_seed": self.seed * 100_000,
        }

    def setup(self) -> None:
        """Start ``SETUPS`` daemons in turn; keep the last one running."""
        for index in range(SETUPS):
            daemon = Daemon(self.jobs, self.work / f"daemon-{index}")
            self.setups.append(daemon.setup_s)
            if index < SETUPS - 1:
                self.run.check(daemon.stop(), "service: idle daemon did not drain on SIGTERM")
            else:
                self.daemon = daemon

    def _next_seed(self) -> int:
        with self._lock:
            self.submitted += 1
            return next(self._seeds)

    def session(self, tracer: Tracer | None, until: float | None) -> list[Client]:
        """Both clients in parallel: until ``until`` (closed loop), or for
        ``SESSION_ITERATIONS`` iterations each when ``until`` is ``None``."""
        clients = [Client(self.daemon, self.run, tracer) for _ in range(CLIENTS)]

        def loop(client: Client) -> None:
            last = 0.0
            for index in itertools.count():
                if until is None and index >= SESSION_ITERATIONS:
                    return
                if until is not None and index and time.perf_counter() + last > until:
                    return
                started = time.perf_counter()
                try:
                    client.iteration(self._next_seed())
                except (OSError, http.client.HTTPException, ValueError, KeyError) as error:
                    self.run.check(False, f"service: client error {error!r}")
                last = time.perf_counter() - started

        threads = [threading.Thread(target=loop, args=(client,)) for client in clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for client in clients:
            if self.first is None and client.first is not None:
                self.first = client.first
        return clients

    def measure(self, seconds: float) -> None:
        pid = self.daemon.process.pid
        workers, loop = tree_cpu_s(pid, root=False), thread_cpu_s(pid)
        clients = self.session(None, time.perf_counter() + seconds)
        workers = tree_cpu_s(pid, root=False) - workers
        loop = thread_cpu_s(pid) - loop
        jobs = [value for client in clients for value in client.jobs]
        fetches = [value * 1e3 for client in clients for value in client.fetches]
        requests = sum(client.requests for client in clients)
        self.run.metric("cold_cpu_s", workers / max(1, len(jobs)), "s")
        self.run.metric("warm_cpu_ms", loop / max(1, requests) * 1e3, "ms")
        self.run.note("job_p50_s", median(jobs), "s", len(jobs))
        self.run.note("job_p90_s", percentile(jobs, 0.90), "s", len(jobs))
        self.run.note("fetch_p50_ms", median(fetches), "ms", len(fetches))
        self.run.note("fetch_p99_ms", percentile(fetches, 0.99), "ms", len(fetches))
        self.check_executed()
        self.check_library_bytes()

    def check_executed(self) -> None:
        """Each distinct config executes once; resubmissions only coalesce."""
        executed = self.daemon.executed()
        self.run.check(
            executed == self.submitted,
            f"service: {executed} jobs executed for {self.submitted} distinct configs",
        )

    def check_library_bytes(self) -> None:
        """One job's fetched bytes equal the library's for the same config."""
        from repro.core.artifacts import artifact_json_bytes
        from repro.core.study import Study, StudyConfig
        from repro.util.calendar import calendar_for_weeks

        if self.first is None:
            self.run.check(False, "service: no job finished, nothing to compare")
            return
        seed, bodies = self.first
        study = Study(
            StudyConfig(seed=seed, calendar=calendar_for_weeks(WEEKS)),
            jobs=1,
            cache_dir=str(self.work / "library"),
        )
        expected = {name: artifact_json_bytes(study.artifact(name)) for name in ARTIFACTS}
        self.run.check(
            bodies == expected, "service: fetched bytes differ from the library's"
        )

    def unit(self, tracer: Tracer | None) -> float:
        """The traced run's unit: a fixed session, counting executions."""
        before = self.daemon.executed()
        started = time.perf_counter()
        clients = self.session(tracer, None)
        elapsed = time.perf_counter() - started
        executed = self.daemon.executed() - before
        self.run.check(
            executed == CLIENTS * SESSION_ITERATIONS,
            f"service: a session executed {executed} jobs, "
            f"not {CLIENTS * SESSION_ITERATIONS}",
        )
        if tracer is not None:
            self.traced_clients.extend(clients)
            self.session_executed = executed
        return elapsed

    def layer_notes(self, tracer: Tracer) -> None:
        clients = self.traced_clients
        for name in ("submit", "poll", "revalidate"):
            durations = [value * 1e3 for value in tracer.durations(f"service.{name}")]
            self.run.note(f"service.{name}_ms", median(durations), "ms", len(durations))
        queue = [value for client in clients for value in client.queue]
        execution = [value for client in clients for value in client.execution]
        self.run.note("service.queue_s", median(queue), "s", len(queue))
        self.run.note("service.exec_s", median(execution), "s", len(execution))
        self.run.note("service.jobs_executed", self.session_executed, "count", 1)
        revalidations = sum(client.revalidations for client in clients)
        self.run.note(
            "service.revalidate_304_share",
            sum(client.not_modified for client in clients) / revalidations,
            "share",
            revalidations,
        )
        self.check_library_bytes()

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb(self.daemon.process.pid)

    def close(self) -> None:
        if self.daemon is not None:
            self.run.check(self.daemon.stop(), "service: daemon did not drain on SIGTERM")
            self.daemon = None
