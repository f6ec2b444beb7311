"""Load-tier behaviour: herd coalescing, conditional GETs, process mode.

The tier-1 tests here pin the serving-path contracts with stub runners
(fast, no simulation): a thundering herd of identical submissions costs
exactly one execution — proven by the daemon's own
``service.jobs.executed`` counter, not by trusting the stub — and every
herd member fetches the artifact under one byte-identical ETag that a
conditional GET turns into a bodyless 304.

The process-execution tests exercise the real multi-process path
end-to-end — the ``serve`` default: job bodies on the warm pool, a
worker SIGKILLed mid-job (the pool re-warms and the next job completes),
cooperative cancellation across the process boundary, and a ``serve``
subprocess that must exit promptly on SIGTERM after a job built a shard
sub-pool.  Throughput and latency under concurrent clients are the
repository benchmark's ``service`` workload (``perfbench/``), not a
test here.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

import pytest

from repro.service import JobResult
from repro.util.parallel import shutdown_pool

from tests.cli_daemon import CliDaemon
from tests.test_service import (
    payload_for_seed,
    poll_until,
    request,
    request_full,
    request_json,
    run_daemon,
    span_children,
)


def _counter_total(metrics: dict, name: str) -> int:
    """Sum a counter across its label combinations (``name{k=v}`` keys)."""
    return sum(
        int(value)
        for key, value in metrics.get("counters", {}).items()
        if key.split("{", 1)[0] == name
    )


async def _executed_total(port) -> int:
    _, metrics = await request_json(port, "GET", "/v1/metrics")
    return _counter_total(metrics, "service.jobs.executed")


class TestThunderingHerd:
    def test_herd_of_identical_submissions_executes_once(self):
        release = threading.Event()
        body = b'{"herd": true}\n'

        def runner(job):
            release.wait(10)
            return JobResult(artifacts={"table1": body})

        herd = 8

        async def scenario(handle):
            port = handle.port
            before = await _executed_total(port)

            responses = await asyncio.gather(
                *(
                    request_json(port, "POST", "/v1/jobs", payload_for_seed(0))
                    for _ in range(herd)
                )
            )
            statuses = sorted(status for status, _ in responses)
            assert statuses == [200] * (herd - 1) + [202]
            job_ids = {document["id"] for _, document in responses}
            assert len(job_ids) == 1
            job_id = next(iter(job_ids))

            release.set()
            await poll_until(port, job_id, "done")
            assert await _executed_total(port) - before == 1

            fetches = await asyncio.gather(
                *(
                    request_full(
                        port, "GET", f"/v1/jobs/{job_id}/artifacts/table1"
                    )
                    for _ in range(herd)
                )
            )
            etags = {headers.get("etag") for _, headers, _ in fetches}
            assert len(etags) == 1 and None not in etags
            assert all(raw == body for _, _, raw in fetches)

        run_daemon(scenario, runner=runner)

    def test_resubmission_after_done_still_coalesces(self):
        def runner(job):
            return JobResult(artifacts={"table1": b"{}\n"})

        async def scenario(handle):
            port = handle.port
            status, document = await request_json(
                port, "POST", "/v1/jobs", payload_for_seed(0)
            )
            assert status == 202
            await poll_until(port, document["id"], "done")
            before = await _executed_total(port)
            status, again = await request_json(
                port, "POST", "/v1/jobs", payload_for_seed(0)
            )
            assert status == 200 and again["id"] == document["id"]
            assert await _executed_total(port) == before

        run_daemon(scenario, runner=runner)


class TestConditionalGet:
    def test_if_none_match_answers_bodyless_304(self):
        body = b'{"artifact": "bytes"}\n'

        def runner(job):
            return JobResult(artifacts={"table1": body})

        async def scenario(handle):
            port = handle.port
            _, document = await request_json(
                port, "POST", "/v1/jobs", payload_for_seed(0)
            )
            job_id = document["id"]
            await poll_until(port, job_id, "done")
            path = f"/v1/jobs/{job_id}/artifacts/table1"

            status, headers, raw = await request_full(port, "GET", path)
            assert status == 200 and raw == body
            etag = headers["etag"]
            assert etag.startswith('"') and etag.endswith('"')
            assert "immutable" in headers.get("cache-control", "")

            # replaying the validator: 304, zero body bytes, same tag
            status, headers, raw = await request_full(
                port, "GET", path, headers=(("If-None-Match", etag),)
            )
            assert status == 304 and raw == b""
            assert headers["etag"] == etag
            assert "content-length" not in headers

            # a stale validator still gets the full entity
            status, _, raw = await request_full(
                port, "GET", path, headers=(("If-None-Match", '"stale"'),)
            )
            assert status == 200 and raw == body

            # wildcard and comma-list forms match too
            for value in ("*", f'"other", {etag}', f"W/{etag}"):
                status, _, raw = await request_full(
                    port, "GET", path, headers=(("If-None-Match", value),)
                )
                assert status == 304 and raw == b""

        run_daemon(scenario, runner=runner)

    def test_repeated_fetches_serve_byte_identical_etags(self):
        def runner(job):
            return JobResult(artifacts={"table1": b'{"x": 1}\n'})

        async def scenario(handle):
            port = handle.port
            _, document = await request_json(
                port, "POST", "/v1/jobs", payload_for_seed(0)
            )
            await poll_until(port, document["id"], "done")
            path = f"/v1/jobs/{document['id']}/artifacts/table1"
            etags = set()
            for _ in range(3):
                _, headers, _ = await request_full(port, "GET", path)
                etags.add(headers["etag"])
            assert len(etags) == 1

        run_daemon(scenario, runner=runner)


class TestProcessExecution:
    """The warm-pool execution path, end-to-end and under faults."""

    def test_process_mode_serves_canonical_bytes(self):
        from repro.core.artifacts import artifact_json_bytes
        from repro.core.study import Study, StudyConfig
        from repro.util.calendar import calendar_for_weeks

        study = Study(StudyConfig(seed=0, calendar=calendar_for_weeks(16)))
        expected = artifact_json_bytes(study.artifact("table1"))

        async def scenario(handle):
            port = handle.port
            _, document = await request_json(
                port, "POST", "/v1/jobs", payload_for_seed(0)
            )
            document = await poll_until(
                port, document["id"], "done", "failed", tries=3000
            )
            assert document["status"] == "done", document["error"]
            status, raw = await request(
                port, "GET", f"/v1/jobs/{document['id']}/artifacts/table1"
            )
            assert status == 200
            scenario.raw = raw
            _, health = await request_json(port, "GET", "/v1/health")
            assert health["execution"] == "process"
            scenario.job = handle.manager.get(document["id"])

        try:
            run_daemon(scenario, execution="process", workers=1, jobs=1)
        finally:
            shutdown_pool()
        assert scenario.raw == expected
        spans = scenario.job.manifest["spans"]
        assert "service.body[study]" in span_children(spans, "service.job[study]")

    def test_worker_crash_fails_job_and_pool_recovers(self, monkeypatch):
        import repro.service.runners as runners_module

        real_study_body = runners_module._BODIES["study"]

        def sabotaged_study_body(job, config):
            if job.payload["config"].get("seed") == 666:
                os.kill(os.getpid(), signal.SIGKILL)  # worker dies mid-job
            return JobResult(artifacts={"table1": b'{"ok": true}\n'})

        monkeypatch.setitem(
            runners_module._BODIES, "study", sabotaged_study_body
        )
        # Fork AFTER the patch so pool workers inherit the sabotaged body.
        shutdown_pool()

        async def scenario(handle):
            port = handle.port
            _, document = await request_json(
                port, "POST", "/v1/jobs", payload_for_seed(666)
            )
            document = await poll_until(
                port, document["id"], "failed", tries=1000
            )
            assert "worker process died" in document["error"]

            _, metrics = await request_json(port, "GET", "/v1/metrics")
            assert (
                _counter_total(metrics, "service.jobs.worker_crashes") == 1
            )

            # the re-warmed pool serves the next job without a hiccup
            _, document = await request_json(
                port, "POST", "/v1/jobs", payload_for_seed(7)
            )
            document = await poll_until(
                port, document["id"], "done", "failed", tries=1000
            )
            assert document["status"] == "done", document["error"]
            status, raw = await request(
                port, "GET", f"/v1/jobs/{document['id']}/artifacts/table1"
            )
            assert status == 200 and raw == b'{"ok": true}\n'

        try:
            run_daemon(scenario, execution="process", workers=1, jobs=1)
        finally:
            shutdown_pool()
        # the hard-killed worker must not leave the patched body in any
        # survivor: the pool was shut down above, so the next warm_pool
        # forks from a clean (unpatched, post-monkeypatch-undo) parent.

    def test_cancellation_crosses_the_process_boundary(self, monkeypatch):
        import repro.service.runners as runners_module

        def spinning_study_body(job, config):
            while True:
                job.raise_if_cancelled()
                time.sleep(0.01)

        monkeypatch.setitem(
            runners_module._BODIES, "study", spinning_study_body
        )
        shutdown_pool()

        async def scenario(handle):
            port = handle.port
            _, document = await request_json(
                port, "POST", "/v1/jobs", payload_for_seed(0)
            )
            job_id = document["id"]
            await poll_until(port, job_id, "running")
            status, document = await request_json(
                port, "POST", f"/v1/jobs/{job_id}/cancel"
            )
            assert status == 200 and document["cancel_requested"]
            document = await poll_until(port, job_id, "cancelled", tries=1000)
            assert document["error"] == "cancelled while running"

        try:
            run_daemon(scenario, execution="process", workers=1, jobs=1)
        finally:
            shutdown_pool()

    def test_flag_directories_are_reclaimed(self, monkeypatch, tmp_path):
        """A daemon keeps its jobs' flag files in one directory named for
        its pid, which it removes on drain; at boot it removes those of
        pids that no longer run and keeps those of live ones."""
        import repro.service.runners as runners_module

        def progressing_study_body(job, config):
            job.set_progress({"step": 1})  # a file in the flag directory
            return JobResult(artifacts={"table1": b'{"ok": true}\n'})

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setitem(
            runners_module._BODIES, "study", progressing_study_body
        )
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait(timeout=30)
        dead = tmp_path / f"repro-serve-{child.pid}-killed"
        dead.mkdir()
        (dead / "job-1").touch()
        alive = tmp_path / f"repro-serve-{os.getpid()}-live"
        alive.mkdir()
        shutdown_pool()  # fork after the patch

        async def scenario(handle):
            assert not dead.exists() and alive.exists()
            (own,) = set(tmp_path.glob(f"repro-serve-{os.getpid()}-*")) - {alive}
            _, document = await request_json(
                handle.port, "POST", "/v1/jobs", payload_for_seed(3)
            )
            document = await poll_until(
                handle.port, document["id"], "done", "failed", tries=1000
            )
            assert document["status"] == "done", document["error"]
            assert list(own.iterdir()) == []
            scenario.own = own

        try:
            run_daemon(scenario, execution="process", workers=1, jobs=1)
        finally:
            shutdown_pool()
        assert not scenario.own.exists()
        assert alive.exists()


class TestDrainExits:
    #: generous for a 2-vCPU host; a daemon that hangs never exits at all
    EXIT_BOUND_S = 30.0

    def test_sigterm_exits_after_a_job_built_a_shard_sub_pool(self, tmp_path):
        """``--jobs 2`` makes the job-pool worker's ``simulate`` fork its
        own shard sub-pool on any host; the drain must still end the
        daemon promptly instead of hanging on those grandchildren."""
        with CliDaemon(
            tmp_path / "daemon.log",
            "--workers", "1",
            "--jobs", "2",
            "--execution", "process",
            "--cache-dir", str(tmp_path / "cache"),
        ) as daemon:
            document = daemon.wait_for_job(daemon.submit(payload_for_seed(0)))
            assert document["status"] == "done", document["error"]
            daemon.process.send_signal(signal.SIGTERM)
            try:
                code = daemon.process.wait(timeout=self.EXIT_BOUND_S)
            except subprocess.TimeoutExpired:
                pytest.fail(
                    f"daemon still running {self.EXIT_BOUND_S:g}s after SIGTERM"
                )
            assert code == 0
            assert "drained" in daemon.log()
