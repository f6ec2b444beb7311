"""Service daemon tests: lifecycle, coalescing, cancellation, drain.

Most tests run the real daemon (:func:`repro.service.daemon.serve`) on
an ephemeral port inside ``asyncio.run`` with a *stub* runner, so the
HTTP surface, job manager, and drain path are exercised end-to-end
without simulating.  The byte-identity test swaps in the real runner
against the session's cached ``seed0-small`` study and asserts the
HTTP-fetched artifact equals the library's canonical bytes exactly.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading

import pytest

import repro.service.daemon as daemon_module
from repro.service import (
    JobManager,
    JobResult,
    QueueFull,
    ServiceConfig,
    parse_submission,
    study_config_from_payload,
)
from repro.service.daemon import serve
from repro.service.jobs import KEPT_FINISHED_JOBS


async def request_full(port, method, path, body=None, headers=()):
    """One exchange, returning ``(status, headers-dict, body)``."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = b"" if body is None else json.dumps(body).encode("utf-8")
    lines = [
        f"{method} {path} HTTP/1.1",
        "Host: test",
        f"Content-Length: {len(payload)}",
    ]
    lines.extend(f"{name}: {value}" for name, value in headers)
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except ConnectionError:
        pass
    head, _, body = raw.partition(b"\r\n\r\n")
    head_lines = head.decode("latin-1").split("\r\n")
    status = int(head_lines[0].split(" ")[1])
    response_headers = {}
    for line in head_lines[1:]:
        name, _, value = line.partition(":")
        response_headers[name.strip().lower()] = value.strip()
    return status, response_headers, body


async def request(port, method, path, body=None):
    """One Connection: close HTTP exchange against the daemon."""
    status, _, raw = await request_full(port, method, path, body)
    return status, raw


async def request_json(port, method, path, body=None):
    status, raw = await request(port, method, path, body)
    return status, json.loads(raw) if raw else None


async def poll_until(port, job_id, *states, tries=200):
    for _ in range(tries):
        _, document = await request_json(port, "GET", f"/v1/jobs/{job_id}")
        if document["status"] in states:
            return document
        await asyncio.sleep(0.02)
    raise AssertionError(f"job {job_id} never reached {states}: {document}")


def run_daemon(test_body, *, runner=None, **config_kwargs):
    """Run ``serve()`` on an ephemeral port and ``await test_body(handle)``.

    ``runner`` replaces the real job bodies (monkeypatched at the daemon
    module seam); the daemon is always drained before returning so no
    worker threads outlive a test.  Execution defaults to "thread" here
    (the pre-pool behaviour); process-mode coverage opts in explicitly
    in test_service_load.py.
    """
    config_kwargs.setdefault("execution", "thread")
    config = ServiceConfig(port=0, drain_timeout_s=10.0, **config_kwargs)

    async def main():
        original = daemon_module.make_runner
        if runner is not None:
            daemon_module.make_runner = lambda *_: runner
        holder: dict = {}
        try:
            server = asyncio.create_task(
                serve(config, ready=lambda handle: holder.update(handle=handle))
            )
            while "handle" not in holder:
                await asyncio.sleep(0.005)
                if server.done():
                    server.result()  # surface startup errors
            handle = holder["handle"]
            try:
                await test_body(handle)
            finally:
                handle.request_stop()
                await asyncio.wait_for(server, timeout=30)
        finally:
            daemon_module.make_runner = original

    asyncio.run(main())


def span_children(root, key):
    """Keys of the children of the top-level span ``key`` of a manifest."""
    (node,) = [child for child in root["children"] if child["key"] == key]
    return [child["key"] for child in node["children"]]


STUDY_PAYLOAD = {
    "kind": "study",
    "config": {"preset": "seed0-small"},
    "artifacts": ["fig2_trends"],
}


def payload_for_seed(seed):
    return {
        "kind": "study",
        "config": {"seed": seed, "weeks": 16},
        "artifacts": ["table1"],
    }


class TestParseSubmission:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind must be one of"):
            parse_submission({"kind": "bake-cake"})

    def test_rejects_unknown_artifact(self):
        with pytest.raises(KeyError, match="unknown artifact"):
            parse_submission(
                {"kind": "study", "config": {}, "artifacts": ["nope"]}
            )

    def test_rejects_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown config preset"):
            parse_submission({"kind": "study", "config": {"preset": "x"}})
        with pytest.raises(ValueError, match="unknown sweep preset"):
            parse_submission({"kind": "sweep", "preset": "x"})

    def test_rejects_short_window(self):
        with pytest.raises(ValueError, match="16"):
            study_config_from_payload({"weeks": 2})

    def test_key_is_content_addressed(self):
        _, key_a, _ = parse_submission(STUDY_PAYLOAD)
        _, key_b, _ = parse_submission(
            {  # same meaning, different spelling/order
                "artifacts": ["fig2_trends", "fig2_trends"],
                "config": {"preset": "seed0-small"},
                "kind": "study",
            }
        )
        _, key_c, _ = parse_submission(payload_for_seed(0))
        assert key_a == key_b
        assert key_a != key_c

    def test_default_artifact_selection_is_everything(self):
        from repro.core.artifacts import artifact_names

        _, _, payload = parse_submission({"kind": "study", "config": {}})
        assert payload["artifacts"] == sorted(artifact_names())


class TestJobManagerUnit:
    """Manager semantics that don't need a socket."""

    def test_rejects_beyond_queue_size(self):
        async def main():
            manager = JobManager(lambda job: JobResult(), queue_size=2)
            manager.submit("study", "k1", {})
            manager.submit("study", "k2", {})
            with pytest.raises(QueueFull):
                manager.submit("study", "k3", {})
            # coalescing onto an admitted job is still allowed at capacity
            job, coalesced = manager.submit("study", "k1", {})
            assert coalesced and job.key == "k1"

        asyncio.run(main())

    def test_cancel_queued_job_is_immediate(self):
        async def main():
            manager = JobManager(lambda job: JobResult(), queue_size=4)
            job, _ = manager.submit("study", "k1", {})
            cancelled = manager.cancel(job.id)
            assert cancelled.status == "cancelled"
            # a fresh submission with the same key gets a NEW job
            replacement, coalesced = manager.submit("study", "k1", {})
            assert not coalesced and replacement.id != job.id

        asyncio.run(main())

    def test_timeout_marks_job_and_requests_cancel(self):
        async def main():
            release = threading.Event()

            def runner(job):
                release.wait(10)
                return JobResult()

            manager = JobManager(runner, queue_size=2, default_timeout_s=0.1)
            manager.start()
            job, _ = manager.submit("study", "k1", {})
            for _ in range(100):
                if job.status == "timeout":
                    break
                await asyncio.sleep(0.02)
            assert job.status == "timeout"
            assert job.cancel_requested
            release.set()
            await manager.drain(timeout=5)

        asyncio.run(main())


class TestServiceLifecycle:
    def test_submit_poll_fetch(self):
        body = b'{"stub": true}\n'

        def runner(job):
            return JobResult(artifacts={"fig2_trends": body}, summary={"n": 1})

        async def scenario(handle):
            port = handle.port
            status, document = await request_json(
                port, "POST", "/v1/jobs", STUDY_PAYLOAD
            )
            assert status == 202 and document["coalesced"] is False
            job_id = document["id"]

            document = await poll_until(port, job_id, "done")
            assert document["artifacts"] == ["fig2_trends"]
            assert document["summary"] == {"n": 1}

            status, raw = await request(
                port, "GET", f"/v1/jobs/{job_id}/artifacts/fig2_trends"
            )
            assert status == 200 and raw == body

            status, listing = await request_json(
                port, "GET", f"/v1/jobs/{job_id}/artifacts"
            )
            assert status == 200 and listing["artifacts"] == ["fig2_trends"]

        run_daemon(scenario, runner=runner)

    def test_concurrent_identical_submissions_share_one_execution(self):
        executions = []
        release = threading.Event()

        def runner(job):
            executions.append(job.id)
            release.wait(10)
            return JobResult(artifacts={"fig2_trends": b"{}\n"})

        async def scenario(handle):
            port = handle.port
            first, second = await asyncio.gather(
                request_json(port, "POST", "/v1/jobs", STUDY_PAYLOAD),
                request_json(port, "POST", "/v1/jobs", STUDY_PAYLOAD),
            )
            statuses = sorted([first[0], second[0]])
            assert statuses == [200, 202]  # one admitted, one coalesced
            assert first[1]["id"] == second[1]["id"]
            release.set()
            await poll_until(port, first[1]["id"], "done")
            assert len(executions) == 1

        run_daemon(scenario, runner=runner)

    def test_cancellation_mid_run(self):
        started = threading.Event()

        def runner(job):
            started.set()
            while True:
                job.raise_if_cancelled()
                threading.Event().wait(0.02)

        async def scenario(handle):
            port = handle.port
            _, document = await request_json(
                port, "POST", "/v1/jobs", STUDY_PAYLOAD
            )
            job_id = document["id"]
            while not started.is_set():
                await asyncio.sleep(0.01)
            status, document = await request_json(
                port, "POST", f"/v1/jobs/{job_id}/cancel"
            )
            assert status == 200 and document["cancel_requested"]
            document = await poll_until(port, job_id, "cancelled")
            assert document["error"] == "cancelled while running"
            # artifacts of a cancelled job are a conflict, not a 500
            status, _ = await request_json(
                port, "GET", f"/v1/jobs/{job_id}/artifacts"
            )
            assert status == 409

        run_daemon(scenario, runner=runner)

    def test_queue_full_answers_503(self):
        release = threading.Event()

        def runner(job):
            release.wait(10)
            return JobResult()

        async def scenario(handle):
            port = handle.port
            codes = []
            for seed in range(3):
                status, _ = await request_json(
                    port, "POST", "/v1/jobs", payload_for_seed(seed)
                )
                codes.append(status)
            assert codes == [202, 202, 503]
            release.set()

        run_daemon(scenario, runner=runner, queue_size=2)

    def test_error_surfaces_as_failed_job(self):
        def runner(job):
            raise RuntimeError("boom")

        async def scenario(handle):
            port = handle.port
            _, document = await request_json(
                port, "POST", "/v1/jobs", STUDY_PAYLOAD
            )
            document = await poll_until(port, document["id"], "failed")
            assert "RuntimeError: boom" == document["error"]

        run_daemon(scenario, runner=runner)

    def test_malformed_requests(self):
        async def scenario(handle):
            port = handle.port
            status, _ = await request_json(port, "GET", "/v1/jobs/nope")
            assert status == 404
            status, _ = await request_json(port, "DELETE", "/v1/health")
            assert status == 405
            status, _ = await request_json(port, "POST", "/v1/jobs", {"kind": "x"})
            assert status == 400
            # non-JSON body
            status, raw = await request(port, "POST", "/v1/jobs")
            assert status == 400

        run_daemon(scenario, runner=lambda job: JobResult())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_job_manifest_holds_the_body_spans(self, workers):
        from repro import obs

        def runner(job):
            with obs.span("stub.work"):
                obs.counter("stub.calls").inc()
            return JobResult()

        async def scenario(handle):
            port = handle.port
            _, document = await request_json(
                port, "POST", "/v1/jobs", payload_for_seed(0)
            )
            await poll_until(port, document["id"], "done")
            scenario.job = handle.manager.get(document["id"])

        run_daemon(scenario, runner=runner, workers=workers)
        manifest = scenario.job.manifest
        assert "stub.calls" in manifest["metrics"]["counters"]
        assert span_children(manifest["spans"], "service.job[study]") == [
            "stub.work"
        ]

    def test_running_job_leaves_the_daemon_metrics_alone(self):
        """``/v1/metrics`` reads the daemon's context while a job runs,
        and the job's manifest holds only what its body recorded."""
        from repro import obs

        release = threading.Event()

        def runner(job):
            obs.counter("stub.calls").inc()
            release.wait(timeout=30)
            return JobResult()

        async def scenario(handle):
            port = handle.port
            for _ in range(3):
                await request_json(port, "GET", "/v1/health")
            _, document = await request_json(
                port, "POST", "/v1/jobs", payload_for_seed(0)
            )
            try:
                await poll_until(port, document["id"], "running")
                _, metrics = await request_json(port, "GET", "/v1/metrics")
            finally:
                release.set()
            counters = metrics["counters"]
            assert counters["service.jobs.submitted"] == 1
            assert counters["service.http.requests{method=POST}"] == 1
            # the three health checks, the polls and this request
            assert counters["service.http.requests{method=GET}"] >= 5
            assert "stub.calls" not in counters
            await poll_until(port, document["id"], "done")
            scenario.job = handle.manager.get(document["id"])

        # A fresh daemon context, as the ``serve`` command opens one.
        with obs.collecting():
            run_daemon(scenario, runner=runner, workers=1)
        counters = scenario.job.manifest["metrics"]["counters"]
        assert counters["stub.calls"] == 1
        assert not [key for key in counters if key.startswith("service.http.")]

    def test_health_metrics_and_registry(self):
        async def scenario(handle):
            port = handle.port
            status, health = await request_json(port, "GET", "/v1/health")
            assert status == 200 and health["status"] == "ok"
            assert health["workers"] == 1

            status, metrics = await request_json(port, "GET", "/v1/metrics")
            assert status == 200 and "counters" in metrics

            status, registry = await request_json(port, "GET", "/v1/artifacts")
            from repro.core.artifacts import artifact_names

            assert [a["name"] for a in registry["artifacts"]] == artifact_names()

        run_daemon(scenario)


class TestRetention:
    def test_only_the_newest_finished_jobs_are_kept(self):
        """Past ``KEPT_FINISHED_JOBS`` finished jobs the oldest is dropped:
        its id answers 404 and its payload runs again, while running jobs
        and a key a newer job owns survive the drop."""
        release = threading.Event()
        executions: list[int] = []

        def runner(job):
            seed = job.payload["config"]["seed"]
            executions.append(seed)
            if seed == 999:
                release.wait(30)
            if seed == 0 and executions.count(0) == 1:
                raise RuntimeError("first attempt fails")
            return JobResult()

        async def finished(port, seed):
            status, document = await request_json(
                port, "POST", "/v1/jobs", payload_for_seed(seed)
            )
            assert status == 202, document
            return await poll_until(port, document["id"], "done", "failed")

        async def scenario(handle):
            port = handle.port
            _, held = await request_json(
                port, "POST", "/v1/jobs", payload_for_seed(999)
            )
            await poll_until(port, held["id"], "running")
            failed = await finished(port, 0)
            assert failed["status"] == "failed"
            redo = await finished(port, 0)  # a failure does not keep its key
            assert redo["status"] == "done"
            for seed in range(1, KEPT_FINISHED_JOBS):
                await finished(port, seed)
            # 65 finished jobs: the failed one, the oldest, is gone ...
            status, _ = await request_json(port, "GET", f"/v1/jobs/{failed['id']}")
            assert status == 404
            # ... but not the key its resubmission owns, nor a running job
            status, again = await request_json(
                port, "POST", "/v1/jobs", payload_for_seed(0)
            )
            assert status == 200 and again["id"] == redo["id"]
            _, document = await request_json(port, "GET", f"/v1/jobs/{held['id']}")
            assert document["status"] == "running"

            await finished(port, KEPT_FINISHED_JOBS)  # drops the redo
            status, _ = await request_json(port, "GET", f"/v1/jobs/{redo['id']}")
            assert status == 404
            rerun = await finished(port, 0)
            assert rerun["id"] != redo["id"] and rerun["status"] == "done"
            assert executions.count(0) == 3

            _, health = await request_json(port, "GET", "/v1/health")
            assert health["jobs"] == {"running": 1, "done": KEPT_FINISHED_JOBS}
            _, listing = await request_json(port, "GET", "/v1/jobs")
            assert len(listing["jobs"]) == KEPT_FINISHED_JOBS + 1
            release.set()

        run_daemon(scenario, runner=runner, workers=2)


class TestDrain:
    def test_sigterm_drains_gracefully(self):
        """SIGTERM cancels queued work, finishes running work, then exits."""
        started = threading.Event()
        release = threading.Event()
        finished = []

        def runner(job):
            started.set()
            release.wait(10)
            finished.append(job.id)
            return JobResult(artifacts={"a": b"{}\n"})

        async def scenario(handle):
            port = handle.port
            _, running = await request_json(
                port, "POST", "/v1/jobs", payload_for_seed(0)
            )
            _, queued = await request_json(
                port, "POST", "/v1/jobs", payload_for_seed(1)
            )
            while not started.is_set():
                await asyncio.sleep(0.01)

            os.kill(os.getpid(), signal.SIGTERM)
            while not handle.stopping.is_set():
                await asyncio.sleep(0.01)
            release.set()
            # run_daemon's teardown awaits the drain; record ids to check after
            scenario.running_id = running["id"]
            scenario.queued_id = queued["id"]
            scenario.handle = handle

        run_daemon(scenario, runner=runner, workers=1, queue_size=4)
        manager = scenario.handle.manager
        assert manager.get(scenario.running_id).status == "done"
        assert manager.get(scenario.queued_id).status == "cancelled"
        assert finished == [scenario.running_id]
        assert manager.draining

    def test_submissions_after_drain_are_refused(self):
        async def main():
            manager = JobManager(lambda job: JobResult(), queue_size=4)
            manager.start()
            await manager.drain(timeout=5)
            from repro.service import Draining

            with pytest.raises(Draining):
                manager.submit("study", "k", {})

        asyncio.run(main())


class TestByteIdentity:
    """The acceptance criterion: HTTP bytes == library/CLI bytes."""

    def test_served_artifact_matches_canonical_bytes(self, small_study):
        from repro.core.artifacts import artifact_json_bytes

        expected = artifact_json_bytes(small_study.artifact("fig2_trends"))

        async def scenario(handle):
            port = handle.port
            _, document = await request_json(
                port, "POST", "/v1/jobs", STUDY_PAYLOAD
            )
            document = await poll_until(
                port, document["id"], "done", "failed", tries=3000
            )
            assert document["status"] == "done", document["error"]
            status, raw = await request(
                port,
                "GET",
                f"/v1/jobs/{document['id']}/artifacts/fig2_trends",
            )
            assert status == 200
            scenario.raw = raw

        # real runner: the session cache already holds the seed0-small
        # simulation (small_study computed it), so this is extract-only.
        run_daemon(scenario)
        assert scenario.raw == expected

    def test_job_manifest_carries_provenance(self, small_study):
        async def scenario(handle):
            port = handle.port
            _, document = await request_json(
                port, "POST", "/v1/jobs", STUDY_PAYLOAD
            )
            await poll_until(port, document["id"], "done", tries=3000)
            scenario.job = handle.manager.get(document["id"])

        run_daemon(scenario)
        manifest = scenario.job.manifest
        assert manifest is not None
        assert manifest["job"]["job_id"] == scenario.job.id
        assert manifest["job"]["kind"] == "study"
        assert manifest["command"] == "service-job"

        schema_path = os.path.join(
            os.path.dirname(__file__), "manifest_schema.json"
        )
        with open(schema_path, encoding="utf-8") as handle:
            schema = json.load(handle)
        from repro import obs

        assert obs.validate_manifest(manifest, schema) == []


class TestSweepJobs:
    def test_sweep_job_matches_serial_bytes_and_reports_progress(self, tmp_path):
        """The one sweep body, standalone: the ``report`` artifact is the
        serial ``run_sweep`` document, and every settled cell published
        progress."""
        from repro.core.artifacts import artifact_json_bytes
        from repro.sweep.ledger import SweepLedger
        from repro.sweep.presets import preset
        from repro.sweep.scheduler import run_sweep
        from repro.sweep.spec import spec_fingerprint

        spec = preset("smoke")
        serial = run_sweep(SweepLedger(spec, root=tmp_path / "serial"))
        expected = artifact_json_bytes(
            {
                "kind": "sweep-report",
                "preset": "smoke",
                "sweep_id": serial.sweep_id,
                "spec_fingerprint": spec_fingerprint(spec),
                "n_cells": serial.report.n_cells,
                "n_done": len(serial.report.cells),
                "stopped": False,
                "rendered": serial.report.render(),
            }
        )

        async def scenario(handle):
            port = handle.port
            _, document = await request_json(
                port, "POST", "/v1/jobs", {"kind": "sweep", "preset": "smoke"}
            )
            document = await poll_until(
                port, document["id"], "done", "failed", tries=3000
            )
            assert document["status"] == "done", document.get("error")
            assert document["progress"] == {
                "n_cells": 4,
                "cells_done": 4,
                "executed": 4,
                "ledger_hits": 0,
            }
            _, scenario.raw = await request(
                port, "GET", f"/v1/jobs/{document['id']}/artifacts/report"
            )

        run_daemon(scenario, cache_dir=str(tmp_path / "daemon"))
        assert scenario.raw == expected


class TestWhatifJobs:
    """The long-running job kind: incremental progress + byte identity."""

    @pytest.fixture()
    def tiny_whatif(self, monkeypatch):
        """A fast 2-cell pairing injected into the preset registry
        (thread execution shares the patched module globals)."""
        import datetime as dt

        from repro.core.study import StudyConfig
        from repro.counterfactual import (
            InterventionSpec,
            WhatifPreset,
            scale_op,
        )
        from repro.counterfactual.presets import WHATIF_PRESETS
        from repro.net.plan import PlanConfig
        from repro.util.calendar import StudyCalendar

        def base():
            start = dt.date(2019, 1, 1)
            return StudyConfig(
                seed=0,
                calendar=StudyCalendar(start, start + dt.timedelta(days=16 * 7)),
                dp_per_day=12.0,
                ra_per_day=9.0,
                plan=PlanConfig(seed=0, tail_as_count=60),
            )

        intervention = InterventionSpec(
            name="tiny-service-floor",
            title="Netscout floor tripled (service test)",
            anchor="paper §5",
            description="test-size severity floor shift",
            ops=(scale_op("tuning.netscout_severity_floor_scale", 3.0),),
        )
        monkeypatch.setitem(
            WHATIF_PRESETS,
            "tiny-service-floor",
            lambda: WhatifPreset(intervention=intervention, base=base, seeds=(0,)),
        )
        return {"kind": "whatif", "preset": "tiny-service-floor"}

    def test_parse_submission_normalises_whatif(self, tiny_whatif):
        kind, key, payload = parse_submission(
            {**tiny_whatif, "strength": 1, "resume": False}
        )
        assert kind == "whatif"
        assert key.startswith("whatif:") and key.endswith(":resume=False")
        assert payload["strength"] == 1.0
        assert isinstance(payload["strength"], float)
        assert payload["spec_fingerprint"] in key

    def test_parse_submission_rejects_bad_whatif(self, tiny_whatif):
        with pytest.raises(ValueError, match="unknown whatif preset"):
            parse_submission({"kind": "whatif", "preset": "nope"})
        with pytest.raises(ValueError, match="need a preset"):
            parse_submission({"kind": "whatif"})
        with pytest.raises(ValueError, match="strength"):
            parse_submission({**tiny_whatif, "strength": -1})
        with pytest.raises(ValueError, match="strength"):
            parse_submission({**tiny_whatif, "strength": True})
        with pytest.raises(ValueError, match="resume must be a boolean"):
            parse_submission({**tiny_whatif, "resume": "yes"})

    def test_whatif_job_runs_with_incremental_progress(
        self, tiny_whatif, tmp_path
    ):
        async def scenario(handle):
            port = handle.port
            status, document = await request_json(
                port, "POST", "/v1/jobs", tiny_whatif
            )
            assert status == 202
            job_id = document["id"]
            document = await poll_until(port, job_id, "done", "failed", tries=3000)
            assert document["status"] == "done", document.get("error")

            # The final job document retains the last progress payload:
            # every cell accounted for, with a running divergence digest.
            progress = document["progress"]
            assert progress["cells_done"] == progress["n_cells"] == 2
            assert progress["executed"] == 2
            assert progress["intervention"] == "tiny-service-floor"
            assert progress["divergence"] is not None
            assert progress["divergence"]["paired_seeds"] == [0]

            summary = document["summary"]
            assert summary["complete"] is True
            assert summary["executed"] == 2
            assert summary["ledger_hits"] == 0

            status, raw = await request(
                port, "GET", f"/v1/jobs/{job_id}/artifacts/detection"
            )
            assert status == 200
            scenario.raw = raw

            # A second identical submission coalesces onto the finished
            # job instead of re-running anything.
            status, document = await request_json(
                port, "POST", "/v1/jobs", tiny_whatif
            )
            assert status == 200 and document["id"] == job_id

        run_daemon(scenario, cache_dir=str(tmp_path))

        # Byte identity: the HTTP artifact equals the library's
        # canonical bytes for the same ledger.
        from repro.core.artifacts import artifact_json_bytes
        from repro.counterfactual import build_detection_report, whatif_preset
        from repro.sweep.ledger import SweepLedger
        from repro.sweep.scheduler import load_report

        pairing = whatif_preset("tiny-service-floor")
        report = build_detection_report(
            pairing, load_report(SweepLedger(pairing.spec(), root=tmp_path))
        )
        assert scenario.raw == artifact_json_bytes(report.to_document())

        # The job's ledger is an ordinary pairing ledger: a library
        # resume against the same cache root replays both cells.
        from repro.counterfactual import run_whatif

        resumed = run_whatif(
            whatif_preset("tiny-service-floor"), cache_dir=tmp_path
        )
        assert resumed.sweep.executed == []
        assert resumed.sweep.ledger_hits == [0, 1]

    def test_whatif_cancel_leaves_ledger_resumable(self, tiny_whatif, tmp_path):
        async def scenario(handle):
            port = handle.port
            _, document = await request_json(port, "POST", "/v1/jobs", tiny_whatif)
            job_id = document["id"]
            # Cancel as soon as the first cell's progress lands.
            for _ in range(3000):
                _, document = await request_json(port, "GET", f"/v1/jobs/{job_id}")
                if document["status"] in ("done", "failed", "cancelled"):
                    break
                if document.get("progress", {}).get("cells_done", 0) >= 1:
                    await request_json(port, "POST", f"/v1/jobs/{job_id}/cancel")
                await asyncio.sleep(0.005)
            document = await poll_until(
                port, job_id, "done", "cancelled", tries=3000
            )
            scenario.final = document["status"]

        run_daemon(scenario, cache_dir=str(tmp_path))

        # Whether the cancel raced completion or landed mid-pairing, the
        # ledger stays resumable: a library resume finishes the pairing
        # without recomputing any completed cell.
        from repro.counterfactual import run_whatif, whatif_preset

        outcome = run_whatif(
            whatif_preset("tiny-service-floor"), cache_dir=tmp_path
        )
        assert outcome.report is not None
        assert outcome.report.complete
        if scenario.final == "cancelled":
            assert outcome.sweep.ledger_hits, "cancel landed but no cell completed"

    def test_coordinator_role_serves_the_same_bytes_and_progress(
        self, tiny_whatif, tmp_path
    ):
        """One job body per kind: on a coordinator the pairing's cells
        are leased to a worker, and the job ends with the same
        ``detection`` bytes and final progress as on a standalone
        daemon."""
        from repro.service.dist import WorkerConfig, run_worker

        async def finished(port):
            _, document = await request_json(port, "POST", "/v1/jobs", tiny_whatif)
            document = await poll_until(
                port, document["id"], "done", "failed", tries=3000
            )
            assert document["status"] == "done", document.get("error")
            status, raw = await request(
                port, "GET", f"/v1/jobs/{document['id']}/artifacts/detection"
            )
            assert status == 200
            return document["progress"], raw

        async def standalone(handle):
            standalone.result = await finished(handle.port)

        async def coordinator(handle):
            stop = threading.Event()
            worker = threading.Thread(
                target=run_worker,
                args=(
                    WorkerConfig(
                        coordinator=f"http://127.0.0.1:{handle.port}",
                        worker_id="w1",
                    ),
                ),
                kwargs={"stop": stop},
                daemon=True,
            )
            worker.start()
            try:
                coordinator.result = await finished(handle.port)
            finally:
                stop.set()
                await asyncio.to_thread(worker.join, 15)
            assert not worker.is_alive()

        run_daemon(standalone, cache_dir=str(tmp_path / "standalone"))
        run_daemon(
            coordinator,
            role="coordinator",
            cache_dir=str(tmp_path / "coordinator"),
        )
        assert coordinator.result == standalone.result
        progress, _ = coordinator.result
        assert progress["cells_done"] == progress["n_cells"] == 2
        assert progress["executed"] == 2
