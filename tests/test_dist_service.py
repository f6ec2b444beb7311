"""Wire-level dist tests: the coordinator daemon plus real workers.

``tests/test_dist_coordinator.py`` pins the lease failure model with a
fake clock; these tests pin the HTTP layer around it — the registration
handshake (including the protocol-mismatch rejection the versioning
exists for), the ``not-coordinator`` refusal on standalone daemons, and
the headline acceptance criterion: a sweep job distributed over two
workers produces a ``report`` artifact byte-identical to a serial
:func:`repro.sweep.scheduler.run_sweep` of the same preset.
"""

from __future__ import annotations

import asyncio
import threading

from repro.core.artifacts import artifact_json_bytes
from repro.service.dist import (
    DIST_PROTOCOL_VERSION,
    WorkerConfig,
    run_worker,
)
from repro.sweep.ledger import SweepLedger
from repro.sweep.presets import preset
from repro.sweep.spec import spec_fingerprint

from tests.test_service import (
    poll_until,
    request,
    request_json,
    run_daemon,
)


def register_body(worker_id="w1", protocol=DIST_PROTOCOL_VERSION):
    return {
        "protocol": protocol,
        "worker_id": worker_id,
        "capabilities": ["sweep-preset", "whatif-preset"],
    }


class TestStandaloneDaemon:
    """Dist routes are always mounted; only coordinators serve them."""

    def test_handshake_document_is_public(self):
        async def scenario(handle):
            status, document = await request_json(
                handle.port, "GET", "/v1/dist/protocol"
            )
            assert status == 200
            assert document["protocol"] == DIST_PROTOCOL_VERSION

        run_daemon(scenario, runner=lambda job: None)

    def test_dist_operations_answer_not_coordinator(self):
        async def scenario(handle):
            status, document = await request_json(
                handle.port, "POST", "/v1/dist/workers", register_body()
            )
            assert status == 409
            assert document["error"]["code"] == "not-coordinator"
            status, document = await request_json(
                handle.port, "GET", "/v1/dist/status"
            )
            assert status == 409
            assert document["error"]["code"] == "not-coordinator"

        run_daemon(scenario, runner=lambda job: None)

    def test_health_reports_standalone_role(self):
        async def scenario(handle):
            _, document = await request_json(handle.port, "GET", "/v1/health")
            assert document["role"] == "standalone"

        run_daemon(scenario, runner=lambda job: None)


class TestCoordinatorHandshake:
    def test_register_heartbeat_deregister(self, tmp_path):
        async def scenario(handle):
            port = handle.port
            _, health = await request_json(port, "GET", "/v1/health")
            assert health["role"] == "coordinator"
            status, document = await request_json(
                port, "POST", "/v1/dist/workers", register_body("w1")
            )
            assert status == 200
            assert document["worker_id"] == "w1"
            # the default 15 s timeout advises today's 5 s heartbeat
            assert document["heartbeat_interval_s"] == 5.0
            assert "lease_ttl_s" not in document
            status, beat = await request_json(
                port, "POST", "/v1/dist/workers/w1/heartbeat", {}
            )
            assert status == 200 and beat["draining"] is False
            _, overview = await request_json(port, "GET", "/v1/dist/status")
            assert [w["worker_id"] for w in overview["workers"]] == ["w1"]
            status, _ = await request_json(
                port, "POST", "/v1/dist/workers/w1/deregister", {}
            )
            assert status == 200

        run_daemon(scenario, role="coordinator", cache_dir=tmp_path)

    def test_protocol_mismatch_is_rejected_at_registration(self, tmp_path):
        async def scenario(handle):
            status, document = await request_json(
                handle.port,
                "POST",
                "/v1/dist/workers",
                register_body("old-build", protocol=999),
            )
            assert status == 409
            error = document["error"]
            assert error["code"] == "protocol-mismatch"
            assert error["expected"] == DIST_PROTOCOL_VERSION
            assert error["got"] == 999
            # the rejected worker never appears in the roster
            _, overview = await request_json(
                handle.port, "GET", "/v1/dist/status"
            )
            assert overview["workers"] == []

        run_daemon(scenario, role="coordinator", cache_dir=tmp_path)

    def test_malformed_dist_body_is_a_schema_error(self, tmp_path):
        async def scenario(handle):
            status, document = await request_json(
                handle.port, "POST", "/v1/dist/workers", {"protocol": "one"}
            )
            assert status == 400
            assert document["error"]["code"] == "invalid-message"

        run_daemon(scenario, role="coordinator", cache_dir=tmp_path)


class TestDistributedSweep:
    """The acceptance criterion, end to end over real sockets."""

    def test_two_workers_match_serial_bytes(self, tmp_path):
        from repro.sweep.scheduler import run_sweep

        spec = preset("smoke")
        serial = run_sweep(
            SweepLedger(spec, root=tmp_path / "serial"), jobs=1, cache=False
        )
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
            stop = threading.Event()
            workers = [
                threading.Thread(
                    target=run_worker,
                    args=(
                        WorkerConfig(
                            coordinator=f"http://127.0.0.1:{port}",
                            worker_id=f"worker-{i}",
                            cache=False,
                        ),
                    ),
                    kwargs={"stop": stop},
                    daemon=True,
                )
                for i in range(2)
            ]
            for thread in workers:
                thread.start()
            try:
                _, submitted = await request_json(
                    port, "POST", "/v1/jobs", {"kind": "sweep", "preset": "smoke"}
                )
                document = await poll_until(
                    port, submitted["id"], "done", "failed", tries=3000
                )
                assert document["status"] == "done", document["error"]
                assert document["summary"]["executed"] == 4
                _, overview = await request_json(port, "GET", "/v1/dist/status")
                assert sum(w["completed"] for w in overview["workers"]) == 4
                # the lease lifecycle is visible in the metrics surface
                _, metrics = await request_json(port, "GET", "/v1/metrics")
                counters = metrics["counters"]
                # >= not ==: a worker whose register/complete response
                # is lost in transit retries the RPC, and the retry
                # legitimately counts again
                assert counters["service.dist.workers.registered"] >= 2
                assert counters["service.dist.leases.granted"] >= 4
                assert counters["service.dist.leases.completed"] >= 4
                status, raw = await request(
                    port, "GET", f"/v1/jobs/{submitted['id']}/artifacts/report"
                )
                assert status == 200
                scenario.raw = raw
            finally:
                stop.set()
                await asyncio.to_thread(
                    lambda: [thread.join(timeout=15) for thread in workers]
                )

        run_daemon(
            scenario,
            role="coordinator",
            cache_dir=tmp_path / "dist",
            cache=False,
        )
        assert scenario.raw == expected
