"""Lease-expiry determinism: SIGKILL a worker mid-cell, bytes still match.

The distributed tier's headline invariant is that worker failures are
invisible in the output.  This test makes the failure real: a worker
*subprocess* acquires a lease, stalls inside the cell body (its script
wraps ``repro.sweep.scheduler.run_cell`` in a 60 s sleep), and is
SIGKILLed — no drain, no deregister, no goodbye.  The coordinator must
expire the orphaned lease, re-dispatch the cell to the surviving
workers, record every cell exactly once in the ledger, and serve a
``report`` artifact byte-identical to a serial run of the same preset.

The second test SIGKILLs the coordinator itself.  The ledger is its only
durable state, so a restarted coordinator given the same job again must
count what reached the ledger as hits and still serve serial bytes.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import repro
from repro.core.artifacts import artifact_json_bytes
from repro.service.dist import WorkerConfig, run_worker
from repro.sweep.ledger import SweepLedger
from repro.sweep.presets import preset
from repro.sweep.spec import spec_fingerprint

from tests.cli_daemon import CliDaemon
from tests.test_service import poll_until, request, request_json, run_daemon

_SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

_VICTIM = """
import sys
import time

import repro.sweep.scheduler as scheduler
from repro.service.dist import WorkerConfig, run_worker

run_cell = scheduler.run_cell


def stalled_run_cell(*args, **kwargs):
    time.sleep(60)
    return run_cell(*args, **kwargs)


# The worker imports run_cell from the module at each lease.
scheduler.run_cell = stalled_run_cell
run_worker(
    WorkerConfig(coordinator=sys.argv[1], worker_id="victim", cache=False),
    log=lambda line: None,
)
"""


def spawn_victim(port: int) -> subprocess.Popen:
    """A worker subprocess that will stall 60 s inside its first cell."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC_DIR
    return subprocess.Popen(
        [sys.executable, "-c", _VICTIM, f"http://127.0.0.1:{port}"],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def test_sigkilled_worker_never_changes_the_bytes(tmp_path):
    from repro.sweep.scheduler import run_sweep

    spec = preset("smoke")
    serial = run_sweep(spec, jobs=1, sweep_dir=tmp_path / "serial", cache=False)
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
    dist_dir = tmp_path / "dist"

    async def scenario(handle):
        port = handle.port
        _, submitted = await request_json(
            port, "POST", "/v1/jobs", {"kind": "sweep", "preset": "smoke"}
        )
        victim = spawn_victim(port)
        stop = threading.Event()
        rescuers = []
        try:
            # wait until the victim holds a lease (it is the only worker,
            # so the first lease in the overview is its stalled cell)
            for _ in range(600):
                _, overview = await request_json(port, "GET", "/v1/dist/status")
                if overview["leases"] >= 1:
                    break
                await asyncio.sleep(0.05)
            else:
                raise AssertionError(f"victim never acquired: {overview}")
            assert [w["worker_id"] for w in overview["workers"]] == ["victim"]
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=10)

            rescuers = [
                threading.Thread(
                    target=run_worker,
                    args=(
                        WorkerConfig(
                            coordinator=f"http://127.0.0.1:{port}",
                            worker_id=f"rescuer-{i}",
                            cache=False,
                        ),
                    ),
                    kwargs={"stop": stop},
                    daemon=True,
                )
                for i in range(2)
            ]
            for thread in rescuers:
                thread.start()

            document = await poll_until(
                port, submitted["id"], "done", "failed", tries=3000
            )
            assert document["status"] == "done", document["error"]
            # the stalled cell was re-dispatched: rescuers ran all 4
            assert document["summary"]["executed"] == 4
            _, overview = await request_json(port, "GET", "/v1/dist/status")
            by_id = {w["worker_id"]: w for w in overview["workers"]}
            # the victim contributed nothing; the rescuers did it all
            # (it stays in the roster until the heartbeat timeout — only
            # its *lease* had to die for the cell to re-dispatch)
            assert by_id.get("victim", {"completed": 0})["completed"] == 0
            assert sum(w["completed"] for w in overview["workers"]) == 4
            status, raw = await request(
                port, "GET", f"/v1/jobs/{submitted['id']}/artifacts/report"
            )
            assert status == 200
            scenario.raw = raw
        finally:
            if victim.poll() is None:
                victim.kill()
            stop.set()
            await asyncio.to_thread(
                lambda: [thread.join(timeout=15) for thread in rescuers]
            )

    run_daemon(
        scenario,
        role="coordinator",
        sweep_dir=dist_dir,
        cache=False,
        # short TTL so the orphaned lease re-dispatches quickly; the
        # heartbeat timeout stays long enough that live workers (which
        # also refresh liveness on acquire/complete) are never evicted.
        lease_ttl_s=2.0,
        heartbeat_timeout_s=30.0,
    )

    assert scenario.raw == expected

    # exactly-once: one ledger record per cell index, no duplicates from
    # the killed lease (SIGKILL means its upload never happened)
    records = [
        json.loads(line)
        for line in SweepLedger(spec, root=dist_dir)
        .path.read_text()
        .splitlines()
        if json.loads(line).get("kind") == "cell"
    ]
    indices = [record["index"] for record in records]
    assert sorted(indices) == [0, 1, 2, 3]
    assert len(indices) == len(set(indices))


def test_restarted_coordinator_resumes_from_the_ledger(tmp_path):
    """SIGKILL the coordinator once a cell reached the ledger, restart it
    on the same cache dir, resubmit the job: the ledger is its only
    durable state, so the pre-kill cell is a ledger hit and the report
    matches serial bytes."""
    from repro.sweep.scheduler import run_sweep

    spec = preset("smoke")
    serial = run_sweep(spec, jobs=1, sweep_dir=tmp_path / "serial", cache=False)
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
    cache_dir = tmp_path / "dist"
    ledger = SweepLedger(spec, root=cache_dir)
    coordinator_args = (
        "--role", "coordinator",
        "--execution", "thread",
        "--jobs", "1",
        "--cache-dir", str(cache_dir),
    )
    sweep_job = {"kind": "sweep", "preset": "smoke"}

    with CliDaemon(tmp_path / "first.log", *coordinator_args) as first:
        first.submit(sweep_job)
        # one worker, one cell: it uploads and leaves, the job waits on
        summary = run_worker(
            WorkerConfig(coordinator=first.url, worker_id="before", cache=False, max_cells=1)
        )
        assert summary.completed == 1
        for _ in range(600):
            if ledger.read().cells:
                break
            time.sleep(0.05)
        first.kill()
    before = set(ledger.read().cells)
    assert len(before) == 1

    stop = threading.Event()
    with CliDaemon(tmp_path / "second.log", *coordinator_args) as second:
        worker = threading.Thread(
            target=run_worker,
            args=(WorkerConfig(coordinator=second.url, worker_id="after", cache=False),),
            kwargs={"stop": stop},
            daemon=True,
        )
        worker.start()
        try:
            job_id = second.submit(sweep_job)
            document = second.wait_for_job(job_id)
            assert document["status"] == "done", document["error"]
            assert document["summary"]["ledger_hits"] == 1
            assert document["summary"]["executed"] == 3
            assert document["progress"] == {
                "n_cells": 4,
                "cells_done": 4,
                "executed": 3,
                "ledger_hits": 1,
            }
            status, raw = second.request("GET", f"/v1/jobs/{job_id}/artifacts/report")
            assert status == 200
        finally:
            stop.set()
            worker.join(timeout=15)
    assert not worker.is_alive()

    assert hashlib.sha256(raw).hexdigest() == hashlib.sha256(expected).hexdigest()
    records = [
        json.loads(line)
        for line in ledger.path.read_text().splitlines()
        if json.loads(line).get("kind") == "cell"
    ]
    assert sorted(record["index"] for record in records) == [0, 1, 2, 3]
