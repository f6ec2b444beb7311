"""Coordinator failure-model tests: the dist tier without a socket.

Everything here drives :class:`repro.service.dist.DistCoordinator`
directly with a fake monotonic clock: workers through ``register`` /
``acquire`` / ``complete``, and the waiting ``run_sweep`` through the
executor entry point :meth:`~repro.service.dist.DistCoordinator.execute`,
which queues its cells before it returns.  The one liveness rule (a
lease lives as long as its worker stays registered, and eviction
re-queues it), orphaned leases, stale completions, and hash-mismatch
re-queues are pinned deterministically — no ports, and threads only
where an execution waits on the coordinator or workers race it.  The
wire-level behaviour of the same code paths is covered by
``tests/test_dist_service.py`` and the SIGKILL tests in
``tests/test_dist_determinism.py``.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import pytest

from repro.service.dist import (
    DistCoordinator,
    ProtocolError,
    result_sha256,
)
from repro.service.dist.protocol import (
    DIST_PROTOCOL_VERSION,
    check_protocol,
    protocol_descriptor,
    resolve_spec,
    validate_message,
)
from repro.sweep.ledger import SweepLedger
from repro.sweep.presets import preset
from repro.sweep.scheduler import run_cell, run_sweep
from repro.sweep.spec import expand, spec_fingerprint, sweep_id


class FakeClock:
    """A hand-advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 1_000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def smoke_descriptor() -> dict:
    return {
        "spec_kind": "sweep-preset",
        "preset": "smoke",
        "strength": None,
        "spec_fingerprint": spec_fingerprint(preset("smoke")),
    }


def make_coordinator(clock, **kwargs) -> DistCoordinator:
    kwargs.setdefault("heartbeat_timeout_s", 30.0)
    # waits between uploads use real time; keep them short
    kwargs.setdefault("poll_interval_s", 0.01)
    return DistCoordinator(clock=clock, **kwargs)


def start(coordinator, stop=lambda: False):
    """Queue the smoke preset's cells, as ``run_sweep`` does on a fresh
    ledger; returns the execution's iterator of accepted uploads."""
    return coordinator.execute(smoke_descriptor(), iter(expand(preset("smoke"))), stop)


def register(coordinator, worker_id="w1") -> dict:
    return coordinator.register(
        {
            "protocol": DIST_PROTOCOL_VERSION,
            "worker_id": worker_id,
            "capabilities": ["sweep-preset"],
        }
    )


def completion(worker_id: str, index: int, result: dict | None = None) -> dict:
    result = {"cell": index, "ok": True} if result is None else result
    return {
        "worker_id": worker_id,
        "result": result,
        "result_sha256": result_sha256(result),
        "elapsed_s": 0.1,
    }


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def coordinator(clock):
    return make_coordinator(clock)


class TestHandshake:
    def test_descriptor_names_version_and_schemas(self):
        document = protocol_descriptor()
        assert document["protocol"] == DIST_PROTOCOL_VERSION
        assert "sweep-preset" in document["capabilities"]
        assert "register_request" in document["schemas"]

    def test_register_returns_lease_and_heartbeat_config(self, coordinator):
        response = validate_message("register_response", register(coordinator, "w1"))
        assert response["protocol"] == DIST_PROTOCOL_VERSION
        assert response["worker_id"] == "w1"
        # Leases have no lifetime of their own: the heartbeat interval is
        # the one liveness setting a worker is told.
        assert sorted(response) == [
            "capabilities",
            "heartbeat_interval_s",
            "protocol",
            "worker_id",
        ]
        assert response["heartbeat_interval_s"] == 10.0

    def test_advised_heartbeat_interval_is_a_third_of_the_timeout(self, clock):
        for timeout in (4.0, 15.0):
            coordinator = make_coordinator(clock, heartbeat_timeout_s=timeout)
            assert register(coordinator)["heartbeat_interval_s"] == timeout / 3

    def test_protocol_mismatch_is_structured_409(self, coordinator):
        assert DIST_PROTOCOL_VERSION == 2
        for got in (1, 999):  # the version before, and one never issued
            with pytest.raises(ProtocolError) as caught:
                coordinator.register(
                    {"protocol": got, "worker_id": "w1", "capabilities": []}
                )
            error = caught.value
            assert error.status == 409
            assert error.code == "protocol-mismatch"
            assert error.document() == {
                "code": "protocol-mismatch",
                "expected": 2,
                "got": got,
            }

    def test_unknown_capability_rejected(self):
        with pytest.raises(ProtocolError) as caught:
            check_protocol(
                {
                    "protocol": DIST_PROTOCOL_VERSION,
                    "worker_id": "w1",
                    "capabilities": ["teleport"],
                }
            )
        assert caught.value.status == 409
        assert caught.value.code == "unknown-capability"

    def test_draining_coordinator_admits_nobody(self, coordinator):
        coordinator.drain()
        with pytest.raises(ProtocolError) as caught:
            register(coordinator, "late")
        assert caught.value.status == 503
        assert caught.value.code == "draining"

    def test_invalid_message_lists_schema_violations(self):
        with pytest.raises(ProtocolError) as caught:
            validate_message("register_request", {"protocol": "one"})
        assert caught.value.code == "invalid-message"
        assert "worker_id" in str(caught.value)


class TestSpecResolution:
    def test_descriptor_round_trips_to_the_preset_spec(self):
        spec = resolve_spec(smoke_descriptor())
        assert spec.name == "smoke"

    def test_fingerprint_drift_is_refused(self):
        descriptor = dict(smoke_descriptor(), spec_fingerprint="drifted")
        with pytest.raises(ProtocolError) as caught:
            resolve_spec(descriptor)
        assert caught.value.status == 409
        assert caught.value.code == "spec-mismatch"

    def test_unknown_preset_and_kind_are_400s(self):
        bad_preset = dict(smoke_descriptor(), preset="nope")
        with pytest.raises(ProtocolError) as caught:
            resolve_spec(bad_preset)
        assert caught.value.code == "unknown-preset"
        bad_kind = dict(smoke_descriptor(), spec_kind="teleport")
        with pytest.raises(ProtocolError) as caught:
            resolve_spec(bad_kind)
        assert caught.value.code == "unknown-capability"

    def test_result_hash_ignores_key_order(self):
        assert result_sha256({"a": 1, "b": [1.5, 2]}) == result_sha256(
            {"b": [1.5, 2], "a": 1}
        )


class TestLeaseLifecycle:
    def test_cells_dispatch_in_index_order_then_idle(self, coordinator):
        register(coordinator, "w1")
        run = start(coordinator)
        seen = []
        while True:
            lease = coordinator.acquire("w1")
            if lease["lease_id"] is None:
                break
            seen.append(lease["cell"]["index"])
            assert lease["task_id"] == sweep_id(preset("smoke"))
            assert lease["task"]["preset"] == "smoke"
            coordinator.complete(
                lease["lease_id"], "w1", completion("w1", lease["cell"]["index"])
            )
        assert seen == [0, 1, 2, 3]
        settled = [(cell.index, result) for cell, result, _ in run]
        assert settled == [(index, {"cell": index, "ok": True}) for index in seen]
        # every cell is in, so the execution is over
        assert coordinator.status()["tasks"] == []

    def test_acquire_without_work_is_idle_not_error(self, coordinator):
        register(coordinator, "w1")
        lease = validate_message("lease_response", coordinator.acquire("w1"))
        assert lease["lease_id"] is None
        assert lease["retry_after_s"] > 0

    def test_unregistered_worker_is_told_to_register(self, coordinator):
        with pytest.raises(ProtocolError) as caught:
            coordinator.acquire("ghost")
        assert caught.value.status == 404
        assert caught.value.code == "unknown-worker"

    def test_one_execution_per_sweep_id(self, coordinator):
        register(coordinator, "w1")
        first = start(coordinator)
        lease = coordinator.acquire("w1")
        pulled = []

        def second_ledger_pass():
            pulled.append(True)
            yield from expand(preset("smoke"))

        # A second execution of the same sweep waits — here it is told
        # to stop at once — without pulling a cell: run_sweep's ledger
        # pass (a reset, with resume=False) never runs beside the first.
        gave_up = coordinator.execute(
            smoke_descriptor(), second_ledger_pass(), lambda: True
        )
        assert list(gave_up) == [] and pulled == []
        assert len(coordinator.status()["tasks"]) == 1
        # the first execution's lease state is untouched
        coordinator.complete(
            lease["lease_id"], "w1", completion("w1", lease["cell"]["index"])
        )
        cell, _, _ = next(first)
        assert cell.index == lease["cell"]["index"]

        # A waiting execution proceeds once the first one ends.
        stopping = threading.Event()
        with ThreadPoolExecutor(1) as pool:
            waiting = pool.submit(
                coordinator.execute,
                smoke_descriptor(),
                second_ledger_pass(),
                stopping.is_set,
            )
            time.sleep(0.1)
            assert not waiting.done() and pulled == []
            first.close()
            second = waiting.result(timeout=10)
        assert pulled == [True]
        assert coordinator.acquire("w1")["cell"]["index"] == 0
        stopping.set()
        assert list(second) == []
        assert coordinator.status()["tasks"] == []

    def test_fail_requeues_the_cell_first(self, coordinator):
        register(coordinator, "w1")
        start(coordinator)
        lease = coordinator.acquire("w1")
        index = lease["cell"]["index"]
        coordinator.fail(lease["lease_id"], "w1", "spec drift")
        assert coordinator.acquire("w1")["cell"]["index"] == index

    def test_drain_stops_granting_but_reports_it(self, coordinator):
        register(coordinator, "w1")
        start(coordinator)
        coordinator.drain()
        lease = coordinator.acquire("w1")
        assert lease["lease_id"] is None
        assert lease["draining"] is True

    def test_stop_withdraws_pending_cells_and_leases(self, coordinator):
        register(coordinator, "w1")
        stopping = threading.Event()
        run = start(coordinator, stop=stopping.is_set)
        lease = coordinator.acquire("w1")
        stopping.set()
        assert list(run) == []
        status = coordinator.status()
        assert status["tasks"] == [] and status["leases"] == 0
        assert coordinator.acquire("w1")["lease_id"] is None
        # the withdrawn lease's upload is stale, never accepted
        with pytest.raises(ProtocolError) as caught:
            coordinator.complete(
                lease["lease_id"], "w1", completion("w1", lease["cell"]["index"])
            )
        assert caught.value.code == "stale-lease"


class TestFailureModel:
    def test_expired_lease_redispatches_same_cell(self, coordinator, clock):
        register(coordinator, "w1")
        register(coordinator, "w2")
        start(coordinator)
        first = coordinator.acquire("w1")
        clock.advance(29.0)  # w1 silent, but within the 30 s timeout
        coordinator.heartbeat("w2")
        other = coordinator.acquire("w2")
        assert other["cell"]["index"] != first["cell"]["index"]
        coordinator.complete(
            other["lease_id"], "w2", completion("w2", other["cell"]["index"])
        )
        clock.advance(2.0)  # past it: evicting w1 expires its lease
        retry = coordinator.acquire("w2")
        assert retry["cell"]["index"] == first["cell"]["index"]
        assert retry["lease_id"] != first["lease_id"]

    def test_stale_completion_is_rejected_and_result_kept_once(
        self, coordinator, clock
    ):
        register(coordinator, "w1")
        register(coordinator, "w2")
        run = start(coordinator)
        dead = coordinator.acquire("w1")
        index = dead["cell"]["index"]
        clock.advance(20.0)
        coordinator.heartbeat("w2")
        clock.advance(11.0)  # w1 is 31 s silent: evicted, its lease expired
        live = coordinator.acquire("w2")
        coordinator.complete(live["lease_id"], "w2", completion("w2", index))
        with pytest.raises(ProtocolError) as caught:
            coordinator.complete(dead["lease_id"], "w1", completion("w1", index))
        assert caught.value.status == 409
        assert caught.value.code == "stale-lease"
        cell, result, _ = next(run)
        assert cell.index == index and result == {"cell": index, "ok": True}
        assert coordinator.status()["tasks"][0]["n_done"] == 1

    def test_heartbeats_alone_keep_a_long_cell_leased(self, coordinator, clock):
        """A live worker keeps its lease however long its cell takes."""
        interval = register(coordinator, "w1")["heartbeat_interval_s"]
        register(coordinator, "w2")
        run = start(coordinator)
        lease = coordinator.acquire("w1")
        index = lease["cell"]["index"]
        beats = 0
        while beats * interval <= 10 * coordinator.heartbeat_timeout_s:
            clock.advance(interval)
            beats += 1
            coordinator.heartbeat("w1")
            coordinator.heartbeat("w2")
            granted = coordinator.acquire("w2")  # takes every other cell
            if granted["lease_id"] is not None:
                other = granted["cell"]["index"]
                assert other != index
                coordinator.complete(
                    granted["lease_id"], "w2", completion("w2", other)
                )
        coordinator.complete(lease["lease_id"], "w1", completion("w1", index))
        settled = {cell.index: result for cell, result, _ in run}
        assert sorted(settled) == [0, 1, 2, 3]
        assert settled[index] == {"cell": index, "ok": True}

    def test_reregistration_requeues_the_earlier_incarnations_lease(
        self, coordinator, clock
    ):
        """A worker killed mid-cell and restarted under its stable id
        before the timeout: its old lease must not outlive the process."""
        register(coordinator, "w1")
        register(coordinator, "w2")
        run = start(coordinator)
        lost = coordinator.acquire("w1")
        index = lost["cell"]["index"]
        clock.advance(1.0)  # far inside the 30 s timeout: no eviction
        register(coordinator, "w1")
        retry = coordinator.acquire("w2")
        assert retry["cell"]["index"] == index
        coordinator.complete(retry["lease_id"], "w2", completion("w2", index))
        with pytest.raises(ProtocolError) as caught:
            coordinator.complete(lost["lease_id"], "w1", completion("w1", index))
        assert caught.value.code == "stale-lease"
        cell, result, _ = next(run)
        assert cell.index == index and result == {"cell": index, "ok": True}

    def test_repeated_acquire_requeues_the_unanswered_lease(self, coordinator):
        """A lease answer lost on the wire, and the request retried: the
        first lease must not stay leased under a live worker."""
        register(coordinator, "w1")
        run = start(coordinator)
        lost = coordinator.acquire("w1")
        index = lost["cell"]["index"]
        retry = coordinator.acquire("w1")
        assert retry["cell"]["index"] == index
        assert retry["lease_id"] != lost["lease_id"]
        assert coordinator.status()["leases"] == 1
        coordinator.complete(retry["lease_id"], "w1", completion("w1", index))
        cell, result, _ = next(run)
        assert cell.index == index and result == {"cell": index, "ok": True}

    def test_silent_worker_is_evicted_and_leases_requeued(
        self, coordinator, clock
    ):
        register(coordinator, "w1")
        register(coordinator, "w2")
        start(coordinator)
        lost = coordinator.acquire("w1")
        clock.advance(20.0)
        coordinator.heartbeat("w2")  # w2 stays live; w1 goes silent
        clock.advance(11.0)  # w1 is now 31 s silent, past the 30 s timeout
        retry = coordinator.acquire("w2")  # tick() evicts w1 first
        assert retry["cell"]["index"] == lost["cell"]["index"]
        with pytest.raises(ProtocolError) as caught:
            coordinator.heartbeat("w1")
        assert caught.value.code == "unknown-worker"
        # the worker's recovery path: register again, keep pulling work
        register(coordinator, "w1")
        assert coordinator.acquire("w1")["lease_id"] is not None

    def test_hash_mismatch_requeues_and_never_merges(self, coordinator):
        register(coordinator, "w1")
        run = start(coordinator)
        lease = coordinator.acquire("w1")
        index = lease["cell"]["index"]
        corrupt = completion("w1", index)
        corrupt["result_sha256"] = "0" * 64
        with pytest.raises(ProtocolError) as caught:
            coordinator.complete(lease["lease_id"], "w1", corrupt)
        assert caught.value.status == 400
        assert caught.value.code == "result-hash-mismatch"
        assert coordinator.status()["tasks"][0]["n_done"] == 0
        retry = coordinator.acquire("w1")
        assert retry["cell"]["index"] == index
        coordinator.complete(retry["lease_id"], "w1", completion("w1", index))
        cell, result, _ = next(run)
        assert cell.index == index and result == {"cell": index, "ok": True}

    def test_deregister_requeues_in_flight_work(self, coordinator):
        register(coordinator, "w1")
        register(coordinator, "w2")
        start(coordinator)
        lease = coordinator.acquire("w1")
        farewell = coordinator.deregister("w1")
        assert farewell["worker_id"] == "w1"
        assert coordinator.acquire("w2")["cell"]["index"] == lease["cell"]["index"]


class TestConcurrency:
    def test_racing_workers_settle_each_cell_exactly_once(self, coordinator):
        """Eight worker threads race one execution under a tiny switch
        interval; a lost update would drop or repeat a cell."""
        template = expand(preset("smoke"))[0]
        cells = [
            dataclasses.replace(template, index=index, cell_id=f"cell-{index}")
            for index in range(200)
        ]
        workers = [f"w{n}" for n in range(8)]
        for worker_id in workers:
            register(coordinator, worker_id)
        run = coordinator.execute(smoke_descriptor(), iter(cells), lambda: False)

        def work(worker_id):
            while (lease := coordinator.acquire(worker_id))["lease_id"] is not None:
                index = lease["cell"]["index"]
                coordinator.complete(
                    lease["lease_id"], worker_id, completion(worker_id, index)
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(workers) + 1) as pool:
                settled = pool.submit(lambda: [cell.index for cell, _, _ in run])
                for future in [pool.submit(work, w) for w in workers]:
                    future.result(timeout=60)
                indices = settled.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(indices) == list(range(200))
        status = coordinator.status()
        assert sum(worker["completed"] for worker in status["workers"]) == 200
        assert status["tasks"] == [] and status["leases"] == 0


@pytest.fixture(scope="module")
def smoke_results() -> dict[int, dict]:
    """Real cell payloads, so ``run_sweep`` can build its report."""
    return {cell.index: run_cell(cell).to_dict() for cell in expand(preset("smoke"))}


def lease_when_queued(coordinator, worker_id: str) -> dict:
    """Acquire once ``run_sweep`` (on another thread) has queued cells."""
    deadline = time.monotonic() + 30
    while (lease := coordinator.acquire(worker_id))["lease_id"] is None:
        assert time.monotonic() < deadline, "run_sweep never queued a cell"
        time.sleep(0.01)
    return lease


class TestResume:
    def test_ledger_cells_count_as_hits_not_work(
        self, tmp_path, clock, smoke_results
    ):
        spec = preset("smoke")
        ledger = SweepLedger(spec, root=tmp_path)

        def sweep(coordinator, should_stop=None):
            return run_sweep(
                SweepLedger(spec, root=tmp_path),
                should_stop=should_stop,
                executor=partial(coordinator.execute, smoke_descriptor()),
            )

        def upload(coordinator, lease):
            index = lease["cell"]["index"]
            coordinator.complete(
                lease["lease_id"], "w1", completion("w1", index, smoke_results[index])
            )
            return index

        # The first coordinator gets two cells into the ledger, then its
        # job stops (as if the daemon died).
        first = make_coordinator(clock)
        register(first, "w1")
        stopping = threading.Event()
        with ThreadPoolExecutor(1) as pool:
            running = pool.submit(sweep, first, stopping.is_set)
            for _ in range(2):
                upload(first, lease_when_queued(first, "w1"))
            deadline = time.monotonic() + 30
            while len(ledger.read().cells) < 2:
                assert time.monotonic() < deadline, "uploads never reached the ledger"
                time.sleep(0.01)
            stopping.set()
            stopped = running.result(timeout=30)
        assert stopped.stopped and stopped.executed == [0, 1]

        # A fresh coordinator over the same ledger leases only the rest.
        second = make_coordinator(clock)
        register(second, "w1")
        with ThreadPoolExecutor(1) as pool:
            running = pool.submit(sweep, second)
            leased = [upload(second, lease_when_queued(second, "w1")) for _ in range(2)]
            resumed = running.result(timeout=30)
        assert leased == [2, 3]
        assert resumed.ledger_hits == [0, 1]
        assert resumed.executed == [2, 3]
        assert resumed.report.complete
        serial = run_sweep(SweepLedger(spec, root=tmp_path / "serial"))
        assert resumed.report.render() == serial.report.render()
