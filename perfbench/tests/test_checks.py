"""Each workload at its smallest size, and each correctness check biting.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

A workload run with no fault injected must finish with zero failed
operations; a flipped artifact byte, a golden mismatch and a revalidation
that does not return 304 must each count as a failed operation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import service_workload, study_workload  # noqa: E402
from perfbench.common import Run, host_cores  # noqa: E402
from perfbench.service_workload import ServiceWorkload  # noqa: E402
from perfbench.study_workload import StudyWorkload  # noqa: E402
from perfbench.whatif_workload import WhatifWorkload  # noqa: E402


@pytest.fixture(autouse=True)
def _scratch_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-root"))


def _study(tmp_path: Path, monkeypatch) -> tuple[StudyWorkload, Run]:
    # One config, so the second repetition repeats the first one's study.
    monkeypatch.setattr(study_workload, "CONFIGS", 1)
    run = Run("study", 0, False)
    workload = StudyWorkload(0, host_cores(), tmp_path / "work", run)
    workload.setup()
    return workload, run


def test_study_repetition_is_correct(tmp_path, monkeypatch):
    workload, run = _study(tmp_path, monkeypatch)
    workload.repetition()
    assert run.failed == 0, run.failures
    # Two studies compared against the first, plus the seed-0 golden.
    assert run.attempted == 3


def test_flipped_artifact_byte_fails(tmp_path, monkeypatch):
    import repro.core.artifacts as artifacts

    workload, run = _study(tmp_path, monkeypatch)
    workload.repetition()
    encode = artifacts.artifact_json_bytes

    def flipped(document):
        blob = bytearray(encode(document))
        blob[-2] ^= 0x01
        return bytes(blob)

    monkeypatch.setattr(artifacts, "artifact_json_bytes", flipped)
    workload.repetition()
    assert run.failed == 2, run.failures
    assert all("differ" in failure for failure in run.failures)


def test_golden_mismatch_fails(tmp_path, monkeypatch):
    golden = json.loads((ROOT / "tests" / "goldens" / "seed0-small.json").read_text())
    key = sorted(golden["fingerprints"])[0]
    golden["fingerprints"][key] = "0" * 64
    goldens = tmp_path / "goldens"
    goldens.mkdir()
    (goldens / "seed0-small.json").write_text(json.dumps(golden))
    monkeypatch.setenv("REPRO_GOLDEN_DIR", str(goldens))

    workload, run = _study(tmp_path, monkeypatch)
    workload.repetition()
    assert run.failed == 1
    assert "golden seed0-small mismatch" in run.failures[0]


def test_whatif_ensemble_is_correct(tmp_path):
    run = Run("whatif", 0, False)
    workload = WhatifWorkload(0, host_cores(), tmp_path / "work", run)
    workload.setup()
    times = workload.ensemble()
    assert run.failed == 0, run.failures
    assert min(times["cold"]) > max(times["warm"]) > 0


def _service(tmp_path: Path, monkeypatch) -> tuple[ServiceWorkload, Run]:
    monkeypatch.setattr(service_workload, "SETUPS", 1)
    run = Run("service", 0, False)
    workload = ServiceWorkload(0, host_cores(), tmp_path / "work", run)
    workload.setup()
    return workload, run


def test_service_iteration_is_correct(tmp_path, monkeypatch):
    workload, run = _service(tmp_path, monkeypatch)
    try:
        workload.measure(0.1)
    finally:
        workload.close()
    assert run.failed == 0, run.failures
    assert run.notes["job_p50_s"][2] >= 2
    assert run.metrics["warm_cpu_ms"][0] > 0


def test_revalidation_without_304_fails(tmp_path, monkeypatch):
    workload, run = _service(tmp_path, monkeypatch)
    request = service_workload.Daemon.request

    def stale_etag(self, method, path, body=None, headers=None):
        if headers and "If-None-Match" in headers:
            headers = {"If-None-Match": '"stale"'}
        return request(self, method, path, body, headers)

    monkeypatch.setattr(service_workload.Daemon, "request", stale_etag)
    try:
        workload.session(None, None)
    finally:
        workload.close()
    revalidations = service_workload.CLIENTS * service_workload.SESSION_ITERATIONS
    revalidations *= len(service_workload.ARTIFACTS) * service_workload.FETCHES
    assert run.failed == revalidations
    assert all("revalidation" in failure for failure in run.failures)
