"""A ``ddoscovery serve`` subprocess for tests that signal a real daemon.

Drain and restart tests cannot run the daemon in-process: they send it
SIGTERM or SIGKILL.  :class:`CliDaemon` starts ``python -m repro.cli
serve --port 0 ...`` in its own process group with stderr in a file,
waits for the port announcement, speaks JSON over ``http.client``, and
kills the whole group on exit, so no pool worker outlives a test.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import repro

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

#: Job states after which a job never changes again.
FINAL = ("done", "failed", "cancelled", "timeout")


class CliDaemon:
    """One daemon subprocess; use as a context manager."""

    def __init__(self, log_path: Path, *args: str) -> None:
        self.log_path = log_path
        with open(log_path, "w", encoding="utf-8") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0", *args],
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=log,
                env=dict(os.environ, PYTHONPATH=SRC_DIR),
                start_new_session=True,
            )
        self.port = self._announced(deadline=time.monotonic() + 60)

    def __enter__(self) -> "CliDaemon":
        return self

    def __exit__(self, *exc) -> None:
        self.kill()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def log(self) -> str:
        return self.log_path.read_text(encoding="utf-8")

    def _announced(self, deadline: float) -> int:
        while time.monotonic() < deadline:
            match = re.search(r"listening on http://[\d.]+:(\d+)", self.log())
            if match:
                return int(match.group(1))
            if self.process.poll() is not None:
                break
            time.sleep(0.02)
        self.kill()
        raise AssertionError(f"daemon did not announce a port: {self.log()[-400:]}")

    def request(self, method: str, path: str, body: dict | None = None) -> tuple[int, bytes]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            payload = None if body is None else json.dumps(body)
            connection.request(method, path, body=payload)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def submit(self, body: dict) -> str:
        status, raw = self.request("POST", "/v1/jobs", body)
        assert status == 202, raw
        return json.loads(raw)["id"]

    def wait_for_job(self, job_id: str, timeout: float = 120.0) -> dict:
        deadline = time.monotonic() + timeout
        while True:
            document = json.loads(self.request("GET", f"/v1/jobs/{job_id}")[1])
            if document["status"] in FINAL:
                return document
            if time.monotonic() > deadline:
                raise AssertionError(
                    f"job {job_id} still {document['status']} after {timeout:g}s"
                )
            time.sleep(0.05)

    def kill(self) -> None:
        """SIGKILL the whole process group (idempotent)."""
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
