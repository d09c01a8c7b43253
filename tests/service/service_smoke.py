"""End-to-end process-level smoke for ``python -m repro serve``.

Run directly (CI does): ``python tests/service/service_smoke.py``.

Boots a real server subprocess on an ephemeral port and proves the
service's four acceptance properties against it:

1. **Coalescing** — N concurrent identical submissions yield one job id
   with exactly one non-coalesced response, and the job's run profile
   shows ``engine.runs == 1`` (one engine execution, counted by the
   engine itself, not the service).
2. **Event streaming** — the ndjson stream of ``/v1/jobs/{id}/events``
   equals the on-disk ``events.jsonl`` line for line.
3. **Differential** — the service's stored result is bit-identical to a
   direct in-process ``run_suite`` serialization.
4. **Drain + resume** — SIGTERM mid-run persists the job as
   interrupted; a restarted server (same state dir) re-queues it, the
   engine journal skips completed workloads (``resumed`` non-empty),
   and an identical resubmission coalesces onto the recovered job.

Exit code 0 on success.  On failure the state dir (``--state-dir`` or
``$SMOKE_STATE_DIR``) holds the server logs and every events.jsonl —
CI uploads it as an artifact.
"""

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import threading
import time

REPO = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "src"))

from repro.core import run_suite  # noqa: E402
from repro.core.config import LAPTOP_SCALE  # noqa: E402
from repro.core.serialize import suite_run_report_to_dict  # noqa: E402
from repro.gpu.device import device_by_name  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.workloads import list_workloads  # noqa: E402

FAST_REQUEST = {"workloads": ["DCG", "NST"], "device": "RTX 3080"}
FULL_REQUEST = {"suites": ["Cactus"], "device": "RTX 3080"}


def log(message: str) -> None:
    print(f"[smoke] {message}", flush=True)


def fail(message: str) -> "None":
    print(f"[smoke] FAIL: {message}", file=sys.stderr, flush=True)
    raise SystemExit(1)


def start_server(state_dir: pathlib.Path, log_name: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env.pop("REPRO_TRACE_DIR", None)  # per-job traces only
    log_file = open(state_dir / log_name, "w", encoding="utf-8")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--state-dir", str(state_dir),
            "--port", "0",
            "--workers", "1",
            "--drain-grace", "0",
            "--quota-burst", "256",
            "--quota-rate", "256",
        ],
        stdout=log_file,
        stderr=subprocess.STDOUT,
        env=env,
        cwd=str(REPO),
    )
    return process


def wait_for_server(
    state_dir: pathlib.Path, process: subprocess.Popen, timeout_s: float = 30
) -> ServiceClient:
    discovery = state_dir / "server.json"
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if process.poll() is not None:
            fail(f"server exited early with code {process.returncode}")
        if discovery.exists():
            try:
                client = ServiceClient.from_state_dir(
                    state_dir, client_id="smoke"
                )
                if client.healthz()["status"] == "ok":
                    return client
            except Exception:
                pass
        time.sleep(0.05)
    fail("server did not become healthy in time")
    raise AssertionError  # unreachable


def stop_server(process: subprocess.Popen, timeout_s: float = 30) -> int:
    process.send_signal(signal.SIGTERM)
    try:
        return process.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        process.kill()
        fail("server did not drain after SIGTERM")
        raise AssertionError  # unreachable


def phase_coalescing(client: ServiceClient) -> str:
    n = 6
    responses = []
    lock = threading.Lock()

    def post() -> None:
        response = client.submit(FAST_REQUEST)
        with lock:
            responses.append(response)

    threads = [threading.Thread(target=post) for _ in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    ids = {r["id"] for r in responses}
    admitted = sum(1 for r in responses if not r["coalesced"])
    if len(ids) != 1:
        fail(f"{n} identical submissions produced {len(ids)} job ids")
    if admitted != 1:
        fail(f"expected exactly 1 non-coalesced response, got {admitted}")
    job_id = ids.pop()

    final = client.wait(job_id, timeout_s=120)
    if final["state"] != "done":
        fail(f"job finished {final['state']}: {final.get('error')}")
    engine_runs = final["result"]["run_profile"]["counters"].get(
        "engine.runs"
    )
    if engine_runs != 1.0:
        fail(f"run profile shows engine.runs={engine_runs}, want 1")
    health = client.healthz()
    if health["engine_runs"]["started"] != 1:
        fail(f"service counted {health['engine_runs']} engine runs")
    if health["coalesce"]["coalesced"] != n - 1:
        fail(f"coalesce counters wrong: {health['coalesce']}")
    log(
        f"coalescing OK: {n} submissions -> 1 job ({job_id[:12]}...), "
        "engine.runs=1"
    )
    return job_id


def phase_events(
    client: ServiceClient, state_dir: pathlib.Path, job_id: str
) -> None:
    streamed = client.events(job_id)
    events_path = (
        state_dir / "runs" / job_id[:32] / "trace" / "events.jsonl"
    )
    on_disk = [
        json.loads(line)
        for line in events_path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    if not streamed:
        fail("event stream was empty")
    if streamed != on_disk:
        fail(
            f"streamed {len(streamed)} events != {len(on_disk)} on disk "
            f"({events_path})"
        )
    log(f"event stream OK: {len(streamed)} events match {events_path}")


def phase_differential(client: ServiceClient, job_id: str) -> None:
    service_result = client.job(job_id)["result"]
    report = run_suite(
        ["Cactus"],
        preset=LAPTOP_SCALE,
        device=device_by_name("RTX 3080"),
        workloads=FAST_REQUEST["workloads"],
    )
    expected = suite_run_report_to_dict(report)
    if service_result["results"] != expected["results"]:
        fail("service result differs from direct run_suite")
    log("differential OK: service result bit-identical to run_suite")


def phase_drain_and_resume(
    state_dir: pathlib.Path, process: subprocess.Popen
) -> None:
    client = ServiceClient.from_state_dir(state_dir, client_id="smoke")
    accepted = client.submit(FULL_REQUEST)
    job_id = accepted["id"]
    journal_done = state_dir / "runs" / job_id[:32] / "journal" / "done"

    # Let the engine checkpoint some (not all) workloads, then SIGTERM.
    total = len(list_workloads("Cactus"))
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        done = len(list(journal_done.glob("*.json"))) if journal_done.exists() else 0
        if done >= 2:
            break
        time.sleep(0.02)
    else:
        fail("journal never checkpointed any workload")

    code = stop_server(process)
    if code != 0:
        fail(f"drained server exited {code}, want 0")
    job_file = state_dir / "jobs" / f"{job_id[:32]}.json"
    persisted = json.loads(job_file.read_text(encoding="utf-8"))
    if persisted["state"] == "done":
        # The run beat the SIGTERM — legal but the resume phase would
        # prove nothing; with laptop-scale Cactus this should not
        # happen (the suite takes seconds, the kill lands mid-run).
        fail("run finished before SIGTERM; cannot exercise resume")
    if persisted["state"] != "interrupted":
        fail(f"persisted state {persisted['state']!r}, want 'interrupted'")
    checkpointed = len(list(journal_done.glob("*.json")))
    log(
        f"drain OK: SIGTERM left job interrupted with "
        f"{checkpointed}/{total} workloads journaled"
    )

    # Restart on the same state dir: the job is re-queued and resumes.
    (state_dir / "server.json").unlink()
    restarted = start_server(state_dir, "server-restart.log")
    try:
        client = wait_for_server(state_dir, restarted)
        health = client.healthz()
        if job_id not in health["recovered"]:
            fail(f"restart did not recover the job: {health['recovered']}")
        # An identical submission while it is re-running must coalesce
        # onto the recovered job, not start a second engine run.
        again = client.submit(FULL_REQUEST)
        if again["id"] != job_id or not again["coalesced"]:
            fail(f"resubmission did not coalesce: {again['id'][:12]}...")
        final = client.wait(job_id, timeout_s=240)
        if final["state"] != "done":
            fail(f"recovered job finished {final['state']}")
        if not final["resumed"]:
            fail("recovered job did not resume from its journal")
        if len(final["resumed"]) < checkpointed:
            fail(
                f"resumed only {final['resumed']} despite "
                f"{checkpointed} checkpoints"
            )
        if set(final["result"]["results"]) != set(list_workloads("Cactus")):
            fail("resumed run is missing workloads")
        engine_runs = final["result"]["run_profile"]["counters"].get(
            "engine.runs"
        )
        if engine_runs != 1.0:
            fail(f"resumed run profile shows engine.runs={engine_runs}")
        log(
            f"resume OK: restart re-ran the job, skipped "
            f"{len(final['resumed'])} journaled workloads"
        )
    finally:
        if restarted.poll() is None:
            code = stop_server(restarted)
            if code != 0:
                fail(f"restarted server exited {code}, want 0")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--state-dir",
        default=os.environ.get("SMOKE_STATE_DIR"),
        help="service state dir (kept for CI artifacts; default: temp)",
    )
    args = parser.parse_args()
    state_dir = pathlib.Path(
        args.state_dir or tempfile.mkdtemp(prefix="repro-service-smoke-")
    )
    state_dir.mkdir(parents=True, exist_ok=True)
    log(f"state dir: {state_dir}")

    process = start_server(state_dir, "server.log")
    try:
        client = wait_for_server(state_dir, process)
        job_id = phase_coalescing(client)
        phase_events(client, state_dir, job_id)
        phase_differential(client, job_id)
        phase_drain_and_resume(state_dir, process)
    finally:
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
    log("all phases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
