"""The ``service-campaigns`` workload: a closed loop of HTTP clients.

The benchmark spawns ``repro serve --workers 2 --serve 127.0.0.1:0`` and
runs :data:`CLIENTS` clients in lockstep until the run's seconds are up.
In each step every client submits a small campaign (:data:`CAMPAIGN`,
seed derived from the workload seed) and polls its status every
:data:`POLL_S` seconds, as ``repro submit --wait`` does, until it
finishes; the next step starts when all have.  A campaign's latency is
its submit round trip plus the server's own ``finished_at - created_at``,
so the poll interval does not quantize it.
The server is the process doing the work: its peak RSS is
``peak_rss_mb`` and spawn-until-``/readyz``-answers-200 is ``setup_s``.

Nothing here imports ``repro`` at module level: the campaign template is
also read by the fuzz worker, which replays the campaigns' jobs.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
import urllib.error
import urllib.request
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import catalog
from calibrate import Calibration

#: the campaign every client submits (2 rounds x 2 shards per tool).
CAMPAIGN = {
    "targets": ["gadgets"],
    "tools": ["teapot", "specfuzz"],
    "variants": ["vanilla"],
    "iterations": 200,
    "rounds": 2,
    "shards": 2,
    "engine": "jit",
}
CLIENTS = 2
WORKERS = 2
#: server spawns per run; ``setup_s`` is their median.
SETUP_REPEATS = 9
#: calibration samples in each gap between load steps.
CALIBRATE_PER_STEP = 3
#: the poll interval of ``repro submit --wait``.
POLL_S = 0.5
HTTP_TIMEOUT_S = 30.0
TERMINAL = ("completed", "failed", "cancelled")


def campaign_spec(seed: int, index: int) -> Dict[str, object]:
    """Campaign ``index`` of the run seeded ``seed`` (a CampaignSpec dict)."""
    digest = hashlib.sha256(f"service|{seed}|{index}".encode()).digest()
    return dict(CAMPAIGN, seed=int.from_bytes(digest[:4], "big"))


def http(url: str, payload: Optional[Dict] = None) -> Tuple[int, object]:
    """(status code, parsed JSON or text body) of one request."""
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=HTTP_TIMEOUT_S) as reply:
            code, body = reply.status, reply.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        code, body = error.code, error.read().decode("utf-8", "replace")
    try:
        return code, json.loads(body)
    except ValueError:
        return code, body


class Server:
    """One ``repro serve`` process with a private root and jit cache."""

    def __init__(self, work: str, name: str, env: Dict[str, str]) -> None:
        self.root = os.path.join(work, name)
        os.makedirs(self.root)
        self.log_path = os.path.join(work, f"{name}.stderr")
        # glibc gives each allocating thread its own malloc arena, so the
        # peak RSS depended on which worker thread happened to compile
        # jit blocks first (162-255 MB over five runs); with one arena it
        # is a property of the program (160-165 MB).
        env = dict(env, REPRO_JIT_CACHE=os.path.join(work, f"{name}-jit"),
                   MALLOC_ARENA_MAX="1")
        self.started = time.perf_counter()
        with open(self.log_path, "w", encoding="utf-8") as log:
            # SIGINT is the server's graceful stop; a benchmark started in
            # the background inherits it ignored, so restore the default.
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--dir", self.root,
                 "--workers", str(WORKERS), "--serve", "127.0.0.1:0"],
                env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log,
                preexec_fn=lambda: signal.signal(signal.SIGINT,
                                                 signal.SIG_DFL))
        self.url = ""

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Seconds from spawn until ``/readyz`` answers 200."""
        deadline = self.started + timeout
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                break
            if not self.url:
                with open(self.log_path, "r", encoding="utf-8") as log:
                    found = re.search(r"service on (http://\S+)", log.read())
                if found:
                    self.url = found.group(1)
            if self.url:
                try:
                    if http(self.url + "/readyz")[0] == 200:
                        return time.perf_counter() - self.started
                except OSError:
                    pass
            time.sleep(0.005)
        raise RuntimeError(f"service did not become ready: "
                           f"{open(self.log_path, encoding='utf-8').read()}")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="utf-8") as f:
            found = re.search(r"VmHWM:\s+(\d+)\s+kB", f.read())
        return int(found.group(1)) / 1024.0

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
        self.process.wait()


class Load:
    """Closed-loop clients in lockstep: one campaign in flight per client.

    Free-running clients that learn of completion only every
    :data:`POLL_S` seconds fall into a fixed phase: whether their
    campaigns overlap, and so how long they take, was set by the first
    few campaigns of a run (p50 0.62-0.85 s over five runs).  In
    lockstep every campaign runs beside the others of its step.
    Submissions go one at a time: the server allocates a campaign's run
    directory with an unlocked exists-then-create check on a per-second
    name, so two concurrent submits can share a directory and one
    answers 500.
    """

    def __init__(self, url: str, seed: int) -> None:
        self.url = url
        self.seed = seed
        self.next_index = 0
        self.campaigns: List[Dict[str, object]] = []
        self.submit_ms: List[float] = []
        self.status_ms: List[float] = []
        self.errors: List[str] = []

    def step(self) -> None:
        """Submit one campaign per client and poll each until it ends."""
        pending: Dict[str, float] = {}
        for _ in range(CLIENTS):
            index = self.next_index
            self.next_index += 1
            start = time.perf_counter()
            code, body = http(self.url + "/v1/campaigns",
                              {"spec": campaign_spec(self.seed, index)})
            submit_s = time.perf_counter() - start
            if code != 202:
                self.errors.append(f"submit {index} answered {code}: {body}")
                continue
            self.submit_ms.append(1000.0 * submit_s)
            pending[body["campaign_id"]] = submit_s
        while pending:
            time.sleep(POLL_S)
            for campaign_id in list(pending):
                asked = time.perf_counter()
                code, status = http(f"{self.url}/v1/campaigns/{campaign_id}")
                self.status_ms.append(1000.0 * (time.perf_counter() - asked))
                if code != 200:
                    self.errors.append(f"status of {campaign_id} answered "
                                       f"{code}")
                    del pending[campaign_id]
                elif status["status"] in TERMINAL:
                    self.campaigns.append({
                        "submit_s": pending.pop(campaign_id),
                        "status": status})


def scrape(url: str) -> Dict[str, float]:
    """Unlabelled samples of the server's Prometheus ``/metrics``."""
    code, text = http(url + "/metrics")
    if code != 200:
        raise RuntimeError(f"/metrics answered {code}")
    samples = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and not line.startswith("#"):
            samples[parts[0]] = float(parts[1])
    return samples


def latency_s(campaign: Dict[str, object]) -> float:
    """Submit round trip plus the server's created-to-finished time."""
    status = campaign["status"]
    return (campaign["submit_s"]
            + float(status["finished_at"]) - float(status["created_at"]))


def busy_s(statuses: Sequence[Dict[str, object]]) -> float:
    """Server seconds with at least one of these campaigns in flight.

    The union of their ``[created_at, finished_at]`` intervals: the time
    the clients wait out a poll interval with nothing queued is left out.
    """
    total, end = 0.0, float("-inf")
    for first, last in sorted((float(s["created_at"]), float(s["finished_at"]))
                              for s in statuses):
        if last > end:
            total += last - max(first, end)
            end = last
    return total


def lifecycle(root: str) -> Dict[str, List[float]]:
    """Per-job queue wait, execution and ingest lag from the run traces."""
    out: Dict[str, List[float]] = {"queue_wait_s": [], "exec_s": [],
                                   "ingest_lag_s": []}
    pattern = os.path.join(root, "**", "trace.jsonl")
    for path in glob.glob(pattern, recursive=True):
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                if '"job_lifecycle"' not in line:
                    continue
                record = json.loads(line)
                for key, values in out.items():
                    value = record.get(key)
                    if value is None:
                        value = record.get("fields", {}).get(key)
                    if isinstance(value, (int, float)):
                        values.append(float(value))
    return out


def run(seed: int, seconds: float, trace: bool, work: str,
        env: Dict[str, str], replay: Callable[[], Dict]) -> Dict:
    """One service run; ``replay`` runs the traced in-process job replay."""
    import fuzzwork
    import gates
    from repro.campaign.worker import compiled_binary, instrumented_binary

    servers = []
    ready: List[float] = []
    calibration = Calibration()
    try:
        for index in range(SETUP_REPEATS):
            calibration.sample()
            servers.append(Server(work, f"service-{index}", env))
            ready.append(servers[-1].wait_ready())
            if index + 1 < SETUP_REPEATS:
                servers[-1].stop()
        server = servers[-1]
        load = Load(server.url, seed)
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            try:
                load.step()
            except OSError as error:
                load.errors.append(f"step {load.next_index // CLIENTS}: "
                                   f"{error}")
            # Between steps the server is idle.  Calibration runs only
            # then: beside busy server threads it would measure their CPU
            # use along with the host's speed.
            for _ in range(CALIBRATE_PER_STEP):
                calibration.sample()
        samples = scrape(server.url)
        _, fleet = http(server.url + "/v1/fleet")
        peak = server.peak_rss_mb()
        regions = gates.sample_regions(compiled_binary("gadgets", "vanilla"))
        binaries = {tool: instrumented_binary("gadgets", tool, "vanilla")
                    for tool in CAMPAIGN["tools"]}
        problems = list(load.errors)
        executions = 0
        for campaign in load.campaigns:
            status = campaign["status"]
            code, reports = http(f"{server.url}/v1/campaigns/"
                                 f"{status['campaign_id']}/reports")
            if code != 200:
                problems.append(f"reports of {status['campaign_id']} "
                                f"answered {code}")
                continue
            problems += gates.campaign_problems(
                status, reports["groups"],
                lambda tool: gates.SampleOracle(regions, binaries[tool]))
            executions += sum(int(group["executions"]) for group in
                              (status.get("summary") or {}).get("groups", []))
    finally:
        for server in servers:
            server.stop()
    completed = [c for c in load.campaigns
                 if c["status"]["status"] == "completed"]
    if not completed:
        raise RuntimeError(f"no campaign completed: {problems[:3]}")
    attempted = load.next_index
    failed = attempted - len(completed)
    latencies = [latency_s(c) for c in completed]
    if not trace:
        values = {
            "exec_per_s": executions / busy_s([c["status"]
                                               for c in completed]),
            "campaign_p50_s": catalog.percentile(latencies, 0.50),
            "campaign_p75_s": catalog.percentile(latencies, 0.75),
            "setup_s": statistics.median(ready),
            "peak_rss_mb": peak,
            "sim_overhead_x": fuzzwork.sim_overhead_x(
                "gadgets", compiled_binary("gadgets", "vanilla"),
                fuzzwork.TeapotConfig()),
        }
        return {"values": catalog.to_reference(values, calibration.scale),
                "attempted": attempted, "failed": failed,
                "problems": problems,
                "detail": {"campaigns": len(completed), "host_values": values,
                           "reference_scale": calibration.scale}}
    outcome = replay()
    jobs = [c["status"]["jobs_total"] for c in completed]
    timings = lifecycle(server.root)
    utilization = [float(worker["utilization"])
                   for worker in fleet["workers"]]
    outcome["detail"].update(catalog.to_reference({
        "service.ready_s": statistics.median(ready),
        "service.submit_p50_ms": catalog.percentile(load.submit_ms, 0.5),
        "service.status_p50_ms": catalog.percentile(load.status_ms, 0.5),
        "service.queue_wait_p50_s":
            catalog.percentile(timings["queue_wait_s"], 0.5),
        "service.job_exec_p50_s": catalog.percentile(timings["exec_s"], 0.5),
        "service.ingest_lag_s": catalog.percentile(timings["ingest_lag_s"],
                                                   0.5),
        "service.worker_utilization": statistics.mean(utilization),
        "service.claims_per_job":
            samples["repro_service_queue_claims_total"]
            / samples["repro_service_queue_jobs_completed_total"],
        "service.failed_jobs": samples["repro_service_queue_failed"],
        "campaign.jobs_per_campaign": statistics.mean(jobs),
        "service.campaigns": len(completed),
    }, calibration.scale))
    outcome["attempted"] += attempted
    outcome["failed"] += failed
    outcome["problems"] += problems
    return outcome
