"""The ``serve-mix`` workload: one closed-loop client against
``repro serve run`` running as its own process.

A round starts a server on an empty store and runs three phases, each
request waiting for the previous one's answer:

1. every campaign spec of the pool, cold: submit, then read the job
   stream to its ``done`` frame (the store is written with fsync);
2. every fuzz scenario, cold (obs monitors, sanitizer, fault plans);
3. two more server processes on the now-warm store, each answering every
   document again from the store as a ``cached`` hit.

Each submission is one operation.  One that the server does not answer
(an HTTP error or a broken connection) counts as failed, and its
document is left out of the later phases and the checks.

Hits need a fresh server: a server that ran a job answers a resubmission
from memory (``deduped``) without reading the store.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.campaign.executor import run_campaign
from repro.campaign.presets import get_preset
from repro.campaign.store import CampaignStore
from repro.fuzz import generate_scenario
from repro.serve.client import ClientError, ServeClient

from common import (
    REF_S_PER_ITERATION,
    ROOT,
    RefClock,
    Tally,
    check,
    child_env,
    peak_rss_mb_of,
)

N_CAMPAIGNS = 60
N_SCENARIOS = 16
#: Warm servers per round; each answers every document once.
HIT_SERVERS = 2
#: Requests between explicit reference samples.
SAMPLE_EVERY = 10
#: Fewest server bursts a round needs to be scaled by them.
MIN_ROUND_BURSTS = 10
SERVER_START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0


@dataclasses.dataclass
class Inputs:
    specs: List[Any]
    scenarios: List[Any]

    def docs(self) -> List[Dict[str, Any]]:
        return [{"kind": "campaign", "spec": s.to_dict()} for s in self.specs] + [
            {"kind": "scenario", "scenario": s.to_dict()} for s in self.scenarios
        ]


def make_inputs(seed: int) -> Inputs:
    """Smoke-shaped campaign specs and fuzz scenarios drawn from ``seed``.

    Scenarios are engine-kind on a 3x3 mesh with the preferred
    (single-run) variant: 85-200 ms each through the server.  The other
    shapes would make a round's cost follow the draw: 4x4 meshes and the
    differential variants cost 3-30x more, and SoC-kind scenarios
    270-450 ms with outliers (one of 16 drawn took 1.3 s, raising 58
    alerts).  The SoC and power paths are measured by ``soc-figures``.
    """
    rng = random.Random(seed)
    base = get_preset("smoke")
    seeds = rng.sample(range(1, 1_000_000), N_CAMPAIGNS)
    specs = [
        dataclasses.replace(base, name=f"bench-{i:02d}", base_seed=s)
        for i, s in enumerate(seeds)
    ]
    fuzz_seed = rng.randrange(1_000_000)
    index = rng.randrange(1_000_000)
    scenarios: List[Any] = []
    while len(scenarios) < N_SCENARIOS:
        scenario = generate_scenario(fuzz_seed, index, kind="engine")
        index += 1
        if scenario.engine.dim == 3 and scenario.variant == "preferred":
            scenarios.append(scenario)
    return Inputs(specs=specs, scenarios=scenarios)


# ------------------------------------------------------------------ servers
class Server:
    """One ``serve run`` process on ``store``, started through
    ``serve_launcher.py``: it times reference bursts into ``out`` while
    busy, or, when ``profile``, writes its profile there instead."""

    def __init__(self, store: Path, out: Path, profile: bool) -> None:
        self.out = out
        self.profile = profile
        launcher = str(Path(__file__).with_name("serve_launcher.py"))
        cmd = [
            sys.executable, launcher, "profile" if profile else "ref", str(out),
            "--host", "127.0.0.1", "--port", "0", "--store", str(store),
        ]
        self.errors = out.with_suffix(".stderr")
        self.start = time.perf_counter()
        with open(self.errors, "wb") as stderr:
            self.proc = subprocess.Popen(
                cmd,
                cwd=str(ROOT),
                env=child_env(),
                stdout=subprocess.PIPE,
                stderr=stderr,
                text=True,
            )
        self.port = 0
        self.peak_rss_mb = 0.0

    async def ready(self) -> float:
        """Wait until healthy; returns spawn-to-healthy raw seconds."""
        assert self.proc.stdout is not None
        line = await asyncio.wait_for(
            asyncio.get_running_loop().run_in_executor(
                None, self.proc.stdout.readline
            ),
            SERVER_START_TIMEOUT_S,
        )
        check(line.startswith("serving on http://"),
              f"server did not start: {line!r}")
        self.port = int(line.split()[2].rsplit(":", 1)[1])
        async with ServeClient("127.0.0.1", self.port) as client:
            check(await client.health(), "server not healthy")
        return time.perf_counter() - self.start

    def stop(self) -> None:
        """SIGINT, as at a terminal, then wait for the exit.  A server
        still running after ``STOP_TIMEOUT_S`` dumps its threads' stacks
        to its stderr file (SIGUSR1, see ``serve_launcher.py``), is
        killed, and fails the run."""
        if self.proc.poll() is None:
            self.peak_rss_mb = peak_rss_mb_of(self.proc.pid)
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.send_signal(signal.SIGUSR1)
            time.sleep(1.0)
            self.proc.kill()
            self.proc.wait()
            print(f"server {self.out.name} did not exit on SIGINT; its "
                  "stderr:\n" + self.errors.read_text(errors="replace")[-4000:],
                  file=sys.stderr)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        check(self.proc.returncode == 0,
              f"server exited with {self.proc.returncode}")

    def bursts(self) -> List[float]:
        """The reference bursts the server timed (none when profiled)."""
        if self.profile:
            return []
        return json.loads(self.out.read_text(encoding="utf-8"))


# ------------------------------------------------------------------- rounds
async def _cold(client: ServeClient, doc: Dict[str, Any]) -> Tuple[float, Dict, List]:
    start = time.perf_counter()
    response = await client.submit(doc)
    frames = await client.stream_job(response["job"])
    elapsed = time.perf_counter() - start
    check(response["outcome"] == "new",
          f"cold submission answered {response['outcome']!r}")
    done = frames[-1]
    check(done.get("type") == "done" and done.get("state") == "done",
          f"cold job ended {done!r}")
    return elapsed, done["result"], frames


async def run_round(
    inputs: Inputs, work: Path, tally: Tally, profile: bool = False
) -> Dict[str, Any]:
    """One round on a new store under ``work``; returns raw timings,
    outputs and what the checks need.

    The work runs in the servers, so they time the reference: bursts
    while busy (``serve_launcher.py``).  The client samples too, every
    ``SAMPLE_EVERY`` requests; its samples scale a profiled round, whose
    servers take no bursts.  (Bursts in the client do not work: it
    mostly sleeps on the server, and a burst just after a wake-up runs
    up to 3x slow.)
    """
    store = work / "store"
    clock = RefClock()
    docs = inputs.docs()
    setups: List[float] = []
    campaign_s: List[float] = []
    scenario_s: List[float] = []
    hit_s: List[float] = []
    failed: List[int] = []
    fingerprints: Dict[int, Any] = {}
    active = 0.0
    requests = 0
    outputs: List[Any] = []
    alerts: Dict[str, List[Dict[str, Any]]] = {}
    cached_units = 0
    reports: Dict[str, Any] = {}
    servers: List[Server] = []

    def new_server() -> Server:
        out = work / f"server{len(servers)}.{'prof' if profile else 'json'}"
        server = Server(store, out, profile)
        servers.append(server)
        return server

    try:
        clock.sample()
        server = new_server()
        setups.append(await server.ready())
        async with ServeClient("127.0.0.1", server.port) as client:
            for i, doc in enumerate(docs):
                if i and i % SAMPLE_EVERY == 0:
                    clock.sample()
                tally.attempted += 1
                try:
                    elapsed, result, frames = await _cold(client, doc)
                except (ClientError, OSError) as exc:
                    _failed(tally, i, exc)
                    failed.append(i)
                    continue
                requests += 2
                if doc["kind"] == "campaign":
                    campaign_s.append(elapsed)
                    check(result["executed"] == result["total"] > 0
                          and result["cached"] == 0,
                          f"cold campaign did not execute: {result}")
                    outputs.append(("campaign", result["spec_hash"],
                                    result["total"]))
                else:
                    scenario_s.append(elapsed)
                    fingerprints[i] = result["fingerprint"]
                    streamed = [f["alert"] for f in frames if f["type"] == "alert"]
                    alerts[result["scenario_hash"]] = streamed
                    outputs.append(("scenario", result["scenario_hash"],
                                    result["fingerprint"], result["alerts"],
                                    result["failures"]))
        server.stop()
        active += sum(campaign_s) + sum(scenario_s)
        for _ in range(HIT_SERVERS):
            clock.sample()
            server = new_server()
            setups.append(await server.ready())
            async with ServeClient("127.0.0.1", server.port) as client:
                for i, doc in enumerate(docs):
                    if i in failed:
                        continue
                    if i and i % (4 * SAMPLE_EVERY) == 0:
                        clock.sample()
                    tally.attempted += 1
                    try:
                        start = time.perf_counter()
                        response = await client.submit(doc)
                        elapsed = time.perf_counter() - start
                        job = await client.job(response["job"])
                    except (ClientError, OSError) as exc:
                        _failed(tally, i, exc)
                        continue
                    hit_s.append(elapsed)
                    requests += 1
                    check(response["outcome"] == "cached",
                          f"warm resubmission answered {response['outcome']!r}")
                    check(job["state"] == "cached", f"hit job is {job['state']!r}")
                    result = job["result"]
                    if doc["kind"] == "campaign":
                        check(result["executed"] == 0
                              and result["cached"] == result["total"],
                              f"hit executed units: {result}")
                        cached_units += result["cached"]
                    else:
                        check(result["fingerprint"] == fingerprints[i],
                              "hit fingerprint differs from the cold run's")
                # Stored reports, read back outside the timed requests.
                if len(servers) == 1 + HIT_SERVERS:
                    for scenario_hash in alerts:
                        status, body = await client.request(
                            "GET", f"/runs/{scenario_hash[:16]}/report"
                        )
                        check(status == 200, f"report fetch answered {status}")
                        reports[scenario_hash] = body
            server.stop()
        active += sum(hit_s)
        clock.sample()
    finally:
        for server in servers:
            if server.proc.poll() is None:
                server.proc.kill()
                server.proc.wait()
    bursts = [b for server in servers for b in server.bursts()]
    factor = (
        REF_S_PER_ITERATION / statistics.median(bursts)
        if len(bursts) >= MIN_ROUND_BURSTS
        else clock.factor
    )
    return {
        "setups": setups,
        "campaign_s": campaign_s,
        "scenario_s": scenario_s,
        "hit_s": hit_s,
        "failed": failed,
        "active_s": active,
        "requests": requests,
        "factor": factor,
        "peak_rss_mb": max(s.peak_rss_mb for s in servers),
        "outputs": outputs,
        "alerts": alerts,
        "reports": reports,
        "cached_units": cached_units,
        "files_written": sum(len(files) for _, _, files in os.walk(store)),
    }


def _failed(tally: Tally, i: int, exc: Exception) -> None:
    tally.failed += 1
    print(f"submission {i} failed: {type(exc).__name__}: {exc}", file=sys.stderr)


# ------------------------------------------------------------------- checks
def direct_results(inputs: Inputs) -> Dict[str, List[Dict[str, Any]]]:
    """Every spec run in this process through ``run_campaign``, no store."""
    return {s.spec_hash: run_campaign(s).results for s in inputs.specs}


def check_round(
    inputs: Inputs, store: Path, round_: Dict[str, Any],
    direct: Dict[str, List[Dict[str, Any]]],
) -> int:
    """Stored results equal direct runs; streamed alerts equal stored.
    Returns the number of documents checked."""
    campaign_store = CampaignStore(store)
    specs = [s for i, s in enumerate(inputs.specs) if i not in round_["failed"]]
    for spec in specs:
        stored = run_campaign(spec, store=campaign_store)
        check(stored.executed == 0, f"{spec.name}: store incomplete")
        check(stored.results == direct[spec.spec_hash],
              f"{spec.name}: stored results differ from a direct run")
    for scenario_hash, streamed in round_["alerts"].items():
        canonical = sorted(
            streamed, key=lambda a: (a["epoch"], a["cycle"], a["monitor"])
        )
        check(canonical == round_["reports"][scenario_hash]["alerts"],
              f"scenario {scenario_hash[:16]}: streamed alerts differ "
              "from the stored report's")
    return len(specs) + len(round_["alerts"])


def median_ms(values: List[float], factor: float) -> float:
    return statistics.median(values) * factor * 1e3
