#!/usr/bin/env python3
"""The repository's end-to-end benchmark.

One measured run (from the root of a checkout)::

    python3 perfbench/run.py --workload mc-figures --seed 0 --seconds 25 --trace 0

Workloads: ``mc-figures``, ``soc-figures`` and ``serve-mix`` (see
README.md).  Every run checks the program's outputs.  A human-readable
report goes to stderr; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics (from one extra traced
round) with ``--trace 1``.  All host times are in reference seconds
(``common.py``).  A run that fails a check, or breaks off, still prints
that line, with ``correct`` false and the operations attempted and failed
until then, and exits with 1.

Repeat mode runs each workload in ``--repeat K`` fresh processes, one
seed each, and prints the median and quartiles of every metric, in
reference and raw units, flagging each end-to-end metric whose spread
(interquartile range over median) exceeds its bound in BENCHMARK.json::

    python3 perfbench/run.py --repeat 10 --workload all --seconds 25
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

from common import (
    ROOT,
    SRC,
    CheckFailed,
    RefClock,
    Tally,
    child_env,
    emit,
)

HERE = Path(__file__).resolve().parent
WORKLOADS = ("mc-figures", "soc-figures", "serve-mix")
#: Fresh-process set-ups timed per figure run (median reported).
SETUP_PROBES = 5
#: A run gives up (and stops what it started) this long after it began.
DEADLINE_S = 172.0
WORK_DIR = ROOT / ".perfbench-work"
#: Per-layer metrics of the server, which the figure workloads do not
#: have: they start no server, write no store and run with obs off.
SERVE_ONLY = (
    "serve.queue_wait_ms",
    "serve.requests_per_s",
    "serve.campaign_p50_ms",
    "serve.scenario_p50_ms",
    "serve.hit_p50_ms",
    "serve.hit_p90_ms",
    "obs.alerts",
    "campaign.units_cached",
    "campaign.files_written",
)


def spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def units() -> Dict[str, str]:
    doc = spec()
    return {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}


# ----------------------------------------------------------------- figures
def figure_setup() -> Dict[str, float]:
    """Spawn-to-exit of fresh processes that import the figure drivers."""
    clock = RefClock()
    raw: List[float] = []
    clock.sample()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "figures.py"), "--probe"],
            cwd=str(ROOT), env=child_env(), check=True,
        )
        raw.append(time.perf_counter() - start)
        clock.sample()
    return {"raw": statistics.median(raw), "factor": clock.factor}


def remaining(args: argparse.Namespace) -> float:
    left = args.started + DEADLINE_S - time.perf_counter()
    if left <= 0:
        raise CheckFailed(f"run exceeded {DEADLINE_S:.0f} s")
    return left


def figure_worker(args: argparse.Namespace, trace: int) -> subprocess.Popen:
    config = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": trace,
    }
    return subprocess.Popen(
        [sys.executable, str(HERE / "figures.py"), json.dumps(config)],
        cwd=str(ROOT), env=child_env(), stdout=subprocess.PIPE, text=True,
    )


def worker_result(
    proc: subprocess.Popen, args: argparse.Namespace, tally: Tally
) -> Dict[str, Any]:
    out, _ = proc.communicate(timeout=remaining(args))
    lines = out.strip().splitlines()
    try:
        doc = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        doc = {}
    tally.add(doc)
    if proc.returncode != 0:
        raise CheckFailed(
            f"figure worker exited with {proc.returncode}: "
            f"{doc.get('error', 'no result')}"
        )
    return doc


def run_figures(args: argparse.Namespace, tally: Tally) -> Dict[str, Any]:
    """Untraced: set-up probes, then the worker's rounds.  Traced: the
    untraced worker and a profiled one side by side (one CPU each), so a
    traced run lasts about as long as its profiled round."""
    setup = None if args.trace else figure_setup()
    workers = [figure_worker(args, 0)]
    if args.trace:
        workers.append(figure_worker(args, 1))
    try:
        doc = worker_result(workers[0], args, tally)
        traced = worker_result(workers[1], args, tally) if args.trace else None
    finally:
        for proc in workers:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    walls, walls_raw = [], []
    for round_ in doc["rounds"]:
        walls.append(
            sum(t * round_["factors"][name] for name, t in round_["timings"].items())
        )
        walls_raw.append(sum(round_["timings"].values()))
    wall = statistics.median(walls)
    result: Dict[str, Any] = {
        "checked": doc["checked"],
        "raw": {"wall_s": statistics.median(walls_raw)},
        "factors": [r["factor"] for r in doc["rounds"]],
    }
    if traced is None:
        result["metrics"] = {
            "setup_s": setup["raw"] * setup["factor"],
            "wall_s": wall,
            "peak_rss_mb": doc["peak_rss_mb"],
        }
        result["raw"]["setup_s"] = setup["raw"]
    else:
        if traced["rows"] != doc["rows"]:
            raise CheckFailed("traced outputs differ from the untraced run's")
        result["checked"] += traced["checked"]
        result["layers"] = dict(traced["layers"])
        result["layers"]["trace.overhead_s"] = (
            sum(traced["timings"].values()) * traced["factor"] - wall
        )
        result["layers"].update(dict.fromkeys(SERVE_ONLY, 0.0))
    return result


# --------------------------------------------------------------- serve-mix
def run_serve(args: argparse.Namespace, tally: Tally) -> Dict[str, Any]:
    import layers
    import serve_mix

    # Client and servers share one CPU.  The loop is closed, so one of
    # them runs at a time, and the client's reference samples then time
    # the CPU the server runs on: unpinned, rounds of one seed varied by
    # +-10% in raw and reference seconds alike, pinned by +-1%.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = WORK_DIR / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        inputs = serve_mix.make_inputs(args.seed)
        direct = serve_mix.direct_results(inputs)
        rounds: List[Dict[str, Any]] = []
        checked = 0
        start = last = time.perf_counter()
        # Whole rounds: another only while it is expected to end in time.
        while not rounds or 2 * time.perf_counter() - start - last <= args.seconds:
            last = time.perf_counter()
            round_dir = work / f"round{len(rounds)}"
            round_dir.mkdir()
            round_ = asyncio.run(asyncio.wait_for(
                serve_mix.run_round(inputs, round_dir, tally), remaining(args)))
            checked += serve_mix.check_round(inputs, round_dir / "store", round_, direct)
            if rounds and round_["outputs"] != rounds[0]["outputs"]:
                raise CheckFailed("rounds disagree on outputs")
            rounds.append(round_)
            shutil.rmtree(round_dir)

        result: Dict[str, Any] = {
            "checked": checked,
            "metrics": {
                "setup_s": statistics.median(
                    statistics.median(r["setups"]) * r["factor"] for r in rounds
                ),
                "wall_s": statistics.median(
                    r["active_s"] * r["factor"] for r in rounds
                ),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
            },
            "raw": {
                "setup_s": statistics.median(
                    statistics.median(r["setups"]) for r in rounds
                ),
                "wall_s": statistics.median(r["active_s"] for r in rounds),
            },
            "factors": [r["factor"] for r in rounds],
        }
        if args.trace:
            stats_dir = work / "traced"
            stats_dir.mkdir()
            traced = asyncio.run(asyncio.wait_for(
                serve_mix.run_round(inputs, stats_dir, tally, profile=True),
                remaining(args)))
            checked += serve_mix.check_round(
                inputs, stats_dir / "store", traced, direct)
            if traced["outputs"] != rounds[0]["outputs"] or (
                traced["alerts"] != rounds[0]["alerts"]
            ):
                raise CheckFailed("traced outputs differ from the untraced run's")
            profiles = sorted(stats_dir.glob("*.prof"))
            import pstats

            merged = pstats.Stats(*map(str, profiles)).stats  # type: ignore[attr-defined]
            layer = layers.layer_metrics(merged, traced["factor"])
            waits: List[float] = []
            for path in profiles:
                waits += json.loads(Path(str(path) + ".waits.json").read_text())
            last = rounds[-1]
            factor = last["factor"]
            hits = last["hit_s"]
            layer.update({
                "serve.queue_wait_ms": serve_mix.median_ms(waits, traced["factor"]),
                "obs.alerts": sum(len(a) for a in last["alerts"].values()),
                "campaign.units_cached": last["cached_units"],
                "campaign.files_written": last["files_written"],
                "serve.requests_per_s": last["requests"] / (last["active_s"] * factor),
                "serve.campaign_p50_ms": serve_mix.median_ms(last["campaign_s"], factor),
                "serve.scenario_p50_ms": serve_mix.median_ms(last["scenario_s"], factor),
                "serve.hit_p50_ms": serve_mix.median_ms(hits, factor),
                "serve.hit_p90_ms": statistics.quantiles(
                    hits, n=10, method="inclusive")[8] * factor * 1e3,
                "trace.overhead_s": traced["active_s"] * traced["factor"]
                - result["metrics"]["wall_s"],
            })
            result["layers"] = layer
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass


# -------------------------------------------------------------------- main
def measure(args: argparse.Namespace) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    known = units()
    doc = spec()
    wanted = [
        m["name"] for m in (doc["per_layer"] if args.trace else doc["end_to_end"])
    ]
    tally = Tally()
    try:
        if args.workload == "serve-mix":
            result = run_serve(args, tally)
        else:
            result = run_figures(args, tally)
        values = result["layers"] if args.trace else result["metrics"]
        missing = [name for name in wanted if name not in values]
        if missing:
            raise CheckFailed(f"metrics not measured: {', '.join(missing)}")
    except Exception as exc:
        if not isinstance(exc, CheckFailed):
            traceback.print_exc()
        print(f"run failed: {exc}", file=sys.stderr)
        emit({"correct": False, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": {}})
        return 1
    result["attempted"] = tally.attempted
    report(args, result, values, wanted, known)
    emit({"detail": {k: result[k] for k in ("raw", "factors", "checked")}})
    emit({
        "correct": True,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": values[name], "unit": known[name]} for name in wanted
        },
    })
    return 0


def report(args, result, values, wanted, known) -> None:  # type: ignore[no-untyped-def]
    factors = result["factors"]
    print(
        f"{args.workload} seed={args.seed} rounds={len(factors)} "
        f"ops={result['attempted']} checked={result['checked']} "
        f"reference factor={statistics.median(factors):.4f}",
        file=sys.stderr,
    )
    for name in wanted:
        raw = result["raw"].get(name)
        beside = f"   (raw {raw:.4f})" if raw is not None else ""
        print(f"  {name:28s} {values[name]:14.4f} {known[name]}{beside}",
              file=sys.stderr)


# ------------------------------------------------------------------ repeat
def repeat(args: argparse.Namespace) -> int:
    doc = spec()
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    flagged = 0
    for workload in workloads:
        samples: Dict[str, List[float]] = {}
        raw: Dict[str, List[float]] = {}
        for k in range(args.repeat):
            seed = args.seed + k
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0:
                print(f"{workload} seed={seed}: exit {proc.returncode}: "
                      f"{lines[-1] if lines else 'no result'}")
                return 1
            final, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
            for name, metric in final["metrics"].items():
                samples.setdefault(name, []).append(metric["value"])
            for name, value in detail["raw"].items():
                raw.setdefault(name, []).append(value)
            print(f"{workload} seed={seed} attempted={final['attempted']} "
                  f"failed={final['failed']} " + " ".join(
                      f"{n}={m['value']:.4f}" for n, m in final["metrics"].items()
                  ), flush=True)
        print(f"== {workload}: {args.repeat} runs "
              "(median [q1, q3] spread; raw median)")
        for name, values in samples.items():
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound:
                flag = f"  SPREAD > BOUND {bound}"
                flagged += 1
            raw_note = (
                f"; raw {statistics.median(raw[name]):.4f}" if name in raw else ""
            )
            print(f"  {name:26s} {med:12.4f} [{q1:.4f}, {q3:.4f}] "
                  f"{spread * 100:5.1f}%{raw_note}{flag}")
    return 1 if flagged else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="mc-figures",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, metavar="K",
                        help="repeat mode: K fresh runs per workload")
    args = parser.parse_args(argv)
    args.started = time.perf_counter()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.repeat:
        return repeat(args)
    if args.workload == "all":
        parser.error("--workload all needs --repeat")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
