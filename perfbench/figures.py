"""Worker process for the figure workloads (``mc-figures``, ``soc-figures``).

Run by ``run.py`` in a fresh process with ``src`` on ``PYTHONPATH``::

    python3 perfbench/figures.py '<json config>'   # one measured run
    python3 perfbench/figures.py --probe           # imports only (set-up)

A round calls ``run()`` of every figure driver of the workload once;
each call is one operation, and a call that raises counts as failed and
is left out of the round's checks and timings.  Rounds repeat while
another is expected to end within ``seconds`` (at least one runs).  With
``trace`` set, the worker instead runs one round under ``cProfile``.
The last stdout line is one JSON document for ``run.py``; it carries the
operations attempted and failed, also when the worker fails.
"""

from __future__ import annotations

import cProfile
import contextlib
import json
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.experiments as E
from repro.core.engine import CoinExchangeEngine
from repro.soc.executor import WorkloadExecutor

from common import RefClock, Tally, check, emit, peak_rss_mb_self
import layers


def mc_ops(seed: int) -> List[Tuple[str, Callable[[], Any], Callable]]:
    """The Monte-Carlo figures at about the cost of their
    ``examples/paper_figures.py --quick`` sizes, with the grids reshaped
    toward more, smaller trials: a trial that stops at convergence costs
    what its seed makes it cost, so few large trials make the run's cost
    swing with the seed.  Cost CV over 8 seeds, quick grid -> this grid:
    fig03 19% -> 4.3%, fig04 9.9% -> 4.4%, fig06 7.4% -> 2.4%; fig07
    (a fixed horizon) keeps its quick grid at 2.8%.  Seed 0 gives each
    driver its default base seed."""
    step = 10 * seed
    return [
        ("fig03", lambda: E.fig03_convergence.run(
            dims=(4, 6, 8), trials=12, base_seed=3 + step),
         E.fig03_convergence.format_rows),
        ("fig04", lambda: E.fig04_tokensmart.run(
            dims=(4, 8), trials=6, base_seed=4 + step),
         E.fig04_tokensmart.format_rows),
        ("fig06", lambda: E.fig06_dynamic_timing.run(
            dims=(4, 6), trials=8, base_seed=6 + step),
         E.fig06_dynamic_timing.format_rows),
        ("fig07", lambda: E.fig07_random_pairing.run(
            dims=(10,), trials=4, settle_cycles=80_000, base_seed=7 + step),
         E.fig07_random_pairing.format_rows),
        ("fig08", lambda: E.fig08_heterogeneity.run(
            dims=(4, 8), trials=6, base_seed=8 + step),
         E.fig08_heterogeneity.format_rows),
    ]


def soc_ops(seed: int) -> List[Tuple[str, Callable[[], Any], Callable]]:
    """The SoC-level figures at their only sizes; the drivers take no
    seed, so these inputs are the same for every ``seed``."""
    return [
        ("fig16", E.fig16_power_traces.run, E.fig16_power_traces.format_rows),
        ("fig17", E.fig17_3x3_eval.run, E.fig17_3x3_eval.format_rows),
        ("fig18", E.fig18_4x4_eval.run, E.fig18_4x4_eval.format_rows),
        ("fig19", E.fig19_silicon.run, E.fig19_silicon.format_rows),
        ("fig20", E.fig20_response.run, E.fig20_response.format_rows),
        ("streaming", lambda: E.streaming.run(frames=3),
         E.streaming.format_rows),
    ]


WORKLOADS = {"mc-figures": mc_ops, "soc-figures": soc_ops}


# ------------------------------------------------------------ output capture
class Capture:
    """Records what the checks need through the engine's and executor's
    public methods.  Installed in every round, traced or not, so both
    pay the same (one call per trial or SoC run)."""

    def __init__(self) -> None:
        self.trials: List[Dict[str, Any]] = []
        self.soc_runs: List[Tuple[Any, Any]] = []

    def install(self) -> None:
        capture = self
        run_until = CoinExchangeEngine.run_until_converged
        conserve = CoinExchangeEngine.check_conservation
        soc_run = WorkloadExecutor.run

        def run_until_converged(engine, max_cycles):
            converged_at = run_until(engine, max_cycles)
            capture.trials.append({
                "stopped_on_convergence": True,
                "converged_at": converged_at,
                "threshold": engine.config.convergence_threshold,
                "has": engine.snapshot_has(),
                "max": engine.snapshot_max(),
                "pool": engine.pool,
            })
            return converged_at

        def check_conservation(engine):
            conserve(engine)
            capture.trials.append({
                "stopped_on_convergence": False,
                "has": engine.snapshot_has(),
                "pool": engine.pool,
                "lost_pending": engine.lost_pending,
            })

        def run(executor, *args, **kwargs):
            result = soc_run(executor, *args, **kwargs)
            capture.soc_runs.append((executor.graph, result))
            return result

        CoinExchangeEngine.run_until_converged = run_until_converged
        CoinExchangeEngine.check_conservation = check_conservation
        WorkloadExecutor.run = run


# ------------------------------------------------------------------- checks
def check_trials(trials: List[Dict[str, Any]]) -> int:
    """Coin conservation and the convergence threshold, recomputed from
    the per-tile snapshots.  Returns the number of trials checked."""
    check(bool(trials), "no coin-exchange trial was observed")
    for trial in trials:
        has, pool = trial["has"], trial["pool"]
        check(all(h >= 0 for h in has), "a tile holds negative coins")
        if not trial["stopped_on_convergence"]:
            # check_conservation() passed: tiles + in-flight + lost ==
            # pool.  These runs are fault-free, so nothing may be lost.
            check(trial["lost_pending"] == 0, "coins lost in a fault-free run")
            continue
        if trial["converged_at"] is None:
            continue
        max_ = trial["max"]
        alpha = pool / sum(max_)
        error = sum(abs(h - alpha * m) for h, m in zip(has, max_)) / len(has)
        check(
            error < trial["threshold"],
            f"trial reported converged at error {error:.3f} >= "
            f"threshold {trial['threshold']}",
        )
    return len(trials)


def check_mc(results: Dict[str, Any]) -> None:
    """The DESIGN.md result shapes at the quick sizes, for every driver
    call that answered."""
    if "fig03" in results:
        for technique, points in results["fig03"].points.items():
            finite = [p for p in points if p.mean_cycles != float("inf")]
            check(len(finite) >= 2, f"fig03 {technique}: too few converged points")
            check(
                finite[-1].mean_cycles > finite[0].mean_cycles,
                f"fig03 {technique}: cycles do not grow with d",
            )
    if "fig04" in results:
        fig04 = results["fig04"]
        d_max = max(p.d for p in fig04.points["BC"])
        check(fig04.speedup_at(d_max) > 1.0,
              f"fig04: TokenSmart not slower than BC at d={d_max}")
    if "fig06" in results:
        fig06 = results["fig06"]
        for p in fig06.points["plain"]:
            check(fig06.packet_reduction_at(p.d) > 1.0,
                  f"fig06: dynamic timing does not cut packets at d={p.d}")
    if "fig07" in results:
        fig07 = results["fig07"]
        for (d, rp), hist in fig07.results.items():
            if rp:
                check(hist.stuck_fraction == 0.0,
                      f"fig07: random pairing leaves a stuck tail at d={d}")
                check(hist.max_error <= fig07.get(d, False).max_error,
                      f"fig07: random pairing raises the residual at d={d}")


def check_soc(results: Dict[str, Any], soc_runs: List[Tuple[Any, Any]]) -> None:
    check(bool(soc_runs) or not results, "no SoC run was observed")
    for graph, result in soc_runs:
        finish, start = result.task_finish_cycles, result.task_start_cycles
        check(set(finish) == set(graph.tasks),
              f"{result.pm_name}: not every task finished")
        for name, task in graph.tasks.items():
            for dep in task.deps:
                check(start[name] >= finish[dep],
                      f"{result.pm_name}: {name} started before {dep} ended")
        peak = result.peak_power_mw()
        check(peak <= 1.10 * result.budget_mw,
              f"{result.pm_name}: peak {peak:.1f} mW > 1.10 x budget "
              f"{result.budget_mw:.1f} mW")
    if "fig20" not in results:
        return
    fig20 = results["fig20"].measurements
    bc = fig20["BC"].response_us
    for other in ("BC-C", "C-RR"):
        theirs = fig20[other].response_us
        check(bc is not None and theirs is not None and bc < theirs,
              f"fig20: BC response {bc} not below {other}'s {theirs}")


# ------------------------------------------------------------------- rounds
def run_round(ops, tally: Tally, profiler=None) -> Dict[str, Any]:
    """One call of every driver; returns timings, outputs and results
    of the calls that answered.

    Untraced rounds take reference bursts during the calls; a traced
    round samples between them instead, so no burst is profiled.
    """
    clock = RefClock()
    timings: Dict[str, float] = {}
    factors: Dict[str, Optional[float]] = {}
    rows: Dict[str, List[str]] = {}
    results: Dict[str, Any] = {}
    clock.sample()
    with contextlib.ExitStack() as stack:
        if profiler is None:
            stack.enter_context(clock.interleaved())
        for name, fn, format_rows in ops:
            tally.attempted += 1
            if profiler is not None:
                profiler.enable()
            try:
                result, timings[name], factors[name] = clock.op(fn)
            except Exception:
                tally.failed += 1
                print(f"{name} failed:", file=sys.stderr)
                traceback.print_exc()
                continue
            finally:
                if profiler is not None:
                    profiler.disable()
                    clock.sample()
            results[name] = result
            rows[name] = format_rows(result)
    factor = clock.factor
    return {
        "timings": timings,
        "factors": {k: v if v is not None else factor for k, v in factors.items()},
        "rows": rows,
        "results": results,
        "factor": factor,
    }


def check_round(workload: str, round_: Dict[str, Any], capture: Capture) -> int:
    """Checks one round's outputs; returns the number of items checked."""
    if workload == "mc-figures":
        check_mc(round_["results"])
        if not round_["results"]:
            return 0
        return check_trials(capture.trials)
    check_soc(round_["results"], capture.soc_runs)
    return len(capture.soc_runs)


def main(config: Dict[str, Any], tally: Tally) -> None:
    """Untraced rounds for ``seconds``, or with ``trace`` one profiled
    round (``run.py`` runs both side by side and compares their rows)."""
    ops = WORKLOADS[config["workload"]](config["seed"])
    capture = Capture()
    capture.install()
    if config["trace"]:
        profiler = cProfile.Profile(builtins=False)
        traced = run_round(ops, tally, profiler)
        checked = check_round(config["workload"], traced, capture)
        profiler.create_stats()
        emit({
            "timings": traced["timings"],
            "factor": traced["factor"],
            "layers": layers.layer_metrics(profiler.stats, traced["factor"]),
            "checked": checked,
            "rows": traced["rows"],
            "attempted": tally.attempted,
            "failed": tally.failed,
        })
        return
    rounds = []
    start = last = time.perf_counter()
    # Whole rounds: another only while it is expected to end in time.
    while not rounds or 2 * time.perf_counter() - start - last <= config["seconds"]:
        last = time.perf_counter()
        capture.trials.clear()
        capture.soc_runs.clear()
        rounds.append(run_round(ops, tally))
    rss = peak_rss_mb_self()
    last = rounds[-1]
    checked = check_round(config["workload"], last, capture)
    for other in rounds[:-1]:
        check(other["rows"] == last["rows"], "rounds disagree on outputs")
    emit({
        "rounds": [
            {k: r[k] for k in ("timings", "factors", "factor")}
            for r in rounds
        ],
        "peak_rss_mb": rss,
        "checked": checked,
        "rows": last["rows"],
        "attempted": tally.attempted,
        "failed": tally.failed,
    })


if __name__ == "__main__":
    if sys.argv[1:] == ["--probe"]:
        sys.exit(0)
    tally = Tally()
    try:
        main(json.loads(sys.argv[1]), tally)
    except Exception as exc:
        traceback.print_exc()
        emit({"error": f"{type(exc).__name__}: {exc}",
              "attempted": tally.attempted, "failed": tally.failed})
        sys.exit(1)
