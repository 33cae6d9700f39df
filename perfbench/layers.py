"""Per-layer attribution of a profiled run.

A traced run records every Python function call with ``cProfile`` (one
profiler per thread; builtins are not recorded, so their time is part of
their caller's).  Each call is a span at a function boundary; a
function's self time is its span time minus its children's, which is
``cProfile``'s ``tottime``.  A layer's self time is the sum over the
functions its package defines, so every kernel-dispatched callback is
charged to the module that defines it, not to the kernel.  Python
functions outside ``repro`` (dataclass-generated comparisons, the
standard library) are charged to the layers of their callers, in
proportion to the time each caller spent in them; what no ``repro``
frame called is host time and belongs to no layer, and so is time an
event loop spends blocked in its selector.

Exact counts come from call counts at fixed public boundaries, so they
repeat exactly for the same inputs.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from common import SRC, CheckFailed

LAYERS = (
    "sim",
    "noc",
    "core",
    "power",
    "dvfs",
    "soc",
    "thermal",
    "baselines",
    "experiments",
    "campaign",
    "serve",
    "obs",
    "fuzz",
    "faults",
    "report",
)

#: Exact counts: metric -> (module path under ``repro``, function name).
CALL_COUNTS = {
    "sim.scheduled": ("sim/kernel.py", "schedule"),
    "sim.cancelled": ("sim/kernel.py", "cancel"),
    "noc.packets": ("noc/fabric.py", "send"),
    "core.exchanges": ("core/engine.py", "_arm_timeout"),
    "power.v_for_f_calls": ("power/characterization.py", "v_for_f"),
    "soc.runs": ("soc/executor.py", "run"),
    "campaign.units_executed": ("campaign/executor.py", "execute_unit"),
}

Func = Tuple[str, int, str]

#: Functions ``Simulator.run`` calls that are not dispatched events.
_NOT_EVENTS = frozenset({"__lt__", "kernel_event"})

_PREFIX = str(SRC / "repro") + "/"


def _layer_of(func: Func) -> Optional[str]:
    """The layer that defines ``func``; ``"other"`` for the rest of
    ``repro``; None outside ``repro``."""
    filename = func[0]
    if not filename.startswith(_PREFIX):
        return None
    top = filename[len(_PREFIX):].split("/", 1)[0]
    if top.endswith(".py"):
        top = top[:-3]
    return top if top in LAYERS else "other"


def _module_func(func: Func, module: str, name: str) -> bool:
    return func[2] == name and func[0] == _PREFIX + module


def attribute(stats: Dict[Func, Any]) -> Dict[str, float]:
    """Raw self seconds per layer (plus ``other`` and ``host``)."""
    memo: Dict[Func, Dict[str, float]] = {}

    def shares(func: Func, stack: frozenset) -> Dict[str, float]:
        cached = memo.get(func)
        if cached is not None:
            return cached
        layer = _layer_of(func)
        if layer is not None:
            result = {layer: 1.0}
        elif func[0].endswith("/selectors.py"):
            result = {"host": 1.0}  # an event loop blocked waiting: idle
        else:
            callers = stats[func][4] if func in stats else {}
            # Edge tuples are (calls, primitive calls, self time in
            # this caller's calls, total time): weight by self time.
            weights = {
                caller: edge[2] or edge[0]
                for caller, edge in callers.items()
                if caller not in stack and caller in stats
            }
            total = sum(weights.values())
            if not total:
                result = {"host": 1.0}
            else:
                result = {}
                inner = stack | {func}
                for caller, weight in weights.items():
                    for name, part in shares(caller, inner).items():
                        result[name] = result.get(name, 0.0) + part * weight / total
        memo[func] = result
        return result

    seconds: Dict[str, float] = {}
    for func, (_cc, _nc, tottime, _ct, _callers) in stats.items():
        for name, part in shares(func, frozenset()).items():
            seconds[name] = seconds.get(name, 0.0) + tottime * part
    return seconds


def check_boundaries() -> None:
    """Every counted boundary still exists: a moved or renamed function
    would otherwise count as never called."""
    for module, name in list(CALL_COUNTS.values()) + [("sim/kernel.py", "run")]:
        path = SRC / "repro" / module
        if not path.is_file() or f"def {name}(" not in path.read_text(
            encoding="utf-8"
        ):
            raise CheckFailed(f"counted boundary {module}:{name} not found")


def counts(stats: Dict[Func, Any]) -> Dict[str, int]:
    """Exact call counts at the layer boundaries in ``CALL_COUNTS``, plus
    ``sim.events``: the callbacks ``Simulator.run`` dispatched.  Its other
    callees are the heap's ``heappop``, the ``Event.__lt__`` that shows up
    as called from ``run`` when builtins are not profiled, and, with obs
    on, the ``repro.obs`` sink lookup and the sink's ``kernel_event``."""
    result = {metric: 0 for metric in CALL_COUNTS}
    events = 0
    for func, (_cc, nc, _tt, _ct, callers) in stats.items():
        for metric, (module, name) in CALL_COUNTS.items():
            if _module_func(func, module, name):
                result[metric] += nc
        if func[2] in _NOT_EVENTS or "heappop" in func[2] or _layer_of(func) == "obs":
            continue  # queue maintenance and the obs hook, not events
        for caller, edge in callers.items():
            if _module_func(caller, "sim/kernel.py", "run"):
                events += edge[0]
    result["sim.events"] = events
    return result


def layer_metrics(
    stats: Dict[Func, Any], factor: float
) -> Dict[str, float]:
    """Per-layer self times (reference seconds) and exact counts."""
    check_boundaries()
    seconds = attribute(stats)
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = seconds.get(layer, 0.0) * factor
    metrics.update(counts(stats))
    events = metrics["sim.events"]
    packets = metrics["noc.packets"]
    metrics["sim.ns_per_event"] = (
        metrics["sim.self_s"] / events * 1e9 if events else 0.0
    )
    metrics["noc.ns_per_packet"] = (
        metrics["noc.self_s"] / packets * 1e9 if packets else 0.0
    )
    return metrics
