"""Run ``repro serve run`` in this process, measured from inside.

    python3 perfbench/serve_launcher.py ref OUT serve-run-args...
    python3 perfbench/serve_launcher.py profile OUT serve-run-args...

``ref`` times reference bursts (``common.RefClock``) while the server is
busy and, when it exits on SIGINT, writes them to ``OUT`` as a JSON list.

``profile`` gives each thread (the event loop and every execution lane)
its own ``cProfile`` profiler; at exit the profiles are merged into
``OUT`` (``pstats`` format), and the queue waits of the server's jobs
(``queued`` to ``running`` state frame, raw seconds) go to
``OUT.waits.json``.

In both modes SIGUSR1 dumps every thread's stack to stderr.
"""

from __future__ import annotations

import cProfile
import faulthandler
import json
import pstats
import signal
import sys
import threading
import time
from typing import Dict, List

from common import RefClock


def serve(serve_args: List[str]) -> int:
    from repro.cli import main as cli_main

    return cli_main(["serve", "run", *serve_args])


def with_reference(out: str, serve_args: List[str]) -> int:
    clock = RefClock()
    try:
        with clock.interleaved(busy_only=True):
            return serve(serve_args)
    finally:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(clock.bursts, handle)


def profiled(out: str, serve_args: List[str]) -> int:
    profiles: List[cProfile.Profile] = []
    lock = threading.Lock()
    thread_run = threading.Thread.run

    def profiled_run(thread: threading.Thread) -> None:
        profiler = cProfile.Profile(builtins=False)
        with lock:
            profiles.append(profiler)
        profiler.enable()
        try:
            thread_run(thread)
        finally:
            profiler.disable()

    threading.Thread.run = profiled_run  # type: ignore[method-assign]

    import repro.cli  # noqa: F401 -- imported before profiling starts
    from repro.serve.stream import JobLog

    queued_at: Dict[int, float] = {}
    waits: List[float] = []
    publish = JobLog.publish

    def timed_publish(log: JobLog, frame) -> None:  # type: ignore[no-untyped-def]
        if frame is not None and frame.get("type") == "state":
            if frame.get("state") == "queued":
                queued_at[id(log)] = time.perf_counter()
            elif frame.get("state") == "running" and id(log) in queued_at:
                waits.append(time.perf_counter() - queued_at.pop(id(log)))
        publish(log, frame)

    JobLog.publish = timed_publish  # type: ignore[method-assign]

    main_profiler = cProfile.Profile(builtins=False)
    main_profiler.enable()
    try:
        return serve(serve_args)
    finally:
        main_profiler.disable()
        stats = pstats.Stats(main_profiler)
        for profiler in profiles:
            profiler.create_stats()
            if profiler.stats:  # type: ignore[attr-defined]
                stats.add(profiler)
        stats.dump_stats(out)
        with open(out + ".waits.json", "w", encoding="utf-8") as handle:
            json.dump(waits, handle)


if __name__ == "__main__":
    # A shell starting the benchmark in the background without job
    # control hands it SIGINT ignored, and asyncio.run then installs no
    # handler: the server would never stop.  It is stopped by SIGINT.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    faulthandler.register(signal.SIGUSR1, all_threads=True)
    mode, out, *rest = sys.argv[1:]
    sys.exit({"ref": with_reference, "profile": profiled}[mode](out, rest))
