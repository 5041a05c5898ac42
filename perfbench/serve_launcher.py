"""Start ``ksr-serve`` with every thread under the stdlib profiler.

Usage::

    PYTHONPATH=src python3 perfbench/serve_launcher.py OUT.prof [ksr-serve args...]

The stdlib profiler follows one thread; the server does its work in
request-handler and scheduler threads.  So every thread started after
launch runs under its own profiler, timed by that thread's CPU clock
(threads blocked on a socket or a queue accrue nothing).  When the
server exits (SIGTERM drains it as usual) the profiles of all finished
threads are merged and written to ``OUT.prof`` (``pstats`` format).
The main thread only starts the server (imports, bind) and stops it,
so it is left out.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
import threading
import time


def main(argv: list[str]) -> int:
    out, serve_args = argv[0], argv[1:]
    finished: list[cProfile.Profile] = []
    lock = threading.Lock()
    thread_run = threading.Thread.run

    def profiled_run(self: threading.Thread) -> None:
        profile = cProfile.Profile(time.thread_time)
        profile.enable()
        try:
            thread_run(self)
        finally:
            profile.disable()
            with lock:
                finished.append(profile)

    threading.Thread.run = profiled_run  # type: ignore[method-assign]
    from repro.service.cli import main as serve_main

    code = serve_main(serve_args)
    with lock:
        pstats.Stats(*finished).dump_stats(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
