"""One measured kroncalc process: ``python3 -I perfbench/child.py SPEC``.

SPEC is a JSON object {"src", "argv", "trace", "result"}.  The child puts
``src`` first on the import path and imports ``kroncalc.cli``; with ``argv``
null it stops there, which is what the set-up probe times.  Otherwise it
calls ``kroncalc.cli.main(argv)`` with stdout captured, optionally under the
layer tracer, and writes {"rc", "main_cpu_s", "stdout", "peak_rss_kb",
"trace"} as JSON to the ``result`` path.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stdout


def peak_rss_kb() -> int:
    """This process's own peak RSS.

    ru_maxrss would also count the pages of the benchmark process it was
    forked from: Linux carries that high-water mark across fork and exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    from kroncalc import cli

    if spec["argv"] is None:
        return
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer().install()
    out = io.StringIO()
    with redirect_stdout(out):
        start = time.process_time()
        try:
            rc = cli.main(spec["argv"])
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 1
        main_cpu_s = time.process_time() - start
    result = {
        "rc": rc,
        "main_cpu_s": main_cpu_s,
        "stdout": out.getvalue(),
        "peak_rss_kb": peak_rss_kb(),
        "trace": tracer.snapshot() if tracer else None,
    }
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
