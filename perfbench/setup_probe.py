"""One fresh-interpreter set-up: import numpy, import fermichain, parse a config.

Usage: python3 setup_probe.py SRC_DIR CONFIG_JSON

Prints {"numpy_s", "fermichain_s", "ready", "kernel_s"} on success.  "ready"
is ``time.clock_gettime(CLOCK_MONOTONIC)`` when the set-up is done, a clock
that the starting process shares, so that it can time the set-up from
before this interpreter started.  "kernel_s" is one timing of the
host-speed kernel, run after the set-up, in this interpreter.  CONFIG_JSON
is "null" for a workload with no config.  Exits 3 if fermichain would be
imported from outside SRC_DIR.
"""

import json
import os
import sys
import time


def main() -> int:
    src, config = os.path.realpath(sys.argv[1]), json.loads(sys.argv[2])
    sys.path.insert(0, src)
    tic = time.perf_counter()
    import numpy  # noqa: F401
    mid = time.perf_counter()
    import fermichain
    if config is not None:
        fermichain.parse_config(config)
    toc = time.perf_counter()
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if not os.path.realpath(fermichain.__file__).startswith(src + os.sep):
        print("fermichain imported from %s, not from %s" % (fermichain.__file__, src),
              file=sys.stderr)
        return 3
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from hostspeed import kernel
    kernel()  # warm
    start = time.perf_counter()
    kernel()
    kernel_s = time.perf_counter() - start
    print(json.dumps({"numpy_s": mid - tic, "fermichain_s": toc - mid,
                      "ready": ready, "kernel_s": kernel_s}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
