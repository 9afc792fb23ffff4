"""Regenerate the reference outputs the benchmark checks against.

Usage (from the repository root)::

    python3 perfbench/make_reference.py

Writes ``perfbench/reference/panels/*.csv`` (every panel of the ``figures``
workload) and ``perfbench/reference/sweep_seed0.csv`` (every draw of the
``sweep`` workload on the default seed, with a leading ``draw`` column).
Run it only at a commit whose outputs are trusted, and say in the change
log which outputs moved and why.
"""

from __future__ import annotations

import os
import shutil
import sys

from run import OUT, import_fermichain
from workloads import DEFAULT_SEED, PANELS_DIR, Figures, Sweep, sweep_draws


def main() -> int:
    fc = import_fermichain()
    sc = fc.scenarios
    shutil.rmtree(PANELS_DIR, ignore_errors=True)
    for data in Figures.config_data():
        cfg = sc.parse_config(data)
        sc.write_result(sc.run_scenario(cfg), PANELS_DIR, cfg.sig_digits)

    tmp_dir = os.path.join(OUT, "reference-sweep")
    lines = []
    for index, data in enumerate(sweep_draws(DEFAULT_SEED)):
        cfg = sc.parse_config(data)
        (path,) = sc.write_result(sc.run_scenario(cfg), tmp_dir, cfg.sig_digits)
        with open(path, "r", encoding="utf-8") as fh:
            header, *rows = fh.read().splitlines()
        if not lines:
            lines.append("draw," + header)
        lines.extend("%d,%s" % (index, row) for row in rows)
    with open(Sweep.reference_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    print("wrote %s and %s" % (PANELS_DIR, Sweep.reference_path), file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
