#!/usr/bin/env python3
"""Record the default-seed reference outputs that the benchmark checks against.

    python3 perfbench/record_reference.py

Writes perfbench/reference/fit_dense.csv.gz (the ``fit`` output) and
perfbench/reference/simulate_diagnose.json (the ``simulate`` and ``diagnose``
outputs).  Run it only at a commit whose outputs are known to be right: a
later change must reproduce these files, not replace them.
"""

from __future__ import annotations

import gzip
import json
import sys

import run


def main() -> int:
    run.import_lpadapt()
    import workloads

    workloads.REFERENCE.mkdir(exist_ok=True)
    for name, cls in (("fit_dense", workloads.FitDense), ("calibrate_verify", workloads.CalibrateVerify)):
        wd = run.OUT / "reference" / name
        workloads.write_inputs(name, workloads.DEFAULT_SEED, wd)
        workload = cls.__new__(cls)  # no reference to load yet
        workload.seed, workload.wd = workloads.DEFAULT_SEED, wd
        for argv in workload.commands():
            code, _ = workloads.run_cli(argv)
            if code != 0:
                raise SystemExit(f"error: {argv[0]} exited with {code}")
        if name == "fit_dense":
            # mtime=0 keeps the compressed bytes a function of the content
            with gzip.GzipFile(workloads.REFERENCE / "fit_dense.csv.gz", "wb", mtime=0) as fh:
                fh.write((wd / "fit.csv").read_bytes())
        else:
            outputs = {cmd: json.loads((wd / f"{cmd}.json").read_text()) for cmd in ("simulate", "diagnose")}
            (workloads.REFERENCE / "simulate_diagnose.json").write_text(json.dumps(outputs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
