"""Write the benchmark's seed-0 outputs of this checkout into one directory.

    python tools/seed_outputs.py OUTDIR

The inputs are the benchmark's own, written by perfbench/workloads.py's
write_inputs at seed 0.  The commands are the workloads' own command lines,
run in-process through lpadapt.cli.main with one BLAS thread, as
perfbench/run.py runs them: calibrate, verify, simulate and diagnose
(calibrate_verify), then fit (fit_dense).  After each command it prints
the exit code, the command's time and the process's peak resident set
size so far (ru_maxrss), so the command that sets the peak can be named.
OUTDIR then holds cv_mc.json,
verify.json, simulate.json, simulate.csv, diagnose.json and fit.csv beside
the inputs, so that the outputs of two checkouts compare with cmp:

    for f in cv_mc.json verify.json simulate.json simulate.csv diagnose.json fit.csv; do
        cmp a/$f b/$f
    done

The script exits 1 when a command does not exit 0.  It takes about as long
as one pass of each workload, so it stays out of Tier-1.
"""

from __future__ import annotations

import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUTPUTS = ("cv_mc.json", "verify.json", "simulate.json", "simulate.csv", "diagnose.json", "fit.csv")
SEED = 0


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run  # pins the BLAS threads before numpy is imported

    run.import_lpadapt()
    import workloads

    workloads.write_inputs("calibrate_verify", SEED, out)  # fit_dense's inputs and the scene of simulate and diagnose
    commands = [*workloads.CalibrateVerify(SEED, out).commands(), *workloads.FitDense(SEED, out).commands()]
    failed = 0
    for command in commands:
        code, seconds = workloads.run_cli(command)
        maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
        print(f"{command[0]:<10} exit {code}  {seconds:.3f} s  maxrss {maxrss_mb:.1f} MiB", flush=True)
        failed += code != 0
    for name in OUTPUTS:
        print(out / name)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
