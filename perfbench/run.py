#!/usr/bin/env python3
"""Benchmark of the lpadapt command line, driven in-process through ``lpadapt.cli.main``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fit_dense --seed 3 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, one child process each

Workloads (see perfbench/RATIONALE.md for why each exists):

* ``fit_dense``         ``lpadapt fit`` at all 6000 points of a jump scene, fixed z = 4.
* ``calibrate_verify``  ``lpadapt calibrate --mc 20000`` on the same data and
  config, then ``verify`` (full suite), ``simulate`` and ``diagnose`` on an
  n = 400 jump scene with a misspecified noise model.

Each run is a closed loop with one caller.  Inputs are generated from
``--seed``; set-up (imports, input generation, writing the input files) is
timed in fresh child processes and is not part of ``wall_s``.  Workloads
with short passes first make one untimed warm-up pass.  Timed passes repeat
for about ``--seconds`` (the run stops where its end is nearest), and
``wall_s`` is their median; every pass's outputs are checked outside the
timed region.  With ``--trace 1`` untraced and traced passes alternate and
the per-layer metrics of ``perfbench/tracing.py`` are reported together with
the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# Pin the BLAS thread count before numpy is imported, here and in every child.
# numpy, lpadapt and the benchmark's other modules are imported inside
# functions, so that a set-up child's timing includes their import.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("fit_dense", "calibrate_verify")
END_TO_END = ("wall_s", "peak_rss_mb", "setup_s")
SETUP_REPEATS = 3


def import_lpadapt():
    """Import lpadapt from this checkout's src/, never from elsewhere."""
    if not (SRC / "lpadapt" / "__init__.py").is_file():
        raise SystemExit(f"error: no lpadapt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lpadapt

    if Path(lpadapt.__file__).resolve().parent != (SRC / "lpadapt").resolve():
        raise SystemExit(f"error: imported lpadapt from {lpadapt.__file__}, not from {SRC}")
    return lpadapt


# ---------------------------------------------------------------- set-up


def workdir(workload: str) -> Path:
    return OUT / workload


def setup_child(workload: str, seed: int) -> float:
    """Body of one set-up child: import, generate and write; returns its seconds."""
    t0 = perf_counter()
    import_lpadapt()
    import workloads

    workloads.write_inputs(workload, seed, workdir(workload))
    return perf_counter() - t0


def measure_setup(workload: str, seed: int) -> list[float]:
    """Run SETUP_REPEATS fresh set-up processes in turn; each reports its own time."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up failed for {workload}:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


# ---------------------------------------------------------------- environment


def blas_threads() -> dict[str, int]:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and line.rstrip().endswith(".so")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = int(fn())
                break
    return found


def l3_cache_bytes() -> int | None:
    path = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    if not path.is_file():
        return None
    text = path.read_text().strip()
    mult = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * mult


def environment(workload: str) -> dict:
    import numpy
    import scipy
    import workloads

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": blas_threads(),
        "l3_cache_bytes": l3_cache_bytes(),
        "working_set_bytes_computed": workloads.working_set_bytes(workload),
    }


def timed_pass(workload, tracer=None) -> tuple[list[int], list[float]]:
    """Run the workload's commands once; returns their exit codes and wall times."""
    import workloads

    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        codes, times = [], []
        for argv in workload.commands():
            code, seconds = workloads.run_cli(argv)
            codes.append(code)
            times.append(seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return codes, times


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run timed passes for --seconds, check every output and report one result."""
    setup_times = measure_setup(name, seed)
    import_lpadapt()
    import workloads
    from tracing import COUNTS, Tracer, unit

    wd = workdir(name)
    env = environment(name)
    (wd / "env.json").write_text(json.dumps(env, indent=2) + "\n")

    workload = workloads.WORKLOADS[name](seed, wd)
    outcome = workloads.Outcome()
    untraced: list[float] = []
    traced: list[float] = []
    command_times: list[list[float]] = []  # per untraced pass, one time per command
    layer_passes: list[dict] = []
    tracer = Tracer() if trace else None
    if workload.warmup:
        # first calls (lazy imports, fresh memory) made a first pass 3-20% slower
        codes, _ = timed_pass(workload)
        workload.check(codes, outcome)
    elapsed = 0.0
    # Passes repeat while one more would end nearer to --seconds than stopping
    # now does, so a run overshoots by at most half a pass; there is at least
    # one pass, and a traced run alternates untraced and traced passes.
    while not untraced or elapsed + statistics.median(untraced) / 2 < seconds or (trace and not traced):
        use_tracer = tracer if trace and len(untraced) > len(traced) else None
        codes, times = timed_pass(workload, use_tracer)
        wall = sum(times)
        elapsed += wall
        (traced if use_tracer else untraced).append(wall)
        if use_tracer:
            layer_passes.append(tracer.layer_metrics())
        else:
            command_times.append(times)
        workload.check(codes, outcome)
    workload.finish(outcome)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = statistics.median(untraced)
    setup_s = statistics.median(setup_times)
    q1, q3 = quartiles(untraced)
    print(f"# {name} seed={seed} passes={len(untraced)} untraced" + (f", {len(traced)} traced" if trace else ""))
    print(f"# env {json.dumps(env)}")
    print(f"#   wall_s            {wall_s:.4f} s   (median of {len(untraced)}; quartiles {q1:.4f} .. {q3:.4f})")
    print(f"#   passes_s          {' '.join(f'{w:.4f}' for w in untraced)}")
    per_command = {argv[0]: statistics.median(t[i] for t in command_times) for i, argv in enumerate(workload.commands())}
    if len(per_command) > 1:
        print("#   command_s         " + "  ".join(f"{cmd} {t:.4f}" for cmd, t in per_command.items()) + "   (medians)")
    if name == "fit_dense":
        print(f"#   points_per_s      {workloads.N_DENSE / wall_s:.1f} 1/s")
    if "calibrate" in per_command:
        print(f"#   replicates_per_s  {workloads.MC_SIZE / per_command['calibrate']:.1f} 1/s   (calibrate only)")
    print(f"#   peak_rss_mb       {peak_rss_mb:.1f} MB" + ("   (traced run)" if trace else ""))
    print(f"#   setup_s           {setup_s:.4f} s   (median of {len(setup_times)})")
    print(f"#   failed_ratio      {outcome.failed / outcome.attempted:.6g}   ({outcome.failed} of {outcome.attempted})")
    for note in outcome.notes[:10]:
        print(f"#   FAILED: {note}")

    if not trace:
        metrics = {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb, "setup_s": setup_s}
        units = dict(zip(END_TO_END, ("s", "MB", "s")))
    else:
        tracer.write(str(wd / "spans.csv"))
        # times are medians over the traced passes; counts repeat, so the last pass gives them
        metrics = {key: statistics.median(lp[key] for lp in layer_passes) if unit(key) == "s" else layer_passes[-1][key]
                   for key in layer_passes[0]}
        metrics["trace.wall_s"] = statistics.median(traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall_s
        units = {key: unit(key) for key in metrics}
        for key, value in metrics.items():
            label = "computed" if key in COUNTS else "measured"
            print(f"#   {key:<42} {value:.6g} {units[key]}  ({label})")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own child process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited with {proc.returncode}:\n{proc.stderr}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True, help="workload seed; references exist for seed 0")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        if args.workload == "all":
            parser.error("--setup-only needs one workload")
        print(f"{setup_child(args.workload, args.seed):.9f}")
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
