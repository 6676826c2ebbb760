"""covertq benchmark: one closed-loop caller runs one workload for a fixed time.

Usage, from the root of a checkout:

    python3 bench/run.py --workload montecarlo --seed 42 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 42 --seconds 45

A run sets up the workload, makes one warm-up pass, then repeats passes until
``--seconds`` have elapsed.  Every pass is checked outside the timed region
and must reproduce the first pass; the first pass also goes through the
workload's oracle.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (pass counts, every sample, the environment).

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median pass),
``setup_s`` (median over fresh processes of interpreter start to inputs
ready) and ``peak_rss_mb``.  Both times are given at a fixed machine speed:
a fixed numpy kernel is timed before and after every pass and every set-up
probe, and each sample is scaled by ``REFERENCE_S`` over the kernel's time
around it.  The unscaled times are on the details line.  ``--trace 1``
alternates untraced and traced passes and reports per-layer calls and self
time per traced pass, plus the tracing overhead.  ``--workload all`` runs both workloads both ways, each in
its own process, and prints a table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("montecarlo", "eg_sweep")
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Seconds the speed reference takes, as the median of its runs on the machine the
#: benchmark was defined on (two cores of an Intel Xeon at 2.1 GHz, numpy 2.4.6
#: with OpenBLAS on 2 threads), so scaled times read close to that machine's.
REFERENCE_S = 0.045


def cap_blas_threads() -> int:
    """Cap the BLAS thread count at nproc for this process and its children."""
    nproc = len(os.sched_getaffinity(0))
    requested = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or ""
    threads = min(int(requested), nproc) if requested.isdigit() and int(requested) > 0 else nproc
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def environment(blas_threads: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_kb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 1024,
        "blas_threads": blas_threads,
    }


class SpeedReference:
    """A fixed numpy kernel whose time tracks the machine's current speed.

    On a shared host the speed of the same code drifts by up to 1.5x over tens
    of seconds, with other tenants' load; a run's median pass time follows
    that drift.  The kernel is timed next to every sample, and the sample is
    rescaled to the speed at which the kernel takes ``REFERENCE_S``.  Like the
    workloads, it spends part of its time on many small linear-algebra calls
    (Python and numpy call overhead) and part on a dense complex SVD (BLAS).
    Its inputs are fixed, so it does the same work in every run.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(20250327)
        self._np = np
        self._small = [h + h.T for h in rng.standard_normal((64, 2, 2))]
        self._dense = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        self.time()  # load the LAPACK routines before the first timed call

    def time(self) -> float:
        """Median time of five equal chunks, so that one stall does not count."""
        np, small = self._np, self._small
        chunks = []
        for _ in range(5):
            t0 = time.perf_counter()
            for i in range(1000):
                h = small[i % 64]
                np.linalg.eigvalsh(h)
                np.trace(h @ h)
            np.linalg.svd(self._dense)
            chunks.append(time.perf_counter() - t0)
        return statistics.median(chunks)


def scaled(sample: float, before: float, after: float) -> float:
    """A time rescaled to reference speed, from the kernel's times around it."""
    return sample * REFERENCE_S / (0.5 * (before + after))


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until its inputs are ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    ready = [line for line in proc.stdout.splitlines() if line.startswith("READY ")]
    return float(ready[-1].split()[1]) - t0


def measure(workload, seed: int, seconds: float, trace: bool, tmp: str, speed: SpeedReference) -> dict:
    """Warm-up pass, then closed-loop passes until the time is up.

    The speed reference runs before every pass and once after the last.
    """
    from spans import Tracer
    from workloads import mismatches

    inp = workload.setup(seed, tmp)
    tracer = Tracer()
    if trace:
        tracer.install()
    walls, traced_walls, errors, refs, untraced = [], [], [], [], []
    first = None
    attempted = failed = 0
    deadline = None
    i = 0
    while deadline is None or time.perf_counter() < deadline or (trace and not traced_walls):
        traced = trace and i > 0 and i % 2 == 0
        refs.append(speed.time())
        if traced:
            tracer.begin_pass(i)
        pass_errors = []
        t0 = time.perf_counter()
        try:
            raw = workload.run(inp)
        except Exception as exc:  # a failed operation is counted, not fatal
            traceback.print_exc()
            raw, pass_errors = None, [f"{type(exc).__name__}: {exc}"]
        wall = time.perf_counter() - t0
        tracer.end_pass()
        if not pass_errors:
            try:
                value, pass_errors = workload.check(inp, raw)
            except Exception as exc:
                value, pass_errors = None, [f"check raised {type(exc).__name__}: {exc}"]
            if not pass_errors:
                if first is None:
                    first = value
                pass_errors = mismatches(value, first, rel=1e-8)
        if traced and tracer.self_total(i) > wall:
            pass_errors.append(f"traced self time {tracer.self_total(i)} exceeds pass wall {wall}")
        attempted += 1
        if pass_errors:
            failed += 1
            errors += [f"pass {i}: {e}" for e in pass_errors]
        if i == 0:
            deadline = time.perf_counter() + seconds
        elif traced:
            traced_walls.append(wall)
        else:
            walls.append(wall)
            untraced.append(i)
        i += 1
    refs.append(speed.time())
    scaled_walls = [scaled(w, refs[j], refs[j + 1]) for w, j in zip(walls, untraced)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if first is None:
        oracle_errors = ["no pass produced a checked result"]
    else:
        try:
            oracle_errors = workload.oracle(inp, first)
        except Exception as exc:
            oracle_errors = [f"oracle raised {type(exc).__name__}: {exc}"]
    if oracle_errors:
        # every pass reproduced the first one, so an oracle mismatch fails them all
        failed = attempted
        errors += [f"oracle: {e}" for e in oracle_errors]
    return {"walls": walls, "scaled_walls": scaled_walls, "refs": refs,
            "traced_walls": traced_walls, "attempted": attempted,
            "failed": failed, "errors": errors, "peak_rss_mb": peak_rss_mb, "tracer": tracer}


def run_one(args, blas_threads: int) -> int:
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_probe:
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            workload.setup(args.seed, tmp)
            print(f"READY {time.monotonic()!r}", flush=True)
        return 0
    trace = args.trace == 1
    speed = SpeedReference()
    setups, setup_refs = [], [speed.time()]
    for _ in range(0 if trace else SETUP_PROBES):
        setups.append(probe_setup(args.workload, args.seed))
        setup_refs.append(speed.time())
    scaled_setups = [scaled(s, setup_refs[j], setup_refs[j + 1]) for j, s in enumerate(setups)]
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        result = measure(workload, args.seed, args.seconds, trace, tmp, speed)
    walls, traced_walls, tracer = result["walls"], result["traced_walls"], result["tracer"]
    if not walls:
        print("error: no timed pass completed", file=sys.stderr)
        return 1
    wall = statistics.median(walls)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if trace:
        traced_wall = statistics.median(traced_walls)
        metrics = tracer.metrics()
        metrics.update({
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": wall,
            "trace.overhead_s": traced_wall - wall,
            "trace.self_total_s": statistics.median(tracer.self_total(p) for p in tracer.per_pass),
        })
        spans_path = OUT_DIR / f"spans-{stem}.json.gz"
        spans = tracer.write_spans(str(spans_path), args.workload)
        units = {name: _unit(name) for name in metrics}
    else:
        metrics = {"wall_s": statistics.median(result["scaled_walls"]),
                   "setup_s": statistics.median(scaled_setups),
                   "peak_rss_mb": result["peak_rss_mb"]}
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        spans_path, spans = None, 0
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(walls), "traced_passes": len(traced_walls),
        "unscaled_wall_s": wall, "unscaled_setup_s": statistics.median(setups) if setups else None,
        "pass_wall_s": walls, "scaled_pass_wall_s": result["scaled_walls"],
        "traced_pass_wall_s": traced_walls, "setup_s": setups, "scaled_setup_s": scaled_setups,
        "reference_s": REFERENCE_S, "pass_reference_s": result["refs"], "setup_reference_s": setup_refs,
        "fail_frac": result["failed"] / result["attempted"],
        "errors": result["errors"][:20], "spans": spans,
        "spans_file": spans_path and str(spans_path.relative_to(ROOT)),
        "environment": environment(blas_threads),
    }
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump({"details": details, "result": final}, fh, indent=1)
    for e in result["errors"][:20]:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps({"details": details}))
    print(json.dumps(final))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process; print a table."""
    summary, ok = {}, True
    for name in WORKLOAD_NAMES:
        out = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=args.seconds + 120)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} --trace {trace} failed:\n{proc.stderr}", file=sys.stderr)
                return 1
            out[trace] = (json.loads(lines[-2])["details"], json.loads(lines[-1]))
        (d0, r0), (d1, r1) = out[0], out[1]
        m0, m1 = r0["metrics"], r1["metrics"]
        ok = ok and r0["correct"] and r1["correct"]
        summary[name] = {
            "wall_s": m0["wall_s"]["value"], "unscaled_wall_s": d0["unscaled_wall_s"],
            "passes": d0["passes"],
            "setup_s": m0["setup_s"]["value"], "setups": len(d0["setup_s"]),
            "peak_rss_mb": m0["peak_rss_mb"]["value"], "fail_frac": d0["fail_frac"],
            "traced_wall_s": m1["trace.wall_s"]["value"],
            "trace_overhead_s": m1["trace.overhead_s"]["value"],
            "traced_passes": d1["traced_passes"],
        }
    print(f"{'workload':<10} {'wall_s [s]':>18} {'unscaled [s]':>12} {'setup_s [s]':>16} {'peak_rss_mb [MB]':>17} "
          f"{'fail_frac':>9} {'traced wall_s [s]':>20} {'overhead [s]':>12}")
    for name, s in summary.items():
        print(f"{name:<10} {s['wall_s']:>11.4f} (n={s['passes']:>2}) {s['unscaled_wall_s']:>12.4f} "
              f"{s['setup_s']:>9.4f} (n={s['setups']}) "
              f"{s['peak_rss_mb']:>17.1f} {s['fail_frac']:>9.3f} "
              f"{s['traced_wall_s']:>13.4f} (n={s['traced_passes']:>2}) {s['trace_overhead_s']:>12.4f}")
    print(f"wall_s and setup_s at reference speed ({REFERENCE_S} s speed kernel); unscaled: median pass wall time")
    print(f"environment: {json.dumps(out[0][0]['environment'])}")
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "covertq" / "__init__.py").is_file():
        print(f"error: no covertq sources under {SRC}", file=sys.stderr)
        return 2
    blas_threads = cap_blas_threads()
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import covertq

    if Path(covertq.__file__).resolve().parent != SRC / "covertq":
        print(f"error: imported covertq from {covertq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run_one(args, blas_threads)


if __name__ == "__main__":
    sys.exit(main())
