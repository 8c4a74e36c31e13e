"""Benchmark of the qmwrt command line: exact WRT invariants of integer and
rational homology spheres, and numeric residual sweeps.

    python3 bench/run.py --workload ihs_exact --seed 1 --seconds 36 --trace 0

Runs the workload's job list (see `workloads.py`) in this process through
`qmwrt.cli.main`, one job at a time (a closed loop with one client), and
repeats the list while another pass fits in `--seconds`.  Before each job
the package's functools caches are cleared and garbage is collected, so
every job starts as a fresh `qmwrt` invocation would.  The outputs are
then checked (`checks.py`) outside the timed region.

`--trace 0` reports the end-to-end metrics: `wall_s` (the sum over jobs
of each job's median time over passes: the time to finish the job list),
`max_job_s` (the largest of those medians), `peak_rss_mb` (peak resident
memory after the timed passes) and `setup_s` (median time for a fresh
interpreter to import qmwrt).  See "Timing" below for how a time is
measured.  `--trace 1` alternates untraced and traced passes (see
`tracing.py`) and reports the per-layer metrics named in BENCHMARK.json;
spans are written to `.bench_out/`.

Timing.  The benchmark runs on a virtual machine that shares its host, and
there the wall clock of a compute-bound job wanders in two ways.  The
hypervisor takes the vCPU away for up to a second at a time (a 2.2 s job
then reads 3.4 s of wall time but 2.4 s of CPU time), and the speed of the
vCPU itself changes by up to 1.6x, from second to second and for minutes
at a time, as load on the host comes and goes.  Every job runs on this
one thread, so a time is taken as this process's CPU time, which leaves
out the first effect.  For the second, the benchmark times a fixed piece
of its own work, the probe (see `probe`), after each job, and scales
every job time of the run by PROBE_REF_S / (median probe time of the
run): times are reported in seconds at the vCPU speed at which
PROBE_REF_S was recorded.  (A factor per pass follows a change of speed
within a run more closely, but its fewer samples made it noisier on the
short passes of numeric_sweep.)  The setup measurement, which runs before
the passes, probes between its imports and is scaled by its own probes.
Raw wall and CPU times go to the run record.

The last line of standard output is one JSON object:
{"correct": bool, "attempted": int, "failed": int, "metrics": {...}}.
Exits with code 1, with no result line, when the qmwrt sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import checks      # noqa: E402
import tracing     # noqa: E402
import workloads   # noqa: E402

SETUP_REPEATS = 11
# Between imports, the setup measurement probes the host this many times.
SETUP_PROBES = 8
IMPORT_PROBE = """\
import sys, time
src = sys.argv[1]
sys.path.insert(0, src)
t = time.thread_time()
import qmwrt
dt = time.thread_time() - t
assert qmwrt.__file__.startswith(src), qmwrt.__file__
print(repr(dt))
"""


# The speed probe (see "Timing" in the module docstring).  It runs after
# each job for PROBE_SHARE of the job's time (at least once), and mixes the
# two kinds of work the workloads do: a sparse product of big-integer dicts
# (the shape of the cyclotomic layer) and a numpy phase sum (the float
# path).  It uses no qmwrt code, so a change to the program cannot move it,
# and its numpy part writes into buffers made once, so that its time does
# not depend on the state of the heap the job before it left behind.
PROBE_REF_S = 0.016      # median probe CPU time, 2-vCPU host of the README
PROBE_SHARE = 0.1
_rng = random.Random(7)
PROBE_A = {_rng.randrange(4096): _rng.randrange(1, 1 << 40) for _ in range(181)}
PROBE_B = {_rng.randrange(4096): _rng.randrange(1, 1 << 40) for _ in range(181)}
PROBE_K = np.arange(1, 131073, dtype=np.int64)
PROBE_I = np.empty_like(PROBE_K)
PROBE_Z = np.empty(PROBE_K.shape, dtype=complex)


def probe() -> float:
    """CPU seconds taken by one run of the probe's fixed work."""
    t = time.process_time()
    out = [0] * 4096
    for i, x in PROBE_A.items():
        for j, y in PROBE_B.items():
            out[(i + j) & 4095] += x * y
    k, n, z = PROBE_K, PROBE_I, PROBE_Z
    np.multiply(k, k, out=n)
    np.remainder(n, 8191, out=n)
    np.multiply(n, 2j * np.pi / 8191, out=z)
    np.exp(z, out=z)
    np.multiply(z, k, out=z)
    z.sum()
    return time.process_time() - t


def probe_for(seconds: float, samples: list[float]) -> None:
    """Probe until the probes took `seconds` (at least once)."""
    spent = 0.0
    while True:
        samples.append(probe())
        spent += samples[-1]
        if spent >= seconds:
            return


def speed_scale(samples: list[float]) -> float:
    """Factor that converts a CPU time measured while the probe took
    `samples` to seconds at the reference speed."""
    return PROBE_REF_S / statistics.median(samples)


def import_qmwrt():
    if not (SRC / "qmwrt" / "__init__.py").is_file():
        raise SystemExit(f"error: qmwrt sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import qmwrt
    import qmwrt.cli
    if not qmwrt.__file__.startswith(str(SRC)):
        raise SystemExit(f"error: imported qmwrt from {qmwrt.__file__}, not {SRC}")
    return qmwrt


def measure_setup() -> tuple[list[float], list[float]]:
    """CPU seconds for fresh interpreters to finish `import qmwrt`, and the
    probe samples taken between them.  The child times its main thread
    only: importing numpy starts a BLAS helper thread whose start-up spin
    on the other vCPU nobody waits for."""
    times, samples = [], []
    for _ in range(SETUP_REPEATS):
        samples.extend(probe() for _ in range(SETUP_PROBES))
        out = subprocess.run([sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=60, check=True)
        times.append(float(out.stdout))
    return times, samples


def package_caches(qmwrt) -> list:
    """Every functools cache in the package, so a job can start cold."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name.startswith("qmwrt."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value
    return list(found.values())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_pass(cli, jobs, caches, tracer=None, keep_output=False,
             probes=None) -> list[tuple]:
    """Run every job once; returns (exit code, output, CPU seconds, wall
    seconds) per job.
    The output is the printed text with `keep_output`, else its digest, so
    memory does not grow with the number of passes; an oracle job's output
    is its dict of exact values.  With a `probes` list, the speed probe
    runs after each job (outside its timed region) into that list."""
    results = []
    for i, job in enumerate(jobs):
        for cache in caches:
            cache.cache_clear()
        gc.collect()
        if tracer is not None:
            tracer.job = i
        buf, value = io.StringIO(), None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                if job.kind == "oracle":
                    value = workloads.run_oracle(job)
                    rc = 0
                else:
                    rc = cli.main(list(job.argv))
        except (Exception, SystemExit) as exc:
            rc = f"raised {type(exc).__name__}: {exc}"
        dc, dt = time.process_time() - c0, time.perf_counter() - t0
        if job.kind != "oracle":
            value = buf.getvalue() if keep_output else digest(buf.getvalue())
        results.append((rc, value, dc, dt))
        if probes is not None:
            probe_for(PROBE_SHARE * dc, probes)
    return results


def pass_time(results) -> float:
    """CPU seconds of a pass."""
    return sum(dc for _rc, _out, dc, _dt in results)


def job_medians(passes, scale: float) -> list[float]:
    """Per job, the median over passes of its CPU time at reference speed."""
    return [statistics.median(p[i][2] for p in passes) * scale
            for i in range(len(passes[0]))]


def same_output(job, first, later) -> bool:
    if job.kind != "oracle":
        return later == digest(first)
    return (first is not None and later is not None and first.keys() == later.keys()
            and all((first[k] - later[k]).is_zero() for k in first))


def environment(qmwrt) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "qmwrt": qmwrt.__version__,
            "platform": platform.platform()}


def grade(jobs, passes, seed: int) -> tuple[int, int, list[str]]:
    """Check the first pass in full and every later pass for identical
    output.  Returns (attempted, failed, messages)."""
    reference = checks.load_reference() if seed == workloads.DEFAULT_SEED else None
    first = passes[0]
    oracles = {checks.job_key(job): out for job, (rc, out, *_) in zip(jobs, first)
               if job.kind == "oracle" and rc == 0}
    verdicts = [checks.check_job(job, rc, out, reference,
                                 oracles.get(checks.job_key(job)))
                for job, (rc, out, *_) in zip(jobs, first)]
    attempted = failed = 0
    messages = []
    for k, results in enumerate(passes):
        for i, (job, (rc, out, *_)) in enumerate(zip(jobs, results)):
            attempted += 1
            why = list(verdicts[i])
            if k and (rc != first[i][0] or not same_output(job, first[i][1], out)):
                why.append(f"pass {k} output differs from pass 0")
            if why:
                failed += 1
                if k == 0 or not verdicts[i]:
                    messages.append(f"FAIL {' '.join(job.argv)}: {'; '.join(why)}")
    return attempted, failed, messages


def measure(cli, jobs, caches, seconds: float):
    """Passes of the job list while another fits in `seconds`; returns
    the passes and the probe samples taken between their jobs."""
    passes, probes = [], []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, jobs, caches, keep_output=not passes,
                               probes=probes))
        longest = max(sum(dt for *_, dt in p) for p in passes) * (1 + PROBE_SHARE)
        if time.perf_counter() - start + longest > seconds:
            return passes, probes


def measure_traced(cli, jobs, caches, seconds: float):
    """Alternate untraced and traced passes (at least one of each)."""
    tracer = tracing.Tracer()
    untraced, traced, stats, spans, probes = [], [], [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(cli, jobs, caches, keep_output=not untraced,
                                 probes=probes))
        tracer.install()
        try:
            traced.append(run_pass(cli, jobs, caches, tracer, probes=probes))
        finally:
            tracer.uninstall()
        stats.append(tracer.layer_stats())
        spans.append(list(tracer.spans))
        tracer.reset()
        longest = max(sum(dt for *_, dt in u + t)
                      for u, t in zip(untraced, traced)) * (1 + PROBE_SHARE)
        if time.perf_counter() - start + longest > seconds:
            return untraced, traced, stats, spans, probes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    qmwrt = import_qmwrt()
    cli = sys.modules["qmwrt.cli"]
    caches = package_caches(qmwrt)
    jobs = workloads.build(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "environment": environment(qmwrt),
              "jobs": [list(job.argv) for job in jobs]}

    if args.trace:
        per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        untraced, traced, stats, spans, probes = measure_traced(
            cli, jobs, caches, args.seconds)
        scale = speed_scale(probes)
        attempted, failed, messages = grade(jobs, untraced + traced, args.seed)
        signatures = [tracing.counts_signature(st) for st in stats]
        counts_repeat = all(sig == signatures[0] for sig in signatures)
        if not counts_repeat:
            messages.append("FAIL layer counts differ between traced passes")
        values = tracing.layer_metrics(
            stats, [m["name"] for m in per_layer],
            [pass_time(p) * scale for p in untraced],
            [pass_time(p) * scale for p in traced])
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in per_layer}
        record.update(traced_cpu=[[dc for *_, dc, _dt in p] for p in traced],
                      layers=stats[0])
        tracing.dump(OUT / f"spans-{tag}.jsonl.gz", spans, record)
        passes = untraced
    else:
        import_times, setup_probes = measure_setup()
        passes, probes = measure(cli, jobs, caches, args.seconds)
        scale = speed_scale(probes)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted, failed, messages = grade(jobs, passes, args.seed)
        counts_repeat = True
        per_job = job_medians(passes, scale)
        metrics = {
            "wall_s": {"value": sum(per_job), "unit": "s"},
            "max_job_s": {"value": max(per_job), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(import_times)
                        * speed_scale(setup_probes), "unit": "s"},
        }
        record.update(import_times=import_times, setup_probes=setup_probes)

    record.update(speed_scale=scale, probes=probes,
                  cpu=[[dc for *_, dc, _dt in p] for p in passes],
                  wall=[[dt for *_, dt in p] for p in passes],
                  attempted=attempted, failed=failed, messages=messages)
    (OUT / f"run-{tag}.json").write_text(json.dumps(record, indent=1))

    for k, job in enumerate(jobs):
        times = " ".join(f"{p[k][2]:.3f}/{p[k][3]:.3f}" for p in passes)
        print(f"job {k}: {' '.join(job.argv)}  [{times}] CPU/wall s")
    print(f"speed scale {scale:.4f} from {len(probes)} probes")
    for line in messages:
        print(line)
    print(f"{args.workload} seed={args.seed} passes={len(passes)} "
          f"attempted={attempted} failed={failed} "
          f"failed_frac={failed / attempted:.4f}")
    result = {"correct": failed == 0 and counts_repeat, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
