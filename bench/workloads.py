"""The benchmark's workloads: job lists of `qmwrt` CLI argument vectors,
drawn from a seed.

Each job has a band of roots of unity r and a set of numerator classes s.
The seed picks one r from the band and one s from the classes.  A job's
cost grows like r^2 to r^3, so a band only holds values whose cost was
measured close (interleaved runs on one machine: within 6% per job, 12%
for `verify` of (2,3,7) at s = 1 or 5); most jobs keep one r and let the
seed move s.  Every (r, s) pair a band
allows is a valid input: the CLI accepts it and every check passes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]     # CLI argument vector (a label for oracle jobs)
    kind: str                 # wrt | verify | sweep | oracle
    manifold: str
    r: int | None = None      # wrt / verify / oracle
    s: int = 1
    exact: bool = True        # wrt prints exact values; oracle: its wrt did
    r_list: tuple[int, ...] = field(default=())   # sweep


@dataclass(frozen=True)
class Spec:
    kind: str
    manifold: str
    rs: tuple[int, ...]
    ss: tuple[int, ...] = (1,)
    exact: bool = True        # wrt: print exact values
    oracle: bool = False      # wrt: follow with the surgery-oracle job


IHS = (
    Spec("wrt", "brieskorn:2,3,5", (31,), (1, 13)),
    Spec("wrt", "brieskorn:2,3,7", (31,)),
    Spec("wrt", "brieskorn:2,5,7", (19,), (1, 13)),
    Spec("verify", "brieskorn:2,3,5", (101, 103)),
    Spec("verify", "brieskorn:2,3,7", (43,), (1, 5)),
    Spec("verify", "brieskorn:2,5,7", (31,), (13,)),
)

QHS = (
    Spec("wrt", "ex:2-3-3", (11,), (1, 5), oracle=True),
    Spec("wrt", "ex:neg-2-3-9", (11,), (1, 5), oracle=True),
    Spec("wrt", "ex:family:2", (7,), (1, 17), oracle=True),
    Spec("wrt", "ex:family:3", (9,), (1, 5), oracle=True),
    # W embeds into conductor lcm(4Pr, H) = 1,867,320: the memory stressor.
    # Its 352,800-term exact W is not printed; the oracle job checks tau.
    Spec("wrt", "seifert:0;2/1,3/1,5/1,7/1", (9,), exact=False,
         oracle=True),
    Spec("wrt", "lens:7", (29, 31), (1, 5), oracle=True),
    Spec("verify", "ex:2-3-3", (13,), (1, 5)),
    Spec("verify", "ex:neg-2-3-9", (13,), (1, 5)),
    Spec("verify", "ex:family:2", (11,), (1, 17)),
    Spec("verify", "ex:family:3", (9,), (1, 5)),
    Spec("verify", "lens:7", (29, 31), (1, 5)),
)

# numeric sweeps: (manifold, order); each covers SWEEP_COUNT values of r
SWEEPS = (
    ("brieskorn:2,3,5", 2),
    ("brieskorn:2,3,7", 3),
    ("brieskorn:2,5,7", 2),
)
SWEEP_STARTS = tuple(range(1001, 1101, 2))
SWEEP_STEP = 1300
SWEEP_COUNT = 30

WORKLOADS = ("ihs_exact", "qhs_exact", "numeric_sweep")


def _spec_jobs(spec: Spec, rng: random.Random) -> list[Job]:
    r = rng.choice(spec.rs)
    s = rng.choice(spec.ss)
    where = ("--manifold", spec.manifold, "--r", str(r), "--s", str(s))
    if spec.kind == "verify":
        return [Job(("verify", "all", *where, "--json"), "verify",
                    spec.manifold, r, s)]
    flags = ("--exact", "--json") if spec.exact else ("--json",)
    jobs = [Job(("wrt", *where, *flags), "wrt", spec.manifold, r, s, spec.exact)]
    if spec.oracle:
        jobs.append(Job(("oracle", *where), "oracle", spec.manifold, r, s,
                        spec.exact))
    return jobs


def run_oracle(job: Job) -> dict:
    """The library side of an oracle job: tau (W for lens spaces) from the
    colored-Jones surgery state sum.  When the paired `wrt` job prints no
    exact value, the closed form is recomputed too, as "closed".  Modules
    are looked up at call time, so the tracer sees every call."""
    from qmwrt import number_theory, seifert, wrt

    ctx = number_theory.RootContext(job.r, number_theory.normalize_s(job.s, job.r))
    if job.manifold.startswith("lens:"):
        p = int(job.manifold.split(":", 1)[1])
        return {"W": wrt.w_normalized(wrt.wrt_lens_brute(p, ctx), p, ctx).exact}
    d = seifert.parse_manifold(job.manifold)
    out = {"tau": wrt.wrt_brute_surgery(d, ctx).exact}
    if not job.exact:
        out["closed"] = wrt.tau_seifert_closed(d, ctx).exact
    return out


def _sweep_job(manifold: str, order: int, rng: random.Random) -> Job:
    start = rng.choice(SWEEP_STARTS)
    stop = start + (SWEEP_COUNT - 1) * SWEEP_STEP
    r_list = tuple(range(start, stop + 1, SWEEP_STEP))
    s = rng.choice([s for s in (1, 5) if all(math.gcd(s, r) == 1 for r in r_list)])
    argv = ("sweep", "--manifold", manifold,
            "--r-range", f"{start}:{stop}:{SWEEP_STEP}", "--s", str(s),
            "--order", str(order), "--jobs", "1", "--json")
    return Job(argv, "sweep", manifold, s=s, r_list=r_list)


def build(workload: str, seed: int) -> list[Job]:
    """The job list of one workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "ihs_exact":
        return [job for spec in IHS for job in _spec_jobs(spec, rng)]
    if workload == "qhs_exact":
        return [job for spec in QHS for job in _spec_jobs(spec, rng)]
    if workload == "numeric_sweep":
        return [_sweep_job(m, order, rng) for m, order in SWEEPS]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
