"""Correctness gate of the benchmark, run outside the timed region.

A job passes only if all of these hold:

- it returned exit code 0 without raising, and printed one JSON document;
- `verify`: every check in its report has status "pass";
- `wrt`: each exact value (tau, W) rebuilt from the JSON as
  ``CycloNumber(D, {k: Fraction(n, d)})`` passes an exact oracle
  cross-check, and its printed numeric value matches the exact one;
  for the default seed it also equals the value recorded at the parent
  commit (`reference.json.gz`), by field equality ``(x - ref).is_zero()``
  (a job that prints no exact value is compared numerically);
- `sweep`: its table has one finite, non-negative residual for every r
  of the requested range, in order.  Residuals are not compared with
  stored values: large-r scans at order >= 2 sit on the float64 floor,
  which later precision work is expected to move.

- `oracle`: when it recomputed the closed form, that equals the state sum.

Oracle cross-checks, exact and for every seed:

- Brieskorn spheres: the false-theta identity on the printed tau,
  xi^(phi/4 - 1/2) (xi - 1) tau = (1/2) F_(1,1,1)(s/r) [+ xi^(1/120) for
  (2,3,5)], and W = (xi - 1) tau (H = 1);
- integer-framed rational homology spheres: the printed tau against the
  tau of the paired oracle job (the colored-Jones surgery state sum,
  timed as part of the workload), and the printed W against
  (H/s) sqrt(H) (xi - 1) tau_oracle;
- a job that prints no exact value: its oracle job also recomputes
  `tau_seifert_closed`, which must equal the state sum exactly, and the
  printed tau is compared with the state sum numerically;
- lens spaces: the printed W against the surgery value
  F(U^p) / F(U^sign p) normalized to W.
"""

from __future__ import annotations

import gzip
import json
import math
from fractions import Fraction
from pathlib import Path

from workloads import Job

REFERENCE = Path(__file__).with_name("reference.json.gz")
# Printed floats are compared with an exact value evaluated in float64.  A
# closed-form sum of thousands of terms with coefficients near 10^5 carries
# errors near 1e-6 (the 4-fiber tau), so the tolerance sits above that floor.
NUMERIC_TOL = 1e-5


def job_key(job: Job) -> str:
    return f"{job.manifold} r={job.r} s={job.s}"


def rebuild(exact: dict):
    from qmwrt.cyclotomic import CycloNumber
    return CycloNumber(exact["conductor"],
                       {k: Fraction(n, d) for k, n, d in exact["coeffs"]})


def load_reference() -> dict:
    with gzip.open(REFERENCE, "rt") as fh:
        return json.load(fh)


def _close(printed: dict, z: complex) -> bool:
    w = complex(printed["re"], printed["im"])
    return abs(w - z) <= NUMERIC_TOL * (1 + abs(z))


def _ctx(job: Job):
    from qmwrt.number_theory import RootContext, normalize_s
    return RootContext(job.r, normalize_s(job.s, job.r))


def _wrt_values(payload: dict) -> dict[str, dict]:
    return {item["name"]: item for item in payload["results"]}


def _check_brieskorn(job: Job, values: dict) -> list[str]:
    from qmwrt.cyclotomic import xi_power
    from qmwrt.false_theta import eichler_limit, phi_basis
    from qmwrt.seifert import invariants, parse_manifold

    ctx = _ctx(job)
    d = parse_manifold(job.manifold)
    inv = invariants(d)
    p = tuple(x for x, _ in d.fibers)
    tau, w = rebuild(values["tau"]["exact"]), rebuild(values["W"]["exact"])
    xi_minus_1 = xi_power(ctx, 1) - 1
    lhs = xi_power(ctx, inv.phi / 4 - Fraction(1, 2)) * xi_minus_1 * tau
    rhs = Fraction(1, 2) * eichler_limit(phi_basis(p, (1, 1, 1)), inv.P,
                                         Fraction(ctx.s, ctx.r))
    if sorted(p) == [2, 3, 5]:
        rhs = rhs + xi_power(ctx, Fraction(1, 120))
    errors = []
    if not (lhs - rhs).is_zero():
        errors.append("tau fails the false-theta identity")
    if not (w - xi_minus_1 * tau).is_zero():
        errors.append("W != (xi - 1) tau")
    return errors


def _w_from_tau(tau, H: int, ctx):
    from qmwrt.cyclotomic import xi_power
    from qmwrt.number_theory import jacobi
    from qmwrt.wrt import sqrt_homology_order
    return jacobi(H, ctx.s) * sqrt_homology_order(H) * (xi_power(ctx, 1) - 1) * tau


def _check_against_oracle(job: Job, values: dict, oracle: dict) -> list[str]:
    from qmwrt.seifert import invariants, parse_manifold

    if job.manifold.startswith("lens:"):
        if not (rebuild(values["W"]["exact"]) - oracle["W"]).is_zero():
            return ["W != lens surgery oracle"]
        return []
    tau = oracle["tau"]
    if not job.exact:
        # the oracle job's own check compares its recomputed closed form
        # with the state sum exactly
        if not _close(values["tau"], tau.eval_complex()):
            return ["printed tau differs from the surgery oracle"]
        return []
    errors = []
    if not (rebuild(values["tau"]["exact"]) - tau).is_zero():
        errors.append("tau != surgery oracle")
    w_ref = _w_from_tau(tau, invariants(parse_manifold(job.manifold)).H, _ctx(job))
    if not (rebuild(values["W"]["exact"]) - w_ref).is_zero():
        errors.append("W != (H/s) sqrt(H) (xi - 1) tau_oracle")
    return errors


def _check_wrt(job: Job, payload: dict, reference: dict | None,
               oracle: dict | None) -> list[str]:
    values = _wrt_values(payload)
    errors = []
    for name in ("tau", "W"):
        item = values.get(name)
        if item is None:
            continue
        if "exact" in item and not _close(item, rebuild(item["exact"]).eval_complex()):
            errors.append(f"printed {name} differs from its exact value")
        ref = (reference or {}).get(name)
        if ref is None:
            continue
        if "exact" not in ref:
            if not _close(item, complex(ref["re"], ref["im"])):
                errors.append(f"printed {name} differs from the recorded reference")
        elif "exact" not in item:
            errors.append(f"{name}: no exact value printed")
        elif not (rebuild(item["exact"]) - rebuild(ref["exact"])).is_zero():
            errors.append(f"{name} differs from the recorded reference")
    if job.manifold.startswith("brieskorn:"):
        errors += _check_brieskorn(job, values)
    elif oracle is None:
        errors.append("no oracle job for this manifold")
    else:
        errors += _check_against_oracle(job, values, oracle)
    return errors


def _check_verify(payload: dict) -> list[str]:
    results = payload.get("results", [])
    if not results:
        return ["empty verification report"]
    return [f"check {c['check']} failed: {c.get('detail', '')}"
            for c in results if c.get("status") != "pass"]


def _check_sweep(job: Job, payload: dict) -> list[str]:
    rows = payload.get("results", [])
    got = [row["r"] for row in rows]
    if got != list(job.r_list):
        return [f"sweep rows {got} do not cover r = {list(job.r_list)}"]
    bad = [row["r"] for row in rows
           if not (math.isfinite(row["abs_residual"]) and row["abs_residual"] >= 0)]
    return [f"non-finite residual at r = {bad}"] if bad else []


def check_job(job: Job, rc, output, reference: dict | None,
              oracle: dict | None = None) -> list[str]:
    """Reasons the job failed; empty when it passed.  `output` is the
    printed text (the value dict of an oracle job); `reference` is the
    recorded reference table for the default seed, None for other seeds;
    `oracle` is the value dict of the job's oracle job, if any."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        if job.kind == "oracle":
            if "closed" in output and not (output["closed"] - output["tau"]).is_zero():
                return ["tau_seifert_closed != surgery oracle"]
            return []
        try:
            payload = json.loads(output)
        except ValueError:
            return ["output is not one JSON document"]
        if job.kind == "verify":
            return _check_verify(payload)
        if job.kind == "sweep":
            return _check_sweep(job, payload)
        ref = None
        if reference is not None:
            ref = reference.get(job_key(job))
            if ref is None:
                return [f"no recorded reference for {job_key(job)}"]
        return _check_wrt(job, payload, ref, oracle)
    except Exception as exc:   # a malformed payload is a failed job
        return [f"check raised {type(exc).__name__}: {exc}"]
