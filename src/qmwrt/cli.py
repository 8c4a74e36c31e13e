"""Command line front end: compute invariants, run verification suites and
sweeps, emit JSON or CSV.

Subcommands:

  wrt         tau and W of a manifold at (r, s)
  falsetheta  Eichler limits of the periodic bases at s/r or -r/s
  flatconn    flat connection components with Chern-Simons data
  gauss       quadratic Gauss sum, closed form vs brute force
  verify      run verification checks (identity, integrality, geometric,
              decomposition, lemmas, modularity sweep, or all)
  sweep       residual table over a range of r, as CSV

Manifold selectors (case-insensitive): brieskorn:p1,p2,...; lens:p;
seifert:b;p1/q1,...; ex:2-3-3; ex:neg-2-3-9; ex:family:p (the ex: prefix
is optional).

Exit codes: 0 all checks pass, 1 a check failed, 2 bad input (rejected
before any computation where the manifold, suite, r or --out is at fault)
or an --out that cannot be written, 3 an internal arithmetic error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import false_theta, gauss_sums, harness, seifert, wrt
from .cyclotomic import CycloNumber
from .number_theory import RootContext, normalize_s

__all__ = ["JobSpec", "UsageError", "parse_args", "run", "main"]

USAGE_ERROR = 2
INTERNAL_ERROR = 3
# Longest exact walk of `falsetheta`, |support| c/2 terms at denominator c:
# phi at c = 10^6 took 3 s, 110 MB (5 s, 240 MB with --exact --json).
EXACT_WALK_BOUND = 4_000_000


class UsageError(Exception):
    pass


@dataclass
class JobSpec:
    command: str
    manifold: str | None = None             # the selector as given
    model: seifert.Manifold | None = None   # the parsed selector
    suite: str | None = None
    r: int | None = None
    r_range: tuple[int, int, int] | None = None
    s: int = 1
    order: int = 2
    output: str = "text"          # text | json | csv
    exact: bool = False
    jobs: int = 1
    slope_tol: float = 0.5
    basis: str = "phi"
    p: tuple[int, ...] | None = None
    a: tuple[int, ...] | None = None
    at_tilde: bool = False
    out_path: str | None = None


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _parse_range(text: str) -> tuple[int, int, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("range must be start:stop:step")
    start, stop, step = (int(x) for x in parts)
    if start < 3 or start % 2 == 0 or step % 2:
        raise ValueError("r-range must start odd and at 3 or more (r = 1 has no "
                         "invariant), with even step (r stays odd)")
    if step <= 0:
        raise ValueError("r-range step must be positive")
    return start, stop, step


def _r_values(job: JobSpec) -> range:
    """The values of r in --r-range start:stop:step, stop included."""
    start, stop, step = job.r_range
    return range(start, stop + 1, step)


_COMMANDS = {"wrt": "tau and W at a root of unity",
             "falsetheta": "Eichler limits of the bases",
             "flatconn": "flat connection components",
             "gauss": "quadratic Gauss sum closed form vs brute",
             "verify": "run verification checks",
             "sweep": "residual sweep over r, CSV output"}


def _add_arguments(command: str, sp: argparse.ArgumentParser) -> None:
    """Give the subcommand parser `sp` the arguments of `command`."""
    def add_ctx(s_help="numerator class; normalized to 1 mod 4 automatically"):
        sp.add_argument("--r", type=int, required=True, help="odd order of the root")
        sp.add_argument("--s", type=int, default=1, help=s_help)

    if command == "wrt":
        sp.add_argument("--manifold", required=True)
        add_ctx()
        sp.add_argument("--exact", action="store_true")
    elif command == "falsetheta":
        sp.add_argument("--basis", choices=["phi", "psi"], default="phi")
        sp.add_argument("--p", required=True,
                        help="fiber triple p1,p2,p3 (phi) or the period half P (psi)")
        sp.add_argument("--a", required=True,
                        help="rotation triple a1,a2,a3 (phi) or label a (psi)")
        add_ctx(s_help="nonzero numerator coprime to r, used as given")
        sp.add_argument("--tilde", action="store_true",
                        help="evaluate at -r/s instead of s/r")
        sp.add_argument("--exact", action="store_true")
    elif command == "flatconn":
        sp.add_argument("--manifold", required=True)
    elif command == "gauss":
        sp.add_argument("--s", type=int, required=True)
        sp.add_argument("--r", type=int, required=True)
    elif command == "verify":
        sp.add_argument("suite", choices=["identity", "integrality", "geometric",
                                          "decomposition", "lemmas", "modularity",
                                          "all"])
        sp.add_argument("--manifold", required=True)
        sp.add_argument("--r", type=int)
        sp.add_argument("--r-range")
        sp.add_argument("--s", type=int, default=1,
                        help="numerator class; geometric and modularity take "
                             "only s = 1 mod 4 below 4r")
        sp.add_argument("--order", type=int, default=2)
        sp.add_argument("--slope-tol", type=float, default=0.5)
    else:   # sweep
        sp.add_argument("--manifold", required=True)
        sp.add_argument("--r-range", required=True)
        sp.add_argument("--s", type=int, default=1,
                        help="numerator class, 1 mod 4 and below 4r")
        sp.add_argument("--order", type=int, default=2)
        sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--out")


def parse_args(argv: list[str]) -> JobSpec:
    parser = argparse.ArgumentParser(
        prog="qmwrt",
        description="exact WRT invariants, false theta functions and "
                    "quantum modularity checks for Seifert fibered spaces")
    sub = parser.add_subparsers(dest="command", required=True)
    # every command is listed in --help, but only the one argv names (its
    # first word that is a command, as argparse reads it) gets its arguments
    parsers = {name: sub.add_parser(name, help=text) for name, text in _COMMANDS.items()}
    command = next((word for word in argv if word in parsers), None)
    if command:
        _add_arguments(command, parsers[command])

    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):   # --help
            raise
        raise UsageError("invalid arguments") from exc

    job = JobSpec(command=ns.command)
    job.output = "json" if getattr(ns, "json", False) else (
        "csv" if ns.command == "sweep" and not getattr(ns, "json", False) else "text")
    job.out_path = getattr(ns, "out", None)
    if job.out_path and (os.path.isdir(job.out_path)
                         or not os.path.isdir(os.path.dirname(job.out_path) or ".")):
        raise UsageError(f"--out {job.out_path} is a directory or its parent is not")
    job.exact = getattr(ns, "exact", False)
    job.s = getattr(ns, "s", 1)
    job.manifold = getattr(ns, "manifold", None)
    job.suite = getattr(ns, "suite", None)
    job.order = getattr(ns, "order", 2)
    job.jobs = getattr(ns, "jobs", 1)
    job.slope_tol = getattr(ns, "slope_tol", 0.5)
    job.at_tilde = getattr(ns, "tilde", False)
    job.basis = getattr(ns, "basis", "phi")

    r = getattr(ns, "r", None)
    if ns.command == "gauss":
        # gauss sums are defined for any positive modulus
        job.r = r
        if job.r < 1:
            raise UsageError("r must be positive")
        return job
    if r is not None:
        low = 1 if ns.command == "falsetheta" else 3   # r = 1, xi = 1: no invariant
        if r < low or r % 2 == 0:
            raise UsageError(f"r must be odd and at least {low}")
        job.r = r
    if job.order < 0:
        raise UsageError(f"--order must be >= 0, got {job.order}")
    if not (math.isfinite(job.slope_tol) and job.slope_tol >= 0):
        raise UsageError(f"--slope-tol must be finite and >= 0, "
                         f"got {job.slope_tol}")
    if job.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {job.jobs}")
    rr = getattr(ns, "r_range", None)
    if rr:
        try:
            job.r_range = _parse_range(rr)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    if ns.command in ("sweep", "verify"):
        for c in _denominators(job):
            _check_denominator(c)
    if ns.command == "verify":
        if job.suite == "modularity" and job.r_range is None:
            raise UsageError("verify modularity needs --r-range")
        if job.suite != "modularity" and job.r is None:
            raise UsageError(f"verify {job.suite} needs --r")
    if job.suite == "modularity" or ns.command == "sweep":
        # a slope fit needs two values of r, a sweep one
        need, what = (2, "verify modularity") if ns.command == "verify" \
            else (1, "sweep")
        count = len(_r_values(job))
        if count < need:
            raise UsageError(f"--r-range {rr} holds {count} value(s) of r; "
                             f"{what} needs {need} or more")
    if ns.command == "falsetheta":
        job.p = _parse_int_tuple(ns.p)
        job.a = _parse_int_tuple(ns.a)
        size = 3 if job.basis == "phi" else 1
        if len(job.p) != size or len(job.a) != size:
            raise UsageError(f"the {job.basis} basis takes {size} value(s) "
                             f"in --p and in --a")
        if job.s == 0 or math.gcd(job.s, job.r) != 1:
            raise UsageError(f"s={job.s} must be nonzero and coprime to r={job.r}")
        c = abs(job.s) if job.at_tilde else job.r
        _check_denominator(c)
        if (walk := (8 if job.basis == "phi" else 2) * c // 2) > EXACT_WALK_BOUND:
            raise UsageError(f"denominator {c} needs an exact walk of about {walk} "
                             f"terms, past the bound {EXACT_WALK_BOUND}")
    if job.manifold is not None:
        job.model = _parse_model(job)
        _check_roots(job)
    return job


def _denominators(job: JobSpec) -> list[int]:
    """The largest r and s' of a sweep or verify job: its Eichler limits run
    at s/r and -r/s', s' = s (mod r) below 4r.  A scan over --r-range takes
    only an s that is its own s' for every r."""
    if job.r_range is not None:
        return [*_r_values(job)[-1:], abs(job.s)]
    if job.r is None or math.gcd(job.s, job.r) != 1:
        return [job.r] if job.r else []
    return [job.r, normalize_s(job.s, job.r)]


def _check_denominator(c: int) -> None:
    """Reject an Eichler-limit denominator that the limits cannot take."""
    if c >= false_theta.DENOMINATOR_BOUND:
        raise UsageError(f"denominator {c} is past the Eichler-limit bound "
                         f"c < 2^31")


def _parse_model(job: JobSpec) -> seifert.Manifold:
    """Parse --manifold and check that the command applies to it."""
    try:
        model = seifert.parse(job.manifold)
        suites = harness.family(model).suites if job.command != "wrt" else ()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    suite = "modularity" if job.command == "sweep" else job.suite
    if suite not in (None, "all") and suite not in suites:
        raise UsageError(f"{job.command} {suite} does not apply to "
                         f"{job.manifold!r}; it takes {', '.join(suites)}")
    return model


def _suites(job: JobSpec) -> list[str]:
    """The suites a verify or sweep job runs (`all` leaves out modularity)."""
    if job.command == "sweep":
        return ["modularity"]
    if job.suite == "all":
        return [s for s in harness.family(job.model).suites if s != "modularity"]
    return [job.suite]


def _check_roots(job: JobSpec) -> None:
    """Reject the r and s that the job's suites cannot use: the geometric
    and modularity suites take only an s that is its own normal form."""
    suites = _suites(job)
    if "modularity" in suites:
        rs = _r_values(job)
    elif "geometric" in suites:
        rs = (job.r,)
    else:
        return
    try:
        if "geometric" in suites:
            harness.check_geometric_root(job.model, job.r)
        harness.check_companion_s(job.s, rs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _ctx(job: JobSpec, r: int | None = None) -> RootContext:
    r = r if r is not None else job.r
    try:
        return RootContext(r, normalize_s(job.s, r))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


class _Rows(list):
    """Integer rows (k, numerator, denominator) of an exact value."""


def _serialize_exact(x: CycloNumber) -> dict:
    """The coefficient c_k/den of zeta_D^k in lowest terms, one row
    (k, c_k/g, den/g) with g = gcd(c_k, den) per exponent, ascending."""
    den = x.den
    rows = _Rows()
    for k, v in sorted(x.c.items()):
        g = math.gcd(v, den)
        rows.append((k, v // g, den // g))
    return {"conductor": x.D, "coeffs": rows}


def _dumps(obj, indent: str = "") -> str:
    """The text of json.dumps(obj, indent=2), byte for byte.

    `_Rows` are written with one format string per nesting depth; every
    other scalar and every key goes through the json module's encoder,
    with a number, boolean or None key taken as the string of its JSON
    text, as json does.
    """
    inner = indent + "  "
    if isinstance(obj, _Rows):
        if not obj:
            return "[]"
        item = inner + "  "
        row = f"{inner}[\n{item}%d,\n{item}%d,\n{item}%d\n{inner}]"
        return "[\n" + ",\n".join([row % r for r in obj]) + "\n" + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{json.dumps(k if isinstance(k, str) else json.dumps(k))}: "
                 f"{_dumps(v, inner)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [inner + _dumps(v, inner) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + indent + "]"
    return json.dumps(obj)


def _fmt(z: complex) -> dict:
    return {"re": float(f"{z.real:.17g}"), "im": float(f"{z.imag:.17g}")}


def _emit(job: JobSpec, payload, exit_code: int) -> int:
    if isinstance(payload, str):
        text = payload
    else:
        text = _dumps(payload)
    if job.out_path:
        with open(job.out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return exit_code


def _run_wrt(job: JobSpec) -> int:
    ctx = _ctx(job)
    d = job.model.data
    if d is None:
        return _run_wrt_lens(job, ctx, job.model.params[0])
    inv = seifert.invariants(d)
    tau = wrt.tau_seifert_closed(d, ctx)
    w = wrt.w_normalized(tau, inv.H, ctx)
    results = [
        {"name": "tau", **_fmt(tau.numeric)},
        {"name": "W", **_fmt(w.numeric)},
        {"name": "invariants", "e": str(inv.e), "chi": str(inv.chi),
         "P": inv.P, "H": inv.H, "phi": str(inv.phi)},
    ]
    if job.exact:
        results[0]["exact"] = _serialize_exact(tau.exact)
        results[1]["exact"] = _serialize_exact(w.exact)
    payload = {"manifold": job.manifold, "ctx": {"r": ctx.r, "s": ctx.s},
               "results": results}
    if job.output == "json":
        return _emit(job, payload, 0)
    lines = [f"{job.manifold} at r={ctx.r} s={ctx.s}",
             f"  tau = {tau.numeric:.12g}",
             f"  W   = {w.numeric:.12g}",
             f"  e={inv.e} chi={inv.chi} P={inv.P} H={inv.H} phi={inv.phi}"]
    return _emit(job, "\n".join(lines), 0)


def _run_wrt_lens(job: JobSpec, ctx: RootContext, p: int) -> int:
    w, sectors = wrt.wrt_lens(p, ctx)
    results = [{"name": "W", **_fmt(w.numeric)}]
    if job.exact:
        results[0]["exact"] = _serialize_exact(w.exact)
    results.extend({"name": f"W_sector_{a}", **_fmt(sec.eval_complex())}
                   for a, sec in enumerate(sectors))
    payload = {"manifold": job.manifold, "ctx": {"r": ctx.r, "s": ctx.s},
               "results": results}
    if job.output == "json":
        return _emit(job, payload, 0)
    lines = [f"L({p},1) at r={ctx.r} s={ctx.s}", f"  W = {w.numeric:.12g}"]
    lines += [f"  W^({a}) = {sec.eval_complex():.12g}"
              for a, sec in enumerate(sectors)]
    return _emit(job, "\n".join(lines), 0)


def _run_falsetheta(job: JobSpec) -> int:
    # the Eichler limit needs no quarter-root convention: s is used as given
    alpha = Fraction(-job.r, job.s) if job.at_tilde else Fraction(job.s, job.r)
    if job.basis == "phi":
        f = false_theta.phi_basis(job.p, job.a)
        big_p = job.p[0] * job.p[1] * job.p[2]
    else:
        big_p = job.p[0]
        f = false_theta.psi_basis(big_p, job.a[0])
    val = false_theta.eichler_limit(f, big_p, alpha)
    num = val.eval_complex()
    payload = {"basis": job.basis, "p": list(job.p), "a": list(job.a),
               "ctx": {"r": job.r, "s": job.s}, "at": str(alpha),
               "results": [{"name": "eichler_limit", **_fmt(num),
                            **({"exact": _serialize_exact(val)} if job.exact else {})}]}
    if job.output == "json":
        return _emit(job, payload, 0)
    return _emit(job, f"limit at {alpha}: {num:.12g}", 0)


def _run_flatconn(job: JobSpec) -> int:
    rows = [{"kind": c.kind,
             **({"label": c.label} if c.rotation is None
                else {"rotation": list(c.rotation)}),
             "cs_lift": str(c.cs_lift), "cs": str(c.cs.value)}
            for c in harness.family(job.model).connections(job.model)]
    payload = {"manifold": job.manifold, "results": rows}
    if job.output == "json":
        return _emit(job, payload, 0)
    lines = [f"flat connections of {job.manifold}:"]
    for row in rows:
        lines.append("  " + json.dumps(row))
    return _emit(job, "\n".join(lines), 0)


def _run_gauss(job: JobSpec) -> int:
    brute = gauss_sums.gauss_brute(job.s, job.r)
    closed = gauss_sums.gauss_closed(job.s, job.r)
    bn = brute.eval_complex()
    # the float error of the brute sum grows with its weight sum |c_k|/den
    # (= r), measured at most 1.3e-16 per unit at r = 2,000,005 to 3,000,007;
    # distinct closed forms differ by a multiple of sqrt(r), far above 1e-12 r
    weight = sum(map(abs, brute.c.values())) / brute.den
    match = abs(bn - closed.numeric) <= 1e-12 * weight
    payload = {"s": job.s, "r": job.r,
               "closed": {"multiplier": closed.multiplier,
                          "jacobi": closed.jacobi, "phase": closed.phase,
                          "sqrt_radicand": closed.sqrt_radicand,
                          **_fmt(closed.numeric)},
               "brute_re": float(f"{bn.real:.17g}"),
               "brute_im": float(f"{bn.imag:.17g}"),
               "match": match}
    if job.output == "json":
        return _emit(job, payload, 0 if match else 1)
    return _emit(job, f"G({job.s}, {job.r}) = {bn:.12g}; closed form "
                      f"{closed.numeric:.12g}; match: {match}", 0 if match else 1)


def _verify_reports(job: JobSpec) -> list[harness.VerificationReport]:
    model, p = job.model, job.model.params
    reports = []
    ctx = _ctx(job) if job.r else None
    for suite in _suites(job):
        if suite == "identity":
            reports.append(harness.brieskorn_identity(p, ctx))
        elif suite == "integrality":
            rep = harness.VerificationReport(job.manifold,
                                             {"r": ctx.r, "s": ctx.s})
            pc = seifert.rotation_order(p)   # rotation numbers index this order
            for a in seifert.rotation_triples(pc):
                ok, _ = harness.integrality_check(pc, a, ctx)
                rep.add(f"integrality{a}", ok)
            reports.append(rep)
        elif suite == "geometric":
            reports.append(harness.geometric_relation(model, ctx))
        elif suite == "decomposition":
            reports.append(harness.decomposition_report(model, ctx))
        elif suite == "lemmas":
            reports.append(harness.appendix_b_checks(p, (1, 1, 1), ctx.r))
        elif suite == "modularity":
            rows, slope = harness.residual_scan(model, job.s, list(_r_values(job)),
                                                job.order)
            expected = -(job.order + 1)
            ok = abs(slope - expected) <= job.slope_tol
            rep = harness.VerificationReport(job.manifold,
                                             {"s": job.s, "r_range": list(job.r_range)})
            rep.add("modularity_slope", ok,
                    f"fitted slope {slope:.3f}, expected {expected} "
                    f"+- {job.slope_tol}", f"+-{job.slope_tol}")
            reports.append(rep)
        else:
            raise UsageError(f"unknown suite {suite!r}")
    return reports


def _run_verify(job: JobSpec) -> int:
    reports = _verify_reports(job)
    all_pass = all(rep.passed for rep in reports)
    merged = {"manifold": job.manifold,
              "ctx": reports[0].ctx if reports else {},
              "results": [c.to_json() for rep in reports for c in rep.checks]}
    for item in merged["results"]:
        item.setdefault("detail", "")
    if job.output == "json":
        return _emit(job, merged, 0 if all_pass else 1)
    lines = []
    for rep in reports:
        for c in rep.checks:
            lines.append(f"[{'pass' if c.passed else 'FAIL'}] {c.name} "
                         f"{('- ' + c.detail) if c.detail else ''}")
    if not all_pass:
        failing = [c.name for rep in reports for c in rep.checks if not c.passed]
        print("failing checks: " + ", ".join(failing), file=sys.stderr)
    return _emit(job, "\n".join(lines), 0 if all_pass else 1)


def _run_sweep(job: JobSpec) -> int:
    r_list = list(_r_values(job))

    def scan(r_part: list[int]):
        return harness.residual_scan(job.model, job.s, r_part, job.order)[0]

    # one scan per worker, over every jobs-th r, so each scan reuses its
    # buffers over many r and the workers get a like share of large r
    parts = [r_list[i::job.jobs] for i in range(min(job.jobs, len(r_list)))]
    if len(parts) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=len(parts)) as pool:
            rows = [row for part in pool.map(scan, parts) for row in part]
    else:
        rows = scan(r_list)
    rows.sort(key=lambda row: row[0])
    if job.output == "json":
        payload = {"manifold": job.manifold, "s": job.s, "order": job.order,
                   "results": [{"r": r, "abs_residual": float(f"{v:.17g}")}
                               for r, v in rows]}
        return _emit(job, payload, 0)
    lines = ["r,s,quantity,re,im,exact"]
    for r, v in rows:
        lines.append(f"{r},{job.s},abs_residual,{v:.17g},0,false")
    return _emit(job, "\n".join(lines), 0)


def run(job: JobSpec) -> int:
    handlers = {"wrt": _run_wrt, "falsetheta": _run_falsetheta,
                "flatconn": _run_flatconn, "gauss": _run_gauss,
                "verify": _run_verify, "sweep": _run_sweep}
    return handlers[job.command](job)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        job = parse_args(argv)
        return run(job)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, OSError) as exc:   # OSError: the output was not written
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
