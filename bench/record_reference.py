"""Record the reference values the correctness gate compares against.

    python3 bench/record_reference.py

Runs the `wrt` jobs of the default seed's job lists and stores their tau
and W (exact where printed, numeric otherwise) in `reference.json.gz`.
Record at a commit whose results are trusted, never at a change under
test: the gate compares every later commit with these values.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import sys

import checks
import run
import workloads


def main() -> int:
    run.import_qmwrt()
    cli = sys.modules["qmwrt.cli"]
    table = {}
    for workload in ("ihs_exact", "qhs_exact"):
        for job in workloads.build(workload, workloads.DEFAULT_SEED):
            if job.kind != "wrt":
                continue
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main(list(job.argv))
            if rc != 0:
                raise SystemExit(f"{' '.join(job.argv)} exited {rc}")
            entry = {}
            for item in json.loads(out.getvalue())["results"]:
                if item["name"] in ("tau", "W"):
                    entry[item["name"]] = ({"exact": item["exact"]} if "exact" in item
                                           else {"re": item["re"], "im": item["im"]})
            table[checks.job_key(job)] = entry
            print(f"recorded {checks.job_key(job)}")
    with gzip.GzipFile(checks.REFERENCE, "wb", mtime=0) as fh:
        fh.write(json.dumps(table, sort_keys=True, separators=(",", ":")).encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
