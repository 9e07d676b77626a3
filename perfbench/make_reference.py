"""Regenerate perfbench/reference.json: the reference output of every workload.

Run from the root of a checkout whose outputs are the reference (they were
made at commit fac62ea and must only change when an output is meant to):

    python3 perfbench/make_reference.py [workload ...]

For each workload and each corpus seed in its pool it runs the requests
exactly as the benchmark does and stores what ``check`` compares against:
the SHA-256 of a protocol report, or the rows of every score sheet in one
cycle of ``cli-wav`` requests.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def _dump(doc: dict) -> str:
    """One line per (workload, corpus seed), so diffs stay readable."""
    blocks = []
    for name in sorted(doc):
        rows = ",\n".join(
            f"  {json.dumps(seed)}: {json.dumps(doc[name][seed])}"
            for seed in sorted(doc[name], key=int)
        )
        blocks.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main(argv) -> int:
    sys.path[:0] = [str(run.BENCH), str(run.ROOT / "src")]
    from workloads import REFERENCE_FILE, WORKLOADS

    doc = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
    work = run.BENCH / ".work" / f"reference-{os.getpid()}"
    try:
        for name in argv or list(WORKLOADS):
            cls = WORKLOADS[name]
            references = {}
            for seed in range(cls.pool):
                work.mkdir(parents=True, exist_ok=True)
                references[str(seed)] = cls(seed, work, smoke=True).make_reference()
                print(name, seed, flush=True)
            doc[name] = references
            REFERENCE_FILE.write_text(_dump(doc))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(run.BLAS_THREADS)
    sys.exit(main(sys.argv[1:]))
