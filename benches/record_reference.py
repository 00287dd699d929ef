"""Record the answers the benchmark checks against, into ``reference.json``.

    python3 benches/record_reference.py

Runs every op kind of every workload on every input family and stores its
answer: D_n and the chosen model for traces, the chosen model for
selections, aggregates and assertions for experiments, and the exit code and
artifact sha256 for CLI commands.  An op that raises is stored as
``{"raises": <exception name>}``.  Run it only on a commit whose answers are
known good: the benchmark treats these answers as correct.
"""

import json
import os
import shutil
import sys
from pathlib import Path

from run import OUT, SRC, git_commit  # also caps BLAS threads

sys.path.insert(0, str(SRC))
os.environ["PYTHONPATH"] = str(SRC)

import workloads  # noqa: E402
from tracing import NO_TRACE  # noqa: E402


def main() -> int:
    workdir = OUT / f"record-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    reference = {"_meta": {"git_commit": git_commit(), "rel_tol": workloads.REL_TOL, "pool": workloads.POOL}}
    try:
        for name, cls in workloads.WORKLOADS.items():
            for op in cls(0, workdir).all_ops():
                try:
                    outcome = op.run(NO_TRACE)
                except Exception as e:  # recorded as the expected failure of this op
                    reference[op.key] = {"raises": type(e).__name__}
                    print(f"{op.key}: raises {type(e).__name__}: {e}", flush=True)
                    continue
                if isinstance(op, workloads.CliOp):
                    reference[op.key] = op.record(outcome)
                    shutil.rmtree(outcome[1])
                else:
                    reference[op.key] = op.answer(outcome)
                print(f"{op.key}: recorded", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
