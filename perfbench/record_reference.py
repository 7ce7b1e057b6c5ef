"""Record the sha256 of every default-seed input and job output.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json, which run.py uses to refuse drifted
inputs and to check outputs.  Run it only when a change is meant to alter
a workload's inputs or outputs, and say so in the change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import SRC, call_cli

sys.path.insert(0, str(SRC))

from workloads import (DEFAULT_SEED, INPUTS_PER_RUN, REFERENCE_FILE, WORKLOADS,  # noqa: E402
                       check_output, job_argv, job_output, sha256)


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        for workload in WORKLOADS.values():
            entry = reference[workload.name] = {"inputs": [], "outputs": []}
            for i in range(INPUTS_PER_RUN):
                inp = workload.make_input(DEFAULT_SEED, i)
                in_path, out_path = Path(tmp, "in.pmod"), Path(tmp, "out.txt")
                in_path.write_text(inp.text)
                rc, stdout = call_cli(job_argv(workload, in_path, out_path))
                output = job_output(workload, rc, stdout, out_path)
                problem = check_output(workload, inp, rc, output)
                if problem:
                    print(f"error: {workload.name} input {i}: {problem}", file=sys.stderr)
                    return 1
                entry["inputs"].append(inp.sha256)
                entry["outputs"].append(sha256(output))
                print(workload.name, i, entry["inputs"][-1][:12], entry["outputs"][-1][:12], flush=True)
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
