"""Write cli_reference.json: the pinned numeric outputs of the CLI workload.

    python3 perfbench/make_reference.py

Run from the root of a source checkout whose outputs are known to be
right; the benchmark then compares every later run against this file at
a relative tolerance of workloads.PIN_REL.  Keys the file lacks are not
compared, and outputs named in workloads.UNPINNED are never written.
"""

import json
import shutil
import sys
import tempfile

import run


def main():
    run.cap_threads()
    _, workloads = run.import_benchmark()
    reference = {}
    out_dir = tempfile.mkdtemp(dir=run.ROOT)
    try:
        for name, argv, _ in workloads.CLI_COMMANDS:
            code, _, numbers = workloads.cli_outputs(name, argv, out_dir)
            if code != 0:
                print("error: %s exited %d" % (name, code), file=sys.stderr)
                return 1
            reference[name] = {k: v for k, v in sorted(numbers.items())
                               if not any(word in k for word in workloads.UNPINNED)}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    with open(workloads.CLI_REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
