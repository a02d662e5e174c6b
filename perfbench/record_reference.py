"""Record the reference final energy of every pulse-fine forcing draw.

    python3 perfbench/record_reference.py

Runs each draw once through the workload's entry call, checks that the
stored ledger verifies, and writes ``perfbench/reference.json``.  The gate
of later runs compares their final energy against it, so run this only on
a commit whose trajectories are known to be right.
"""

import json
import shutil
import sys
import tempfile

import run


def main():
    problem = run.import_program()
    if problem:
        print(f"record_reference: {problem}", file=sys.stderr)
        return 2
    from wallflow import energy
    from workloads import DRAWS, WORKLOADS, Runner, draw, write_config

    workload = WORKLOADS["pulse-fine"]
    table = {}
    run.TMP_PARENT.mkdir(exist_ok=True)
    for index in range(DRAWS):
        params = draw(workload, index)
        workdir = tempfile.mkdtemp(prefix="reference-", dir=run.TMP_PARENT)
        try:
            runner = Runner(workload, write_config(run.ROOT, workload, params, workdir))
            result = runner.entry()
            ledger = energy.load_ledger(result["ledger"])
            if result["codes"] != (0, 0) or not energy.verify_run(ledger).ok:
                print(f"draw {index} did not verify: {result['log']}", file=sys.stderr)
                return 1
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        final = float(ledger.rows[-1]["e_full"])
        table[str(index)] = {"params": params, "final_energy": final}
        print(f"draw {index}: {json.dumps(params)} final energy {final!r}", flush=True)
    run.REFERENCE_FILE.write_text(json.dumps({workload.name: table}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
