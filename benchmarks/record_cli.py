"""Record the expected exit code and stdout sha256 of every cli-workload
invocation at the default corpus seed into cli_expected.json.

    python3 benchmarks/record_cli.py

Run it only when a change is meant to alter CLI output, and say so.
"""

import json
import shutil
import sys

import run
import workloads


def main():
    sys.path.insert(0, str(workloads.ROOT / "src"))
    pkg = workloads.load_package()
    try:
        wl = workloads.Cli(pkg, run.DEFAULT_SEED, run.DEFAULT_SEED, run.INPUTS)
        results, _, _ = run.one_pass(wl)
    finally:
        shutil.rmtree(run.INPUTS, ignore_errors=True)
    invocations = {op_id: [r[1], r[2]] for op_id, r in results}
    lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(invocations.items())]
    with open(workloads.EXPECTED_CLI, "w", encoding="utf-8") as fh:
        fh.write(f'{{"corpus_seed": {run.DEFAULT_SEED}, "invocations": {{\n')
        fh.write(",\n".join(lines) + "\n}}\n")
    print(f"recorded {len(invocations)} invocations")


if __name__ == "__main__":
    main()
