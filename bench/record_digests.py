"""Record the output digests that the benchmark checks every trial against.

    python3 bench/record_digests.py cartpole-adaptive [racing-nominal ...]

For every entry of a workload's seed pool this runs the trial (or CLI batch)
untraced, checks the invariants, and writes ``bench/digests/<workload>.json``.
Re-record only for a deliberate, documented change of behaviour.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace

import workloads
from workloads import DIGESTS, WORK, WORKLOADS


def record(workload) -> dict[str, str]:
    digests = {}
    base = workload.trial_config()
    for j in range(workload.pool):
        t0 = time.perf_counter()
        if workload.in_process:
            result = workloads.harness.run_trial(replace(base, seed=j))
            problems = workloads.check_trial(result, base.env, None)
            digests[str(j)] = workloads.trial_digest(result)
            note = f"{result.terminal_reason} t={result.completion_time:.3f} steps={result.steps}"
        else:
            out_dir = WORK / "record"
            code = workloads.run_cli_batch(workload, j, workloads.JOBS, out_dir)
            if code != 0:
                raise SystemExit(f"{workload.name} batch {j}: exit code {code}")
            trials = workloads.read_batch_trials(out_dir)
            problems = workloads.check_batch(out_dir, trials, base.env, None)
            digests[str(j)] = workloads.files_digest(out_dir)
            note = f"{len(trials)} trials"
        problems = [p for p in problems if p != "no recorded digest"]
        if problems:
            raise SystemExit(f"{workload.name} pool entry {j}: {problems}")
        print(f"{workload.name} {j}: {note} wall={time.perf_counter() - t0:.2f}s", flush=True)
    return digests


def main(names) -> int:
    DIGESTS.mkdir(exist_ok=True)
    for name in names:
        digests = record(WORKLOADS[name])
        path = DIGESTS / f"{name}.json"
        path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or list(WORKLOADS)))
