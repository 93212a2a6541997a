"""Record the reference radii and margins that ``run.py`` compares against.

Usage (from the root of a checkout): python3 bench/capture_reference.py

Runs each workload once per seed in ``SEEDS`` (the classical scan has no
seed and runs once) and writes ``reference.json``, keyed by the exact CLI
command line, so a change of workload size simply finds no reference.
Capture only from a commit whose results are trusted.
"""

from __future__ import annotations

import json

from checks import reference_values
from run import OUT, REFERENCE, WORKLOADS, run_rep

SEEDS = range(30)


def main() -> None:
    OUT.mkdir(exist_ok=True)
    references = {}
    for name, workload in WORKLOADS.items():
        seeds = SEEDS if any("{seed}" in a for a in workload.cli_args) else [0]
        for seed in seeds:
            cli_args = workload.args(seed)
            rep = run_rep(cli_args, None)
            if rep.worker["rc"] != 0:
                raise SystemExit(f"exit code {rep.worker['rc']} for {cli_args}")
            references[" ".join(cli_args)] = reference_values(name, rep.report)
            print(name, seed, flush=True)
    REFERENCE.write_text(json.dumps(references, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
