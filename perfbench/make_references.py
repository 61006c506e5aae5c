"""Record the reference outputs that ``run.py`` compares on the default seed.

Run from the root of a checkout of the commit whose outputs are the
reference (the benchmark's references come from the seed commit)::

    python3 perfbench/make_references.py

Each job of every workload's default-seed deck runs once; its checked
outputs (rates, N, Delta N, config_hash) go to ``references.json``.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from checks import read_record
from workloads import DEFAULT_SEED, WORKLOADS, make_deck, write_deck


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from mlsbath import cli

    work = run.WORK / "references"
    shutil.rmtree(work, ignore_errors=True)
    records = {}
    try:
        for workload in WORKLOADS:
            deck = make_deck(workload, DEFAULT_SEED)
            configs = write_deck(deck, work / workload)
            records[workload] = []
            for job, config in zip(deck, configs):
                out = work / "out" / job.name
                if cli.main(job.argv(config, out)) != 0:
                    print(f"{job.name} failed", file=sys.stderr)
                    return 1
                records[workload].append(read_record(job, out))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    payload = {"seed": DEFAULT_SEED, "workloads": records}
    run.REFERENCES.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
