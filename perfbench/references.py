"""Regenerate ``references.json``, the expected outputs of each workload.

    python3 perfbench/references.py

For every workload and every world of a run with one of ``SEEDS``
(``run.world_seeds``) this runs one campaign under the benchmark's
``PYTHONHASHSEED`` and one under another value.  It stores the first
campaign's fingerprint (the 19 report digests, the monitor-log lengths
and the crawl count) and lists under ``hash_seed_sensitive`` the reports
whose digest differs between the two, which is a defect of the program:
its outputs should not depend on string hashing.

Regenerate only for a change that is meant to alter the program's
outputs; a performance change leaves this file as it is.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from ledger import REPORTS
from run import (
    HASH_SEED,
    REFERENCE_SEED,
    REFERENCES,
    SCRATCH,
    fingerprint,
    run_one,
    world_seeds,
)
from workloads import WORKLOADS

#: the campaign default seed and one held-out seed.
SEEDS = (REFERENCE_SEED, 7)
OTHER_HASH_SEED = "12345"


def main() -> int:
    worlds = sorted({world for seed in SEEDS for world in world_seeds(seed)})
    references: dict = {}
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        for workload in sorted(WORKLOADS):
            for world in worlds:
                outs = [
                    run_one(workload, world, False, index, scratch, hash_seed)
                    for index, hash_seed in enumerate((HASH_SEED, OTHER_HASH_SEED))
                ]
                entry = fingerprint(outs[0])
                entry["hash_seed_sensitive"] = [
                    name
                    for name in REPORTS
                    if outs[0]["digests"][name] != outs[1]["digests"][name]
                ]
                if outs[0]["datasets"] != outs[1]["datasets"]:
                    entry["hash_seed_sensitive"].append("datasets")
                failures = [name for name in REPORTS if outs[0]["digests"][name] is None]
                if failures or outs[0]["exec_errors"]:
                    print(f"{workload} seed {world}: failed {failures}", file=sys.stderr)
                    return 1
                references.setdefault(workload, {})[str(world)] = entry
                print(
                    f"{workload} seed {world}: stored; "
                    f"hash-seed sensitive: {entry['hash_seed_sensitive'] or 'none'}"
                )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
