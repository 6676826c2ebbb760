"""Record the reference outputs the simulate and eg oracles compare against.

    python3 bench/record_references.py

Run it only on a commit whose outputs are known to be right: it overwrites
``bench/references.json`` with one pass of each study per recorded seed.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RECORDED_SEEDS = (42, 7)


def main() -> int:
    sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]
    import workloads

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    references = {}
    for workload in (workloads.Simulate(), workloads.EG()):
        name = workload.name
        references[name] = {}
        for seed in RECORDED_SEEDS:
            with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
                inp = workload.setup(seed, tmp)
                value, errors = workload.check(inp, workload.run(inp))
            if errors:
                print(f"{name} seed {seed}: {errors}", file=sys.stderr)
                return 1
            references[name][str(seed)] = value
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(references, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
