"""Record the sha256 of every CSV file each workload writes.

  python3 benchmarks/record_digests.py

Runs every workload at full and quick sizes for workload seeds
0..SEEDS-1 and rewrites digests.json next to this file.  run.py counts a
call whose files differ from these as failed.  Rerun only when the
workload configs change; a change to the library that alters these bytes
is a change of results and must say so.
"""

from __future__ import annotations

import json
import shutil
import sys

import session
import workloads
from run import DIGESTS, OUT

# run.py checks these seeds against recorded bytes; any other seed only
# against itself.
SEEDS = 16


def main() -> int:
    work = OUT / "record"
    table = {}
    for mode, quick in (("full", False), ("quick", True)):
        table[mode] = {}
        for name in workloads.NAMES:
            table[mode][name] = {}
            for seed in range(SEEDS):
                cfg = session.set_up(name, seed, quick, str(work / "csv" / "out.csv"))
                call = session.run_once(cfg, "record")
                if call["error"] is not None:
                    raise SystemExit(f"{mode} {name} seed {seed}: {call['error']}")
                table[mode][name][str(seed)] = call["digests"]
                print(mode, name, seed, f"{call['wall_s']:.2f} s", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
