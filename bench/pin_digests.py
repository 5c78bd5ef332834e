"""Record the sha256 of every benchmark output for the given seeds in digests.json.

Usage: python3 bench/pin_digests.py 0-19 [WORKLOAD ...]

The benchmark fails any invocation whose output differs from a pinned
digest, because a changed output byte is a behaviour change, not an
optimisation. Re-pin only for a change that is meant to alter outputs, and
say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import OUT, invoke_child
from workloads import DIGESTS, SRC, WORKLOADS, OutputCheck


def main(argv: list[str]) -> int:
    first, _, last = argv[0].partition("-")
    seeds = range(int(first), int(last or first) + 1)
    names = argv[1:] or list(WORKLOADS)
    sys.path.insert(0, str(SRC))
    pins = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for name in names:
        prepare = WORKLOADS[name]
        for seed in seeds:
            work = OUT / f"pin-{name}-{seed}"
            work.mkdir(parents=True, exist_ok=True)
            try:
                prepared = prepare(seed, work)
                check = OutputCheck(name, seed)
                check.pinned = {}
                entry = {}
                for case in (prepared.full, prepared.setup):
                    sample = invoke_child(case, work, check, "pin")
                    if sample["error"] is not None:
                        print(f"{name} seed {seed} {case.kind}: {sample['error']}", file=sys.stderr)
                        return 1
                    entry[case.kind] = sample["digest"]
            finally:
                shutil.rmtree(work, ignore_errors=True)
            pins.setdefault(name, {})[str(seed)] = entry
            print(f"{name} seed {seed}: {entry}", flush=True)
    DIGESTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
