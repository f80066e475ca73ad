"""Write perfbench/pinned.json: pinned answers and input fingerprints.

    python3 perfbench/pin.py

For every base instance of the pinned workloads this records the sha256
of its canonical text and the answer of the code at hand (oracle status
and energy; for approx-scale the feasibility verdict under a 300k-state
cap).  It also records, for the default and held-out seeds, the hash of
each workload's full seeded instance list.  Run it once, on the commit
whose answers are the reference; re-running it later would re-pin
whatever that later code answers.
"""
from __future__ import annotations

import json
import sys

from run import PINNED, SRC, load_coordmp
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, render_hash


def main() -> int:
    sys.path.insert(0, str(SRC))
    cm = load_coordmp(fresh=False)
    pins = {}
    for wl in WORKLOADS.values():
        if not hasattr(wl, "pin"):
            continue
        pins[wl.name] = {}
        for key, inst in wl.bases(cm):
            entry = {"sha": render_hash(cm, [inst])}
            entry.update(wl.pin(cm, inst))
            pins[wl.name][key] = entry
            print(wl.name, key, entry, file=sys.stderr, flush=True)
    fingerprints = {}
    for wl in WORKLOADS.values():
        fingerprints[wl.name] = {
            str(seed): render_hash(
                cm, [c.instance for c in wl.cases(cm, seed, pins.get(wl.name, {}))]
            )
            for seed in (DEFAULT_SEED, HELD_OUT_SEED)
        }
    with open(PINNED, "w", encoding="utf-8") as fh:
        json.dump({"pins": pins, "fingerprints": fingerprints}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
