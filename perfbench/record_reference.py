"""Record the per-seed reference values the benchmark checks against.

    python3 perfbench/record_reference.py --workload live-metro --seeds 0-19

Runs the workload once per seed, in a fresh process each, and stores
``nmae``, ``route_err`` and ``agree_frac`` under the seed in
``perfbench/reference.json``.  Seeds without a recorded value are held
to a wide band around the recorded ones instead.  Re-record only when a
change to the program is meant to change these values, and say so.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import CHILD_ENV, HERE, child

BAND = (0.5, 2.0)  # unrecorded seeds: [0.5 x smallest, 2 x largest] recorded
AGREE_SLACK = 0.01  # unrecorded seeds: agree_frac >= smallest recorded - this


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-19")
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    os.environ.update(CHILD_ENV)
    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    entry = reference.setdefault(args.workload, {"seeds": {}})
    for seed in range(lo, hi + 1):
        out = child(args.workload, seed, False, False, True, 600.0)
        if out["errors"]:
            print(f"seed {seed}: checks failed: {out['errors']}", file=sys.stderr)
            return 1
        values = {k: out[k] for k in ("nmae", "route_err", "agree_frac") if k in out}
        entry["seeds"][str(seed)] = values
        print(seed, values, out.get("tuned", ""),
              f"setup {out['setup_s']:.2f} s wall {out['wall_s']:.2f} s", flush=True)
    seeds = entry["seeds"].values()
    band = {k: [BAND[0] * min(s[k] for s in seeds), BAND[1] * max(s[k] for s in seeds)]
            for k in ("nmae", "route_err")}
    if all("agree_frac" in s for s in seeds):
        band["agree_frac"] = min(s["agree_frac"] for s in seeds) - AGREE_SLACK
    entry["band"] = band
    entry["seeds"] = dict(sorted(entry["seeds"].items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
