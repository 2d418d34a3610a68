"""Record the reference outputs the benchmark's checks compare against.

Run at the commit whose outputs are the reference (the commit that added
the benchmark recorded them), for every workload and scale, e.g.

    python3 perfbench/record_reference.py --workload denoise_desk --seeds 0-63
    python3 perfbench/record_reference.py --workload ct_ops --seeds 0-63 --smoke

The seeds are input seeds, 0 to workloads.REFERENCE_SEEDS - 1.  For
denoise_desk, table.csv is stored without its seconds column; prox_large
stores a digest of each mode's approx_prox output, and ct_ops of each
solve's result.  Entries are merged into reference.json after every seed.
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402


def parse_seeds(text):
    """'0-3,8,16-17' -> [0, 1, 2, 3, 8, 16, 17]"""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def record(workload, scale, seed, out):
    """The reference entry for one seed and the checks that failed."""
    if workload in wl.LIBRARY:
        make_inputs, run, check = wl.LIBRARY[workload]
        inputs = make_inputs(seed, scale)
        result = run(inputs, scale)
        checks = check(seed, scale, inputs, result.outputs, {})
        if workload == "ct_ops":
            entry = {name: wl.digest(result.outputs[name].final_x) for name in ("admm", "apgm")}
        else:
            entry = {m: wl.digest(result.outputs[m]) for m in wl.MODES}
    else:
        result = wl.run_sweep_call(workload, scale, seed, out / str(seed))
        checks = wl.check_sweep_call(workload, scale, result.outputs, {})
        entry = [",".join(r[:6]) for r in result.outputs["rows"]]
    # With no reference yet, only the check that one exists may fail.
    return entry, [c for c in checks if not c[1] and c[0] != "reference_recorded"]


def merge(key, entries):
    """Add entries to reference.json; re-read first, so that recorders of
    other workloads running at the same time keep each other's entries."""
    reference = wl.load_reference()
    reference.setdefault(key, {}).update(entries)
    tmp = wl.REFERENCE_PATH.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, wl.REFERENCE_PATH)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 0-63")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not all(0 <= s < wl.REFERENCE_SEEDS for s in args.seeds):
        parser.error(f"input seeds run from 0 to {wl.REFERENCE_SEEDS - 1}")
    scale = "smoke" if args.smoke else "full"
    key = f"{args.workload}/{scale}"
    out = wl.out_root(HERE.parent) / "record"
    for seed in args.seeds:
        entry, failed = record(args.workload, scale, seed, out)
        if failed:
            print(f"seed {seed}: checks failed at the recording commit: {failed}", file=sys.stderr)
            return 1
        merge(key, {str(seed): entry})
        print(f"seed {seed}: recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
