#!/usr/bin/env python3
"""Compare two sets of cellbench results, metric by metric.

    python3 perfbench/compare.py BASE_RESULTS_DIR NEW_RESULTS_DIR

Each directory holds the results/*.json files run.py writes (one per run).
Refuses (exit 2) when the run identities differ in ISA, nproc, client slots
or build type: such numbers do not compare. Otherwise prints, per workload
and end-to-end metric, both medians, the base's quartile spread and the
change as a share of the base median, judged against BENCHMARK.json's bound.
Exits 1 when any metric regressed beyond its bound.
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IDENTITY_KEYS = ("isa", "nproc", "client_slots", "build_type")


def load(directory):
    runs = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]
    if not runs:
        sys.exit(f"compare: no results in {directory}")
    return runs


def identity(runs, label):
    seen = {tuple(r["identity"][k] for k in IDENTITY_KEYS) for r in runs}
    if len(seen) != 1:
        print(f"compare: {label} mixes run identities {sorted(seen)}; refusing",
              file=sys.stderr)
        sys.exit(2)
    return dict(zip(IDENTITY_KEYS, seen.pop()))


def values(runs, workload, metric):
    return [r["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and r["trace"] == 0 and metric in r["metrics"]]


def spread(v):
    if len(v) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(v, n=4)
    med = statistics.median(v)
    return (q3 - q1) / abs(med) if med else 0.0


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    base_id, new_id = identity(base, "base"), identity(new, "new")
    if base_id != new_id:
        print(f"compare: identities differ: base {base_id}, new {new_id}; refusing",
              file=sys.stderr)
        sys.exit(2)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    regressed = False
    print(f"identity {base_id}")
    print(f"{'workload':14} {'metric':18} {'base':>12} {'new':>12} {'gain':>8} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        for m in bench["end_to_end"]:
            b, n = values(base, workload, m["name"]), values(new, workload, m["name"])
            if not b or not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (mn - mb) / abs(mb) if mb else 0.0
            if worse > m["bound"]:
                verdict, regressed = "REGRESSED", True
            elif spread(b) > m["bound"] and not all(sign * (x - y) < 0 for x in n for y in b):
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload:14} {m['name']:18} {mb:12.6g} {mn:12.6g} {0.0 - worse:+8.2%} "
                  f"{spread(b):7.2%} {m['bound']:6.2%}  {verdict}")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
