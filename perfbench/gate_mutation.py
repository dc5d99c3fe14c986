#!/usr/bin/env python3
"""Show that the per-cell correctness gate can fail.

    python3 perfbench/gate_mutation.py

Runs one reffil-eager cell against the recorded reference (the gate must
pass), then once per perturbed reference field (avg_acc, forgetting_pts,
bytes_up), each nudged by the smallest amount that changes it. Every
perturbed run must report correct=false with its cell counted as failed.
Exits 0 when the gate behaved, 1 otherwise.
"""
import json
import math
import subprocess
import sys

import run


def cell(binary, reference):
    got = subprocess.run([str(binary), "--workload", "reffil-eager", "--seed", "1",
                          "--seconds", "1", "--trace", "0", "--reference", str(reference)],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if got.returncode:
        run.fail(f"cellbench exited with {got.returncode}")
    return json.loads(got.stdout.strip().splitlines()[-1])


def main():
    binary = run.build()
    ok = True
    baseline = cell(binary, run.REFERENCE)
    print(f"reference as recorded: correct={baseline['correct']} failed={baseline['failed']}")
    ok &= baseline["correct"] and baseline["failed"] == 0
    mutant = run.build_dir() / "reference.mutant.json"
    for field in ("avg_acc", "forgetting_pts", "bytes_up"):
        doc = json.loads(run.REFERENCE.read_text())
        for cells in doc["references"].values():
            for entry in cells["reffil-eager"].values():
                v = entry[field]
                entry[field] = v + 1 if isinstance(v, int) else math.nextafter(v, math.inf)
        mutant.write_text(json.dumps(doc))
        got = cell(binary, mutant)
        tripped = not got["correct"] and got["failed"] >= 1
        print(f"{field} perturbed: correct={got['correct']} failed={got['failed']} "
              f"-> gate {'tripped' if tripped else 'DID NOT TRIP'}")
        ok &= tripped
    mutant.unlink()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
