#!/usr/bin/env python3
"""End-to-end cell benchmark: build cellbench from source, run one workload.

    python3 perfbench/run.py --workload reffil-eager --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --record     # re-record perfbench/reference.json

Builds the reffil library and perfbench/cellbench.cpp into .bench_build (or
$CARGO_TARGET_DIR) at the repository root, runs the workload, and prints the
result JSON as the last stdout line. Each run also leaves
.bench_build/results/<workload>-seed<N>-trace<T>.json: the run identity (ISA,
nproc, client slots, build type, commit, source digest), every cell, and the
metrics; compare.py compares two sets of those files. Traced runs leave their
spans in .bench_build/spans/.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("reffil-eager", "reffil-replay", "des-q8")
REFERENCE = HERE / "reference.json"


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure (once) and build the cellbench target; return its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no reffil sources at {ROOT}; nothing to build", 2)
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "cellbench", "-j", jobs])
    with open(log, "w") as sink:
        for step in steps:
            if subprocess.run(step, stdout=sink, stderr=subprocess.STDOUT).returncode:
                sink.flush()
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(step)} (log: {log})")
    return out / "cellbench"


def identity():
    """Host-independent facts about the source the binary was built from."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(
            p for p in path.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
        for f in files:
            digest.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def record(binary):
    """Run every workload's reference cells and rewrite reference.json.

    Records the active ISA and, where the host can run it, scalar too."""
    refs = json.loads(REFERENCE.read_text())["references"] if REFERENCE.exists() else {}
    for isa in (None, "scalar"):
        env = dict(os.environ)
        if isa:
            env["REFFIL_ISA"] = isa
        for workload in WORKLOADS:
            got = subprocess.run([str(binary), "--workload", workload, "--record"],
                                 env=env, stdout=subprocess.PIPE, text=True)
            if got.returncode:
                fail(f"recording {workload} failed")
            entry = json.loads(got.stdout.strip().splitlines()[-1])
            refs.setdefault(entry["isa"], {})[workload] = entry["cells"]
            print(f"recorded {entry['isa']} {workload}", file=sys.stderr)
    REFERENCE.write_text(json.dumps({"format": 1, "references": refs}, indent=1,
                                    sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=Path, default=REFERENCE,
                        help="reference file (default: perfbench/reference.json)")
    parser.add_argument("--record", action="store_true",
                        help="re-record the reference cells and exit")
    args = parser.parse_args()
    if not args.record and (args.workload is None or args.seed is None
                            or args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")
    if not args.record and (args.seed < 0 or args.seconds < 1):
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if args.record:
        record(binary)
        return

    out = build_dir()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / "results").mkdir(exist_ok=True)
    (out / "spans").mkdir(exist_ok=True)
    details = out / "results" / f"{stem}.details.json"
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--reference", str(args.reference), "--details", str(details),
               "--spans", str(out / "spans" / f"{stem}.jsonl")]
    got = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = got.stdout.strip().splitlines()
    if got.returncode or not lines:
        fail(f"cellbench exited with {got.returncode}")
    result = json.loads(lines[-1])
    run = json.loads(details.read_text())
    details.unlink()
    run["identity"].update(identity())
    (out / "results" / f"{stem}.json").write_text(json.dumps(run, indent=1) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
