#!/usr/bin/env python3
"""ctctag benchmark: the gen-data -> train -> decode -> eval path, end to end.

    python3 bench/run.py --workload train_short --seed 1 --seconds 45 --trace 0

Workloads (settings in workloads.json, reasons in BENCHMARK.json): train_short
and decode_stream. --trace 0 prints the end-to-end metrics; --trace 1 prints
the per-layer metrics of a traced run (see layer_trace.py). Inputs are generated
from --seed; the package is imported from this checkout's src/.

Output: an `env` line, one line per metric, then, as the last line, one JSON
object with the keys correct, attempted, failed and metrics. Exit codes: 0
success, 1 a correctness check or a ctctag command failed, 2 the package in
src/ cannot be imported.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
FS_IOC_GETFLAGS, FS_IOC_SETFLAGS, FS_TOPDIR_FL = 0x80086601, 0x40086602, 0x00020000


def _import_package() -> None:
    sys.path.insert(0, str(SRC))
    try:
        import ctctag
    except ImportError as exc:
        print(f"bench: cannot import ctctag from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(ctctag.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"bench: ctctag comes from {ctctag.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def _place_runs_apart(parent: Path) -> None:
    """Flag parent as a top of a directory hierarchy (chattr +T).

    ext4 then places each new subdirectory, a run's work directory, in a
    block group of its own choosing, as it does for the subdirectories of the
    filesystem root. So a run does not create its files among the inodes the
    previous run freed a moment ago, which ext4 without a journal skips at a
    cost (see harness.py). On other filesystems the flag is not supported and
    nothing changes.
    """
    parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(parent, os.O_RDONLY)
    try:
        flags = int.from_bytes(fcntl.ioctl(fd, FS_IOC_GETFLAGS, bytes(4)), sys.byteorder)
        if not flags & FS_TOPDIR_FL:
            fcntl.ioctl(fd, FS_IOC_SETFLAGS, (flags | FS_TOPDIR_FL).to_bytes(4, sys.byteorder))
    except OSError:
        pass
    finally:
        os.close(fd)


def main(argv=None) -> int:
    _import_package()
    import envinfo
    import harness

    workloads = harness.load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    print("env " + json.dumps(envinfo.environment(ROOT), sort_keys=True), flush=True)
    _place_runs_apart(ROOT / ".bench_work")
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    trace_out = ROOT / ".bench_out" / f"trace_{args.workload}.jsonl"
    try:
        result, notes = harness.run(workloads[args.workload], args.seed, args.seconds,
                                    bool(args.trace), work, trace_out)
    except harness.CliFailure as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in notes:
        print(note)
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"failed_frac {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']}/{result['attempted']})")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
