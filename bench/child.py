"""Runs one workload in a fresh process and writes its raw results as JSON.

Started by ``run.py``, one child at a time; not meant to be run by hand.
The child runs one untimed warm-up op on the workload's smallest input,
then whole passes over the workload's inputs until the next pass would
end after ``--seconds``.  With ``--trace 1`` every round is one untraced
pass followed by one traced pass.  Output checks happen in the parent;
the child only fingerprints each op's output (untimed) and keeps the
first output for each input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import trismooth

import workloads
from inputs import sha256_file
from tracing import Tracer


def fingerprint(out: workloads.OpOutput) -> str:
    h = hashlib.sha256(out.stdout.encode("utf-8"))
    for path in out.files:
        h.update(sha256_file(path).encode())
    for name in sorted(out.values):
        h.update(name.encode())
        h.update(np.asarray(out.values[name], dtype=float).tobytes())
    return h.hexdigest()


def keep(out: workloads.OpOutput, directory: Path) -> None:
    """Move an op's outputs where the parent's checks will read them."""
    directory.mkdir(parents=True)
    (directory / "stdout.txt").write_text(out.stdout, encoding="utf-8")
    for path in out.files:
        shutil.move(path, directory / path.name)
    if out.values:
        np.savez(directory / "values.npz", **{k: np.asarray(v, dtype=float) for k, v in out.values.items()})


class Runner:
    def __init__(self, wl, tmp: Path):
        self.wl = wl
        self.work = tmp / "work"
        self.replay_dir = tmp / "replay"
        self.keep_dir = tmp / "keep"
        for d in (self.work, self.replay_dir):
            d.mkdir(exist_ok=True)
        self.kept: set[int] = set()
        self.tracer = Tracer()
        self.next_op = 0

    def _record(self, key: int, seconds: float, out, error: str | None, traced: bool) -> dict:
        rec = {"key": key, "seconds": seconds, "items": self.wl.items(key), "traced": traced,
               "error": error, "fp": None, "stdout_bytes": 0}
        if out is not None and error is None:
            rec["fp"] = fingerprint(out)
            rec["stdout_bytes"] = len(out.stdout.encode("utf-8"))
            if key not in self.kept:
                self.kept.add(key)
                keep(out, self.keep_dir / f"k{key}")
        return rec

    def untraced_op(self, key: int) -> dict:
        out, error = None, None
        t0 = time.perf_counter()
        try:
            out = self.wl.op(key, self.work)
        except Exception as exc:  # any failure of the program is an op failure
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        return self._record(key, seconds, out, error, traced=False)

    def traced_op(self, key: int, counts: Counter) -> dict:
        tr, op_id = self.tracer, self.next_op
        self.next_op += 1
        out, error = None, None
        first_span = len(tr.spans)
        try:
            with tr.span("op", op_id):
                if self.wl.timed_span == "op":
                    out = self.wl.op(key, self.work, tr, op_id)
                else:
                    with tr.span("cli", op_id):
                        out = self.wl.op(key, self.work)
                    replay, probe, files = self.wl.replay(key, self.replay_dir, counts)
                    with tr.span("replay", op_id):
                        workloads.run_stages(replay, tr, op_id)
                    with tr.span("probe", op_id):
                        workloads.run_stages(probe, tr, op_id)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        timed = next(s for s in tr.spans[first_span:] if s.name == self.wl.timed_span)
        if error is None and self.wl.timed_span == "cli":
            for cli_file, replay_file in zip(out.files, files):
                if sha256_file(cli_file) != sha256_file(replay_file):
                    counts["replay_mismatches"] += 1
            counts["mesh_io.bytes_written"] += sum(files[i].stat().st_size for i in self.wl.mesh_io_outputs)
        rec = self._record(key, timed.duration, out, error, traced=True)
        rec["op_id"] = op_id
        counts["cli.stdout_bytes"] += rec["stdout_bytes"]
        return rec


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--tmp", required=True, type=Path)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--src", required=True, type=Path)
    args = ap.parse_args()

    if args.src.resolve() not in Path(trismooth.__file__).resolve().parents:
        print(f"error: imported trismooth from {trismooth.__file__}, not {args.src}", file=sys.stderr)
        return 2

    files = {k: Path(v) for k, v in json.loads((args.tmp / "inputs.json").read_text()).items()}
    cls = workloads.WORKLOADS[args.workload]
    result: dict = {"warmup_error": None, "ops": [], "pass_counts": [], "spans": []}

    (args.tmp / "warmup").mkdir()
    try:
        cls(files, small=True).op(0, args.tmp / "warmup")
    except Exception as exc:
        result["warmup_error"] = f"{type(exc).__name__}: {exc}"

    wl = cls(files)
    runner = Runner(wl, args.tmp)
    start = time.perf_counter()
    passes = 0
    while True:
        round_start = time.perf_counter()
        for key in wl.keys():
            result["ops"].append(runner.untraced_op(key) | {"pass": passes})
        if args.trace:
            counts: Counter = Counter()
            for key in wl.keys():
                result["ops"].append(runner.traced_op(key, counts) | {"pass": passes})
            result["pass_counts"].append(dict(counts))
        passes += 1
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break

    result["spans"] = runner.tracer.to_json()
    (args.tmp / "child.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
