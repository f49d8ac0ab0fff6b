"""trismooth benchmark: one workload, one seed, one run.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload grid_45k --seed 0 --seconds 30 --trace 0

Workloads: ``grid_45k``, ``fan_sweep``, ``triple_batch`` (see
``bench/scope.json`` for why each was chosen).  The run generates its
inputs from ``--seed``, times a set-up probe in fresh interpreters, runs
the workload in one fresh child process (a closed loop with one client)
for about ``--seconds``, checks every output, prints a report, and ends
with one JSON line: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The full
report, with sample counts, provenance and (traced) spans, is also
written to ``.bench_out/``.  Outputs live in ``.bench_tmp/`` while the
run lasts and are deleted after it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks
import inputs

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
#: Set-up probes per run; one more runs first and is not timed, so the
#: bytecode cache and the file cache are warm, as for a user's second call.
SETUP_PROBES = 7
#: Every run must end within this many seconds of its start.
RUN_DEADLINE_S = 170.0
#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10
LAYERS = ("cli", "mesh_io", "plane_geometry", "angle_dynamics", "simple_mesh")


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def provenance(root: Path, src: Path, seed: int) -> dict:
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def time_setup(workload: str, tmp: Path, env: dict, root: Path) -> tuple[list[float], int]:
    """Wall times of the set-up probes, and how many of them failed."""
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(tmp)]
    times, failed = [], 0
    for i in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, env=env, cwd=root, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
        elapsed = time.perf_counter() - t0
        if done.returncode != 0:
            failed += 1
            last = done.stderr.decode(errors="replace").strip().splitlines()[-1:]
            print(f"set-up probe exited {done.returncode}: {' '.join(last)}", file=sys.stderr)
        if i:
            times.append(elapsed)
    return times, failed


def run_child(args, tmp: Path, env: dict, root: Path, src: Path, deadline: float) -> float:
    """Run the workload child; return its peak RSS in MB (from ``os.wait4``)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload, "--tmp", str(tmp),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--src", str(src)]
    proc = subprocess.Popen(cmd, env=env, cwd=root, stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"workload child exited with {proc.returncode}")
    return usage.ru_maxrss / 1024.0


def check_outputs(workload: str, seed: int, files: dict, keep: Path, scope: dict) -> dict[int, list[str]]:
    """Problems found in the kept output of each input key."""
    import workloads

    jobs = {}
    if workload == "grid_45k":
        vertices, faces = inputs.jittered_grid(inputs.GRID_CELLS, seed)
        pin = scope["pinned_svg_sha256"]
        want = pin["sha256"] if seed == pin["seed"] else None
        jobs[0] = lambda d: checks.check_grid(d, vertices, faces, workloads.GRID_PREDICT_STEPS, want,
                                              inputs.sha256_file(d / "M.svg"))
    elif workload == "fan_sweep":
        from trismooth import random_mesh

        spec = json.loads(files["fans"].read_text())

        def fan_check(n, fan_seed):
            def check(d):
                m = random_mesh(n, fan_seed)
                return checks.check_fan(d, n, spec["steps"], np.array([m.alpha, m.beta, m.gamma]))

            return check

        jobs = {key: fan_check(n, fan_seed) for key, (n, fan_seed) in enumerate(spec["fans"])}
    else:
        from trismooth import AngleTriple, iterate, quality

        rows, coords = np.load(files["triples"]), np.load(files["triangles"])
        triples = [AngleTriple(*r) for r in rows.tolist()]

        def library_quality_after(n):
            return np.array([quality(iterate(t, n)).q for t in triples])

        jobs[0] = lambda d: checks.check_triples(d, rows, coords, workloads.TRIPLE_ITERATE_STEPS,
                                                 workloads.TRIPLE_CLOSED_FORM_STEPS, workloads.TRIPLE_PREDICT_STEPS,
                                                 library_quality_after)
    found: dict[int, list[str]] = {}
    for key, job in jobs.items():
        if (keep / f"k{key}").exists():
            try:
                found[key] = job(keep / f"k{key}")
            except Exception as exc:  # malformed output is a failed check, not a crash
                found[key] = [f"output could not be checked: {type(exc).__name__}: {exc}"]
    return found


def tail(samples: list[float]) -> dict | None:
    """Highest percentile with at least ``TAIL_BEYOND`` samples beyond it."""
    n = len(samples)
    if n <= 2 * TAIL_BEYOND:  # the tail must lie above the median
        return None
    rank = n - TAIL_BEYOND  # 1-based rank of the sample; TAIL_BEYOND lie above it
    return {"value": sorted(samples)[rank - 1], "percentile": 100.0 * rank / n, "beyond": TAIL_BEYOND, "n": n}


def end_to_end(ops: list[dict], setup: list[float], rss_mb: float, failed: int, attempted: int) -> dict:
    seconds = [o["seconds"] for o in ops]
    items = sum(o["items"] for o in ops)
    return {
        "items_per_s": {"value": items / math.fsum(seconds), "unit": "1/s", "n": len(ops), "items": items},
        "op_s_p50": {"value": statistics.median(seconds), "unit": "s", "n": len(ops), "samples": seconds},
        "op_s_tail": tail(seconds),
        "setup_s": {"value": statistics.median(setup) if setup else None, "unit": "s", "n": len(setup),
                    "samples": setup},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB", "n": 1},
        "error_rate": {"value": failed / attempted, "unit": "ratio", "n": attempted, "failed": failed},
    }


def per_layer(result: dict, timed_span: str, units: dict[str, str]) -> dict:
    """Per-pass self times and counts from the traced run, as medians over passes."""
    spans = result["spans"]
    pass_of = {o["op_id"]: o["pass"] for o in result["ops"] if o["traced"]}
    per_pass: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    failed = dict.fromkeys(LAYERS, 0)
    for s in spans:
        bucket = per_pass[pass_of[s["op"]]]
        name = s["name"]
        layer = name.split(".", 1)[0]
        if layer in LAYERS:
            failed[layer] += s["failed"]
            if "." in name:
                bucket[f"{name}_s"] += s["self_s"]
        if name == timed_span:
            bucket["timed"] += s["end"] - s["start"]
        if s["parent"] is not None and spans[s["parent"]]["name"] == "replay":
            bucket["staged"] += s["end"] - s["start"]
    untraced = defaultdict(float)
    for o in result["ops"]:
        if not o["traced"]:
            untraced[o["pass"]] += o["seconds"]

    passes = sorted(per_pass)

    def over_passes(key: str) -> float:
        return statistics.median(per_pass[p][key] for p in passes)

    out: dict[str, dict] = {}
    for name in sorted({k for p in passes for k in per_pass[p]} - {"timed", "staged"}):
        out[name] = {"value": over_passes(name), "n": len(passes)}
    if timed_span == "cli":
        cli_self = [per_pass[p]["timed"] - per_pass[p]["staged"] for p in passes]
        out["cli.self_s"] = {"value": statistics.median(cli_self), "n": len(passes),
                             "op_s": over_passes("timed"), "staged_s": over_passes("staged")}
    untraced_s = statistics.median(untraced.values())
    out["trace.overhead_s"] = {"value": over_passes("timed") - untraced_s, "n": len(passes),
                               "traced_s": over_passes("timed"), "untraced_s": untraced_s}
    counts = result["pass_counts"]
    for name in sorted({k for c in counts for k in c}):
        values = [c.get(name, 0) for c in counts]
        out[name] = {"value": values[0], "n": len(values), "repeats_exactly": len(set(values)) == 1}
    for layer, n in failed.items():
        out[f"{layer}.failed"] = {"value": n, "n": len(spans)}
    for name, m in out.items():
        m["unit"] = units.get(name, "?")
    return out


def fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_report(report: dict, spec: dict) -> None:
    e2e = report["end_to_end"]
    print(f"# trismooth benchmark: {report['workload']}, seed {report['provenance']['seed']}, "
          f"trace {report['trace']}, {report['seconds']:g} s")
    print("provenance: " + ", ".join(f"{k}={v}" for k, v in report["provenance"].items()))
    for name, digest in report["inputs_sha256"].items():
        print(f"input {name} sha256={digest}")
    for name, m in e2e.items():
        if name == "op_s_tail":
            if m is None:
                print(f"{name:<16} omitted: {e2e['op_s_p50']['n']} ops, needs more than {2 * TAIL_BEYOND}")
            else:
                print(f"{name:<16} {fmt(m['value'])} s  (p{m['percentile']:.1f}, {m['beyond']} of {m['n']} ops beyond)")
        elif m["value"] is not None:
            print(f"{name:<16} {fmt(m['value'])} {m['unit']}  (n={m['n']})")
    layer = report.get("per_layer")
    if layer is not None:
        for m in spec["per_layer"]:
            got = layer.get(m["name"])
            detail = "not run on this workload" if got is None else f"n={got['n']}"
            print(f"{m['name']:<34} {fmt(got['value'] if got else 0)} {m['unit']}  ({detail})")
        if "cli.self_s" in layer:
            c = layer["cli.self_s"]
            print(f"account: op {fmt(c['op_s'])} s = staged library calls {fmt(c['staged_s'])} s "
                  f"+ cli.self_s {fmt(c['value'])} s")
            print(f"replay reproduces the op's output files: {report['replay_mismatches'] == 0} "
                  f"({report['replay_mismatches']} mismatches)")
        o = layer["trace.overhead_s"]
        print(f"tracing overhead: traced {fmt(o['traced_s'])} s - untraced {fmt(o['untraced_s'])} s per pass")
    print(f"checks: {'ok' if report['correct'] else 'FAILED'} "
          f"({report['failed']} of {report['attempted']} ops failed)")
    for e in report["errors"][:20]:
        print(f"  {e}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("grid_45k", "fan_sweep", "triple_batch"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0, help="length of the measured loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()

    root = Path.cwd()
    src = root / "src"
    if not (src / "trismooth" / "__init__.py").is_file():
        print(f"error: no trismooth sources under {src}; run from the root of a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    scope = json.loads((HERE / "scope.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(src))
    import workloads

    tmp = root / ".bench_tmp" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        files = inputs.write_inputs(args.workload, args.seed, tmp / "inputs")
        (tmp / "inputs.json").write_text(json.dumps({k: str(v) for k, v in files.items()}))
        digests = {p.name: inputs.sha256_file(p) for p in files.values()}
        env = child_env(src)
        setup, probe_failed = ([], 0) if args.trace else time_setup(args.workload, tmp, env, root)
        rss_mb = run_child(args, tmp, env, root, src, started + RUN_DEADLINE_S)
        result = json.loads((tmp / "child.json").read_text(encoding="utf-8"))
        problems = check_outputs(args.workload, args.seed, files, tmp / "keep", scope)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    first_fp: dict[int, str] = {}
    for o in result["ops"]:
        if o["fp"] is not None:
            first_fp.setdefault(o["key"], o["fp"])
    errors = []
    for o in result["ops"]:
        o["ok"] = o["error"] is None and o["fp"] == first_fp.get(o["key"]) and not problems.get(o["key"], ["unchecked"])
        if o["error"]:
            errors.append(f"op on input {o['key']}: {o['error']}")
        elif o["fp"] != first_fp[o["key"]]:
            errors.append(f"op on input {o['key']}: output differs from the first op on the same input")
    for key, found in sorted(problems.items()):
        errors += [f"input {key}: {p}" for p in found]
    if result["warmup_error"]:
        errors.append(f"warm-up op: {result['warmup_error']}")
    # Every op counts: set-up probes, the child's warm-up op, timed and traced ops.
    attempted = (0 if args.trace else SETUP_PROBES + 1) + 1 + len(result["ops"])
    failed = probe_failed + bool(result["warmup_error"]) + sum(not o["ok"] for o in result["ops"])
    correct = failed == 0 and not errors

    timed_ops = [o for o in result["ops"] if not o["traced"]]
    e2e = end_to_end(timed_ops, setup, rss_mb, failed, attempted)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(root, src, args.seed),
        "inputs_sha256": digests,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "end_to_end": e2e,
    }
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        report["replay_mismatches"] = sum(c.pop("replay_mismatches", 0) for c in result["pass_counts"])
        report["per_layer"] = per_layer(result, workloads.WORKLOADS[args.workload].timed_span, units)
        undeclared = set(report["per_layer"]) - set(units)
        if undeclared:
            raise RuntimeError(f"spans without a per_layer metric in BENCHMARK.json: {sorted(undeclared)}")
        report["spans"] = result["spans"]
    print_report(report, spec)

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = report["per_layer"] if args.trace else e2e
    metrics = {}
    for m in wanted:
        # A layer this workload never calls reports 0 on its traced run.
        value = source.get(m["name"], {"value": 0}) if args.trace else source[m["name"]]
        metrics[m["name"]] = {"value": value["value"], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
