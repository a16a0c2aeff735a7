"""orbkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload spin_sweep --seed 1 --seconds 10 --trace 0

Run from anywhere; the program under test is the `src/` tree next to this
directory.  Inputs are generated from the seed before anything is timed.
The workload runs in a fresh worker process as a closed loop with a
single caller.  The last stdout line is one JSON object: `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 a fixed op list runs twice with every
layer traced and once untraced, and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import child_env, now, reference_process, run_child  # noqa: E402

OUT = Path(".perfbench_out")
SETUP_PROBES = 12
DEADLINE_S = 170
LOOP = "closed loop, 1 caller"
# printed with the metrics but not gated: the ratios are 0 on a correct
# program, and unscaled times move with the load of a shared host
INFO_METRICS = {"fail_ratio": "ratio", "inconclusive_ratio": "ratio",
                "setup_wall_s": "s", "setup_cpu_s": "s", "ops_per_s": "1/s",
                "ops_per_cpu_s": "1/s", "op_p50_s": "s", "op_p50_cpu_s": "s",
                "op_tail_s": "s", "op_tail_cpu_s": "s",
                "ref_process_s": "s", "ref_micro_s": "s"}


class BenchError(Exception):
    pass


class Clock:
    """Time left before the run must have ended."""

    def __init__(self):
        self.end = time.monotonic() + DEADLINE_S

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its time budget")
        return left


def worker(clock: Clock, *args) -> tuple[dict, float, int]:
    """Run worker.py with args; (its JSON result, launch time, peak RSS KiB)."""
    launched = now()
    code, out, usage = run_child(
        [sys.executable, str(HERE / "worker.py"), *args], clock.left(),
        cwd=ROOT, env=child_env())
    lines = out.decode().strip().splitlines()
    if code != 0 or not lines:
        raise BenchError(f"worker {args[:2]} exited {code}")
    return json.loads(lines[-1]), launched, usage.ru_maxrss


def tail(latencies, block, pct) -> tuple[float, float]:
    """(value, percentile) of the workload's tail percentile, fixed so
    that a faster program, with more ops in a run, is read at the same
    point, and low enough to leave at least ten samples beyond it.  With
    no such percentile (`pi1_certify`: 18 ops, none above the median
    leaves ten) the tail is the median over blocks of each block's
    slowest op, reported as percentile 100."""
    xs = sorted(latencies)
    n = len(xs)
    rank = math.ceil(n * pct / 100) if pct else n
    if n - rank >= 10:
        return xs[rank - 1], pct
    worst = [max(latencies[k:k + block]) for k in range(0, n, block)]
    return statistics.median(worst), 100.0


def op_scales(refs, n, window) -> list[float]:
    """Per op, the micro slice's nominal over the median of the slices
    taken during the op if there are `window` of them, else of the
    `window` taken nearest to it (refs are [op index, CPU seconds]).
    The window is wide enough that the scale's own noise stays small:
    the tail picks the ops whose scale came out high."""
    out = []
    for k in range(n):
        times = [c for i, c in refs if i == k]
        if len(times) < window:
            near = sorted(refs, key=lambda r: abs(r[0] - k))[:window]
            times = [c for _, c in near]
        out.append(reference.MICRO_NOMINAL_S / statistics.median(times))
    return out


def revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.exists() else "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "orbkit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def end_to_end(clock, name, inputs_path, seconds) -> tuple[dict, dict]:
    """Set-up is probed in fresh processes before and after the timed run,
    so its median spans the run; throughput is the median over blocks.

    The gated times are CPU times of the worker and of the commands it
    runs, scaled by a yardstick's nominal over its measured cost (see
    reference.py): set-up by the median of reference processes run next
    to the set-up probes, each op by the median of the micro slices
    timed during or nearest to it.  On a shared host the wall clock also holds
    every wait for a CPU, and CPU time moves with the load of other
    tenants; both move from run to run by more than the bounds allow.
    Wall-clock and unscaled CPU figures are printed alongside."""
    worker(clock, "setup", name)  # warm-up: fills bytecode caches
    reference_process()
    setups, setups_wall, process_refs = [], [], []

    def probe(count):
        for _ in range(count):
            process_refs.append(reference_process())
            res, launched, _ = worker(clock, "setup", name)
            setups.append(res["ready_cpu"])
            setups_wall.append(res["ready"] - launched)

    probe(SETUP_PROBES // 2)
    res, launched, rss = worker(clock, "run", name, str(inputs_path),
                                str(seconds))
    setups.append(res["ready_cpu"])
    setups_wall.append(res["ready"] - launched)
    probe(SETUP_PROBES - SETUP_PROBES // 2)
    lat, cpu, block = res["latencies"], res["cpu"], res["block"]
    scaled = [c * f for c, f in
              zip(cpu, op_scales(res["refs"], len(cpu), res["window"]))]
    attempted = len(lat)
    tail_scaled, pct = tail(scaled, block, res["tail_pct"])
    peak_kb = res["max_child_rss_kb"] if name == "cli_verify" else rss
    metrics = {
        "setup_s": statistics.median(setups) * reference.PROCESS_NOMINAL_S
        / statistics.median(process_refs),
        "ops_per_ref_s": statistics.median(
            block / sum(scaled[k:k + block])
            for k in range(0, attempted, block)),
        "op_p50_ref_s": statistics.median(scaled),
        "op_tail_ref_s": tail_scaled,
        "peak_rss_mb": peak_kb / 1024,
        "conclusive_ratio": 1 - res["inconclusive"] / attempted,
    }
    info = {"attempted": attempted, "failed": res["failed"],
            "fail_ratio": res["failed"] / attempted,
            "inconclusive_ratio": res["inconclusive"] / attempted,
            "setup_wall_s": statistics.median(setups_wall),
            "setup_cpu_s": statistics.median(setups),
            "ops_per_s": statistics.median(block / b for b in res["blocks"]),
            "ops_per_cpu_s": statistics.median(block / b
                                               for b in res["blocks_cpu"]),
            "op_p50_s": statistics.median(lat),
            "op_p50_cpu_s": statistics.median(cpu),
            "op_tail_s": tail(lat, block, res["tail_pct"])[0],
            "op_tail_cpu_s": tail(cpu, block, res["tail_pct"])[0],
            "ref_process_s": statistics.median(process_refs),
            "ref_micro_s": statistics.median(c for _, c in res["refs"]),
            "ref_samples": len(res["refs"]),
            "tail_percentile": pct,
            "blocks": len(res["blocks"]), "elapsed_s": res["elapsed"],
            "setup_samples": len(setups), "failures": res["failures"]}
    return metrics, info


def spin_identities(m: dict, ops: int) -> dict:
    """Count identities of the spin_sweep op today: each H_1 decision runs
    one SNF; each candidate runs one H_1 decision of its own and one per
    spin decision; each op is one candidate."""
    return {
        "exact.snf_calls == seifert.h1_calls":
            m["exact.snf_calls"] == m["seifert.h1_calls"],
        "seifert.h1_calls == spin.decisions + seifert.candidates":
            m["seifert.h1_calls"] == m["spin.decisions"]
            + m["seifert.candidates"],
        "seifert.candidates == ops": m["seifert.candidates"] == ops,
    }


def per_layer(clock, name, inputs_path, run_dir, units) -> tuple[dict, dict]:
    """Traced, untraced and traced again on the fixed op list, so a steady
    drift in machine speed cancels from the overhead.  Metrics come from
    the first traced run; every count, and every span count, must repeat."""
    def traced(spans_path):
        res, _, _ = worker(clock, "fixed", name, str(inputs_path),
                           str(spans_path))
        with open(spans_path, encoding="utf-8") as fh:
            spans = [json.loads(line) for line in fh]
        metrics, span_counts = tracer.layer_metrics(spans, res["import_s"])
        counts = {n: v for n, v in metrics.items() if units[n] != "s"}
        return res, metrics, {**counts, **span_counts}

    res, metrics, counts = traced(run_dir / "spans.jsonl")
    untraced, _, _ = worker(clock, "fixed", name, str(inputs_path))
    res2, _, counts2 = traced(run_dir / "spans-repeat.jsonl")
    (run_dir / "spans-repeat.jsonl").unlink()
    traced = (res["wall"] + res2["wall"]) / 2
    ops = len(res["latencies"])
    info = {"attempted": ops,
            "failed": res["failed"] + res2["failed"] + untraced["failed"],
            "fail_ratio": res["failed"] / ops,
            "inconclusive_ratio": res["inconclusive"] / ops,
            "counts_repeat": counts == counts2,
            "traced_wall_s": traced, "untraced_wall_s": untraced["wall"],
            "overhead_s": traced - untraced["wall"],
            "overhead_ratio": traced / untraced["wall"] - 1,
            "failures": (res["failures"] + res2["failures"]
                         + untraced["failures"])}
    if not info["counts_repeat"]:
        info["count_diff"] = {k: (counts.get(k), counts2.get(k))
                              for k in set(counts) | set(counts2)
                              if counts.get(k) != counts2.get(k)}
    if name == "spin_sweep":
        info["identities"] = spin_identities(metrics, ops)
    return metrics, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "orbkit" / "cli.py").is_file():
        print(f"no orbkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    clock = Clock()
    run_dir = OUT / f"{args.workload}-seed{args.seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    inputs = workloads.make_inputs(args.workload, args.seed, run_dir)
    inputs_path = run_dir / "inputs.json"
    inputs_path.write_text(json.dumps(inputs), encoding="utf-8")

    meta = {"workload": args.workload, "seed": args.seed,
            "input_digest": inputs["digest"], "loop": LOOP,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "revision": revision(), "src_digest": source_digest(),
            "seconds": args.seconds, "trace": args.trace}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    try:
        if args.trace:
            metrics, info = per_layer(clock, args.workload, inputs_path,
                                      run_dir, units)
            correct = info["failed"] == 0 and info["counts_repeat"]
        else:
            metrics, info = end_to_end(clock, args.workload, inputs_path,
                                       args.seconds)
            correct = info["failed"] == 0
        if set(metrics) != set(units):
            raise BenchError("metrics differ from BENCHMARK.json: "
                             f"{sorted(set(metrics) ^ set(units))}")
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    print("run " + json.dumps(meta, sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    for name, unit in INFO_METRICS.items():
        if name in info:
            print(f"{args.workload:<12} {name:<30} {info[name]:.6g} {unit}")
    for name, value in metrics.items():
        print(f"{args.workload:<12} {name:<30} {value:.6g} {units[name]}")
    result = {"correct": correct, "attempted": info["attempted"],
              "failed": info["failed"],
              "metrics": {n: {"value": v, "unit": units[n]}
                          for n, v in metrics.items()}}
    (run_dir / f"result-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "info": info, **result}, indent=1),
        encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
