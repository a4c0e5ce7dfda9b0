"""Benchmark: construct -> verify round trips of subspace-codes, checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory, so nothing needs installing.  The load is a closed loop
of one client: each round trip is a fresh single-threaded child process
(perfbench/child.py) that runs ``construct`` and then ``verify`` through
``cli.main``, and the next starts only when it has ended.  Round trips
repeat for about S seconds; the seed becomes the verifier's ``--seed``.

With --trace 0 the run reports the end-to-end metrics named in
BENCHMARK.json as medians over its round trips; ``setup_s`` is the median
of several interpreter starts that import ``subspace_codes``.  Every time
is scaled to a reference CPU speed (speed.py); the raw times are kept in
the output file.  With --trace 1 traced and untraced round trips
alternate; the run reports the per-layer metrics as medians over the
traced ones, and ``trace.overhead_s`` as the median traced wall time minus
the median untraced one.

Every round trip's output is checked (perfbench/checks.py).  The last line
of standard output is one JSON object with keys correct, attempted, failed
and metrics.  Any failed check makes the exit code 1.  Spans, machine facts
and per-round-trip records go to .perfbench_out/ at the end of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from checks import check_round_trip
from speed import calibration_s, scale_factor
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7
MIN_ROUND_TRIPS = 4
# whatever --seconds says, no round trip starts after LAST_START_S and the
# whole run ends by DEADLINE_S, inside a 180 s limit
LAST_START_S = 140
DEADLINE_S = 170


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("SUBSPACE_ENUM_BUDGET", None)
    return env


def measure_setup(env) -> list:
    """Seconds from interpreter start to ``import subspace_codes`` done.

    Scaled to reference speed like every time here.  No timeout is passed:
    with one, ``subprocess`` polls for the exit in steps of up to 50 ms.
    """
    argv = [sys.executable, "-c", "import subspace_codes"]
    # the first import compiles bytecode, which a user pays once, not per call
    subprocess.run(argv, env=env, check=True)
    times = []
    before = calibration_s()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, check=True)
        elapsed = time.perf_counter() - t0
        after = calibration_s()
        times.append(elapsed * scale_factor([before, after]))
        before = after
    return times


def machine_facts() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "memory_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        // 2 ** 20,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
    }


def run_child(w, seed: int, traced: bool, code_path, run_id: str, env,
              timeout: float):
    """One round trip; returns (record or None, error text)."""
    argv = [sys.executable, str(HERE / "child.py"), "--workload", w.name,
            "--seed", str(seed), "--trace", str(int(traced)),
            "--code", str(code_path), "--run", run_id]
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"round trip exceeded {timeout:.0f}s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"child exited {proc.returncode}: {proc.stderr[-2000:]}"
    try:
        return json.loads(lines[-1]), ""
    except json.JSONDecodeError:
        return None, f"child printed no record: {lines[-1][:200]}"


def spread(values) -> dict:
    # counts stay whole numbers
    middle = (statistics.median_low if all(isinstance(v, int) for v in values)
              else statistics.median)
    out = {"median": middle(values), "n": len(values)}
    if len(values) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    return out


def round_trips(w, seed: int, seconds: float, trace: bool, code_path,
                started: float) -> tuple:
    """Repeat round trips for about ``seconds``; returns (records, checks, errors)."""
    env = child_env()
    records, checks, errors = [], [], []
    loop_start = time.perf_counter()
    while True:
        guess = statistics.median(r["child_s"] for r in records) if records else 0
        if (len(records) >= MIN_ROUND_TRIPS
                and time.perf_counter() - loop_start + guess > seconds):
            break
        if time.perf_counter() - started + guess > LAST_START_S:
            break
        traced = trace and len(records) % 2 == 1
        run_id = f"{w.name}/seed{seed}/{len(records)}"
        t0 = time.perf_counter()
        rec, err = run_child(w, seed, traced, code_path, run_id, env,
                             DEADLINE_S - (t0 - started))
        checks.append(("round trip completed", rec is not None))
        if rec is None:
            errors.append(err)
            break
        rec.update(child_s=time.perf_counter() - t0, traced=traced, run=run_id)
        results = check_round_trip(w, seed, rec, code_path)
        checks.extend(results)
        errors.extend(f"{run_id}: {name}" for name, ok in results if not ok)
        records.append(rec)
    return records, checks, errors


def summarize(records, setup) -> dict:
    """Median and quartiles of every metric the records and setup times give."""
    plain = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    summary = {}
    if plain:
        for key in ("wall_s", "construct_s", "verify_s", "peak_rss_mb"):
            summary[key] = spread([r[key] for r in plain])
    if setup:
        summary["setup_s"] = spread(setup)
    if traced:
        for key in traced[0]["layers"]:
            summary[key] = spread([r["layers"][key] for r in traced])
        if plain:
            summary["trace.overhead_s"] = {
                "median": statistics.median(r["wall_s"] for r in traced)
                - statistics.median(r["wall_s"] for r in plain),
                "n": len(traced)}
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "subspace_codes" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'subspace_codes'}; "
              f"run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    w = WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    started = time.perf_counter()
    setup = [] if args.trace else measure_setup(child_env())
    records, checks, errors = round_trips(
        w, args.seed, args.seconds, bool(args.trace),
        out_dir / f"{w.name}.code", started)
    summary = summarize(records, setup)

    metrics = {}
    for m in wanted:
        measured = m["name"] in summary
        checks.append((f"metric {m['name']} measured", measured))
        if measured:
            metrics[m["name"]] = {"value": summary[m["name"]]["median"],
                                  "unit": m["unit"]}
        else:
            errors.append(f"metric {m['name']} was not measured")
    failed = sum(1 for _, ok in checks if not ok)
    facts = machine_facts()
    spans = [s for r in records for s in r.pop("spans", [])]
    (out_dir / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": w.name, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "machine": facts, "summary": summary,
                    "checks": [list(c) for c in checks], "errors": errors,
                    "round_trips": records, "spans": spans}, indent=1))

    print(f"machine {json.dumps(facts)}")
    print(f"workload {w.name} seed {args.seed} trace {args.trace}: "
          f"{len(records)} round trips, {len(checks)} checks, {failed} failed")
    for name, value in metrics.items():
        s = summary[name]
        q = f", q1 {s['q1']:.6g} q3 {s['q3']:.6g}" if "q1" in s else ""
        print(f"  {name:32s} {value['value']:14.6g} {value['unit']:8s} "
              f"(median of {s['n']}{q})")
    for err in errors:
        print(f"FAILED {err}")
    print(json.dumps({"correct": failed == 0, "attempted": len(checks),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
