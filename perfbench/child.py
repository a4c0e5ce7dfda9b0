"""One construct -> verify round trip of a workload, in a fresh process.

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1 \
        --code PATH --run RUN_ID

Both steps go through ``cli.main`` with the argv a user would type, so the
CLI's own overhead counts.  A calibration pass (speed.py) runs before,
between and after the two steps, and each step's time is scaled by the
passes on either side of it.  Prints one JSON line: exit codes, CLI output,
scaled and raw timings, the process's peak RSS, the verifier's witness and
pair count and, with --trace 1, the spans and the per-layer metrics derived
from them.

The traced run wraps the public names where their caller modules look them
up, so the package itself is unchanged.  Without --trace only
``cli.reconcile`` is wrapped, to keep its report for the output checks.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from subspace_codes import cli, construction, gabidulin, verify  # noqa: E402
from subspace_codes.construction import CDC  # noqa: E402

from spans import Recorder, self_times, total_counts  # noqa: E402
from speed import calibration_s, scale_factor  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _reduced_members(code) -> int:
    # members outside round 0, each one RREF; round labels never decrease
    return len(code) - bisect.bisect_left(code.rounds, 1)


# (owner, attribute, span name, counters taken from (args, result))
TRACED = (
    (construction, "gabidulin_enumerate", "gabidulin.enumerate",
     lambda args, res: {"words": len(res)}),
    (construction, "checked_sq_filter", "gabidulin.filter",
     lambda args, res: {"filtered": len(args[0]), "kept": len(res)}),
    (gabidulin, "truncated_rank_sum", "counting", None),
    (cli, "assemble_parallel", "construction",
     lambda args, res: {"members": len(res),
                        "reduced_members": _reduced_members(res)}),
    (cli, "write_code", "codefile.write", None),
    (cli, "read_code", "codefile.read", None),
    (cli, "reconcile", "verify", None),
    (cli, "parallel_lower_bound", "bounds", None),
    (verify, "min_distance_exhaustive", "verify.scan", None),
    (verify, "min_distance_sampled", "verify.scan", None),
    (CDC, "distinct_count", "verify.distinct", None),
)


@contextlib.contextmanager
def patched(replacements: dict):
    """Set ``owner.attr = fn`` for each ``(owner, attr): fn``; undo on exit."""
    saved = {key: getattr(*key) for key in replacements}
    for (owner, attr), fn in replacements.items():
        setattr(owner, attr, fn)
    try:
        yield
    finally:
        for (owner, attr), fn in saved.items():
            setattr(owner, attr, fn)


def _cli(main, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def round_trip(w, seed: int, code_path, recorder: Recorder | None = None) -> dict:
    """Construct then verify; ``wall_s`` is the sum of the two scaled steps."""
    reports = []
    reconcile = cli.reconcile

    def keep_report(*args, **kwargs):
        report = reconcile(*args, **kwargs)
        reports.append(report)
        return report

    replacements = {(cli, "reconcile"): keep_report}
    main = cli.main
    if recorder is not None:
        for owner, attr, name, count in TRACED:
            inner = replacements.get((owner, attr), getattr(owner, attr))
            replacements[(owner, attr)] = recorder.wrap(name, inner, count)
        main = recorder.wrap("cli", cli.main)
        root = recorder.span("round-trip")
    else:
        root = contextlib.nullcontext()

    cal = [calibration_s()]
    with patched(replacements), root:
        t0 = time.perf_counter()
        construct_rc, construct_out = _cli(main, w.construct_argv(code_path))
        construct_s = time.perf_counter() - t0
        cal.append(calibration_s())
        t0 = time.perf_counter()
        verify_rc, verify_out = _cli(main, w.verify_argv(code_path, seed))
        verify_s = time.perf_counter() - t0
    cal.append(calibration_s())

    report = reports[-1] if reports else None
    construct_scaled = construct_s * scale_factor(cal[:2])
    verify_scaled = verify_s * scale_factor(cal[1:])
    rec = {
        "construct_rc": construct_rc, "construct_out": construct_out,
        "verify_rc": verify_rc, "verify_out": verify_out,
        "construct_s": construct_scaled, "verify_s": verify_scaled,
        "wall_s": construct_scaled + verify_scaled,
        "construct_raw_s": construct_s, "verify_raw_s": verify_s,
        "calibration_s": cal, "scale": scale_factor(cal),
        "witness": list(report.witness) if report and report.witness else None,
        "pairs_checked": report.pairs_checked if report else None,
    }
    return rec


def layer_metrics(w, spans, nbytes: int, pairs_checked: int,
                  scale: float) -> dict:
    """Per-layer metrics of one traced round trip; every ``_s`` is a self time.

    Times are multiplied by ``scale`` (see speed.py) and rates divided by it.
    """
    own = {name: t * scale for name, t in self_times(spans).items()}
    words = total_counts(spans, "gabidulin.enumerate").get("words", 0)
    filt = total_counts(spans, "gabidulin.filter")
    built = total_counts(spans, "construction")
    built_s = scale * sum(s.duration for s in spans if s.name == "construction")
    write_s = own.get("codefile.write", 0.0)
    read_s = own.get("codefile.read", 0.0)
    scan_s = own.get("verify.scan", 0.0)
    found = pairs_checked - w.samples if w.mode == "sampled" else 0
    requested = w.topup_requested
    return {
        "gabidulin.enumerate_s": own.get("gabidulin.enumerate", 0.0),
        "gabidulin.filter_s": own.get("gabidulin.filter", 0.0),
        "gabidulin.words": words,
        "gabidulin.kept": filt.get("kept", 0),
        "gabidulin.keep_ratio": _ratio(filt.get("kept", 0),
                                       filt.get("filtered", 0)),
        "construction.self_s": own.get("construction", 0.0),
        "construction.members": built.get("members", 0),
        "construction.reduced_members": built.get("reduced_members", 0),
        "construction.members_per_s": _ratio(built.get("members", 0), built_s),
        "codefile.write_s": write_s,
        "codefile.read_s": read_s,
        "codefile.bytes": nbytes,
        "codefile.write_mb_per_s": _ratio(nbytes / 1e6, write_s),
        "codefile.read_mb_per_s": _ratio(nbytes / 1e6, read_s),
        "verify.distinct_s": own.get("verify.distinct", 0.0),
        "verify.scan_s": scan_s,
        "verify.pairs_checked": pairs_checked,
        "verify.pairs_per_s": _ratio(pairs_checked, scan_s),
        "verify.topup_requested": requested,
        "verify.topup_found": found,
        # nothing requested means nothing fell short
        "verify.topup_fill_ratio": _ratio(found, requested) if requested else 1.0,
        "verify.self_s": own.get("verify", 0.0),
        "bounds.s": own.get("bounds", 0.0),
        "counting.s": own.get("counting", 0.0),
        "cli.self_s": own.get("cli", 0.0),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--code", required=True, help="code file to write")
    ap.add_argument("--run", default="", help="run id stamped on spans")
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    recorder = Recorder(args.run) if args.trace else None
    rec = round_trip(w, args.seed, args.code, recorder)
    if recorder is not None:
        rec["layers"] = layer_metrics(w, recorder.spans,
                                      os.path.getsize(args.code),
                                      rec["pairs_checked"] or 0, rec["scale"])
        rec["spans"] = [s.to_json() for s in recorder.spans]
    # ru_maxrss is in KiB on Linux
    rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
