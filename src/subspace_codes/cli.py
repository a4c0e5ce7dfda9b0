"""Command line front end.

Exit codes: 0 on success, 1 when a verification or reproduction check
fails, 2 for invalid parameters, unreadable input and every other error,
including an internal consistency failure or running out of memory.

The bound selector tokens are short tags rather than function names:
``thm2`` is the two-block lower bound, ``thm3`` the general parallel lower
bound with --s rounds, ``johnson1`` the anticode-ratio upper bound and
``johnson2`` the iterated puncturing upper bound.

A run whose first argument names a subcommand builds only that parser, since
building all five is most of a short run's own time; any other argument list
gets the full parser, so help and error messages read the same either way.

``read_code``, ``write_code``, ``assemble_parallel`` and ``reconcile`` load
on first look-up, so that ``bound``, ``dist`` and ``table`` start without
importing numpy.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bounds import (
    johnson_anticode_upper,
    johnson_iterated_upper,
    parallel_lower_bound,
    reproduce_reference_table,
    two_block_lower_bound,
)
from .counting import delsarte_rank_distribution
from .errors import InvalidParameterError

FORMATS = ("human", "csv", "json")
_COMMANDS = ("bound", "dist", "table", "construct", "verify")
_ARRAY_NAMES = ("read_code", "write_code", "assemble_parallel", "reconcile")
# the handlers read the array layer's names here, where callers replace them
_module = sys.modules[__name__]


def __getattr__(name):
    """Bind the array layer's names on the first look-up of any one of them.

    The three modules load together, so a later step never pays for one's
    compile, and a name that a caller has already set is kept.
    """
    if name not in _ARRAY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .codefile import read_code, write_code
    from .construction import assemble_parallel
    from .verify import reconcile
    loaded = locals()
    for key in _ARRAY_NAMES:
        globals().setdefault(key, loaded[key])
    return globals()[name]


def _require(cond: bool, message: str):
    if not cond:
        raise InvalidParameterError(message)


def cmd_bound(args) -> int:
    mode = args.mode
    _require(args.s is None or mode == "thm3", f"--s does not apply to {mode}")
    _require(args.base is None or mode == "johnson2",
             f"--base does not apply to {mode}")
    if mode == "thm2":
        res = two_block_lower_bound(args.q, args.n, args.k, args.d)
    elif mode == "thm3":
        _require(args.s is not None, "thm3 needs --s")
        res = parallel_lower_bound(args.q, args.n, args.k, args.d, args.s)
    elif mode == "johnson1":
        res = johnson_anticode_upper(args.q, args.n, args.k, args.d)
    else:
        res = johnson_iterated_upper(args.q, args.n, args.d, args.k,
                                     base=args.base)
    p = res.params
    if args.format == "human":
        print(res.value)
    elif args.format == "csv":
        print("kind,q,ambient,n,k,d,s,value")
        n = "" if p.n is None else p.n
        s = "" if p.s is None else p.s
        print(f"{res.kind},{p.q},{p.ambient},{n},{p.k},{p.d},{s},{res.value}")
    else:
        print(json.dumps({
            "kind": res.kind, "q": p.q, "ambient": p.ambient, "n": p.n,
            "k": p.k, "d": p.d, "s": p.s, "value": str(res.value),
        }))
    return 0


def cmd_dist(args) -> int:
    dist = delsarte_rank_distribution(args.q, args.m, args.nmin, args.d)
    if args.format == "human":
        for r in range(args.nmin + 1):
            print(f"rank {r}: {dist.counts[r]}")
        print(f"total: {dist.total()}")
    elif args.format == "csv":
        print("rank,count")
        for r in range(args.nmin + 1):
            print(f"{r},{dist.counts[r]}")
    else:
        print(json.dumps({
            "q": args.q, "m": args.m, "nmin": args.nmin, "d": args.d,
            "counts": {str(r): str(dist.counts[r])
                       for r in range(args.nmin + 1)},
        }))
    return 0


def cmd_table(args) -> int:
    rows = reproduce_reference_table()
    mismatches = [r for r in rows if not r.matches]
    if args.format == "human":
        print(f"{'q':>2} {'N':>3} {'d':>2} {'k':>2} {'recomputed':>66} "
              f"{'prior':>66} improves matches")
        for r in rows:
            t = r.row
            print(f"{t.q:>2} {t.ambient:>3} {t.d:>2} {t.k:>2} "
                  f"{r.computed:>66} {t.old:>66} "
                  f"{'yes' if r.improves else 'NO ':>8} "
                  f"{'yes' if r.matches else 'NO ':>7}")
        improving = sum(1 for r in rows if r.improves)
        print(f"{len(rows)} rows, {len(rows) - len(mismatches)} recomputed "
              f"exactly, {improving} improve on the prior record")
    elif args.format == "csv":
        print("q,ambient,d,k,new,old,improves,matches")
        for r in rows:
            t = r.row
            print(f"{t.q},{t.ambient},{t.d},{t.k},{t.new},{t.old},"
                  f"{int(r.improves)},{int(r.matches)}")
    else:
        print(json.dumps([{
            "q": r.row.q, "ambient": r.row.ambient, "d": r.row.d,
            "k": r.row.k, "new": str(r.row.new), "old": str(r.row.old),
            "recomputed": str(r.computed), "improves": r.improves,
            "matches": r.matches,
        } for r in rows]))
    return 1 if mismatches else 0


def cmd_construct(args) -> int:
    code = _module.assemble_parallel(args.q, args.n, args.k, args.d, args.s)
    _module.write_code(code, args.out)
    breakdown = "+".join(map(str, code.round_sizes))
    print(f"wrote {len(code)} members ({breakdown}) of a (q={code.q}, "
          f"N={code.ambient}, d={code.d}, k={code.k}) code to {args.out}")
    return 0


def cmd_verify(args) -> int:
    code = _module.read_code(args.infile)
    if code.params is not None:
        expected = parallel_lower_bound(code.params.q, code.params.n,
                                        code.params.k, code.params.d,
                                        code.params.s).value
    else:
        expected = len(code)
    report = _module.reconcile(code, expected, args.d, mode=args.mode,
                               samples=args.samples, seed=args.seed)
    print(f"expected size     {report.expected_size}")
    print(f"stored size       {report.stored_size}")
    print(f"distinct size     {report.distinct_size}")
    print(f"claimed distance  {report.claimed_distance}")
    print(f"observed distance {report.observed_distance} "
          f"({report.distance_mode}, {report.pairs_checked} pairs)")
    print(f"ranked pairs      {report.pairs_ranked}")
    for note in report.notes:
        print(f"note: {note}")
    print(f"result {'PASS' if report.passed else 'FAIL'} "
          f"in {report.runtime_seconds:.2f}s")
    return 0 if report.passed else 1


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subspace-codes",
        description="Bounds, constructions and verification for "
                    "constant-dimension subspace codes.")
    sub = parser.add_subparsers(dest="command", required=True)
    if command is not None:
        # the usage line lists every command, as the full parser's does
        sub.metavar = "{" + ",".join(_COMMANDS) + "}"

    if command in (None, "bound"):
        b = sub.add_parser("bound", help="evaluate one bound")
        b.add_argument("mode", choices=("thm2", "thm3", "johnson1", "johnson2"))
        b.add_argument("--q", type=int, required=True, help="field order")
        b.add_argument("--n", type=int, required=True,
                       help="matrix width (lower bounds) or ambient dimension "
                            "(upper bounds)")
        b.add_argument("--k", type=int, required=True, help="codeword dimension")
        b.add_argument("--d", type=int, required=True,
                       help="minimum subspace distance, even")
        b.add_argument("--s", type=int, help="extra rounds, thm3 only")
        b.add_argument("--base", type=int,
                       help="seed value for the iterated bound, johnson2 only")
        b.add_argument("--format", choices=FORMATS, default="human")
        b.set_defaults(handler=cmd_bound)

    if command in (None, "dist"):
        di = sub.add_parser("dist", help="exact rank distribution")
        di.add_argument("--q", type=int, required=True)
        di.add_argument("--m", type=int, required=True, help="matrix width, m >= nmin")
        di.add_argument("--nmin", type=int, required=True, help="matrix height")
        di.add_argument("--d", type=int, required=True, help="minimum rank distance")
        di.add_argument("--format", choices=FORMATS, default="human")
        di.set_defaults(handler=cmd_dist)

    if command in (None, "table"):
        t = sub.add_parser("table", help="recompute the shipped reference table")
        t.add_argument("action", choices=("reproduce",))
        t.add_argument("--format", choices=FORMATS, default="human")
        t.set_defaults(handler=cmd_table)

    if command in (None, "construct"):
        c = sub.add_parser("construct", help="assemble a code and write it out")
        c.add_argument("--q", type=int, required=True)
        c.add_argument("--n", type=int, required=True, help="matrix width, n >= k")
        c.add_argument("--k", type=int, required=True)
        c.add_argument("--d", type=int, required=True)
        c.add_argument("--s", type=int, required=True, help="extra rounds, >= 0")
        c.add_argument("--out", required=True, help="output path")
        c.set_defaults(handler=cmd_construct)

    if command in (None, "verify"):
        v = sub.add_parser("verify", help="check a stored code against its claims")
        v.add_argument("--in", dest="infile", required=True, help="code file")
        v.add_argument("--d", type=int, required=True, help="claimed distance")
        v.add_argument("--mode", choices=("exhaustive", "sampled"),
                       default="exhaustive")
        v.add_argument("--samples", type=int, default=10 ** 6,
                       help="pair samples in sampled mode")
        v.add_argument("--seed", type=int, default=0)
        v.set_defaults(handler=cmd_verify)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.handler(args)
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
