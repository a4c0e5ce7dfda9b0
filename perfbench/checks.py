"""Output checks for one round trip; each check is one attempted operation.

The checks read only the CLI's printed output, its exit codes, the code file
on disk and the verifier's returned report.  The witness pair's distance is
recomputed here from the file's rows with a rank computation of the
benchmark's own, so a verifier that misreports its minimum is caught.
"""

from __future__ import annotations

import hashlib
import re

from workloads import RECORD_SEED

_WROTE = re.compile(r"^wrote (\d+) members \(([\d+]+)\)", re.M)
_FIELD = re.compile(r"^(expected size|stored size|distinct size|claimed distance)"
                    r"\s+(\d+)$", re.M)
_OBSERVED = re.compile(r"^observed distance (\d+) \((\w+), (\d+) pairs\)$", re.M)
_RESULT = re.compile(r"^result (PASS|FAIL) ", re.M)


def parse_construct(out: str):
    """(members, round sizes) from construct's output, or None."""
    m = _WROTE.search(out)
    if m is None:
        return None
    return int(m.group(1)), tuple(int(c) for c in m.group(2).split("+"))


def parse_verify(out: str) -> dict:
    """The numbers and the verdict that verify prints; missing keys stay out."""
    got = {key: int(val) for key, val in _FIELD.findall(out)}
    m = _OBSERVED.search(out)
    if m:
        got["observed distance"] = int(m.group(1))
        got["mode"] = m.group(2)
        got["pairs"] = int(m.group(3))
    m = _RESULT.search(out)
    if m:
        got["result"] = m.group(1)
    return got


def sha256_of(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _rank_mod_p(rows, p: int) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def pair_distance(path, i: int, j: int, q: int, k: int) -> int:
    """Subspace distance of members i and j of a code file, over prime q."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    body = lines[lines.index("--") + 1:]
    rows = [[int(ch) for ch in group]
            for member in (body[i], body[j]) for group in member.split("|")]
    return 2 * (_rank_mod_p(rows, q) - k)


def check_round_trip(w, seed: int, rec: dict, code_path) -> list:
    """[(check name, passed)] for one round trip of workload ``w``."""
    results = []

    def check(name, fn):
        try:
            ok = bool(fn())
        except (LookupError, ValueError, TypeError, OSError):
            ok = False
        results.append((name, ok))

    v = parse_verify(rec["verify_out"])
    witness = rec["witness"]
    check("construct exit code 0", lambda: rec["construct_rc"] == 0)
    check("member count and round breakdown",
          lambda: parse_construct(rec["construct_out"]) == (w.members, w.rounds))
    check("code file sha256 as recorded",
          lambda: sha256_of(code_path) == w.sha256)
    check("verify exit code 0", lambda: rec["verify_rc"] == 0)
    check("verdict PASS with distance >= d and every size as predicted",
          lambda: v["result"] == "PASS" and v["observed distance"] >= w.d
          and v["claimed distance"] == w.d
          and v["expected size"] == v["stored size"] == v["distinct size"]
          == w.members)
    check("pairs checked as the mode implies",
          lambda: v["pairs"] == rec["pairs_checked"] and v["mode"] == w.mode
          and (v["pairs"] == w.members * (w.members - 1) // 2
               if w.mode == "exhaustive"
               else w.samples <= v["pairs"] <= w.samples + w.topup_requested))
    check("witness pair is at the observed distance",
          lambda: pair_distance(code_path, *witness, w.q, w.k)
          == v["observed distance"])
    if w.mode == "exhaustive" or seed == RECORD_SEED:
        check("pairs checked and witness as recorded",
              lambda: (v["pairs"], tuple(witness)) == (w.pairs, w.witness))
    return results
