"""Smoke test of the benchmark itself, on tiny stand-in workloads.

    python3 -m pytest perfbench -q

It runs one traced round trip in this process for a binary exhaustive and a
ternary sampled stand-in, checks that the output checks pass and the
self-time arithmetic adds up, and feeds one code file with a flipped free
entry through the checks to show they are not vacuous.
"""

import pytest

import child
from checks import check_round_trip, parse_construct, parse_verify
from spans import Recorder, Span, self_times
from subspace_codes import cli
from workloads import RECORD_SEED, Workload

TINY = [
    Workload("tiny-binary", 2, 2, 2, 2, 1, "exhaustive", 1, (256, 144, 81),
             "9bd077958a3343c3e76140b309cc9e3fd71262e8948a2e702458826e088c98df",
             115440, (0, 5)),
    Workload("tiny-ternary", 3, 2, 2, 2, 0, "sampled", 1000, (81, 32),
             "630e6a92cc4349c6b62f26e165885000239be2fc2a142674508116a1b59c2ad9",
             1100, (72, 89)),
]


@pytest.mark.parametrize("w", TINY, ids=lambda w: w.name)
def test_round_trip_passes_every_check(w, tmp_path):
    path = tmp_path / "code.txt"
    recorder = Recorder("smoke")
    rec = child.round_trip(w, RECORD_SEED, path, recorder)
    results = check_round_trip(w, RECORD_SEED, rec, path)
    assert [name for name, ok in results if not ok] == []
    assert len(results) == 8

    # self times partition the root span: they add up to its duration
    spans = recorder.spans
    own = self_times(spans)
    root = next(s for s in spans if s.parent is None)
    assert sum(own.values()) == pytest.approx(root.duration, rel=1e-9)
    assert min(own.values()) >= 0

    layers = child.layer_metrics(w, spans, path.stat().st_size,
                                 rec["pairs_checked"], rec["scale"])
    assert layers["construction.members"] == w.members
    assert layers["construction.reduced_members"] == w.members - w.rounds[0]
    assert layers["verify.pairs_checked"] == w.pairs
    assert layers["verify.topup_found"] == (
        w.pairs - w.samples if w.mode == "sampled" else 0)


def test_self_times_subtract_direct_children_only():
    spans = [Span(0, "root", None, "r", 0.0, 10.0),
             Span(1, "a", 0, "r", 1.0, 4.0),
             Span(2, "b", 1, "r", 2.0, 3.0),
             Span(3, "a", 0, "r", 5.0, 9.0)]
    assert self_times(spans) == {"root": 3.0, "a": 6.0, "b": 1.0}


def test_parsers_read_the_cli_output():
    assert parse_construct(
        "wrote 113 members (81+32) of a (q=3, N=4, d=2, k=2) code to x\n"
    ) == (113, (81, 32))
    got = parse_verify("expected size     113\nstored size       113\n"
                       "distinct size     112\nclaimed distance  2\n"
                       "observed distance 0 (sampled, 1100 pairs)\n"
                       "note: 1 duplicate members\nresult FAIL in 0.01s\n")
    assert got == {"expected size": 113, "stored size": 113,
                   "distinct size": 112, "claimed distance": 2,
                   "observed distance": 0, "mode": "sampled",
                   "pairs": 1100, "result": "FAIL"}
    assert parse_construct("error: bad") is None
    assert parse_verify("") == {}


def test_flipped_free_entry_counts_as_failed(tmp_path, monkeypatch):
    w = TINY[0]
    path = tmp_path / "code.txt"
    write_code = cli.write_code

    def write_then_flip(code, out):
        write_code(code, out)
        lines = path.read_text().splitlines(keepends=True)
        first = lines.index("--\n") + 1
        # member 0 of round 0 is [I | 0]: column k is a free entry
        row0, rest = lines[first].split("|", 1)
        lines[first] = row0[:w.k] + "1" + row0[w.k + 1:] + "|" + rest
        path.write_text("".join(lines))

    monkeypatch.setattr(cli, "write_code", write_then_flip)
    rec = child.round_trip(w, RECORD_SEED, path)
    failed = [name for name, ok in check_round_trip(w, RECORD_SEED, rec, path)
              if not ok]
    assert "code file sha256 as recorded" in failed
    # the flip makes member 0 a copy of another member, which verify reports
    assert "verify exit code 0" in failed
