"""End-to-end coverage of the command line surface, in process."""

import argparse
import json
import re
import subprocess
import sys

import pytest

from subspace_codes import cli
from subspace_codes.bounds import block_cardinalities
from subspace_codes.cli import main
from subspace_codes.codefile import read_code
from subspace_codes.construction import Subspace
from subspace_codes.errors import InternalConsistencyError
from subspace_codes.gabidulin import BUDGET_ENV_VAR
from subspace_codes.verify import min_distance_exhaustive, subspace_distance


def run(capsys, *argv):
    try:
        rc = main(list(argv))
    except SystemExit as exc:  # argparse errors
        rc = exc.code
    out, err = capsys.readouterr()
    return rc, out, err


def test_bound_values_human(capsys):
    rc, out, _ = run(capsys, "bound", "thm2", "--q", "2", "--n", "5",
                     "--k", "5", "--d", "4")
    assert rc == 0 and out.strip() == "1178311"
    rc, out, _ = run(capsys, "bound", "thm3", "--q", "2", "--n", "5",
                     "--k", "5", "--d", "4", "--s", "1")
    assert rc == 0 and out.strip() == "1252379805361"
    rc, out, _ = run(capsys, "bound", "johnson1", "--q", "2", "--n", "6",
                     "--k", "3", "--d", "4")
    assert rc == 0 and out.strip() == "93"
    rc, out, _ = run(capsys, "bound", "johnson2", "--q", "2", "--n", "8",
                     "--k", "4", "--d", "6")
    assert rc == 0 and out.strip() == "306"


def test_bound_fixed_seed_matches_default(capsys):
    rc, out, _ = run(capsys, "bound", "johnson2", "--q", "2", "--n", "8",
                     "--k", "4", "--d", "6", "--base", "18")
    assert rc == 0 and out.strip() == "306"


def test_bound_formats(capsys):
    rc, out, _ = run(capsys, "bound", "thm3", "--q", "2", "--n", "2",
                     "--k", "2", "--d", "2", "--s", "1", "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,q,ambient,n,k,d,s,value"
    assert lines[1].endswith(",481")
    rc, out, _ = run(capsys, "bound", "thm2", "--q", "2", "--n", "2",
                     "--k", "2", "--d", "2", "--format", "json")
    assert rc == 0
    blob = json.loads(out)
    assert blob["value"] == "25"
    assert blob["kind"] == "two-block"


def test_bound_flag_scoping(capsys):
    rc, _, err = run(capsys, "bound", "thm3", "--q", "2", "--n", "2",
                     "--k", "2", "--d", "2")
    assert rc == 2 and "thm3 needs --s" in err
    rc, _, err = run(capsys, "bound", "thm2", "--q", "2", "--n", "2",
                     "--k", "2", "--d", "2", "--s", "1")
    assert rc == 2 and "--s" in err
    rc, _, err = run(capsys, "bound", "thm3", "--q", "2", "--n", "2",
                     "--k", "2", "--d", "2", "--s", "1", "--base", "5")
    assert rc == 2 and "--base" in err


def test_bound_rejects_bad_parameters(capsys):
    rc, _, err = run(capsys, "bound", "thm2", "--q", "2", "--n", "2",
                     "--k", "2", "--d", "3")
    assert rc == 2 and "error:" in err
    rc, _, err = run(capsys, "bound", "thm2", "--q", "6", "--n", "2",
                     "--k", "2", "--d", "2")
    assert rc == 2


def test_dist_output(capsys):
    rc, out, _ = run(capsys, "dist", "--q", "2", "--m", "4",
                     "--nmin", "4", "--d", "2")
    assert rc == 0
    assert "525" in out and "2250" in out and "1320" in out
    assert "4096" in out  # total
    rc, out, _ = run(capsys, "dist", "--q", "2", "--m", "4",
                     "--nmin", "4", "--d", "2", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "rank,count"
    assert "2,525" in lines
    rc, out, _ = run(capsys, "dist", "--q", "2", "--m", "4",
                     "--nmin", "4", "--d", "2", "--format", "json")
    blob = json.loads(out)
    assert blob["counts"]["2"] == "525"


def test_dist_rejects_bad_parameters(capsys):
    rc, _, err = run(capsys, "dist", "--q", "2", "--m", "3",
                     "--nmin", "4", "--d", "2")
    assert rc == 2 and "error:" in err
    rc, out, err = run(capsys, "dist", "--q", "6", "--m", "4",
                       "--nmin", "4", "--d", "2")
    assert rc == 2 and "prime power" in err and out == ""


def test_unknown_command_and_mode(capsys):
    rc, _, _ = run(capsys, "frobnicate")
    assert rc == 2
    rc, _, _ = run(capsys, "bound", "thm9", "--q", "2", "--n", "2",
                   "--k", "2", "--d", "2")
    assert rc == 2


def test_table_reproduce(capsys):
    rc, out, _ = run(capsys, "table", "reproduce")
    assert rc == 0
    assert "56 rows" in out
    assert "56 recomputed exactly" in out
    rc, out, _ = run(capsys, "table", "reproduce", "--format", "csv")
    lines = out.strip().splitlines()
    assert len(lines) == 57
    assert lines[0] == "q,ambient,d,k,new,old,improves,matches"
    assert all(line.endswith(",1") for line in lines[1:])  # every row matches
    assert sum(1 for line in lines[1:] if line.endswith(",0,1")) == 6
    rc, out, _ = run(capsys, "table", "reproduce", "--format", "json")
    rows = json.loads(out)
    assert len(rows) == 56
    assert all(r["matches"] for r in rows)
    assert sum(1 for r in rows if not r["improves"]) == 6


def test_construct_verify_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "code.txt"
    rc, out, _ = run(capsys, "construct", "--q", "2", "--n", "2", "--k", "2",
                     "--d", "2", "--s", "1", "--out", str(out_path))
    assert rc == 0
    assert "481" in out and str(out_path) in out
    assert out_path.exists()

    rc, out, _ = run(capsys, "verify", "--in", str(out_path), "--d", "2")
    assert rc == 0
    assert "result PASS" in out
    assert "481" in out
    # the ranks computed, on their own line after the observed distance
    ranked = min_distance_exhaustive(read_code(out_path)).pairs_ranked
    assert 0 < ranked < 481 * 480 // 2
    lines = out.splitlines()
    at = next(t for t, line in enumerate(lines)
              if line.startswith("observed distance"))
    assert lines[at] == "observed distance 2 (exhaustive, 115440 pairs)"
    assert lines[at + 1] == f"ranked pairs      {ranked}"

    rc, out, _ = run(capsys, "verify", "--in", str(out_path), "--d", "2",
                     "--mode", "sampled", "--samples", "1000", "--seed", "42")
    assert rc == 0
    assert "sampled" in out and "1100 pairs" in out
    assert "ranked pairs      1100\n" in out


@pytest.mark.parametrize("params", [(3, 2, 2, 2, 0), (3, 2, 2, 2, 1),
                                    (2, 2, 2, 2, 2)])
def test_construct_prints_the_round_breakdown(capsys, tmp_path, params):
    q, n, k, d, s = params
    out_path = tmp_path / "code.txt"
    rc, out, _ = run(capsys, "construct", "--q", str(q), "--n", str(n),
                     "--k", str(k), "--d", str(d), "--s", str(s),
                     "--out", str(out_path))
    assert rc == 0
    sizes = block_cardinalities(*params)
    assert len(sizes) == s + 2 and min(sizes) > 0
    code = read_code(out_path)
    assert len(code) == sum(sizes)
    assert code.round_sizes == sizes
    assert out == (f"wrote {sum(sizes)} members ({'+'.join(map(str, sizes))}) "
                   f"of a (q={q}, N={(s + 1) * k + n}, d={d}, k={k}) code to "
                   f"{out_path}\n")


def test_verify_without_a_construction_line_expects_the_stored_size(
        capsys, tmp_path):
    out_path = tmp_path / "code.txt"
    run(capsys, "construct", "--q", "2", "--n", "2", "--k", "2",
        "--d", "2", "--s", "1", "--out", str(out_path))
    lines = out_path.read_text().splitlines()
    lines = [l for l in lines if not l.startswith("construction=")]
    out_path.write_text("\n".join(lines) + "\n")
    assert read_code(out_path).params is None
    rc, out, _ = run(capsys, "verify", "--in", str(out_path), "--d", "2")
    assert rc == 0 and "result PASS" in out
    assert "expected size     481\nstored size       481\n" in out


def test_verify_refuses_a_misspelled_construction_key(capsys, tmp_path):
    # one member deleted: the construction line's predicted 481 fails the
    # 480 stored members, and a typo in its key must not turn that into a
    # PASS against the stored size
    out_path = tmp_path / "code.txt"
    run(capsys, "construct", "--q", "2", "--n", "2", "--k", "2",
        "--d", "2", "--s", "1", "--out", str(out_path))
    lines = out_path.read_text().splitlines()
    lines[lines.index("members=481")] = "members=480"
    del lines[-1]
    out_path.write_text("\n".join(lines) + "\n")
    rc, out, _ = run(capsys, "verify", "--in", str(out_path), "--d", "2")
    assert rc == 1 and "result FAIL" in out

    at = lines.index("construction=parallel n=2 s=1")
    lines[at] = "constructon=parallel n=2 s=1"
    out_path.write_text("\n".join(lines) + "\n")
    rc, out, err = run(capsys, "verify", "--in", str(out_path), "--d", "2")
    assert rc == 2 and "result PASS" not in out
    assert "unknown header key 'constructon'" in err


def test_verify_overclaimed_distance_fails(capsys, tmp_path):
    out_path = tmp_path / "code.txt"
    run(capsys, "construct", "--q", "2", "--n", "2", "--k", "2",
        "--d", "2", "--s", "0", "--out", str(out_path))
    rc, out, _ = run(capsys, "verify", "--in", str(out_path), "--d", "4")
    assert rc == 1
    assert "result FAIL" in out
    assert "below claim" in out


def test_verify_rejects_a_claim_that_is_no_distance(capsys, tmp_path):
    out_path = tmp_path / "code.txt"
    run(capsys, "construct", "--q", "2", "--n", "2", "--k", "2",
        "--d", "2", "--s", "0", "--out", str(out_path))
    for claim in ("0", "-2", "3"):
        rc, out, err = run(capsys, "verify", "--in", str(out_path), "--d", claim)
        assert rc == 2 and "even and >= 2" in err and "PASS" not in out
    # a claim past anything the code could reach is still a plain FAIL
    rc, out, _ = run(capsys, "verify", "--in", str(out_path), "--d", "100")
    assert rc == 1 and "result FAIL" in out


def test_verify_detects_flipped_free_digit(capsys, tmp_path):
    # flipping a free entry keeps the file well formed but turns the
    # member into a copy of another one: a verification failure
    out_path = tmp_path / "code.txt"
    run(capsys, "construct", "--q", "2", "--n", "2", "--k", "2",
        "--d", "2", "--s", "1", "--out", str(out_path))
    lines = out_path.read_text().splitlines()
    i = lines.index("--") + 1
    row = list(lines[i])
    row[2] = "1" if row[2] == "0" else "0"
    lines[i] = "".join(row)
    out_path.write_text("\n".join(lines) + "\n")
    rc, out, _ = run(capsys, "verify", "--in", str(out_path), "--d", "2")
    assert rc == 1
    assert "result FAIL" in out
    assert "duplicate" in out


def test_verify_witness_of_a_flipped_free_entry(capsys, tmp_path):
    # a flipped free entry keeps every row canonical and every member
    # distinct, but brings member 0 within distance 2 of another member;
    # the witness is checked against the scalar distance of its two members
    out_path = tmp_path / "code.txt"
    run(capsys, "construct", "--q", "2", "--n", "4", "--k", "4",
        "--d", "4", "--s", "0", "--out", str(out_path))
    lines = out_path.read_text().splitlines()
    i = lines.index("--") + 1
    row = list(lines[i])
    row[4] = "1" if row[4] == "0" else "0"
    lines[i] = "".join(row)
    out_path.write_text("\n".join(lines) + "\n")
    rc, out, _ = run(capsys, "verify", "--in", str(out_path), "--d", "4",
                     "--mode", "exhaustive")
    assert rc == 1
    assert "result FAIL" in out and "duplicate" not in out
    observed = int(re.search(r"observed distance (\d+)", out)[1])
    a, b = map(int, re.search(r"witness pair \((\d+), (\d+)\)", out).groups())
    code = read_code(out_path)
    members = [Subspace(code.q, code.ambient, tuple(code.codes[t].tolist()))
               for t in (a, b)]
    assert a == 0
    assert observed == subspace_distance(*members) == 2


def test_verify_rejects_flipped_pivot_digit(capsys, tmp_path):
    # flipping a pivot-column entry breaks canonical form: a format error
    out_path = tmp_path / "code.txt"
    run(capsys, "construct", "--q", "2", "--n", "2", "--k", "2",
        "--d", "2", "--s", "1", "--out", str(out_path))
    lines = out_path.read_text().splitlines()
    i = lines.index("--") + 1
    row = list(lines[i])
    row[1] = "1" if row[1] == "0" else "0"
    lines[i] = "".join(row)
    out_path.write_text("\n".join(lines) + "\n")
    rc, _, err = run(capsys, "verify", "--in", str(out_path), "--d", "2")
    assert rc == 2
    assert "canonical" in err


def test_verify_rejects_malformed_files(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a code file\n")
    rc, _, err = run(capsys, "verify", "--in", str(bad), "--d", "2")
    assert rc == 2 and "error:" in err

    out_path = tmp_path / "code.txt"
    run(capsys, "construct", "--q", "2", "--n", "2", "--k", "2",
        "--d", "2", "--s", "0", "--out", str(out_path))
    lines = out_path.read_text().splitlines()
    for n, l in enumerate(lines):
        if l.startswith("members="):
            lines[n] = "members=26"
    out_path.write_text("\n".join(lines) + "\n")
    rc, _, err = run(capsys, "verify", "--in", str(out_path), "--d", "2")
    assert rc == 2 and "declares 26" in err

    rc, _, err = run(capsys, "verify", "--in", str(tmp_path / "ghost.txt"),
                     "--d", "2")
    assert rc == 2

    # an empty code over an unsupported order is a bad file, not a PASS
    empty = tmp_path / "empty6.txt"
    empty.write_text("subspace-code v1\nq=6\nambient=4\nk=2\nd=2\n"
                     "members=0\n--\n")
    rc, out, err = run(capsys, "verify", "--in", str(empty), "--d", "2")
    assert rc == 2 and "q=6" in err and "PASS" not in out


def test_construct_rejects_bad_parameters(capsys, tmp_path):
    rc, _, err = run(capsys, "construct", "--q", "2", "--n", "1", "--k", "2",
                     "--d", "2", "--s", "0", "--out", str(tmp_path / "x.txt"))
    assert rc == 2 and "error:" in err
    # the row width is checked before any count that grows with n
    rc, _, err = run(capsys, "construct", "--q", "2", "--n", str(10 ** 12),
                     "--k", "2", "--d", "2", "--s", "0",
                     "--out", str(tmp_path / "x.txt"))
    assert rc == 2 and "uint64 row limit" in err


def test_construct_respects_budget_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "100")
    rc, _, err = run(capsys, "construct", "--q", "2", "--n", "2", "--k", "2",
                     "--d", "2", "--s", "1", "--out", str(tmp_path / "x.txt"))
    assert rc == 2
    assert BUDGET_ENV_VAR in err
    assert not (tmp_path / "x.txt").exists()


def test_module_entry_point(tmp_path):
    # run as __main__, cli must find its lazily bound names on that module
    for module in ("subspace_codes", "subspace_codes.cli"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "bound", "thm2",
             "--q", "2", "--n", "2", "--k", "2", "--d", "2"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "25"
        out = tmp_path / f"{module}.txt"
        proc = subprocess.run(
            [sys.executable, "-m", module, "construct", "--q", "2", "--n", "2",
             "--k", "2", "--d", "2", "--s", "1", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("wrote 481 members (256+144+81)")
        assert len(read_code(out)) == 481


def test_import_fills_no_cache():
    # every CLI run pays for start-up, so importing the CLI builds no field,
    # table or jump table before a command asks for one
    probe = ("import subspace_codes.cli\n"
             "from subspace_codes import codefile, fields, verify\n"
             "caches = (fields._field, fields.field_of, fields.extension_field, "
             "fields._tables, fields._plane_tables, fields._digit_table, "
             "codefile._chars, verify._lcg_jump)\n"
             "print([c.cache_info().currsize for c in caches])")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0, 0, 0, 0, 0, 0]"


def test_integer_commands_start_without_numpy(tmp_path):
    # only the array layer loads numpy: the package, the integer layer, the
    # CLI module and its bound, dist and table commands start without it
    path = str(tmp_path / "c.txt")
    probe = f"""
import contextlib, io, sys

def free(step):
    assert "numpy" not in sys.modules, step

import subspace_codes
free("import subspace_codes")
import subspace_codes.bounds, subspace_codes.counting, subspace_codes.errors
import subspace_codes.cli as cli
free("import of bounds, counting, errors and cli")
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["bound", "thm3", "--q", "2", "--n", "5", "--k", "5",
                  "--d", "4", "--s", "1"],
                 ["dist", "--q", "2", "--m", "4", "--nmin", "3", "--d", "2"],
                 ["table", "reproduce"]):
        assert cli.main(argv) == 0, argv
        free(" ".join(argv[:2]))
    assert cli.main(["construct", "--q", "2", "--n", "2", "--k", "2",
                     "--d", "2", "--s", "0", "--out", {path!r}]) == 0
print("numpy" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"  # construct does load it


def test_replaced_names_survive_the_lazy_load(tmp_path):
    # callers, perfbench's child among them, replace cli's array-layer names
    # before any of them has been looked up; the lazy load must keep theirs
    path = str(tmp_path / "c.txt")
    probe = f"""
import contextlib, io
from subspace_codes import cli, codefile, construction, verify

calls = []

def counting(name, inner):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)
    return wrapper

cli.reconcile = counting("reconcile", verify.reconcile)
cli.write_code = counting("write_code", codefile.write_code)
path = {path!r}
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["construct", "--q", "2", "--n", "2", "--k", "2",
                     "--d", "2", "--s", "1", "--out", path]) == 0
    assert cli.main(["verify", "--in", path, "--d", "2"]) == 0
assert calls == ["write_code", "reconcile"], calls
assert cli.read_code is codefile.read_code
assert cli.assemble_parallel is construction.assemble_parallel
assert cli.reconcile.__name__ == cli.write_code.__name__ == "wrapper"
"""
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_unknown_cli_attribute_names_the_module():
    with pytest.raises(AttributeError, match="subspace_codes.cli"):
        cli.no_such_name


@pytest.mark.parametrize("exc", [InternalConsistencyError("round member lost rank"),
                                 MemoryError(), ZeroDivisionError("x")])
def test_internal_failures_exit_2(capsys, monkeypatch, tmp_path, exc):
    """Status 1 means a verification failed; every other error is 2."""
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "assemble_parallel", fail)
    rc, out, err = run(capsys, "construct", "--q", "2", "--n", "2", "--k", "2",
                       "--d", "2", "--s", "0", "--out", str(tmp_path / "c.txt"))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ")


# the argv corpus of the one-command build: CODE stands for a code file that
# a valid construct has written
CODE = "CODE"
SHAPE = ("--q", "2", "--n", "2", "--k", "2", "--d", "2")
COMMANDS = ("bound", "dist", "table", "construct", "verify")
CORPUS = [
    (), ("-h",), ("--help",),
    ("frobnicate",), ("constr",), ("--format", "csv", "bound", "thm2", *SHAPE),
    *((name, "--help") for name in COMMANDS),
    ("construct", *SHAPE, "--out", CODE),  # no --s
    ("construct", *SHAPE, "--s", "0", "--out", CODE, "--bogus"),
    ("verify", "--in", CODE, "--d", "2", "--mode", "fast"),
    ("construct", *SHAPE, "--s", "0", "--out", CODE, "extra"),
    ("bound", "thm2", *SHAPE),
    ("dist", "--q", "2", "--m", "3", "--nmin", "2", "--d", "2"),
    ("table", "reproduce", "--format", "csv"),
    ("construct", *SHAPE, "--s", "0", "--out", CODE),
    ("verify", "--in", CODE, "--d", "2"),
]


@pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
def test_one_command_build_matches_the_full_parser(capsys, monkeypatch,
                                                   tmp_path, argv):
    code = str(tmp_path / "code.txt")
    run(capsys, "construct", *SHAPE, "--s", "0", "--out", code)
    argv = [code if a == CODE else a for a in argv]

    def surface():
        # exit code, stdout and stderr; the verify line's run time may differ
        return [re.sub(r" in \d+\.\d+s$", "", str(x), flags=re.M)
                for x in run(capsys, *argv)]

    one = surface()
    monkeypatch.setattr(cli, "_COMMANDS", ())  # every argv gets the full parser
    assert one == surface()


@pytest.mark.parametrize("argv, built", [
    *(((name, "--help"), 2) for name in COMMANDS),
    (("bound", "thm2", *SHAPE), 2),
    (("--help",), 6), (("frobnicate",), 6), ((), 6),
])
def test_a_known_command_builds_one_subparser(capsys, monkeypatch, argv,
                                              built):
    count = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        count.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    run(capsys, *argv)
    assert len(count) == built
