import hashlib
import io
import json
import logging
import re
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from repairbound import __version__, cli, prover
from repairbound.certificate import Certificate, load, parse, serialize
from repairbound.cli import main
from repairbound.instance import ALPHA, BETA, BIGB
from repairbound.universe import Universe

DATA = Path(__file__).resolve().parent.parent / "data"
PROP1 = str(DATA / "prop1.cert.json")
PROP2 = str(DATA / "prop2.cert.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_valid_prop1(capsys):
    code, out, _ = run(capsys, "verify", PROP1)
    assert code == 0
    assert out.splitlines()[0] == "VALID: 15α+10β ≥ 6B"


def test_verify_valid_prop2(capsys):
    code, out, _ = run(capsys, "verify", PROP2)
    assert code == 0
    assert out.splitlines()[0] == "VALID: 5α+10β ≥ 3B"


def test_verify_mutated_names_column(capsys, tmp_path):
    cert = load(PROP1)
    key = sorted(cert.rows[3])[0]
    cert.rows[3][key] += 1
    mutated = tmp_path / "mutated.json"
    mutated.write_bytes(serialize(cert))
    code, out, _ = run(capsys, "verify", str(mutated))
    assert code == 1
    assert out.startswith("INVALID:")
    assert repr(key) in out


def test_verify_report_file(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", PROP1, "--report", str(report))
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["status"] == "VALID"
    assert payload["meaning"] == [15, 10, 6]
    assert len(payload["rows"]) == 13
    assert any(line.startswith("tool=repairbound") for line in payload["run-config"])


def test_oversize_problem_exits_3_before_building_a_universe(capsys, tmp_path, monkeypatch):
    # canonicalization tables grow as n!, so a 1 KB certificate declaring
    # n = 9 would ask for about 1e9 entries; the guard fails the test
    # instead of building one if the size check is ever missing
    init = Universe.__init__

    def guarded(self, n, k):
        if n > 6:
            raise AssertionError(f"Universe built for n={n}")
        init(self, n, k)

    monkeypatch.setattr(Universe, "__init__", guarded)
    cert = Certificate(9, 8, 8, {"T1": ("W1",)}, [{"alpha": 1, "T1": -1}], {"alpha": 1, "T1": -1})
    path = tmp_path / "n9.cert.json"
    path.write_bytes(serialize(cert))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 3 and out == "" and "n must be <= 6, got 9" in err
    code, out, err = run(capsys, "solve", "--n", "7", "--k", "6", "--dir", "1,0")
    assert code == 3 and out == "" and "n must be <= 6, got 7" in err


def test_verify_io_errors(capsys, tmp_path):
    code, _, err = run(capsys, "verify", str(tmp_path / "missing.json"))
    assert code == 3 and "error:" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 3 and "JSON syntax" in err


# JSON that the decoder itself refuses: nesting past the recursion limit,
# and a coefficient past the digit limit of int()
HOSTILE_JSON = {
    "deep.json": "[" * 100_000,
    "long-int.json": Path(PROP1).read_text().replace('"alpha": 1', '"alpha": 1' + "0" * 5000, 1),
}


def test_hostile_certificate_files_exit_3_naming_the_file(capsys, tmp_path):
    for name, text in HOSTILE_JSON.items():
        path = tmp_path / name
        path.write_text(text)
        for argv in (("verify",), ("export-latex",), ("region", "--cert")):
            code, out, err = run(capsys, *argv, str(path))
            assert code == 3 and out == "", argv
            assert err.startswith(f"error: {path}: cannot decode JSON: "), argv


def test_hostile_seed_files_exit_3_naming_the_file(capsys, tmp_path):
    for name, text in HOSTILE_JSON.items():
        path = tmp_path / name
        path.write_text(text)
        argv = ("solve", "--n", "5", "--k", "4", "--dir", "1,0", "--seeds", str(path))
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "", name
        assert err.startswith(f"error: {path}: cannot decode JSON: "), name


def test_seed_files_are_checked_as_certificate_terms(capsys, tmp_path):
    argv = ("solve", "--n", "5", "--k", "4", "--dir", "1,0", "--seeds")
    code, out, err = run(capsys, *argv, str(tmp_path / "missing.json"))
    assert code == 3 and out == "" and err.startswith(f"error: cannot read {tmp_path}")
    bad = tmp_path / "badtok.json"
    bad.write_text('{"terms": [{"id": "T1", "vars": ["Q1"]}]}')
    code, out, err = run(capsys, *argv, str(bad))
    assert code == 3 and out == ""
    assert err == f"error: {bad}: terms[0].vars: bad variable token 'Q1'\n"


def test_max_depth_below_one_fails_verify_before_the_sum_check(capsys, tmp_path):
    # with sums that fail, the verifier would report INVALID (exit 1)
    # without checking a row
    cert = load(PROP1)
    cert.rows[0]["alpha"] = cert.rows[0].get("alpha", 0) + 1
    mutated = tmp_path / "mutated.json"
    mutated.write_bytes(serialize(cert))
    code, out, err = run(capsys, "verify", str(mutated), "--max-depth", "0")
    assert code == 3 and out == ""
    assert err == "error: max-depth 0: must be at least 1\n"


def test_max_depth_below_one_fails_solve_before_the_lp(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "prove", lambda *a, **k: pytest.fail("prove was called"))
    argv = ("solve", "--n", "4", "--k", "3", "--dir", "1,0", "--max-depth", "0")
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err == "error: max-depth 0: must be at least 1\n"
    assert list(tmp_path.iterdir()) == []


def test_max_depth_below_one_in_a_config_file(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "prove", lambda *a, **k: pytest.fail("prove was called"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=4\nk=3\ndir=1,0\nmax-depth=0\n")
    code, out, err = run(capsys, "solve", "--config", str(cfg))
    assert code == 3 and out == ""
    assert err == "error: max-depth 0: must be at least 1\n"
    code, out, err = run(capsys, "verify", PROP2, "--config", str(cfg))
    assert code == 3 and out == ""
    assert err == "error: max-depth 0: must be at least 1\n"


def test_family_cap_error_names_both_numbers(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ("solve", "--n", "4", "--k", "3", "--cap", "2", "--dir", "1,0")
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err == "error: 4 base classes exceed the family size cap 2\n"


@pytest.mark.parametrize(
    "option, value, least", [("cap", "-5", 1), ("cap", "0", 1), ("depth", "-1", 0)]
)
def test_bad_cap_and_depth_fail_when_options_are_read(
    capsys, tmp_path, monkeypatch, option, value, least
):
    # refused before any family is grown, from a flag or a config entry
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "default_family", lambda *a, **k: pytest.fail("family grown"))
    message = f"error: {option} {value}: must be at least {least}\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n=4\nk=3\ndir=1,0\n{option}={value}\n")
    for command in ("solve", "region"):
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert (code, out, err) == (3, "", message), command
        argv = (command, "--n", "4", "--k", "3", "--dir", "1,0", f"--{option}", value)
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (3, "", message), command
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_solve_builds_the_family_pool_once(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    pools = []
    enumerate_rows = prover.enumerate_rows
    monkeypatch.setattr(
        prover, "enumerate_rows", lambda u, fam: pools.append(fam) or enumerate_rows(u, fam)
    )
    code, out, _ = run(capsys, "solve", "--n", "4", "--k", "3", "--dir", "1,0", "--dir", "0,1")
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("bound")] == [
        "bound: 3α ≥ 1B",
        "bound: 1β ≥ 0B",
    ]
    assert len(pools) == 1


def test_solve_proves_each_distinct_direction_once(capsys, tmp_path, monkeypatch):
    # a repeated direction, in any spelling, is proved and written once,
    # in the order the directions were first given
    monkeypatch.chdir(tmp_path)
    argv = ["solve", "--n", "4", "--k", "3"]
    for d in ("1,0", "0,1", "1,0", "1.0,0"):
        argv += ["--dir", d]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines() == [
        "bound: 3α ≥ 1B",
        "wrote bound-n4-k3-d3-1-0.cert.json",
        "bound: 1β ≥ 0B",
        "wrote bound-n4-k3-d3-0-1.cert.json",
    ]
    code, out, _ = run(capsys, "solve", "--n", "4", "--k", "3", "--dir", "1,0", "--dir", "1,0",
                       "--out", "433.json")
    assert code == 0 and out.splitlines() == ["bound: 3α ≥ 1B", "wrote 433.json"]


def test_solve_writes_verifiable_certificate(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "solve", "--n", "5", "--k", "4", "--dir", "1,0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "bound: 4α ≥ 1B"
    path = lines[1].removeprefix("wrote ")
    assert path == "bound-n5-k4-d4-1-0.cert.json"
    code, out, _ = run(capsys, "verify", path)
    assert code == 0 and out.startswith("VALID: 4α ≥ 1B")
    cert = load(path)
    assert any("command=solve" in line for line in cert.meta["run-config"])


def test_solve_rejects_negative_direction(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, "solve", "--n", "5", "--k", "4", "--dir", "-1,0")
    assert code == 3
    # the same direction smuggled past the flag parser
    code, _, err = run(capsys, "solve", "--n", "5", "--k", "4", "--dir=-1,0")
    assert code == 3 and "nonnegative" in err


def test_solve_requires_problem_and_direction(capsys):
    code, _, err = run(capsys, "solve", "--n", "5", "--k", "4")
    assert code == 3 and "--dir" in err
    code, _, err = run(capsys, "solve", "--dir", "1,0")
    assert code == 3 and "--n" in err


def test_region_builtin_prints_vertices(capsys, tmp_path):
    svg = tmp_path / "fig1.svg"
    code, out, _ = run(
        capsys, "region", "--n", "5", "--k", "4", "--builtin-eq1", "--svg", str(svg)
    )
    assert code == 0
    vertices = [l for l in out.splitlines() if l.startswith("vertex:")]
    assert vertices == [
        "vertex: (1/4, 1/4)",
        "vertex: (4/15, 1/5)",
        "vertex: (3/10, 3/20)",
        "vertex: (2/5, 1/10)",
    ]
    assert svg.read_bytes().startswith(b"<svg")


def test_region_cutset_vertices(capsys):
    code, out, _ = run(capsys, "region", "--n", "5", "--k", "4", "--cutset")
    assert code == 0
    assert sum(l.startswith("vertex:") for l in out.splitlines()) == 4


def test_region_without_source_fails(capsys):
    code, _, err = run(capsys, "region", "--n", "5", "--k", "4")
    assert code == 3 and "no region source" in err


def test_region_from_certificates(capsys):
    code, out, _ = run(
        capsys,
        "region",
        "--n",
        "5",
        "--k",
        "4",
        "--cutset",
        "--cert",
        PROP1,
        "--cert",
        PROP2,
    )
    assert code == 0
    vertices = [l for l in out.splitlines() if l.startswith("vertex:")]
    assert vertices[1] == "vertex: (4/15, 1/5)"  # proved facets replace (2/7, 1/7)


def test_region_skips_planes_that_hold_everywhere(capsys, tmp_path, monkeypatch):
    # Tian's (4,3,3) region: the five depth-1 facet directions plus the
    # cut-set; direction 0,1 proves only 1β ≥ 0B, which cuts nothing
    monkeypatch.chdir(tmp_path)
    dirs = ["1,0", "2,1", "4,6", "1,3", "0,1"]
    argv = ["solve", "--n", "4", "--k", "3", "--depth", "1"]
    for d in dirs:
        argv += ["--dir", d]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "bound: 1β ≥ 0B" in out.splitlines()
    argv = ["region", "--n", "4", "--k", "3", "--cutset"]
    for d in dirs:
        argv += ["--cert", f"bound-n4-k3-d3-{d.replace(',', '-')}.cert.json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines() == [
        "plane: 3α ≥ 1",
        "plane: 2α+1β ≥ 1",
        "plane: 4α+6β ≥ 3",
        "plane: 6β ≥ 1",
        "vertex: (1/3, 1/3)",
        "vertex: (3/8, 1/4)",
        "vertex: (1/2, 1/6)",
    ]
    code, _, err = run(capsys, "region", "--cert", "bound-n4-k3-d3-0-1.cert.json")
    assert code == 3 and "whole quadrant" in err


def layered_points(n, k):
    """(α, β) over B of the canonical layered codes at d = n−1, one per
    layer size r = 2..n: α = C(n−1, r−1), β = C(n−2, r−2) and
    B = Σ_j C(k, j)·C(n−k, r−j)·min(j, r−1)."""
    points = set()
    for r in range(2, n + 1):
        b = sum(comb(k, j) * comb(n - k, r - j) * min(j, r - 1) for j in range(r + 1))
        points.add((Fraction(comb(n - 1, r - 1), b), Fraction(comb(n - 2, r - 2), b)))
    return points


def planes_and_vertices(out):
    """The (a, b, c) of each printed plane aα+bβ ≥ c, and the vertex set."""
    planes, vertices = [], set()
    for line in out.splitlines():
        if line.startswith("plane: "):
            a, b, c = re.fullmatch(r"plane: (?:(\d+)α)?\+?(?:(\d+)β)? ≥ (\d+)", line).groups()
            planes.append((int(a or 0), int(b or 0), int(c)))
        elif line.startswith("vertex: "):
            vertices.add(tuple(map(Fraction, line[9:-1].split(", "))))
    return planes, vertices


def test_region_vertices_are_the_layered_codes(capsys, tmp_path, monkeypatch):
    # the paper's achievability half: the outer bound meets the layered
    # codes (Tian, Sasidharan, Aggarwal, Vaishampayan and Kumar, IEEE
    # T-IT 2015) at every vertex, and no printed plane cuts one off
    F = Fraction
    points_544 = layered_points(5, 4)
    points_433 = layered_points(4, 3)
    assert points_544 == {
        (F(2, 5), F(1, 10)), (F(3, 10), F(3, 20)), (F(4, 15), F(1, 5)), (F(1, 4), F(1, 4))
    }
    assert points_433 == {(F(1, 2), F(1, 6)), (F(3, 8), F(1, 4)), (F(1, 3), F(1, 3))}
    code, out, _ = run(capsys, "region", "--builtin-eq1")
    assert code == 0
    planes_544, vertices = planes_and_vertices(out)
    assert vertices == points_544
    monkeypatch.chdir(tmp_path)
    dirs = ["1,0", "2,1", "4,6", "1,3", "0,1"]
    argv = ["solve", "--n", "4", "--k", "3", "--depth", "1"]
    for d in dirs:
        argv += ["--dir", d]
    assert run(capsys, *argv)[0] == 0
    argv = ["region", "--n", "4", "--k", "3", "--cutset"]
    for d in dirs:
        argv += ["--cert", f"bound-n4-k3-d3-{d.replace(',', '-')}.cert.json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    planes_433, vertices = planes_and_vertices(out)
    assert vertices == points_433
    for planes, points in ((planes_544, points_544), (planes_433, points_433)):
        assert len(planes) >= 4
        for a, b, c in planes:
            assert all(a * alpha + b * beta >= c for alpha, beta in points), (a, b, c)


def test_region_uses_only_verified_certificates(capsys, tmp_path):
    # one row that is its own target: the column sums match, but
    # 15α+10β ≥ 7B is no Shannon bound (the proved one is 6B), so verify
    # leaves it UNVERIFIED and region must not print its plane
    target = {ALPHA: 15, BETA: 10, BIGB: -7}
    fabricated = tmp_path / "fabricated.cert.json"
    fabricated.write_bytes(serialize(Certificate(5, 4, 4, {}, [dict(target)], target)))
    mutated = load(PROP1)
    mutated.rows[3][sorted(mutated.rows[3])[0]] += 1
    broken = tmp_path / "mutated.cert.json"
    broken.write_bytes(serialize(mutated))
    for path, code, status in ((fabricated, 2, "UNVERIFIED"), (broken, 1, "INVALID")):
        assert run(capsys, "verify", str(path))[0] == code
        argv = ["region", "--n", "5", "--k", "4", "--cutset", "--cert", str(path)]
        got, out, _ = run(capsys, *argv)
        assert got == code
        assert out.startswith(f"{status}: {path}:") and "plane:" not in out


def test_region_rejects_mismatched_certificate(capsys):
    code, _, err = run(capsys, "region", "--n", "4", "--k", "3", "--cert", PROP1)
    assert code == 3 and "certificate is for (5,4)" in err


def test_region_rejects_certificate_for_another_d(capsys):
    argv = ("region", "--n", "5", "--k", "4", "--d", "3", "--cert", PROP1)
    code, out, err = run(capsys, *argv)
    assert code == 3 and not out
    assert "certificate is for (5,4,4), not (5,4,3)" in err


def test_region_sources_are_for_one_problem(capsys, tmp_path, monkeypatch):
    # without --n and --k the problem is (5,4,4) under --builtin-eq1, else
    # the first certificate's: a (4,3,3) certificate mixes in neither
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "solve", "--n", "4", "--k", "3", "--dir", "1,0", "--out", "433.json")[0] == 0
    for argv in (("--builtin-eq1",), ("--cert", PROP1)):
        code, out, err = run(capsys, "region", *argv, "--cert", "433.json")
        assert (code, out) == (3, "")
        assert err == "error: 433.json: certificate is for (4,3), not (5,4)\n"
    # a flag that names part of the problem shows only that part
    for argv, want in ((("--n", "4"), "(n=5), not (n=4)"), (("--k", "3"), "(k=4), not (k=3)")):
        code, out, err = run(capsys, "region", *argv, "--cert", PROP1)
        assert (code, out) == (3, "")
        assert err == f"error: {PROP1}: certificate is for {want}\n"


def test_solve_checks_its_output_directory_first(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ("solve", "--n", "4", "--k", "3", "--dir", "1,0", "--out", "nodir/x.json")
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("error: cannot write nodir/x.json")


def test_verify_checks_its_report_directory_first(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "verify", PROP2, "--report", "nodir/r.json")
    assert code == 3 and out == ""
    assert err.startswith("error: cannot write nodir/r.json")


def test_cutset_command(capsys):
    code, out, _ = run(capsys, "cutset", "--n", "5", "--k", "4")
    assert code == 0
    lines = out.splitlines()
    assert sum(l.startswith("facet:") for l in lines) == 5
    assert sum(l.startswith("vertex:") for l in lines) == 4
    assert "facet: 4α ≥ 1" in lines


def test_export_latex_stdout_and_file(capsys, tmp_path):
    code, out, _ = run(capsys, "export-latex", PROP1)
    assert code == 0
    assert out.count("\\begin{tabular}") == 2
    target = tmp_path / "tables.tex"
    code, _, _ = run(capsys, "export-latex", PROP2, "--out", str(target))
    assert code == 0
    text = target.read_text()
    assert text.startswith("% tool=repairbound")
    assert text.count("\\begin{tabular}") == 2


def test_export_latex_unreadable_path(capsys):
    code, _, err = run(capsys, "export-latex", "/no/such/file.json")
    assert code == 3 and "cannot read" in err


def test_config_file_flags_win(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# demo\nn = 5\nk = 4\nbuiltin-eq1 = true\ncsv = from-file.csv\n")
    code, _, _ = run(capsys, "region", "--config", str(cfg), "--csv", "from-flag.csv")
    assert code == 0
    assert (tmp_path / "from-flag.csv").exists()
    assert not (tmp_path / "from-file.csv").exists()


def test_config_file_syntax_errors(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n 5\n")
    code, _, err = run(capsys, "region", "--config", str(cfg))
    assert code == 3 and "expected key=value" in err


def test_config_lists_split_on_commas(capsys, tmp_path, monkeypatch):
    # seeds= and cert= entries split on commas and accumulate like flags
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "region.cfg"
    cfg.write_text(f"n=5\nk=4\ncutset=yes\ncert={PROP1}, {PROP2}\ncsv=r.csv\n")
    argv = ("region", "--n", "5", "--k", "4", "--cutset", "--cert", PROP1, "--cert", PROP2)
    _, flags, _ = run(capsys, *argv)
    code, out, _ = run(capsys, "region", "--config", str(cfg))
    assert code == 0 and out.splitlines()[:-1] == flags.splitlines()
    assert out.splitlines()[-1] == "wrote r.csv"
    assert [l for l in Path("r.csv").read_text().splitlines() if l.startswith("# cert=")] == [
        f"# cert={PROP1}",
        f"# cert={PROP2}",
    ]
    cfg = tmp_path / "solve.cfg"
    terms = [str(DATA / f"{name}.terms.json") for name in ("prop1", "prop2")]
    cfg.write_text(f"n=5\nk=4\ndir=15,10\nseeds={','.join(terms)}\n")
    code, out, _ = run(capsys, "solve", "--config", str(cfg))
    assert code == 0 and out.splitlines()[0] == "bound: 15α+10β ≥ 6B"
    meta = load("bound-n5-k4-d4-15-10.cert.json").meta["run-config"]
    assert [l for l in meta if l.startswith("seeds=")] == [f"seeds={t}" for t in terms]


def test_dir_flag_replaces_config_entries(capsys, tmp_path, monkeypatch):
    # dir= entries accumulate, but one --dir flag replaces all of them
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=5\nk=4\ndir=15,10\ndir=1,0\n")
    code, out, _ = run(capsys, "solve", "--config", str(cfg))
    assert code == 0
    assert [l for l in out.splitlines() if l.startswith("bound:")] == [
        "bound: 3α+2β ≥ 1B",
        "bound: 4α ≥ 1B",
    ]
    code, out, _ = run(capsys, "solve", "--config", str(cfg), "--dir", "1,0", "--out", "one.json")
    assert code == 0 and out.splitlines() == ["bound: 4α ≥ 1B", "wrote one.json"]
    assert [l for l in load("one.json").meta["run-config"] if l.startswith("dir=")] == ["dir=1,0"]


def test_unknown_config_key_is_ignored(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("colour = blue\nn=4\nk=3\n")
    code, out, err = run(capsys, "cutset", "--config", str(cfg))
    assert (code, out, err) == run(capsys, "cutset", "--n", "4", "--k", "3")
    assert code == 0 and out.startswith("facet: ")
    # a byte-order mark is not part of the first key
    cfg.write_bytes(b"\xef\xbb\xbfn=4\nk=3\n")
    assert run(capsys, "cutset", "--config", str(cfg)) == (code, out, err)


def test_bad_config_boolean(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=5\nk=4\ncutset=maybe\n")
    code, out, err = run(capsys, "region", "--config", str(cfg))
    assert (code, out) == (3, "")
    assert err == "error: config key cutset: expected a boolean, got 'maybe'\n"


def test_bad_window_is_a_usage_error(capsys, tmp_path):
    cases = (
        ("0,1,0", "expected lo,hi,lo,hi"),
        ("0,1,0,1,2", "expected lo,hi,lo,hi"),
        ("1,0,0,1", "bounds must increase"),
        ("0,1,1/2,1/2", "bounds must increase"),
    )
    cfg = tmp_path / "run.cfg"
    for window, reason in cases:
        cfg.write_text(f"window={window}\n")
        for extra in (("--window", window), ("--config", str(cfg))):
            code, out, err = run(capsys, "region", "--n", "4", "--k", "3", "--cutset", *extra)
            assert (code, out) == (3, ""), extra
            assert err == f"error: window {window!r}: {reason}\n", extra


def test_region_proves_fresh_directions(capsys, tmp_path, monkeypatch):
    # region --dir proves its planes on the --depth family; 4α+6β ≥ 3B
    # cuts the (4,3,3) cut-set corner (2/5, 1/5) off
    monkeypatch.chdir(tmp_path)
    argv = ("region", "--n", "4", "--k", "3", "--cutset", "--dir", "4,6", "--depth", "1")
    code, out, _ = run(capsys, *argv, "--csv", "r.csv")
    assert code == 0
    assert out.splitlines() == [
        "plane: 3α ≥ 1",
        "plane: 2α+1β ≥ 1",
        "plane: 4α+6β ≥ 3",
        "plane: 6β ≥ 1",
        "vertex: (1/3, 1/3)",
        "vertex: (3/8, 1/4)",
        "vertex: (1/2, 1/6)",
        "wrote r.csv",
    ]
    lines = Path("r.csv").read_text().splitlines()
    assert lines[2:11] == [
        "# n=4",
        "# k=3",
        "# dir=4,6",
        "# depth=1",
        "# cap=20000",
        "# cutset=true",
        "# csv=r.csv",
        "# log-level=WARNING",
        "# halfplane: 3*alpha + 0*beta >= 1",
    ]
    code, out, err = run(capsys, "region", "--n", "4", "--k", "3", "--dir", "4,6", "--depth", "x")
    assert code == 3 and "argument --depth" in err


def test_cutset_csv(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "cutset", "--n", "4", "--k", "3", "--csv", "c.csv")
    assert code == 0 and out.splitlines()[-1] == "wrote c.csv"
    lines = Path("c.csv").read_text().splitlines()
    assert lines[:6] == [
        f"# tool=repairbound {__version__}",
        "# command=cutset",
        "# n=4",
        "# k=3",
        "# csv=c.csv",
        "# log-level=WARNING",
    ]
    vertices = lines[lines.index("# vertices") + 1 : lines.index("# boundary")]
    assert vertices == [
        "1,3,1,3,0.333333,0.333333",
        "2,5,1,5,0.400000,0.200000",
        "1,2,1,6,0.500000,0.166667",
    ]


def test_zero_denominator_is_a_usage_error(capsys, tmp_path):
    # exit 1 is the INVALID verdict, so a bad fraction must not end there
    cfg = tmp_path / "dir.cfg"
    cfg.write_text("dir=1/0,1\n")
    cases = (
        ("solve", "--n", "4", "--k", "3", "--dir", "1/0,1"),
        ("region", "--n", "4", "--k", "3", "--cutset", "--window", "0,1/0,0,1"),
        ("solve", "--n", "4", "--k", "3", "--config", str(cfg)),
    )
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 3 and not out, argv
        assert err.startswith("error: ") and "zero denominator" in err, argv


def test_non_numeric_fraction_is_a_usage_error(capsys, tmp_path):
    cfg = tmp_path / "dir.cfg"
    cfg.write_text("dir=a,1\n")
    cases = (
        (("solve", "--n", "4", "--k", "3", "--dir", "a,1"), "direction 'a,1': 'a'"),
        (("region", "--n", "4", "--k", "3", "--cutset", "--window", "0,x,0,1"),
         "window '0,x,0,1': 'x'"),
        (("solve", "--n", "4", "--k", "3", "--config", str(cfg)), "direction 'a,1': 'a'"),
    )
    for argv, named in cases:
        code, out, err = run(capsys, *argv)
        assert code == 3 and not out, argv
        assert err == f"error: {named} is not a number\n", argv


def test_no_command_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 3 and "command is required" in err


def parse_exit(capsys, parser, argv):
    # the exit code and both streams of a parse that ends the program
    with pytest.raises(SystemExit) as stop:
        parser.parse_args(argv)
    out = capsys.readouterr()
    return stop.value.code, out.out, out.err


def test_one_command_parser_parses_like_the_full_parser(capsys):
    # read_options builds only the subparser of the command it is given;
    # its help, its own usage errors and the top level's must not change
    full = cli._build_parser()
    for command in cli.COMMANDS:
        alone = cli._build_parser(command)
        for argv in ([command, "--help"], [command, "--config"], [command, "--bogus"]):
            code, out, err = parse_exit(capsys, full, argv)
            assert (code, out, err) == parse_exit(capsys, alone, argv), argv
            assert out.startswith(f"usage: repairbound {command} ") or code == 3, argv
        code, _, err = run(capsys, command, "--config")
        assert code == 3 and err.startswith(f"usage: repairbound {command} "), command


def test_outputs_are_byte_deterministic(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    blobs = []
    for name in ("a.csv", "b.csv"):
        code, _, _ = run(
            capsys,
            "region",
            "--n",
            "5",
            "--k",
            "4",
            "--cutset",
            "--csv",
            name,
        )
        assert code == 0
        # normalize the one config line that names the output file
        blobs.append(Path(name).read_bytes().replace(name.encode(), b"OUT"))
    assert blobs[0] == blobs[1]
    for name in ("c1.json", "c2.json"):
        code, _, _ = run(
            capsys,
            "solve",
            "--n",
            "5",
            "--k",
            "4",
            "--dir",
            "3,1",
            "--out",
            name,
        )
        assert code == 0
    c1, c2 = (Path(n).read_bytes() for n in ("c1.json", "c2.json"))
    assert c1.replace(b"c1.json", b"OUT") == c2.replace(b"c2.json", b"OUT")
    assert serialize(parse(c1)) == c1


def test_log_level_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPAIRBOUND_LOG", "INFO")
    code, _, err = run(capsys, "solve", "--n", "4", "--k", "3", "--dir", "1,0")
    assert code == 0
    assert "family has" in err
    monkeypatch.setenv("REPAIRBOUND_LOG", "WARNING")
    code, _, err = run(capsys, "solve", "--n", "4", "--k", "3", "--dir", "1,0")
    assert code == 0
    assert "family has" not in err


def test_solve_with_seeds_matches_spec_example(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(
        capsys,
        "solve",
        "--n",
        "5",
        "--k",
        "4",
        "--dir",
        "15,10",
        "--seeds",
        str(DATA / "prop1.terms.json"),
        "--seeds",
        str(DATA / "prop2.terms.json"),
    )
    assert code == 0
    assert out.splitlines()[0] == "bound: 15α+10β ≥ 6B"
    assert Path("bound-n5-k4-d4-15-10.cert.json").exists()


def test_logging_follows_the_current_stderr(capsys, monkeypatch):
    # main once ran under a stderr that is closed by now, as a pytest
    # capture stream is after its test; later records must reach the
    # stderr of the moment, not fail on the closed one
    package = logging.getLogger("repairbound")
    level = package.level
    monkeypatch.setenv("REPAIRBOUND_LOG", "DEBUG")
    stream = io.StringIO()
    try:
        with monkeypatch.context() as m:
            m.setattr(sys, "stderr", stream)
            assert main(["cutset", "--n", "4", "--k", "3"]) == 0
        stream.close()
        logging.getLogger("repairbound.ratlp").debug("after main: %d", 1)
    finally:
        package.setLevel(level)
    err = capsys.readouterr().err
    assert "Logging error" not in err
    assert "DEBUG repairbound.ratlp: after main: 1" in err


def test_unknown_log_level_means_warning(capsys, monkeypatch):
    # BASIC_FORMAT names a logging attribute that is not a level; the run
    # configuration records the level the run logged at
    for name in ("basic_format", "nonsense", "30"):
        monkeypatch.setenv("REPAIRBOUND_LOG", name)
        code, out, _ = run(capsys, "cutset", "--n", "4", "--k", "3")
        assert code == 0 and out
        assert logging.getLogger("repairbound").level == logging.WARNING
        code, out, _ = run(capsys, "export-latex", PROP1)
        assert code == 0 and "% log-level=WARNING\n" in out


DIRS_433 = ("1,0", "2,1", "4,6", "1,3", "0,1")
SEEDS = ("--seeds", str(DATA / "prop1.terms.json"), "--seeds", str(DATA / "prop2.terms.json"))


def golden_outputs(capsys):
    """name -> bytes of every pinned CLI output, run in the current
    directory, with the data directory's absolute path replaced."""
    outputs = {}

    def call(name, *argv, files=()):
        code, out, _ = run(capsys, *argv)
        outputs[name] = f"exit {code}\n{out}".encode()
        for path in files:
            outputs[f"{name}: {path}"] = Path(path).read_bytes()

    for stem in ("prop1", "prop2"):
        for depth in ("1", "2", "3"):
            report = f"{stem}-{depth}.report.json"
            cert = str(DATA / f"{stem}.cert.json")
            call(f"verify {stem} {depth}", "verify", cert, "--max-depth", depth,
                 "--report", report, files=[report])
    certs = []
    for d in DIRS_433:
        out = f"n4-{d}.cert.json"
        call(f"solve 433 {d}", "solve", "--n", "4", "--k", "3", "--depth", "1",
             "--dir", d, "--out", out, files=[out])
        certs += ["--cert", out]
    call("region 433", "region", "--n", "4", "--k", "3", "--cutset", *certs)
    call("solve 544", "solve", "--n", "5", "--k", "4", "--dir", "1,0", "--dir", "15,10",
         files=["bound-n5-k4-d4-1-0.cert.json", "bound-n5-k4-d4-15-10.cert.json"])
    call("solve 544 seeded", "solve", "--n", "5", "--k", "4", "--dir", "15,10", *SEEDS,
         "--out", "seeded.cert.json", files=["seeded.cert.json"])
    call("region eq1", "region", "--builtin-eq1", "--csv", "eq1.csv", "--svg", "eq1.svg",
         files=["eq1.csv", "eq1.svg"])
    call("export-latex prop1", "export-latex", PROP1)
    data = str(DATA).encode()
    return {name: blob.replace(data, b"DATA") for name, blob in outputs.items()}


# sha256 of every output of golden_outputs; a change that moves one on
# purpose re-pins it and says so
GOLDEN = {
    "verify prop1 1": "c80325e248631e17ce8ba13b7151f91da3f4a71633219c3909ab35075d896c02",
    "verify prop1 1: prop1-1.report.json": "319cd5aa56486f59417629fb554c3e685c052719ef08a4a09fa1bae189f3741b",
    "verify prop1 2": "5ececef9f0a85a0de15eeac924d05a3429bddc160c7ee22adc7c89834b12bd5b",
    "verify prop1 2: prop1-2.report.json": "55ad3bbbc0a35ccf6fad14306ed27af1639bb4809c00365c4cdbebbb6c8d7f96",
    "verify prop1 3": "5ececef9f0a85a0de15eeac924d05a3429bddc160c7ee22adc7c89834b12bd5b",
    "verify prop1 3: prop1-3.report.json": "ff890ff9bd82f4384348de2c54f39edfb9e24b28c7106e19d4a8586aa5277c53",
    "verify prop2 1": "8a0ee48092b841af4b309cac77a23294033b040dcebed92cbdf0ecbf54cbd0d0",
    "verify prop2 1: prop2-1.report.json": "0eb3ef7b3fe3e4f39a1d0a5dad7c9dea12a6db83794933cbb4de8f98c65f8cef",
    "verify prop2 2": "7cdd3b62ad9f1e69b367215ec8ca17ce5793b5cffa2a104c827dce4b80882435",
    "verify prop2 2: prop2-2.report.json": "3b1186ee43104a8fd59ae709485a98509f07ad03a3390daeb8a4ecbd61aa1c18",
    "verify prop2 3": "7cdd3b62ad9f1e69b367215ec8ca17ce5793b5cffa2a104c827dce4b80882435",
    "verify prop2 3: prop2-3.report.json": "9aaf24b0eb7cf6646dc55728204e7ad4e0d7f94d07d58ededaf0dc449f3ed76b",
    "solve 433 1,0": "0d133a8995b12d40c2921f5920e71e998383047c57c7a0b3428818144bed7154",
    "solve 433 1,0: n4-1,0.cert.json": "504ff22dad332dcb6e539afa480bfde0f5030f1c866b0de7afb952f9f1b03de9",
    "solve 433 2,1": "1d6c0ebfb8e9bfd0a34f0c6bfd02363231f47e90646de38a835e31587dd8af61",
    "solve 433 2,1: n4-2,1.cert.json": "9d9bc5612e5aac512054e1e5acdb457dd180d63f7a16c2849b725eb976bce7c1",
    "solve 433 4,6": "fa37ab7d98bbfb6f6d88363604822b9ff4073fe334e1a18558b4cd925e86dd18",
    "solve 433 4,6: n4-4,6.cert.json": "4bbf41ad2a9494399b77db691a21b5267fdab6e89de611fea3ee106e07d7f438",
    "solve 433 1,3": "6526530a57165dd30009b2d829ed6ea90c845cbc71035b49fe8f08d1a2ae5c42",
    "solve 433 1,3: n4-1,3.cert.json": "e23b66d74c57040cbe70c7169092a0e8120f48da3d31e42b78511a8591eb6130",
    "solve 433 0,1": "f9386ca0f67fa05ba927507219a3676d207cddb44be25bbe84e6f393d92d8d30",
    "solve 433 0,1: n4-0,1.cert.json": "4e48d83d9658d328cc6db42d318b0e3c4acc45effaf9200f7cbd470cac1e549f",
    "region 433": "4fb74c4607c8f5af9bc0dcf7a7ecfefc9026dd26a0c5f837d24c5a0d3ed923a1",
    "solve 544": "28afc4efdc6cd7228b48e8db500175b0470df5b57136000dcd2c31a2b502aeac",
    "solve 544: bound-n5-k4-d4-1-0.cert.json": "d4d74bc2d2d1a7309288ea3fa9bfa4559042f294e4e216df3716b27ef5fc537d",
    "solve 544: bound-n5-k4-d4-15-10.cert.json": "df404f9bc70998b7bd52cd53bb9eabecbbe88ae94e2e8bc56e3f0c385dc85742",
    "solve 544 seeded": "c30e7aa903c1919e7ed8a9b733ae6a9fb86db9c5a75591323fdae4360f5743e3",
    "solve 544 seeded: seeded.cert.json": "03ce3b515653ab16a4c8204ca26868913bd4ca57d4425d4cb9cf4709a4407640",
    "region eq1": "beb36a393cfeb3bb504d9eaf0fc0654238cb690d5a8d4cecefe6bce1322f82ed",
    "region eq1: eq1.csv": "1cbb41de364e65a633458c729d85a8bb45564ee2b396009c39f08c75265f0b79",
    "region eq1: eq1.svg": "06786bb4fc092619c90dc2bb80988ba64c91e9bf0881a8e80fb9ee5fceb9717c",
    "export-latex prop1": "97eb7a0d2fa567707fd49f2c474ab523039cf04a451444875ef19a9185e08490",
}


def test_cli_outputs_are_pinned(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("REPAIRBOUND_LOG", raising=False)
    digests = {
        name: hashlib.sha256(blob).hexdigest() for name, blob in golden_outputs(capsys).items()
    }
    assert digests == GOLDEN
