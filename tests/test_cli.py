import json
from pathlib import Path

from repairbound.certificate import Certificate, load, parse, serialize
from repairbound.cli import main
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


def test_region_rejects_mismatched_certificate(capsys):
    code, _, err = run(capsys, "region", "--n", "4", "--k", "3", "--cert", PROP1)
    assert code == 3 and "certificate is for (5,4)" in err


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


def test_no_command_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 3 and "command is required" in err


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
