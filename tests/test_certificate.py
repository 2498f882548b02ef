import json
from pathlib import Path

import pytest

from repairbound.certificate import (
    Certificate,
    CertificateError,
    _term_column,
    check_sum,
    format_meaning,
    load,
    load_bundled,
    load_terms,
    parse,
    serialize,
    to_latex,
)
from repairbound.instance import BIGB
from repairbound.universe import build_universe

DATA = Path(__file__).resolve().parent.parent / "data"


def minimal_obj():
    return {
        "problem": {"n": 5, "k": 4, "d": 4},
        "terms": [{"id": "T1", "vars": ["W1"]}],
        "rows": [{"coeffs": {"alpha": 1, "T1": -1}}],
        "target": {"coeffs": {"alpha": 1, "T1": -1}},
        "meta": {},
    }


def as_bytes(obj) -> bytes:
    return json.dumps(obj).encode("utf-8")


def test_parse_minimal():
    cert = parse(as_bytes(minimal_obj()))
    assert cert.problem == (5, 4, 4)
    assert cert.terms == {"T1": ("W1",)}
    assert cert.rows == [{"alpha": 1, "T1": -1}]


def test_roundtrip_byte_identity_shipped():
    for name in ("prop1", "prop2"):
        blob = (DATA / f"{name}.cert.json").read_bytes()
        assert serialize(parse(blob)) == blob


def test_roundtrip_is_a_fixed_point_off_layout():
    # a valid certificate that is compact, or has raw UTF-8 in its meta,
    # is not in serialize's layout: the first round trip rewrites it, to
    # the same certificate, and every later one keeps its bytes
    obj = json.loads((DATA / "prop1.cert.json").read_bytes())
    compact = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    obj["meta"]["title"] = "(5,4,4): 15α+10β ≥ 6B"
    raw_utf8 = (json.dumps(obj, indent=1, ensure_ascii=False) + "\n").encode("utf-8")
    for blob in (compact, raw_utf8):
        once = serialize(parse(blob))
        assert once != blob
        assert parse(once) == parse(blob)
        assert serialize(parse(once)) == once


def test_bundled_copies_match_repo_data():
    # the package ships the same certificates that the repo's data/
    # directory exposes to the CLI examples; they must never drift
    import repairbound

    pkg_data = Path(repairbound.__file__).resolve().parent / "data"
    for name in ("prop1", "prop2"):
        for kind in ("cert", "terms"):
            assert (
                (pkg_data / f"{name}.{kind}.json").read_bytes()
                == (DATA / f"{name}.{kind}.json").read_bytes()
            )
        assert serialize(load_bundled(name)) == (DATA / f"{name}.cert.json").read_bytes()


@pytest.mark.parametrize(
    "mangle, fragment",
    [
        (lambda o: o.update(extra=1), "unknown fields"),
        (lambda o: o.pop("rows"), "missing field"),
        (lambda o: o["problem"].update(n="5"), "expected an integer"),
        (lambda o: o["terms"].append({"id": "T1", "vars": ["W2"]}), "duplicate term id"),
        (lambda o: o["terms"].append({"id": "t2", "vars": ["W2"]}), "bad term id"),
        (lambda o: o["terms"].append({"id": "T2", "vars": []}), "nonempty array"),
        (lambda o: o["terms"].append({"id": "T2", "vars": ["W9"]}), "vars"),
        (lambda o: o["terms"].append({"id": "T2", "vars": ["W1", "W1"]}), "duplicate token"),
        (lambda o: o["rows"].append({"coeffs": {"T9": 1}}), "undeclared column"),
        (lambda o: o["rows"].append({"coeffs": {"T1": 0}}), "zero coefficients"),
        (lambda o: o["rows"].append({"coeffs": {"T1": 1.5}}), "expected an integer"),
        (lambda o: o["rows"].append({"coeffs": {"T1": True}}), "expected an integer"),
        (lambda o: o["rows"].append({"wrong": {}}), "exactly one key"),
    ],
)
def test_parse_rejects(mangle, fragment):
    obj = minimal_obj()
    mangle(obj)
    with pytest.raises(CertificateError, match=fragment):
        parse(as_bytes(obj))


def test_parse_reports_syntax_position():
    with pytest.raises(CertificateError, match=r"line 2, column"):
        parse(b'{\n "problem": }')


def test_parse_rejects_bad_utf8():
    with pytest.raises(CertificateError, match="UTF-8"):
        parse(b"\xff\xfe{}")


# JSON that the decoder itself refuses: nesting past the recursion limit,
# and an integer past the digit limit of int()
DEEP_JSON = b"[" * 100_000
LONG_INT_JSON = as_bytes(minimal_obj()).replace(b'"alpha": 1', b'"alpha": 1' + b"0" * 5000, 1)


@pytest.mark.parametrize("blob", [DEEP_JSON, LONG_INT_JSON], ids=["deep", "long-int"])
def test_parse_rejects_json_the_decoder_refuses(blob, tmp_path):
    with pytest.raises(CertificateError, match="cannot decode JSON"):
        parse(blob)
    path = tmp_path / "hostile.json"
    path.write_bytes(blob)
    with pytest.raises(CertificateError, match="cannot decode JSON"):
        load_terms(path, 5)


def test_load_terms_checks_terms_as_parse_does(tmp_path):
    path = tmp_path / "seeds.json"
    path.write_text('{"terms": [{"id": "T2", "vars": ["W1", "S5->4"]}]}')
    assert load_terms(path, 5) == [("W1", "S5->4")]
    # a token that is valid for five nodes is not valid for four
    with pytest.raises(CertificateError, match=r"terms\[0\]\.vars: .*'S5->4'"):
        load_terms(path, 4)
    for entries, fragment in (
        ('[{"vars": ["W1"]}]', "expected exactly keys id, vars"),
        ('[{"id": "X1", "vars": ["W1"]}]', "bad term id"),
        ('[{"id": "T1", "vars": ["W1"]}, {"id": "T1", "vars": ["W2"]}]', "duplicate term id"),
        ('[{"id": "T1", "vars": []}]', "nonempty array"),
        ('[{"id": "T1", "vars": ["W1", "W1"]}]', "duplicate token"),
        ('{"T1": ["W1"]}', "terms: expected an array"),
    ):
        path.write_text(f'{{"terms": {entries}}}')
        with pytest.raises(CertificateError, match=fragment):
            load_terms(path, 5)


def test_check_sum_shipped():
    c1 = load(DATA / "prop1.cert.json")
    ok, meaning = check_sum(c1)
    assert ok and meaning == (15, 10, 6)
    c2 = load(DATA / "prop2.cert.json")
    ok, meaning = check_sum(c2)
    assert ok and meaning == (5, 10, 3)
    assert c2.target == {"beta": 20, "alpha": 10, "B": -6}


def test_check_sum_detects_mutation():
    cert = load(DATA / "prop1.cert.json")
    cert.rows[0][next(iter(cert.rows[0]))] += 1
    ok, _ = check_sum(cert)
    assert not ok


def test_check_sum_meaning_shapes():
    base = minimal_obj()
    base["target"] = {"coeffs": {"alpha": 4, "B": -1}}
    base["rows"] = [{"coeffs": {"alpha": 4, "B": -1}}]
    ok, meaning = check_sum(parse(as_bytes(base)))
    assert ok and meaning == (4, 0, 1)

    # a target touching a term column has no bound meaning
    base["target"] = {"coeffs": {"alpha": 4, "T1": -1}}
    base["rows"] = [{"coeffs": {"alpha": 4, "T1": -1}}]
    _, meaning = check_sum(parse(as_bytes(base)))
    assert meaning is None

    # negative alpha side is not a bound either
    base["target"] = {"coeffs": {"alpha": -4, "B": -1}}
    base["rows"] = [{"coeffs": {"alpha": -4, "B": -1}}]
    _, meaning = check_sum(parse(as_bytes(base)))
    assert meaning is None


def test_format_meaning_drops_zero_parts():
    assert format_meaning((15, 10, 6)) == "15α+10β ≥ 6B"
    assert format_meaning((4, 0, 1)) == "4α ≥ 1B"
    assert format_meaning((0, 10, 1)) == "10β ≥ 1B"
    assert format_meaning((3, 1, 1)) == "3α+1β ≥ 1B"


def test_term_columns_spanning_maps_to_total_information():
    u = build_universe(5, 4)
    cert = Certificate(
        5,
        4,
        4,
        {"T1": ("W1", "W2", "W3", "S5->4"), "T2": ("W1",)},
        [],
        {},
    )
    cols = {tid: _term_column(u, toks) for tid, toks in cert.terms.items()}
    assert cols["T1"] == BIGB
    assert cols["T2"].bit_count() == 5  # closure of one node: its fan-out too


def test_to_latex_shape_and_determinism():
    cert = load(DATA / "prop1.cert.json")
    text = to_latex(cert)
    assert text == to_latex(load(DATA / "prop1.cert.json"))
    assert text.count("\\begin{tabular}") == 2
    # term table: one line per column label; matrix: one line per row + target
    assert "$T_{3}$ & $H(" in text
    body = text.split("\\begin{tabular}")[2]
    data_lines = [l for l in body.splitlines() if l.endswith("\\\\")]
    assert len(data_lines) == 1 + len(cert.rows) + 1  # header, rows, target
