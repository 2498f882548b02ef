"""Command-line front end: verify certificates, prove new bounds,
assemble rate regions, print cut-set facets, and export LaTeX tables.

Options may come from a line-oriented key=value config file (--config);
explicit flags win over file entries.  The log level is read from the
REPAIRBOUND_LOG environment variable.  Every output file embeds the
resolved run configuration, so identical configurations reproduce
identical bytes.

Exit codes: 0 valid or success, 1 invalid certificate, 2 unverified,
3 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import __version__
from .certificate import (
    DEFAULT_MAX_DEPTH,
    CertificateError,
    check_sum,
    format_meaning,
    format_plane,
    load,
    load_bundled,
    serialize,
    to_latex,
    verify,
)
from .cutset import facets
from .prover import (
    DEFAULT_FAMILY_CAP,
    FamilyError,
    default_family,
    load_seed_terms,
    prove,
)
from .ratlp import LPError
from .region import DEFAULT_WINDOW, emit, from_halfplanes
from .universe import build_universe

log = logging.getLogger("repairbound")

EXIT_VALID = 0
EXIT_INVALID = 1
EXIT_UNVERIFIED = 2
EXIT_USAGE = 3

def _fail(msg: str):
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


class _Parser(argparse.ArgumentParser):
    # usage problems are exit 3 by contract, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        _fail(message)


# -- configuration -------------------------------------------------------


@dataclass
class RunConfig:
    """Resolved options for one invocation; serialized into outputs."""

    command: str
    n: int | None = None
    k: int | None = None
    d: int | None = None
    directions: tuple = ()
    seeds: tuple = ()
    depth: int = 0
    cap: int = DEFAULT_FAMILY_CAP
    max_depth: int = DEFAULT_MAX_DEPTH
    cert_path: str | None = None
    cert_sources: tuple = ()
    builtin: bool = False
    cutset_source: bool = False
    window: tuple = DEFAULT_WINDOW
    out: str | None = None
    csv: str | None = None
    svg: str | None = None
    report: str | None = None
    log_level: str = field(default="WARNING")

    def provenance(self) -> list:
        items = [("tool", f"repairbound {__version__}"), ("command", self.command)]
        for name in ("n", "k", "d"):
            v = getattr(self, name)
            if v is not None:
                items.append((name, str(v)))
        items += [("dir", f"{ca},{cb}") for ca, cb in self.directions]
        items += [("seeds", s) for s in self.seeds]
        if self.directions:
            items += [("depth", str(self.depth)), ("cap", str(self.cap))]
        if self.command in ("verify", "solve"):
            items.append(("max-depth", str(self.max_depth)))
        if self.cert_path:
            items.append(("certificate", self.cert_path))
        items += [("cert", c) for c in self.cert_sources]
        if self.builtin:
            items.append(("builtin-eq1", "true"))
        if self.cutset_source:
            items.append(("cutset", "true"))
        if self.window != DEFAULT_WINDOW:
            items.append(("window", ",".join(str(x) for x in self.window)))
        for name in ("out", "csv", "svg", "report"):
            v = getattr(self, name)
            if v:
                items.append((name, str(v)))
        items.append(("log-level", self.log_level))
        return [f"{key}={value}" for key, value in items]


def _read_config(path) -> dict:
    """Parse a key=value file; repeated keys accumulate in order."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        _fail(f"cannot read config file: {e}")
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            _fail(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        values.setdefault(key.strip(), []).append(value.strip())
    return values


def _resolve(args, cfg, dest, cast=str, multi=False, split=True, default=None):
    """One option: the flag if given, else config entries, else default."""
    got = getattr(args, dest, None)
    if got is not None and got != []:
        return got
    raw = cfg.get(dest.replace("_", "-"))
    if raw is None:
        return default
    try:
        if multi:
            if split:
                parts = [p.strip() for chunk in raw for p in chunk.split(",")]
            else:
                parts = raw
            return [cast(p) for p in parts if p]
        return cast(raw[-1])
    except (ValueError, ZeroDivisionError) as e:
        _fail(f"config key {dest.replace('_', '-')}: {e}")


def _resolve_flag(args, cfg, dest) -> bool:
    if getattr(args, dest, False):
        return True
    raw = cfg.get(dest.replace("_", "-"))
    if raw is None:
        return False
    value = raw[-1].lower()
    if value not in ("true", "false", "yes", "no", "1", "0"):
        _fail(f"config key {dest.replace('_', '-')}: expected a boolean, got {raw[-1]!r}")
    return value in ("true", "yes", "1")


def _fraction(part: str, what: str, text: str) -> Fraction:
    try:
        return Fraction(part.strip())
    except ZeroDivisionError:
        raise ValueError(f"{what} {text!r}: zero denominator") from None


def _parse_direction(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"direction {text!r}: expected two comma-separated numbers")
    ca, cb = (_fraction(p, "direction", text) for p in parts)
    if ca < 0 or cb < 0:
        raise ValueError(f"direction {text!r}: components must be nonnegative")
    if ca == 0 and cb == 0:
        raise ValueError(f"direction {text!r}: at least one component must be positive")
    return (ca, cb)


def _parse_window(text: str) -> tuple:
    parts = [_fraction(p, "window", text) for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError(f"window {text!r}: expected lo,hi,lo,hi")
    (a0, a1, b0, b1) = parts
    if a0 >= a1 or b0 >= b1:
        raise ValueError(f"window {text!r}: bounds must increase")
    return (a0, a1, b0, b1)


# -- argument parsing ----------------------------------------------------


def _build_parser() -> _Parser:
    top = _Parser(
        prog="repairbound",
        description="prove and verify storage/repair-bandwidth outer bounds",
    )
    top.add_argument(
        "--version", action="version", version=f"repairbound {__version__}"
    )
    sub = top.add_subparsers(dest="command", metavar="command")

    def add_common(p):
        p.add_argument("--config", help="key=value config file; flags win")

    def add_problem(p):
        p.add_argument("--n", type=int, help="number of storage nodes")
        p.add_argument("--k", type=int, help="reconstruction threshold")
        p.add_argument("--d", type=int, help="repair degree (default n-1)")

    def add_family(p):
        p.add_argument(
            "--seeds",
            action="append",
            metavar="PATH",
            help="JSON term file whose variable sets seed the family (repeatable)",
        )
        p.add_argument("--depth", type=int, help="family closure rounds (default 0)")
        p.add_argument("--cap", type=int, help="family size cap")

    p = sub.add_parser("verify", help="check a certificate file")
    add_common(p)
    p.add_argument("certificate", nargs="?", help="certificate JSON file")
    p.add_argument("--max-depth", type=int, help="row search depth budget")
    p.add_argument("--report", metavar="PATH", help="write a JSON report")

    p = sub.add_parser("solve", help="prove a bound and write its certificate")
    add_common(p)
    add_problem(p)
    p.add_argument(
        "--dir",
        action="append",
        metavar="A,B",
        help="objective direction (repeatable)",
    )
    add_family(p)
    p.add_argument("--max-depth", type=int, help="re-verification depth budget")
    p.add_argument("--out", metavar="PATH", help="certificate output path")

    p = sub.add_parser("region", help="assemble a rate region and plot it")
    add_common(p)
    add_problem(p)
    p.add_argument(
        "--builtin-eq1",
        action="store_true",
        dest="builtin_eq1",
        help="use the (5,4,4) cut-set facets and the two bundled certificates",
    )
    p.add_argument(
        "--cutset", action="store_true", help="include the cut-set facets for n,k,d"
    )
    p.add_argument(
        "--cert",
        action="append",
        metavar="PATH",
        help="take the bound line of a certificate file (repeatable)",
    )
    p.add_argument(
        "--dir",
        action="append",
        metavar="A,B",
        help="prove a fresh bound in this direction (repeatable)",
    )
    add_family(p)
    p.add_argument("--csv", metavar="PATH", help="write vertices and boundary as CSV")
    p.add_argument("--svg", metavar="PATH", help="write the plot as SVG")
    p.add_argument("--window", metavar="A0,A1,B0,B1", help="plot window fractions")

    p = sub.add_parser("cutset", help="print cut-set facets and corner points")
    add_common(p)
    add_problem(p)
    p.add_argument("--csv", metavar="PATH", help="write the cut-set region as CSV")

    p = sub.add_parser("export-latex", help="render a certificate as two tables")
    add_common(p)
    p.add_argument("certificate", nargs="?", help="certificate JSON file")
    p.add_argument("--out", metavar="PATH", help="output path (default stdout)")

    return top


def _merge(args, cfg) -> RunConfig:
    rc = RunConfig(
        command=args.command,
        log_level=os.environ.get("REPAIRBOUND_LOG", "WARNING").upper(),
    )
    if args.command in ("solve", "region", "cutset"):
        rc.n = _resolve(args, cfg, "n", cast=int)
        rc.k = _resolve(args, cfg, "k", cast=int)
        rc.d = _resolve(args, cfg, "d", cast=int)
    if args.command in ("verify", "export-latex"):
        rc.cert_path = _resolve(args, cfg, "certificate")
    if args.command in ("verify", "solve"):
        rc.max_depth = _resolve(
            args, cfg, "max_depth", cast=int, default=DEFAULT_MAX_DEPTH
        )
    if args.command == "verify":
        rc.report = _resolve(args, cfg, "report")
    if args.command in ("solve", "region"):
        try:
            dirs = _resolve(args, cfg, "dir", multi=True, split=False, default=[])
            rc.directions = tuple(_parse_direction(s) for s in dirs)
        except ValueError as e:
            _fail(str(e))
        rc.seeds = tuple(_resolve(args, cfg, "seeds", multi=True, default=[]))
        rc.depth = _resolve(args, cfg, "depth", cast=int, default=0)
        rc.cap = _resolve(args, cfg, "cap", cast=int, default=DEFAULT_FAMILY_CAP)
    if args.command == "solve":
        rc.out = _resolve(args, cfg, "out")
    if args.command == "region":
        rc.builtin = _resolve_flag(args, cfg, "builtin_eq1")
        rc.cutset_source = _resolve_flag(args, cfg, "cutset")
        rc.cert_sources = tuple(_resolve(args, cfg, "cert", multi=True, default=[]))
        rc.svg = _resolve(args, cfg, "svg")
        try:
            window = _resolve(args, cfg, "window")
            if window is not None:
                rc.window = _parse_window(window)
        except ValueError as e:
            _fail(str(e))
    if args.command in ("region", "cutset"):
        rc.csv = _resolve(args, cfg, "csv")
    if args.command == "export-latex":
        rc.out = _resolve(args, cfg, "out")
    return rc


# -- shared helpers ------------------------------------------------------


def _write(path, blob: bytes) -> None:
    try:
        Path(path).write_bytes(blob)
    except OSError as e:
        _fail(f"cannot write {path}: {e}")


def _load_cert(path):
    if not path:
        _fail("a certificate path is required")
    try:
        return load(path)
    except OSError as e:
        _fail(f"cannot read {path}: {e}")
    except CertificateError as e:
        _fail(f"{path}: {e}")


def _universe_from(rc: RunConfig):
    if rc.n is None or rc.k is None:
        _fail("--n and --k are required")
    try:
        return build_universe(rc.n, rc.k, rc.d)
    except ValueError as e:
        _fail(str(e))


def _family_from(rc: RunConfig, u):
    seeds = []
    for path in rc.seeds:
        try:
            seeds.extend(load_seed_terms(path))
        except FamilyError as e:
            _fail(str(e))
    try:
        fam = default_family(u, seeds=seeds, depth=rc.depth, cap=rc.cap)
    except FamilyError as e:
        _fail(str(e))
    log.info("family has %d classes", len(fam))
    return fam


def _slug(q: Fraction) -> str:
    return str(q).replace("/", "_")


# -- commands ------------------------------------------------------------


def cmd_verify(rc: RunConfig) -> int:
    cert = _load_cert(rc.cert_path)
    try:
        u = build_universe(cert.n, cert.k, cert.d)
    except ValueError as e:
        _fail(f"{rc.cert_path}: {e}")
    log.info(
        "verifying %d rows over %d terms at depth %d",
        len(cert.rows),
        len(cert.terms),
        rc.max_depth,
    )
    report = verify(u, cert, max_depth=rc.max_depth)
    if report.overall == "VALID":
        print(f"VALID: {report.bound}")
        code = EXIT_VALID
    elif report.overall == "INVALID":
        print(f"INVALID: {'; '.join(report.diagnostics)}")
        code = EXIT_INVALID
    else:
        bad = [r.index for r in report.row_status if r.status != "valid"]
        print(f"UNVERIFIED: rows {bad} not certified within depth {rc.max_depth}")
        code = EXIT_UNVERIFIED
    if rc.report:
        payload = {
            "status": report.overall,
            "bound": report.bound,
            "meaning": list(report.meaning) if report.meaning else None,
            "diagnostics": report.diagnostics,
            "rows": [
                {"index": r.index, "status": r.status, "depth": r.depth, "detail": r.detail}
                for r in report.row_status
            ],
            "run-config": rc.provenance(),
        }
        _write(rc.report, (json.dumps(payload, indent=1) + "\n").encode("utf-8"))
    return code


def cmd_solve(rc: RunConfig) -> int:
    if not rc.directions:
        _fail("at least one --dir is required")
    if rc.out and len(rc.directions) > 1:
        _fail("--out only works with a single --dir")
    u = _universe_from(rc)
    fam = _family_from(rc, u)
    for ca, cb in rc.directions:
        try:
            proved = prove(u, fam, (ca, cb), max_depth=rc.max_depth)
        except (LPError, CertificateError, ValueError) as e:
            _fail(f"direction {ca},{cb}: {e}")
        _, meaning = check_sum(proved.certificate)
        print(f"bound: {format_meaning(meaning)}")
        log.info("direction (%s, %s) proved value %s", ca, cb, proved.value)
        out = rc.out or (
            f"bound-n{u.n}-k{u.k}-d{u.d}-{_slug(ca)}-{_slug(cb)}.cert.json"
        )
        proved.certificate.meta["run-config"] = rc.provenance()
        _write(out, serialize(proved.certificate))
        print(f"wrote {out}")
    return EXIT_VALID


def cmd_region(rc: RunConfig) -> int:
    planes = []
    certs = []  # (source, certificate); each plane is used only once verified
    if rc.builtin:
        if (rc.n, rc.k) not in ((None, None), (5, 4)) or rc.d not in (None, 4):
            _fail("the built-in region is for n=5, k=4, d=4")
        planes += [(j, w, 1) for j, w in facets(5, 4, 4).facets]
        certs += [(f"bundled {name}", load_bundled(name)) for name in ("prop1", "prop2")]
    if rc.cutset_source:
        if rc.n is None or rc.k is None:
            _fail("--cutset needs --n and --k")
        try:
            cs = facets(rc.n, rc.k, rc.d)
        except ValueError as e:
            _fail(str(e))
        planes += [(j, w, 1) for j, w in cs.facets]
    for path in rc.cert_sources:
        cert = _load_cert(path)
        if (rc.n, rc.k) != (None, None) and (cert.n, cert.k) != (rc.n, rc.k):
            _fail(f"{path}: certificate is for ({cert.n},{cert.k}), not ({rc.n},{rc.k})")
        certs.append((path, cert))
    universes = {}  # one per problem, shared by its certificates
    for source, cert in certs:
        if cert.problem not in universes:
            try:
                universes[cert.problem] = build_universe(*cert.problem)
            except ValueError as e:
                _fail(f"{source}: {e}")
        report = verify(universes[cert.problem], cert, max_depth=rc.max_depth)
        if report.overall == "INVALID":
            print(f"INVALID: {source}: {'; '.join(report.diagnostics)}")
            return EXIT_INVALID
        if report.overall == "UNVERIFIED":
            bad = [r.index for r in report.row_status if r.status != "valid"]
            print(f"UNVERIFIED: {source}: rows {bad} not certified within depth {rc.max_depth}")
            return EXIT_UNVERIFIED
        planes.append(report.meaning)
    if rc.directions:
        u = _universe_from(rc)
        fam = _family_from(rc, u)
        for ca, cb in rc.directions:
            try:
                proved = prove(u, fam, (ca, cb))
            except (LPError, CertificateError, ValueError) as e:
                _fail(f"direction {ca},{cb}: {e}")
            _, meaning = check_sum(proved.certificate)
            planes.append(meaning)
    if not planes:
        _fail("no region source (use --builtin-eq1, --cutset, --cert, or --dir)")

    # a proved plane with c = 0 (such as 1β ≥ 0B) holds on the whole
    # quadrant, so it bounds nothing
    planes = [p for p in planes if p[2] != 0]
    if not planes:
        _fail("every plane holds on the whole quadrant, so no region is cut out")
    try:
        region = from_halfplanes(planes)
    except ValueError as e:
        _fail(str(e))
    for h in region.halfplanes:
        print(f"plane: {format_plane(h.a, h.b, h.c)}")
    for x, y in region.vertices:
        print(f"vertex: ({x}, {y})")
    if rc.csv:
        _write(rc.csv, emit(region, "csv", rc.window, rc.provenance()))
        print(f"wrote {rc.csv}")
    if rc.svg:
        _write(rc.svg, emit(region, "svg", rc.window, rc.provenance()))
        print(f"wrote {rc.svg}")
    return EXIT_VALID


def cmd_cutset(rc: RunConfig) -> int:
    if rc.n is None or rc.k is None:
        _fail("--n and --k are required")
    try:
        cs = facets(rc.n, rc.k, rc.d)
    except ValueError as e:
        _fail(str(e))
    for j, w in cs.facets:
        print(f"facet: {format_plane(int(j), int(w), 1)}")
    region = from_halfplanes([(j, w, 1) for j, w in cs.facets])
    for x, y in region.vertices:
        print(f"vertex: ({x}, {y})")
    if rc.csv:
        _write(rc.csv, emit(region, "csv", rc.window, rc.provenance()))
        print(f"wrote {rc.csv}")
    return EXIT_VALID


def cmd_export_latex(rc: RunConfig) -> int:
    cert = _load_cert(rc.cert_path)
    header = "".join(f"% {line}\n" for line in rc.provenance())
    text = header + to_latex(cert)
    if rc.out:
        _write(rc.out, text.encode("utf-8"))
        print(f"wrote {rc.out}")
    else:
        print(text, end="")
    return EXIT_VALID


COMMANDS = {
    "verify": cmd_verify,
    "solve": cmd_solve,
    "region": cmd_region,
    "cutset": cmd_cutset,
    "export-latex": cmd_export_latex,
}


class _StderrHandler(logging.StreamHandler):
    """Writes each record to whatever sys.stderr is when it is emitted,
    so an in-process caller that swaps or closes its stderr between calls
    never leaves the handler on a dead stream."""

    @property
    def stream(self):
        return sys.stderr

    @stream.setter
    def stream(self, _):
        pass


def _configure_logging():
    """Give the package logger its one stderr handler, and take its level
    from REPAIRBOUND_LOG on every call; a name that is not a level means
    WARNING."""
    if not any(isinstance(h, _StderrHandler) for h in log.handlers):
        handler = _StderrHandler()
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        log.addHandler(handler)
    level = getattr(logging, os.environ.get("REPAIRBOUND_LOG", "WARNING").upper(), None)
    log.setLevel(level if isinstance(level, int) else logging.WARNING)


def main(argv=None) -> int:
    _configure_logging()
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        if not args.command:
            parser.error("a command is required")
        cfg = _read_config(args.config) if getattr(args, "config", None) else {}
        return COMMANDS[args.command](_merge(args, cfg))
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
