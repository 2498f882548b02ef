"""Command-line front end: verify certificates, prove new bounds,
assemble rate regions, print cut-set facets, and export LaTeX tables.

Every option is declared once, in OPTIONS; the subcommand parsers, the
config-file keys and the provenance lines are all derived from it.  An
option is its flag if given, else its entries in the key=value config
file named by --config (the key is the flag without its dashes), else
its default.  The log level is read from the REPAIRBOUND_LOG environment
variable.  Every output file embeds the resolved run configuration, so
identical configurations reproduce identical bytes.

Exit codes: 0 valid or success, 1 invalid certificate, 2 unverified,
3 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
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
    load_terms,
    serialize,
    to_latex,
    verify,
)
from .cutset import facets
from .prover import DEFAULT_FAMILY_CAP, FamilyError, default_family, pool_rows, prove
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


# -- options -------------------------------------------------------------


def _fraction(part: str, what: str, text: str) -> Fraction:
    try:
        return Fraction(part.strip())
    except ZeroDivisionError:
        raise ValueError(f"{what} {text!r}: zero denominator") from None
    except ValueError:
        raise ValueError(f"{what} {text!r}: {part.strip()!r} is not a number") from None


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


def _at_least(name: str, least: int):
    """A parse for an integer option that must be at least least."""

    def parse(value: int) -> int:
        if value < least:
            raise ValueError(f"{name} {value}: must be at least {least}")
        return value

    return parse


def _parse_window(text: str) -> tuple:
    parts = [_fraction(p, "window", text) for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError(f"window {text!r}: expected lo,hi,lo,hi")
    (a0, a1, b0, b1) = parts
    if a0 >= a1 or b0 >= b1:
        raise ValueError(f"window {text!r}: bounds must increase")
    return (a0, a1, b0, b1)


PROBLEM = ("solve", "region", "cutset")
FAMILY = ("solve", "region")

# Every option, once, in provenance order: (name, commands, default,
# parse, argparse keywords).  The name is the flag without its dashes and
# the config-file key; an entry with nargs="?" is a positional argument.
# parse, when set, turns each given string into the option's value after
# argparse and the config file have been read.
OPTIONS = (
    ("n", PROBLEM, None, None, dict(type=int, help="number of storage nodes")),
    ("k", PROBLEM, None, None, dict(type=int, help="reconstruction threshold")),
    ("d", PROBLEM, None, None, dict(type=int, help="repair degree (default n-1)")),
    ("dir", FAMILY, (), _parse_direction, dict(
        action="append", metavar="A,B", help="prove a bound in this direction (repeatable)")),
    ("seeds", FAMILY, (), None, dict(
        action="append", metavar="PATH",
        help="JSON term file whose variable sets seed the family (repeatable)")),
    ("depth", FAMILY, 0, _at_least("depth", 0), dict(
        type=int, help="family closure rounds (default 0)")),
    ("cap", FAMILY, DEFAULT_FAMILY_CAP, _at_least("cap", 1), dict(
        type=int, help="family size cap")),
    ("max-depth", ("verify", "solve"), DEFAULT_MAX_DEPTH, _at_least("max-depth", 1), dict(
        type=int, help="row search depth budget")),
    ("certificate", ("verify", "export-latex"), None, None, dict(
        nargs="?", help="certificate JSON file")),
    ("cert", ("region",), (), None, dict(
        action="append", metavar="PATH",
        help="take the bound line of a certificate file (repeatable)")),
    ("builtin-eq1", ("region",), False, None, dict(
        action="store_true",
        help="use the (5,4,4) cut-set facets and the two bundled certificates")),
    ("cutset", ("region",), False, None, dict(
        action="store_true", help="include the cut-set facets for n,k,d")),
    ("window", ("region",), DEFAULT_WINDOW, _parse_window, dict(
        metavar="A0,A1,B0,B1", help="plot window fractions")),
    ("out", ("solve", "export-latex"), None, None, dict(
        metavar="PATH", help="output path (export-latex: default stdout)")),
    ("csv", ("region", "cutset"), None, None, dict(
        metavar="PATH", help="write the region's vertices and boundary as CSV")),
    ("svg", ("region",), None, None, dict(metavar="PATH", help="write the plot as SVG")),
    ("report", ("verify",), None, None, dict(metavar="PATH", help="write a JSON report")),
)


def _read_config(path) -> dict:
    """Parse a key=value file; repeated keys accumulate in order."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
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


def _from_config(name, raw: list, parse, kw):
    """An option's value from its config entries: a repeatable option
    takes every entry (split on commas unless its values are parsed, as a
    direction's are), any other the last."""
    action = kw.get("action")
    if action == "append":
        parts = raw if parse else [p.strip() for chunk in raw for p in chunk.split(",")]
        return [p for p in parts if p]
    if action == "store_true":
        value = raw[-1].lower()
        if value not in ("true", "false", "yes", "no", "1", "0"):
            _fail(f"config key {name}: expected a boolean, got {raw[-1]!r}")
        return value in ("true", "yes", "1")
    try:
        return kw.get("type", str)(raw[-1])
    except ValueError as e:
        _fail(f"config key {name}: {e}")


def read_options(argv=None) -> dict:
    """Parse argv and its config file into {option name: value} for the
    command's options, plus "command".  Each option is the flag if given,
    else its config entries, else its default."""
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    if not args.command:
        parser.error("a command is required")
    cfg = _read_config(args.config) if getattr(args, "config", None) else {}
    opts = {"command": args.command}
    for name, commands, default, parse, kw in OPTIONS:
        if args.command not in commands:
            continue
        dest = name.replace("-", "_")
        if hasattr(args, dest):
            value = getattr(args, dest)
        elif name in cfg:
            value = _from_config(name, cfg[name], parse, kw)
        else:
            opts[name] = default
            continue
        if parse:
            try:
                value = [parse(v) for v in value] if kw.get("action") == "append" else parse(value)
            except ValueError as e:
                _fail(str(e))
        opts[name] = value
    return opts


def provenance(opts: dict) -> list:
    """The resolved run configuration as key=value lines, in table order;
    depth and cap shape only a proved family, and window appears only
    when it moved."""
    command = opts["command"]
    lines = [f"tool=repairbound {__version__}", f"command={command}"]
    for name, commands, default, _, kw in OPTIONS:
        if command not in commands:
            continue
        value = opts[name]
        if name in ("depth", "cap") and not opts["dir"] or name == "window" and value == default:
            continue
        for v in value if kw.get("action") == "append" else (value,):
            if v is True:
                lines.append(f"{name}=true")
            elif isinstance(v, tuple):
                lines.append(f"{name}={','.join(str(x) for x in v)}")
            elif v is not None and v is not False and v != "":
                lines.append(f"{name}={v}")
    lines.append(f"log-level={_log_level()}")
    return lines


def _build_parser(command=None) -> _Parser:
    """The parser of every command, or of the given command alone: argv
    that starts with that command gets the same help, usage lines and
    errors from both, since the top level only picks the subparser."""
    top = _Parser(
        prog="repairbound",
        description="prove and verify storage/repair-bandwidth outer bounds",
    )
    top.add_argument(
        "--version", action="version", version=f"repairbound {__version__}"
    )
    sub = top.add_subparsers(dest="command", metavar="command")
    # SUPPRESS leaves an option that is not given out of the namespace
    parsers = {
        name: sub.add_parser(name, help=text, argument_default=argparse.SUPPRESS)
        for name, (_, text) in COMMANDS.items()
        if command in (None, name)
    }
    for p in parsers.values():
        p.add_argument("--config", help="key=value config file; flags win")
    for name, commands, _, _, kw in OPTIONS:
        flag = name if kw.get("nargs") == "?" else f"--{name}"
        for c in commands:
            if c in parsers:
                parsers[c].add_argument(flag, **kw)
    return top


# -- shared helpers ------------------------------------------------------


def _write(path, blob: bytes) -> None:
    try:
        Path(path).write_bytes(blob)
    except OSError as e:
        _fail(f"cannot write {path}: {e}")


def _check_outputs(opts) -> None:
    """Fail before any work when an output path's directory is missing."""
    for name in ("out", "report", "csv", "svg"):
        path = opts.get(name)
        if path and not Path(path).parent.is_dir():
            _fail(f"cannot write {path}: its directory does not exist")


def _load(reader, path, *args):
    """reader(path, *args); a missing path, an unreadable file or a
    malformed one fails, naming the path."""
    if not path:
        _fail("a certificate path is required")
    try:
        return reader(path, *args)
    except OSError as e:
        _fail(f"cannot read {path}: {e}")
    except CertificateError as e:
        _fail(f"{path}: {e}")


def _universe(problem, where=None):
    try:
        return build_universe(*problem)
    except ValueError as e:
        _fail(f"{where}: {e}" if where else str(e))


def _problem(opts, missing="--n and --k are required") -> tuple:
    if opts["n"] is None or opts["k"] is None:
        _fail(missing)
    return opts["n"], opts["k"], opts["d"]


def _cutset(opts, missing="--n and --k are required"):
    try:
        return facets(*_problem(opts, missing))
    except ValueError as e:
        _fail(str(e))


def _proved(opts, max_depth: int):
    """Prove each distinct --dir direction, in the order given, on the
    family the options grow; yields (universe, ProvedBound) per direction."""
    u = _universe(_problem(opts))
    seeds = [toks for path in opts["seeds"] for toks in _load(load_terms, path, u.n)]
    try:
        fam = default_family(u, seeds=seeds, depth=opts["depth"], cap=opts["cap"])
    except FamilyError as e:
        _fail(str(e))
    log.info("family has %d classes", len(fam))
    rows = pool_rows(u, fam)  # one pool for every direction
    for ca, cb in dict.fromkeys(opts["dir"]):
        try:
            proved = prove(u, fam, (ca, cb), max_depth=max_depth, rows=rows)
        except (LPError, CertificateError, ValueError) as e:
            _fail(f"direction {ca},{cb}: {e}")
        yield u, proved


def _verdict(report, source, max_depth: int) -> int:
    """Print a failed verdict, naming its source if there is one, and
    return the exit code of the report."""
    where = f"{source}: " if source else ""
    if report.overall == "INVALID":
        print(f"INVALID: {where}{'; '.join(report.diagnostics)}")
        return EXIT_INVALID
    if report.overall == "UNVERIFIED":
        bad = [r.index for r in report.row_status if r.status != "valid"]
        print(f"UNVERIFIED: {where}rows {bad} not certified within depth {max_depth}")
        return EXIT_UNVERIFIED
    return EXIT_VALID


def _plots(region, opts) -> None:
    """Write the --csv and --svg files that the command has and was given."""
    window = opts.get("window", DEFAULT_WINDOW)
    for fmt in ("csv", "svg"):
        path = opts.get(fmt)
        if path:
            _write(path, emit(region, fmt, window, provenance(opts)))
            print(f"wrote {path}")


def _slug(q: Fraction) -> str:
    return str(q).replace("/", "_")


# -- commands ------------------------------------------------------------


def cmd_verify(opts) -> int:
    path, max_depth = opts["certificate"], opts["max-depth"]
    cert = _load(load, path)
    u = _universe(cert.problem, path)
    log.info(
        "verifying %d rows over %d terms at depth %d", len(cert.rows), len(cert.terms), max_depth
    )
    report = verify(u, cert, max_depth=max_depth)
    if report.overall == "VALID":
        print(f"VALID: {report.bound}")
    code = _verdict(report, None, max_depth)
    if opts["report"]:
        payload = {
            "status": report.overall,
            "bound": report.bound,
            "meaning": list(report.meaning) if report.meaning else None,
            "diagnostics": report.diagnostics,
            "rows": [
                {"index": r.index, "status": r.status, "depth": r.depth, "detail": r.detail}
                for r in report.row_status
            ],
            "run-config": provenance(opts),
        }
        _write(opts["report"], (json.dumps(payload, indent=1) + "\n").encode("utf-8"))
    return code


def cmd_solve(opts) -> int:
    if not opts["dir"]:
        _fail("at least one --dir is required")
    if opts["out"] and len(set(opts["dir"])) > 1:
        _fail("--out only works with a single --dir")
    for u, proved in _proved(opts, opts["max-depth"]):
        ca, cb = proved.direction
        _, meaning = check_sum(proved.certificate)
        print(f"bound: {format_meaning(meaning)}")
        log.info("direction (%s, %s) proved value %s", ca, cb, proved.value)
        out = opts["out"] or f"bound-n{u.n}-k{u.k}-d{u.d}-{_slug(ca)}-{_slug(cb)}.cert.json"
        proved.certificate.meta["run-config"] = provenance(opts)
        _write(out, serialize(proved.certificate))
        print(f"wrote {out}")
    return EXIT_VALID


def cmd_region(opts) -> int:
    planes = []
    certs = []  # (source, certificate); each plane is used only once verified
    # every source is for one problem: the one the flags give, else the
    # built-in one, else the first certificate's
    problem = (opts["n"], opts["k"], opts["d"])
    if opts["builtin-eq1"]:
        if problem[:2] not in ((None, None), (5, 4)) or problem[2] not in (None, 4):
            _fail("the built-in region is for n=5, k=4, d=4")
        problem = (5, 4, 4)
        planes += facets(*problem)
        certs += [(f"bundled {name}", load_bundled(name)) for name in ("prop1", "prop2")]
    if opts["cutset"]:
        planes += _cutset(opts, "--cutset needs --n and --k")
    for path in opts["cert"]:
        cert = _load(load, path)
        if any(a is not None and a != c for a, c in zip(problem, cert.problem)):
            # the parts given, d only when n and k agree, named unless n and k are
            shown = [i for i, a in enumerate(problem) if a is not None]
            if any(problem[i] != cert.problem[i] for i in shown if i < 2):
                shown = [i for i in shown if i < 2]
            tag = ("n=", "k=", "d=") if None in problem[:2] else ("",) * 3
            have, want = (
                ",".join(tag[i] + str(p[i]) for i in shown) for p in (cert.problem, problem)
            )
            _fail(f"{path}: certificate is for ({have}), not ({want})")
        problem = tuple(c if a is None else a for a, c in zip(problem, cert.problem))
        certs.append((path, cert))
    universes = {}  # one per problem, shared by its certificates
    for source, cert in certs:
        if cert.problem not in universes:
            universes[cert.problem] = _universe(cert.problem, source)
        report = verify(universes[cert.problem], cert, max_depth=DEFAULT_MAX_DEPTH)
        code = _verdict(report, source, DEFAULT_MAX_DEPTH)
        if code != EXIT_VALID:
            return code
        planes.append(report.meaning)
    if opts["dir"]:
        planes += [check_sum(p.certificate)[1] for _, p in _proved(opts, DEFAULT_MAX_DEPTH)]
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
    _plots(region, opts)
    return EXIT_VALID


def cmd_cutset(opts) -> int:
    cs = _cutset(opts)
    for plane in cs:
        print(f"facet: {format_plane(*plane)}")
    region = from_halfplanes(cs)
    for x, y in region.vertices:
        print(f"vertex: ({x}, {y})")
    _plots(region, opts)
    return EXIT_VALID


def cmd_export_latex(opts) -> int:
    cert = _load(load, opts["certificate"])
    header = "".join(f"% {line}\n" for line in provenance(opts))
    text = header + to_latex(cert)
    if opts["out"]:
        _write(opts["out"], text.encode("utf-8"))
        print(f"wrote {opts['out']}")
    else:
        print(text, end="")
    return EXIT_VALID


# command name -> (function, help); also the order of the subcommands
COMMANDS = {
    "verify": (cmd_verify, "check a certificate file"),
    "solve": (cmd_solve, "prove a bound and write its certificate"),
    "region": (cmd_region, "assemble a rate region and plot it"),
    "cutset": (cmd_cutset, "print cut-set facets and corner points"),
    "export-latex": (cmd_export_latex, "render a certificate as two tables"),
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


def _log_level() -> str:
    """The level that REPAIRBOUND_LOG names; a name that is not a level
    means WARNING."""
    name = os.environ.get("REPAIRBOUND_LOG", "WARNING").upper()
    return name if isinstance(getattr(logging, name, None), int) else "WARNING"


def _configure_logging():
    """Give the package logger its one stderr handler, and take its level
    from REPAIRBOUND_LOG on every call."""
    if not any(isinstance(h, _StderrHandler) for h in log.handlers):
        handler = _StderrHandler()
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        log.addHandler(handler)
    log.setLevel(_log_level())


def main(argv=None) -> int:
    _configure_logging()
    try:
        opts = read_options(argv)
        _check_outputs(opts)
        return COMMANDS[opts["command"]][0](opts)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
