"""The benchmark workloads: CLI op lists and the outputs pinned for them.

Every op is one ``repairbound.cli.main(argv)`` call, run from the work
directory ``.perfbench_out/work`` at the checkout root, so input paths are
written relative to it.  The seed only permutes the order of the ops and of
the directions inside one ``solve``; every op's expected output is the same
for every seed.

``verify-544`` is the reviewer's task.  ``prove`` is the author's task and
chains two op lists: the paper's (4,3,3) separation (five depth-1
``solve`` calls, then ``region``) and two (5,4,4) directions in one
``solve`` on the depth-0 family.  Every op takes a few seconds at most, so
a run repeats the whole list several times and takes each op's median
cost over the repetitions: on the shared 2-vCPU host the benchmark was
sized on, CPU speed drops by up to 2x in spells of seconds to minutes.
The seeded (5,4,4) ``solve`` (about 7 s per direction, 35 s for the five
facets) and the (6,5,5) ``solve`` (4-6 s per direction) are left out for
that reason: a run could not repeat them often enough.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

DATA = "../../data"

# bound line printed by `solve` (and by `verify` after "VALID: "), by direction;
# without the seed terms of the bundled certificates the (5,4,4) depth-0
# family proves 3α+2β ≥ 1B in direction 15,10, not the 15α+10β ≥ 6B of prop1
BOUNDS_544 = {"1,0": "4α ≥ 1B", "15,10": "3α+2β ≥ 1B"}
BOUNDS_433 = {
    "1,0": "3α ≥ 1B",
    "2,1": "2α+1β ≥ 1B",
    "4,6": "4α+6β ≥ 3B",
    "1,3": "1α+3β ≥ 1B",
    "0,1": "1β ≥ 0B",
}

# Tian's (4,3,3) exact-repair region (arXiv:1312.0914): the proved planes
# with the trivial 1β ≥ 0B dropped, together with the cut-set facets.
# Compared as a set of lines, since the plane order is presentation only.
TIAN_433 = (
    "plane: 3α ≥ 1",
    "plane: 2α+1β ≥ 1",
    "plane: 4α+6β ≥ 3",
    "plane: 6β ≥ 1",
    "vertex: (1/3, 1/3)",
    "vertex: (3/8, 1/4)",
    "vertex: (1/2, 1/6)",
)

# depth at which `verify --report` certifies each row, in row order
DEPTHS_PROP1 = (1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 2, 1, 2)
DEPTHS_PROP2 = (2, 1, 1, 1, 2) + (1,) * 20


@dataclass
class Op:
    """One CLI call and the output it must give."""

    name: str
    argv: list
    stdout: tuple  # exact stdout lines, in order (sorted when unordered)
    unordered: bool = False
    report: tuple = ()  # (path, expected row depths) of a --report file
    certs: dict = field(default_factory=dict)  # written path -> (n, k, bound)


def _slug(direction: str) -> str:
    return direction.replace(",", "-")


def _solve(n: int, k: int, dirs: list, bounds: dict, extra=()) -> Op:
    argv = ["solve", "--n", str(n), "--k", str(k), *extra]
    stdout, certs = [], {}
    for d in dirs:
        argv += ["--dir", d]
        path = f"bound-n{n}-k{k}-d{n - 1}-{_slug(d)}.cert.json"
        stdout += [f"bound: {bounds[d]}", f"wrote {path}"]
        certs[path] = (n, k, bounds[d])
    name = f"solve n={n} k={k}" + (f" dir {dirs[0]}" if len(dirs) == 1 else "")
    return Op(name, argv, tuple(stdout), certs=certs)


def _verify(stem: str, bound: str, depths: tuple) -> Op:
    report = f"{stem}.report.json"
    argv = ["verify", f"{DATA}/{stem}.cert.json", "--report", report]
    return Op(f"verify {stem}", argv, (f"VALID: {bound}",), report=(report, depths))


def _prove_544(rng) -> list:
    dirs = list(BOUNDS_544)
    rng.shuffle(dirs)
    return [_solve(5, 4, dirs, BOUNDS_544)]


def _region_433(rng) -> list:
    dirs = list(BOUNDS_433)
    rng.shuffle(dirs)
    ops = [_solve(4, 3, [d], BOUNDS_433, ["--depth", "1"]) for d in dirs]
    argv = ["region", "--n", "4", "--k", "3", "--cutset"]
    for op in ops:
        argv += ["--cert", *op.certs]
    ops.append(Op("region", argv, tuple(sorted(TIAN_433)), unordered=True))
    return ops


def ops_for(workload: str, seed: int) -> list:
    """The op list of a workload, in the order the seed selects."""
    rng = random.Random(seed)
    if workload == "verify-544":
        ops = [
            _verify("prop1", "15α+10β ≥ 6B", DEPTHS_PROP1),
            _verify("prop2", "5α+10β ≥ 3B", DEPTHS_PROP2),
        ]
        rng.shuffle(ops)
        return ops
    if workload == "prove":
        parts = [_prove_544(rng), _region_433(rng)]
        rng.shuffle(parts)
        return [op for part in parts for op in part]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("verify-544", "prove")
