"""The three workloads: what each builds during set-up, what one pass
runs, and how every output is checked.

A pass runs a fixed set of operations ("ops") once, in an order shuffled
by the workload seed (verify keeps the grid's own order).  Each op is timed alone; the checks run after it,
outside its time, and call nothing the tracer wraps, so they add nothing
to the per-layer figures.  A failed check marks the op failed and the run
goes on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

from trinorm import (build, cli, cocycle, homology, surface, triangulation,
                     verifysuite)


class CheckFailed(Exception):
    """An op's output disagreed with what the benchmark expected."""


def require(cond, what):
    if not cond:
        raise CheckFailed(what)


def run_cli(argv):
    """``trinorm <argv>`` in process; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Op:
    """One timed call and the check of its result.

    ``size`` is the tetrahedron count of the op's rung on the size ladder,
    or None for ops outside the ladder.
    """

    def __init__(self, label, size, fn, check):
        self.label, self.size, self.fn, self.check = label, size, fn, check


# ----- fraction-tree paths ------------------------------------------------

# The cost of analyzing a layered lens space depends on two features of its
# path: the parities of (p, q), which decide how lens_space folds it and so
# whether analyze finds one maximal layered solid torus or two, and the
# first step below 1/2 (to 1/3 or to 2/3), which together with the
# parities decides whether the lint finds degree-3 edges and searches for
# tori a second time.  Each rung takes these six strata in a fixed order,
# so its composition is the same for every seed; the seed picks the rest
# of each path.
STRATA = (((1, 0), False), ((0, 1), True), ((1, 1), False),
          ((1, 0), True), ((0, 1), False), ((1, 1), True))


def tree_node(rng, depth, stratum):
    """A fraction-tree node ``depth - 1`` steps below 1/2 in the given
    stratum; lst(p, q) has ``depth`` tetrahedra."""
    parity, first = stratum
    while True:
        p, q = (1, 3) if first else (2, 3)
        for _ in range(depth - 2):
            p, q = (p, p + q) if rng.random() < 0.5 else (q, p + q)
        if (p % 2, q % 2) == parity:
            return p, q


def rung_nodes(rng, depth, count):
    return [tree_node(rng, depth, STRATA[i % len(STRATA)])
            for i in range(count)]


# ----- analyze ------------------------------------------------------------

# (tetrahedra, inputs).  With the eight family members a pass has 41 ops;
# the p90 rank (4.1 ops from the top) falls inside the 64-tetrahedron
# rung, which holds the 3rd to 7th slowest ops, never on a rung boundary.
ANALYZE_LADDER = ((8, 8), (16, 12), (32, 6), (64, 5), (96, 2))


def _family_inputs(rng):
    """Seifert family members with their predicted torsion orders."""
    out = []
    for tag in ("M", "M", "MPRIME", "MPRIME"):
        k, m, n = (rng.randint(1, 3) for _ in range(3))
        tri, params = build.seifert_family(tag, k, m, n)
        out.append((f"{tag}({k},{m},{n})", tri,
                    params.predicted_homology.order))
    k = rng.randint(1, 3)
    tri, params = build.seifert_family("P", k)
    out.append((f"P({k})", tri, params.predicted_homology.order))
    for _ in range(2):
        k = rng.randrange(4, 18, 2)
        tri, params = build.seifert_family("Q", k)
        out.append((f"Q({k})", tri, params.predicted_homology.order))
    k = rng.randrange(4, 18, 2)
    predicted = homology.seifert_homology(((1, -1), (2, 1), (2, 1), (k, 1)))
    out.append((f"augmented_quaternionic({k})",
                build.augmented_quaternionic(k), predicted.order))
    return out


class Analyze:
    """``trinorm analyze <file>`` on a seeded mix of closed triangulations:
    a size ladder of lens spaces plus Seifert family members."""

    name = "analyze"
    min_passes = 3

    def setup(self, seed, work, clock):
        """Build every input and write it as a .tri file; returns the ops.
        Each step runs through ``clock.timed``, which is what set-up time
        adds up."""
        rng = random.Random(seed)
        specs = []                # (label, size, tri, expected order)
        for depth, count in ANALYZE_LADDER:
            for p, q in rung_nodes(rng, depth, count):
                tri, _, record = clock.timed(build.lens_space, p, q)
                specs.append((f"L{depth}:{p}/{q}", depth, tri, record.lens_a))
        families = clock.timed(_family_inputs, rng)
        specs += [(label, None, tri, order) for label, tri, order in families]
        ops = []
        for i, (label, size, tri, order) in enumerate(specs):
            path = work / f"in{i}.tri"
            clock.timed(path.write_text, triangulation.serialize(tri))
            ops.append(Op(label, size, self._runner(path),
                          self._checker(tri.tet_count, order)))
        return ops

    @staticmethod
    def _runner(path):
        return lambda: run_cli(["analyze", str(path)])

    @staticmethod
    def _checker(tets, order):
        first = []

        def check(result):
            code, text = result
            require(code == 0, f"exit code {code}")
            report = json.loads(text)
            require(report["skeleton"]["tet_count"] == tets, "tet count")
            require(report["homology"]["torsion_order"] == order,
                    f"torsion order {report['homology']['torsion_order']} "
                    f"!= {order}")
            for cls in report.get("classes", []):
                require(cls["chi"] == cls["chi_formula"], "chi != formula")
                bound = cls["bound_report"]
                require(bound["identity_lhs"] == bound["identity_rhs"],
                        "degree identity")
            digest = hashlib.sha256(text.encode()).hexdigest()
            if not first:
                first.append(digest)
            require(digest == first[0], "output differs on a repeat")

        return check


# ----- census -------------------------------------------------------------

CENSUS_DEPTH = 8
# minimal-lens rows of enumerate-lens per depth, pinned from the current
# code
CENSUS_ROWS = {8: 62, 10: 158, 11: 190}
# (tetrahedra, constructions).  With enumerate-lens and lgraph a pass has
# 34 ops; the p90 rank (3.4 ops from the top) falls inside the 64 rung,
# which holds the 3rd to 5th slowest.
CENSUS_LADDER = ((16, 20), (32, 8), (64, 3), (96, 1))


def _construct(p, q):
    """build.lst(p, q) followed by build.lens_space(p, q)."""
    tri, meta = build.lst(p, q)
    sk = tri.skeleton
    lens, _, record = build.lens_space(p, q)
    return (sorted(meta.edge_weights.values()), sk.vertex_count,
            sk.edge_count, sk.face_count, tri.tet_count, lens.tet_count,
            lens.is_closed)


class Census:
    """``trinorm enumerate-lens`` and ``trinorm lgraph`` at a fixed depth,
    interleaved with seeded deep constructions on a size ladder."""

    name = "census"
    min_passes = 3

    def setup(self, seed, work, clock):
        rng = random.Random(seed)
        ops = [Op("enumerate-lens", None,
                  lambda: run_cli(["enumerate-lens", "--depth",
                                   str(CENSUS_DEPTH)]),
                  self._rows_check("families", CENSUS_ROWS[CENSUS_DEPTH])),
               Op("lgraph", None,
                  lambda: run_cli(["lgraph", "--depth", str(CENSUS_DEPTH)]),
                  self._rows_check("nodes", 2 ** CENSUS_DEPTH - 1))]
        for depth, count in CENSUS_LADDER:
            nodes = clock.timed(rung_nodes, rng, depth, count)
            for p, q in nodes:
                weights = clock.timed(build.lst_weight_multiset, p, q)
                ops.append(Op(f"C{depth}:{p}/{q}", depth,
                              lambda p=p, q=q: _construct(p, q),
                              self._construct_check(depth, sorted(weights))))
        return ops

    @staticmethod
    def _rows_check(key, rows):
        def check(result):
            code, text = result
            require(code == 0, f"exit code {code}")
            got = len(json.loads(text)[key])
            require(got == rows, f"{got} {key}, expected {rows}")
        return check

    @staticmethod
    def _construct_check(k, weights):
        def check(result):
            got, v, e, f, tets, lens_tets, closed = result
            require(got == weights, "meridian weights differ from replay")
            require((v, e, f) == (1, k + 2, 2 * k + 1),
                    f"skeleton V,E,F = {v},{e},{f} at k={k}")
            require(tets == k and lens_tets == k and closed, "lens space")
        return check


# ----- verify -------------------------------------------------------------

# Functions every long verify criterion calls many times.  During an
# untraced pass each takes a host-speed burst first (at most one per
# BURST_EVERY_S), so a criterion running for seconds is normalised piece by
# piece; the bursts' own time is left out of the criterion's.
BURST_HOOKS = ((homology, "first_homology"), (cocycle, "all_nonzero_classes"),
               (surface, "euler_char"), (build, "layer_on_edge"))


class Verify:
    """``trinorm verify`` on the full default grid.  Its seeds are fixed
    inside verifysuite, so the workload seed is recorded but not used.
    Each criterion is one op, timed by wrapping ``verifysuite.CHECKS``."""

    name = "verify"
    min_passes = 1

    def setup(self, seed, work, clock):
        return []

    def run_pass(self, clock, record, hooks):
        originals = verifysuite.CHECKS
        failed = []

        def timed(name, fn):
            def run(quick=False):
                clock.maybe_burst()
                t0 = clock.now()
                try:
                    ok, detail = fn(quick=quick)
                except Exception:
                    failed.append(name)
                    record(name, None, t0, clock.now(), "raised")
                    raise
                if not ok:
                    failed.append(name)
                record(name, None, t0, clock.now(),
                       None if ok else f"FAIL {detail}")
                return ok, detail
            return run

        def hooked(fn):
            def run(*args, **kwargs):
                clock.maybe_burst()
                return fn(*args, **kwargs)
            return run

        saved = [(mod, attr, getattr(mod, attr)) for mod, attr in BURST_HOOKS
                 if hooks and hasattr(mod, attr)]
        verifysuite.CHECKS = tuple((n, timed(n, f)) for n, f in originals)
        for mod, attr, fn in saved:
            setattr(mod, attr, hooked(fn))
        try:
            code, text = run_cli(["verify"])
        finally:
            verifysuite.CHECKS = originals
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)
        if failed:
            return            # already counted as failed ops
        lines = text.splitlines()
        summary = json.loads("\n".join(lines[len(originals):]))
        require(code == 0 and summary["failed"] == 0
                and summary["passed"] == len(originals)
                and all(line.startswith("PASS ")
                        for line in lines[:len(originals)]),
                f"verify exit {code}: {summary['failures']}")


WORKLOADS = {w.name: w for w in (Analyze(), Census(), Verify())}
