"""Command-line front end: construct families, run analyses, emit canonical
files and JSON certificates."""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import repeat
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path

from . import build, homology, cocycle, surface, analyze, verifysuite
from .triangulation import TriangulationError, parse, serialize

SCHEMA_VERSION = 1


def report_schema():
    """The published JSON schema that analyze reports validate against."""
    path = Path(__file__).with_name("report_schema.json")
    return json.loads(path.read_text())


class UsageError(Exception):
    """A combination of options the parser cannot rule out by itself."""


def _load(path):
    """Read a .tri file and reject what ``_require_manifold`` rejects."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise TriangulationError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise TriangulationError(
            f"cannot read {path}: not UTF-8 text") from None
    return _require_manifold(parse(text))


def _require_manifold(tri):
    """Reject cells no command can work with: every degree identity and
    the homology assume manifold edges and faces, a closed input must be a
    manifold at its vertices too, and the empty complex is no 3-manifold
    at all.  Returns tri."""
    if not tri.tet_count:
        raise TriangulationError("not a 3-manifold: no tetrahedra")
    homology.require_valid_cells(tri)
    sk = tri.skeleton
    if tri.is_closed and sk.vertex_count - sk.edge_count + tri.tet_count:
        # with F = 2T the vertex links' Euler characteristics sum to
        # 2E - 2T, and each is at most 2: every link is a sphere exactly
        # when V - E + T = 0
        raise TriangulationError(
            "not a 3-manifold: a vertex link is not a sphere")
    return tri


def _write(path, text):
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise TriangulationError(
            f"cannot write {path}: {exc.strerror}") from None


def _write_tri(tri, path, sidecar=None):
    _write(path, serialize(tri))
    if sidecar is not None:
        try:
            _write(Path(path).with_suffix(".meta.json"), _dumps(
                {"schema_version": SCHEMA_VERSION, **sidecar}) + "\n")
        except BaseException:
            # a .tri without its sidecar is not left behind
            Path(path).unlink()
            raise


class _StdoutClosed(Exception):
    """The reader of stdout has gone."""


def _out(text):
    """Write text to stdout and flush it, so that a reader that has gone
    shows here, as _StdoutClosed, and not as a broken pipe elsewhere."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        raise _StdoutClosed from None


_CONTAINERS = (list, tuple, dict)
_FLAT_ENCODERS = []


def _flat_encoder(depth):
    """json.dumps's C encoder for a value whose items sit at ``depth`` and
    hold no container: each item after the first starts a line, and the
    brackets stay on the lines of the first and last items.  Called with
    the value and 0, it returns the text in chunks."""
    while len(_FLAT_ENCODERS) <= depth:
        sep = ",\n" + "  " * len(_FLAT_ENCODERS)
        _FLAT_ENCODERS.append(
            json.JSONEncoder(sort_keys=True, separators=(sep, ": ")).iterencode
            if c_make_encoder is None else c_make_encoder(
                None, json.JSONEncoder().default, encode_basestring_ascii,
                None, ": ", sep, True, False, True))
    return _FLAT_ENCODERS[depth]


def _dumps(obj, depth=0):
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte, where
    every dict key is a str.  That call runs the pure-Python encoder; here
    ints and strs are written inline and every container with no container
    inside goes to the C encoder, whose output gains the line breaks after
    its opening bracket and before its closing one."""
    if type(obj) is int:
        return int.__repr__(obj)
    if type(obj) is str:
        return encode_basestring_ascii(obj)
    if not isinstance(obj, _CONTAINERS):
        return "".join(_flat_encoder(depth)(obj, 0))
    is_dict = isinstance(obj, dict)
    close = "\n" + "  " * depth
    inner = close + "  "
    if not any(map(isinstance, obj.values() if is_dict else obj,
                   repeat(_CONTAINERS))):
        if not obj:
            return "{}" if is_dict else "[]"
        text = "".join(_flat_encoder(depth + 1)(obj, 0))
        return text[0] + inner + text[1:-1] + close + text[-1]
    depth += 1
    if is_dict:
        parts = [f"{encode_basestring_ascii(k)}: {_dumps(v, depth)}"
                 for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(parts) + close + "}"
    parts = [_dumps(item, depth) for item in obj]
    return "[" + inner + ("," + inner).join(parts) + close + "]"


def _emit(obj):
    _out(_dumps(obj) + "\n")


def _homology_block(h):
    return {"invariant_factors": list(h.invariant_factors),
            "betti": h.betti, "z2_rank": h.z2_rank,
            "torsion_order": h.order, "group": str(h)}


def _census_block(c):
    return {
        "even_edges": c.even_edges, "odd_edges": c.odd_edges,
        "even_degree_histogram": {str(k): v
                                  for k, v in c.even_degree_histogram.items()},
        "even_edge_slots": c.even_edge_slots,
        "quad_tets": c.quad_tets, "tri_tets": c.tri_tets,
        "empty_tets": c.empty_tets, "balanced": c.balanced,
        "even_subcomplex": list(c.even_subcomplex),
    }


def _tori_block(lsts):
    return [{"tets": list(l.tets), "boundary_triple": list(l.boundary_triple),
             "univalent_edge": l.univalent_edge, "base_edge": l.base_edge}
            for l in lsts]


def _colouring_class(classes, index):
    """The nonzero colouring class that ``--class`` chooses from classes."""
    if not classes:
        raise TriangulationError("no nonzero colouring classes")
    if not 0 <= index < len(classes):
        raise TriangulationError(
            f"--class must be in 0..{len(classes) - 1}, got {index}")
    return classes[index]


def _bound_block(rep):
    return {
        "chi": rep.chi, "g": rep.g, "k_phi": rep.k_phi,
        "identity_lhs": rep.identity_lhs, "identity_rhs": rep.identity_rhs,
        "eq1_lhs": rep.eq1_lhs, "eq1_rhs": rep.eq1_rhs,
        "balanced": rep.balanced,
    }


def full_report(tri, descriptor, k_phi=0):
    """The analyze JSON document: skeleton, homology, per-class data, solid
    torus findings, twisted squares and the low degree lint."""
    sk = tri.skeleton
    report = {
        "schema_version": SCHEMA_VERSION,
        "input": descriptor,
        "skeleton": {
            "tet_count": tri.tet_count,
            "vertices": sk.vertex_count,
            "edges": sk.edge_count,
            "faces": sk.face_count,
            "degree_histogram": {str(k): v
                                 for k, v in sk.degree_histogram().items()},
        },
        "closed": tri.is_closed,
        "orientable": tri.is_orientable,
        "valid": tri.is_valid,
    }
    if not tri.is_closed:
        return report
    h1 = homology.first_homology(tri)
    report["homology"] = _homology_block(h1)
    if sk.vertex_count == 1:
        classes = []
        for phi in cocycle.all_nonzero_classes(tri):
            rep = analyze.fundamental_report(tri, phi, k_phi=k_phi)
            chi2, orientable, connected = surface.surface_classify(
                tri, rep.surface.coord, rep.chi)
            classes.append({
                "cocycle": str(phi),
                "census": _census_block(rep.census),
                "chi": rep.chi,
                "chi_formula": surface.chi_formula(rep.census),
                "surface": {"chi": chi2, "orientable": orientable,
                            "connected": connected},
                "bound_report": _bound_block(rep),
            })
        report["classes"] = classes
        lsts = analyze.find_maximal_lsts(tri)
        report["maximal_layered_solid_tori"] = _tori_block(lsts)
        report["lst_intersections"] = analyze.lst_intersection_matrix(tri, lsts)
        report["twisted_squares"] = analyze.twisted_squares(tri)
        report["lint"] = analyze.low_degree_lint(tri, lsts, h1)
    return report


# ----- subcommand handlers ---------------------------------------------------


def cmd_construct_lst(args):
    tri, meta = build.lst(args.p, args.q)
    _write_tri(tri, args.out, {
        "family": "lst", "params": {"p": args.p, "q": args.q},
        "meridian_weights": {str(k): v for k, v in meta.edge_weights.items()},
        "fold": None,
        "predicted_homology": None,
    })
    return 0


def cmd_fold(args):
    if args.edge not in ("p", "q", "pq", "p+q"):
        raise UsageError("--edge must be one of p, q, pq")
    pair = (args.p, args.q)
    if args.input is not None and pair != (None, None) or \
            args.input is None and None in pair:
        raise UsageError("give either a .tri file or both --p and --q")
    if args.input is not None:
        tri = _load(args.input)
        lsts = analyze.find_maximal_lsts(tri)
        if len(lsts) != 1 or lsts[0].size != tri.tet_count:
            raise TriangulationError(
                "input file is not a layered solid torus")
        torus = lsts[0]
        p, q = torus.p, torus.q
    else:
        # the record comes from the torus's sorted pair, so it does not
        # depend on the order of --p and --q
        tri, torus = build.lst(args.p, args.q)
        p, q = args.p, args.q
    w = {"p": p, "q": q}.get(args.edge, p + q)
    folded, record = build.fold_along_edge(
        tri, build.boundary_edge(torus, w), torus)
    h = homology.first_homology(folded)
    _write_tri(folded, args.out, {
        "family": "lens", "params": {"p": p, "q": q, "fold_weight": w},
        "meridian_weights": {str(k): v
                             for k, v in torus.edge_weights.items()},
        "fold": {"edge_weight": record.fold_edge_weight,
                 "lens": [record.lens_a, record.lens_b]},
        "predicted_homology": record.lens_a,
    })
    _emit({"written": args.out, "lens": [record.lens_a, record.lens_b],
           "homology": _homology_block(h)})
    if h.order != record.lens_a or h.betti:
        raise AssertionError("fold homology disagrees with the lens record")
    return 0


def cmd_construct_family(args):
    tag = build.family_tag(args.tag)
    if tag in ("P", "Q") and (args.m, args.n) != (None, None):
        raise UsageError(f"family {tag} takes no -m or -n")
    tri, params = build.seifert_family(args.tag, args.k, args.m, args.n)
    _write_tri(tri, args.out, {
        "family": params.family,
        "params": list(params.params),
        "meridian_weights": None,
        "fold": None,
        "predicted_homology": {
            "slopes": [list(s) for s in params.slopes],
            "invariant_factors":
                list(params.predicted_homology.invariant_factors),
            "z2_rank": params.predicted_homology.z2_rank,
        },
    })
    return 0


def cmd_construct_loop(args):
    tri = build.layered_loop(args.n, args.twisted)
    _write_tri(tri, args.out, {
        "family": "layered_loop",
        "params": {"n": args.n, "twisted": args.twisted},
        "meridian_weights": None, "fold": None,
        "predicted_homology": None,
    })
    return 0


def cmd_construct_augmented(args):
    fillings = []
    for entry in args.annulus:
        kind, _, spec = entry.partition(":")
        if kind == "fold":
            # a bare fold takes the library's default style
            fillings.append(build.AnnulusFilling(
                "fold", style=spec or build.AnnulusFilling.style))
        elif kind == "lst":
            try:
                wh, wd, wv = (int(x) for x in spec.split(","))
            except ValueError:
                raise TriangulationError(
                    f"bad annulus entry {entry!r}") from None
            fillings.append(build.AnnulusFilling("lst", w_h=wh, w_d=wd, w_v=wv))
        else:
            raise TriangulationError(f"bad annulus entry {entry!r}")
    # build rejects a straight fold, which leaves an invalid edge
    tri = _require_manifold(build.augmented_solid_torus(tuple(fillings)))
    _write_tri(tri, args.out, {
        "family": "augmented", "params": {"annuli": args.annulus},
        "meridian_weights": None, "fold": None, "predicted_homology": None,
    })
    return 0


def cmd_analyze(args):
    tri = _load(args.input)
    _emit(full_report(tri, {"file": str(args.input)}, k_phi=args.k_phi))
    return 0


def cmd_colourings(args):
    tri = _load(args.input)
    out = []
    for phi in cocycle.all_nonzero_classes(tri):
        census = cocycle.parity_census(tri, phi)
        out.append({"cocycle": str(phi), "census": _census_block(census)})
    _emit({"schema_version": SCHEMA_VERSION, "classes": out})
    return 0


def cmd_surface(args):
    tri = _load(args.input)
    phi = _colouring_class(cocycle.all_nonzero_classes(tri), args.cls)
    rep = analyze.fundamental_report(tri, phi)
    coord, octs, chi = rep.surface.coord, 0, rep.chi
    if args.b:
        coord, octs, chi = surface.b_modification(tri, rep.surface, args.b)
    _out(coord.dump() + "\n")
    _emit({"schema_version": SCHEMA_VERSION, "cocycle": str(phi),
           "chi": chi, "octagons": octs,
           "chi_formula": surface.chi_formula(rep.census)})
    return 0


def cmd_bounds(args):
    tri = _load(args.input)
    classes = cocycle.all_nonzero_classes(tri)  # its errors come before H_1
    if args.cls is not None:
        _colouring_class(classes, args.cls)
    reports = [analyze.fundamental_report(tri, phi, k_phi=args.k_phi)
               for phi in classes]
    shown = reports if args.cls is None else reports[args.cls:args.cls + 1]
    _emit({"schema_version": SCHEMA_VERSION,
           "bounds": [{"cocycle": str(rep.surface.cocycle), **_bound_block(rep)}
                      for rep in shown],
           "certificate": analyze.complexity_certificate(tri, args.family, reports)})
    return 0


def cmd_moves(args):
    needed, unused = (("face", "edge") if args.move == "23"
                      else ("edge", "face"))
    if getattr(args, needed) is None:
        raise UsageError(f"--move {args.move} needs --{needed}")
    if getattr(args, unused) is not None:
        raise UsageError(f"--move {args.move} takes no --{unused}")
    tri = _load(args.input)
    move = analyze.MoveSpec(args.move, face=args.face, edge=args.edge,
                            axis=args.axis)
    out = analyze.pachner(tri, move)
    _write_tri(out, args.out)
    _emit({"written": args.out, "tet_count": out.tet_count})
    return 0


def cmd_promote(args):
    tri = _load(args.input)
    phi = _colouring_class(cocycle.all_nonzero_classes(tri), args.cls)
    out, phi2, log = analyze.promote(tri, phi)
    _write_tri(out, args.out)
    _emit({"written": args.out, "flips": log, "cocycle": str(phi2)})
    return 0


def cmd_find_lst(args):
    tri = _load(args.input)
    lsts = analyze.find_maximal_lsts(tri)
    _emit({"schema_version": SCHEMA_VERSION,
           "tori": _tori_block(lsts),
           "intersections": analyze.lst_intersection_matrix(tri, lsts)})
    return 0


def cmd_twisted_squares(args):
    tri = _load(args.input)
    _emit({"schema_version": SCHEMA_VERSION,
           "twisted_squares": analyze.twisted_squares(tri)})
    return 0


def cmd_lgraph(args):
    nodes = build.lgraph(args.depth)
    _emit({"schema_version": SCHEMA_VERSION,
           "nodes": [{"p": n.p, "q": n.q, "depth": n.depth,
                      "even": n.e_bar, "odd": n.o_bar,
                      "deficiency": n.deficiency} for n in nodes]})
    return 0


def cmd_enumerate_lens(args):
    rows = build.enumerate_minimal_lens_families(args.depth)
    _emit({"schema_version": SCHEMA_VERSION,
           "families": [{"p": n.p, "q": n.q, "depth": n.depth,
                         "fold_weight": rec.fold_edge_weight,
                         "lens": [rec.lens_a, rec.lens_b],
                         "classification": cls}
                        for n, rec, cls in rows]})
    return 0


def cmd_verify(args):
    summary = verifysuite.run(only=args.only, quick=args.quick)
    if not summary["lines"]:
        raise UsageError("--only matched no criterion")
    for line in summary["lines"]:
        _out(line + "\n")
    # wall time per criterion goes to stderr, so stdout stays deterministic
    for name, ns in summary["elapsed_ns"].items():
        ms = ns // 1_000_000
        sys.stderr.write(f"{name} {ms // 1000}.{ms % 1000:03d}\n")
    _emit({"schema_version": SCHEMA_VERSION,
           "passed": summary["passed"], "failed": summary["failed"],
           "failures": summary["failures"]})
    return 0 if not summary["failed"] else 1


def _nonnegative(text):
    """An integer of at least zero, as ``--k-phi`` takes."""
    message = f"invalid nonnegative int value: {text!r}"
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(message) from None
    if value < 0:
        raise argparse.ArgumentTypeError(message)
    return value


def _edge_classes(text):
    """Comma separated edge class indices, as ``--b`` takes."""
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid edge class list: {text!r}") from None


def make_parser():
    ap = argparse.ArgumentParser(
        prog="trinorm",
        description="layered triangulations, GF(2) colourings, canonical "
                    "surfaces and complexity bounds")
    sub = ap.add_subparsers(dest="command", required=True)

    con = sub.add_parser("construct", help="build a triangulation family")
    consub = con.add_subparsers(dest="what", required=True)

    c_lst = consub.add_parser("lst")
    c_lst.add_argument("--p", type=int, required=True)
    c_lst.add_argument("--q", type=int, required=True)
    c_lst.add_argument("-o", "--out", required=True)
    c_lst.set_defaults(func="cmd_construct_lst")

    def add_fold(parser):
        parser.add_argument("input", nargs="?", default=None,
                            help=".tri file of a layered solid torus")
        parser.add_argument("--p", type=int, default=None)
        parser.add_argument("--q", type=int, default=None)
        parser.add_argument("--edge", required=True,
                            help="boundary edge by weight: p, q or pq")
        parser.add_argument("-o", "--out", required=True)
        parser.set_defaults(func="cmd_fold")

    add_fold(consub.add_parser("fold"))
    add_fold(sub.add_parser("fold", help="fold a layered solid torus"))

    c_fam = consub.add_parser("family")
    c_fam.add_argument("--tag", required=True, help="M, M', P or Q")
    c_fam.add_argument("-k", "--k", type=int, required=True)
    c_fam.add_argument("-m", "--m", type=int, default=None,
                       help="M and M' only")
    c_fam.add_argument("-n", "--n", type=int, default=None,
                       help="M and M' only")
    c_fam.add_argument("-o", "--out", required=True)
    c_fam.set_defaults(func="cmd_construct_family")

    c_loop = consub.add_parser("loop")
    c_loop.add_argument("--n", type=int, required=True)
    c_loop.add_argument("--twisted", action="store_true")
    c_loop.add_argument("-o", "--out", required=True)
    c_loop.set_defaults(func="cmd_construct_loop")

    c_aug = consub.add_parser("augmented")
    c_aug.add_argument("--annulus", action="append", required=True,
                       help="fold[:style] or lst:<wh,wd,wv>; give three")
    c_aug.add_argument("-o", "--out", required=True)
    c_aug.set_defaults(func="cmd_construct_augmented")

    p = sub.add_parser("analyze")
    p.add_argument("input")
    p.add_argument("--k-phi", type=_nonnegative, default=0)
    p.set_defaults(func="cmd_analyze")

    p = sub.add_parser("colourings")
    p.add_argument("input")
    p.set_defaults(func="cmd_colourings")

    p = sub.add_parser("surface")
    p.add_argument("input")
    p.add_argument("--class", dest="cls", type=int, default=0)
    p.add_argument("--b", type=_edge_classes, default=(),
                   help="comma separated even edge classes")
    p.set_defaults(func="cmd_surface")

    p = sub.add_parser("bounds")
    p.add_argument("input")
    p.add_argument("--class", dest="cls", type=int, default=None)
    p.add_argument("--k-phi", type=_nonnegative, default=0)
    p.add_argument("--family", default=None)
    p.set_defaults(func="cmd_bounds")

    p = sub.add_parser("moves")
    p.add_argument("input")
    p.add_argument("--move", required=True, choices=("23", "32", "44"))
    p.add_argument("--face", type=int, default=None)
    p.add_argument("--edge", type=int, default=None)
    p.add_argument("--axis", type=int, choices=(0, 1), default=0)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func="cmd_moves")

    p = sub.add_parser("promote")
    p.add_argument("input")
    p.add_argument("--class", dest="cls", type=int, default=0)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func="cmd_promote")

    p = sub.add_parser("find-lst")
    p.add_argument("input")
    p.set_defaults(func="cmd_find_lst")

    p = sub.add_parser("twisted-squares")
    p.add_argument("input")
    p.set_defaults(func="cmd_twisted_squares")

    p = sub.add_parser("lgraph")
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(func="cmd_lgraph")

    p = sub.add_parser("enumerate-lens")
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(func="cmd_enumerate_lens")

    p = sub.add_parser("verify")
    p.add_argument("--only", default=None,
                   help="run only the named check (substring match)")
    p.add_argument("--quick", action="store_true",
                   help="smaller grids for a fast sanity pass")
    p.set_defaults(func="cmd_verify")

    return ap


_PARSER = None


def main(argv=None):
    global _PARSER
    if _PARSER is None:
        # built on first use, not at import, and kept for the process
        _PARSER = make_parser()
    args = _PARSER.parse_args(argv)
    try:
        # handlers are looked up by name at call time, so a rebound
        # ``cmd_*`` (a wrapper, a test double) is the one that runs
        return globals()[args.func](args)
    except _StdoutClosed:
        # send what is still buffered to devnull, so the flush at exit
        # does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (TriangulationError, ValueError, BrokenPipeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except AssertionError as exc:
        sys.stderr.write(f"internal check failed: {exc}\n")
        return 1
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
