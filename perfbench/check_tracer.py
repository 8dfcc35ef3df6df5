"""Checks of the layer tracer on tiny inputs.

    python3 -m pytest perfbench/check_tracer.py

The file is named so that the repository's own test run does not collect
it: ``test_exact_counts`` pins the current construction (one
``layer_on_edge`` and one skeleton per layer), which a later change to
``build.lst`` may legitimately alter.
"""

import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from trinorm import build, cli, triangulation  # noqa: E402
from tracer import LAYERS, ROOT, Tracer  # noqa: E402


def _work(tmp_path):
    build.lst(3, 7)
    tri, _, _ = build.lens_space(1, 4)
    path = tmp_path / "l.tri"
    path.write_text(triangulation.serialize(tri))
    assert cli.main(["analyze", str(path)]) == 0


def test_every_call_goes_through_a_wrapper(tmp_path, capsys):
    """Each wrapped function's count equals the calls a profiler sees of
    its original code, so no by-name import or tuple entry escaped."""
    seen = Counter()

    def profile(frame, event, arg):
        if event == "call":
            seen[frame.f_code] += 1

    with Tracer() as tr:
        with tr.span("bench.check"):
            sys.setprofile(profile)
            try:
                _work(tmp_path)
            finally:
                sys.setprofile(None)
    missed = {name: (tr.calls[name], seen[fn.__code__])
              for name, fn in tr.originals.items()
              if tr.calls[name] != seen[fn.__code__]}
    assert not missed
    for name in ("build.layer_on_edge", "triangulation.parse",
                 "analyze.find_maximal_lsts", "cocycle.classify_tetrahedra"):
        assert tr.calls[name] > 0, name


def test_exact_counts(tmp_path):
    """lst(3,7) layers three times and lst(1,4) twice; each lst builds one
    skeleton for its seed tetrahedron and one per layer, and the fold
    builds no skeleton."""
    with Tracer() as tr:
        with tr.span("bench.check"):
            build.lst(3, 7)
            build.lens_space(1, 4)
    layers = (len(build.minimal_path(3, 7)) - 1
              + len(build.minimal_path(1, 4)) - 1)
    assert layers == 5
    assert tr.calls["build.layer_on_edge"] == layers
    assert tr.calls["triangulation.Triangulation.skeleton"] == 2 + layers
    # seed tetrahedron and one table per layer, plus the folded table
    assert tr.calls["triangulation.Triangulation.__init__"] == 2 + layers + 1
    assert tr.entries()["build"] == 2
    skeleton_spans = tr.children_of("triangulation.Triangulation.skeleton",
                                    lambda name, layer: layer == "build")
    assert skeleton_spans == 2 + layers


def test_self_times_fit_in_wall(tmp_path, capsys):
    with Tracer() as tr:
        with tr.span("bench.check"):
            _work(tmp_path)
    (fid, t0, t1, parent), = [s for s in tr.spans if s[3] < 0]
    self_s = tr.layer_times()
    assert set(self_s) <= set(LAYERS) | {ROOT}
    assert all(v >= 0 for v in self_s.values())
    assert sum(self_s.values()) <= (t1 - t0) * (1 + 1e-9)
    assert self_s["analyze"] > 0 and self_s["cli"] > 0


def test_uninstall_restores_bindings():
    from trinorm import analyze, verifysuite
    before = (analyze.canonical_surface, cli.parse, build.lst,
              triangulation.Triangulation.__dict__["skeleton"],
              triangulation.Triangulation.__init__)
    with Tracer():
        assert cli.parse is not before[1]
        assert all(hasattr(fn, "__wrapped__")
                   for _, fn in verifysuite.CHECKS)
    after = (analyze.canonical_surface, cli.parse, build.lst,
             triangulation.Triangulation.__dict__["skeleton"],
             triangulation.Triangulation.__init__)
    assert all(a is b for a, b in zip(before, after))
