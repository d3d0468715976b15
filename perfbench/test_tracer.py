"""Checks of the benchmark's tracer.

    python3 -m pytest -q perfbench/test_tracer.py
"""
from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import cases  # noqa: E402
import tracer  # noqa: E402
from eqpart import cli, distributions, ratmat  # noqa: E402
from eqpart.equitable import Coloring  # noqa: E402


def namespaces():
    return [m for key, m in sys.modules.items() if key == "eqpart" or key.startswith("eqpart.")]


def snapshot():
    """Every binding a tracer may touch: module globals and class dicts."""
    state = {(ns.__name__, key): value for ns in namespaces() for key, value in vars(ns).items()}
    for cls in (ratmat.RatMatrix, Coloring):
        state.update({(cls.__name__, key): value for key, value in vars(cls).items()})
    return state


@pytest.fixture(scope="module")
def argvs(tmp_path_factory):
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        frozen = json.load(fh)
    work = cases.Workdir(tmp_path_factory.mktemp("work"))
    jobs = cases.spot_checks(cases.Draw(3), work)
    return [["selftest"]] + [job.render(frozen[f"closed_form/{job.name}"])[0] for job in jobs]


def run(argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def test_stdout_is_identical_with_and_without_tracing(argvs):
    for argv in argvs:
        plain = run(argv)
        t = tracer.Tracer()
        t.install()
        try:
            traced = t.call("cli", run, argv)
        finally:
            t.restore()
        assert traced == plain
        assert len(t.spans) > 1 and all(span is not None for span in t.spans)


def test_every_wrapped_function_is_restored(argvs):
    before = snapshot()
    original = distributions.vertex_distribution
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.vertex_distribution is not original
        assert cli.vertex_distribution is distributions.vertex_distribution
        assert ratmat.RatMatrix.__matmul__ is not before[("RatMatrix", "__matmul__")]
        run(argvs[0])
    finally:
        t.restore()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_self_time_of_a_synthetic_span_tree():
    spans = [
        ("root", 0.0, 10.0, None, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("a.child", 2.0, 3.0, 1, 0),
        ("b", 5.0, 9.0, 0, 0),
        ("b.child", 6.0, 7.5, 3, 0),
        ("b.overlap", 7.0, 8.0, 3, 0),  # overlaps b.child by 0.5
        ("root2", 20.0, 21.0, None, 1),
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.5, 1.0, 1.0])


def test_layer_seconds_add_up_to_the_root_spans(argvs):
    t = tracer.Tracer()
    t.install()
    try:
        for job, argv in enumerate(argvs):
            t.job = job
            t.call("cli", run, argv)
    finally:
        t.restore()
    roots = sum(end - start for _, start, end, parent, _ in t.spans if parent is None)
    assert sum(t.layer_seconds().values()) == pytest.approx(roots)
    assert {span[4] for span in t.spans} == set(range(len(argvs)))
