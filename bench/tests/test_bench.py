"""Tests of the benchmark's own code: the generator, the output checks, the
runner's repeat check, the tail statistic and the span arithmetic.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import json
import random
import time

import pytest

import checks
import graphs
import run
import spans
from bga import cli, hochschild, presentation, rewrite
from bga.ribbon import bipartition, parse_ribbon_graph


# -- generator ------------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_pool_is_deterministic_per_seed(workload):
    assert run.make_pool(workload, 7) == run.make_pool(workload, 7)
    assert run.make_pool(workload, 7) != run.make_pool(workload, 8)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_pool_graphs_fill_their_slots(workload):
    docs = run.make_pool(workload, 3)
    slots = run.WORKLOADS[workload]["slots"]
    assert sorted(map(graphs.dimension, docs)) == \
        sorted(d for _, d, _ in slots)
    counts = sorted(c for _, _, c in slots if c is not None)
    assert sorted(graphs.hh2_count(doc) for doc in docs if counts) == counts
    for doc in docs:
        g = parse_ribbon_graph(json.dumps(doc))   # valid and connected
        bipartition(g)                            # raises if not bipartite
        assert g.dimension_sum() == graphs.dimension(doc)
        assert len(doc["pairing"]) >= 2


def test_closed_counts_agree_with_the_engine_formula():
    rng = random.Random(11)
    for shape in graphs.SHAPES:
        for dim in (28, 40, 60, 80):
            doc = graphs.sample(shape, dim, rng)
            g = parse_ribbon_graph(json.dumps(doc))
            assert graphs.hh2_count(doc) == presentation.dimension_formula(g)


# -- checks ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def small(tmp_path_factory):
    doc = graphs.sample("star", 16, random.Random(5))
    path = tmp_path_factory.mktemp("g") / "g.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return doc, str(path)


def _out(argv):
    _, rc, text = run._call(cli.main, argv)
    assert rc == 0, text
    return text


def _check(doc, argv, out):
    return checks.check_run(doc, argv, 0, json.dumps(out))


def test_hh2_check_rejects_a_wrong_dimension(small):
    doc, path = small
    argv = ["hh2", "--input", path]
    text = _out(argv)
    assert checks.check_run(doc, argv, 0, text) == []
    out = json.loads(text)
    out["hh2_dim"] += 1
    assert _check(doc, argv, out)


def test_cocycles_check_rejects_a_missing_member(small):
    doc, path = small
    argv = ["cocycles", "--input", path]
    text = _out(argv)
    assert checks.check_run(doc, argv, 0, text) == []
    out = json.loads(text)
    out["cocycles"].pop()
    assert _check(doc, argv, out)
    out = json.loads(text)
    out["verification"]["complete"] = False
    assert _check(doc, argv, out)


def test_formal_deform_check_rejects_a_failed_lift(small):
    doc, path = small
    argv = ["deform", "--input", path, "--deform-type", "A", "--t", "formal:4"]
    text = _out(argv)
    assert checks.check_run(doc, argv, 0, text) == []
    out = json.loads(text)
    out["passes"] = False
    assert _check(doc, argv, out)


def test_t1_deform_check_rejects_a_radical_or_wrong_dimension(small):
    doc, path = small
    argv = ["deform", "--input", path, "--deform-type", "A", "--t", "1",
            "--check-semisimple"]
    text = _out(argv)
    assert checks.check_run(doc, argv, 0, text) == []
    out = json.loads(text)
    out["radical_dim"] = 1
    assert _check(doc, argv, out)
    out = json.loads(text)
    out["dimension"] -= 1
    assert _check(doc, argv, out)


def test_basis_check_rejects_a_wrong_dim_or_moved_word(small):
    doc, path = small
    argv = ["basis", "--input", path]
    text = _out(argv)
    assert checks.check_run(doc, argv, 0, text) == []
    out = json.loads(text)
    out["dim"] += 1
    assert _check(doc, argv, out)
    out = json.loads(text)
    vertices = sorted({b["vertex"] for b in out["basis"]})
    moved = next(b for b in out["basis"] if b["vertex"] == vertices[0])
    moved["vertex"] = vertices[1]
    assert _check(doc, argv, out)


def test_check_rejects_a_changed_byte_an_error_and_a_bad_exit(small):
    doc, path = small
    argv = ["hh2", "--input", path]
    text = _out(argv)
    dim = json.loads(text)["hh2_dim"]
    changed = text.replace(f'"hh2_dim":{dim}', f'"hh2_dim":{dim + 1}')
    assert changed != text and checks.check_run(doc, argv, 0, changed)
    assert checks.check_run(doc, argv, 0, text[:-5])
    assert checks.check_run(doc, argv, 0, '{"error":"x","detail":"y"}\n')
    assert checks.check_run(doc, argv, 1, text)


def test_runner_fails_a_repeat_that_prints_other_bytes(small):
    doc, path = small
    text = _out(["hh2", "--input", path])
    calls = []

    def job(main, p):
        calls.append(p)
        # the same JSON, with one byte of whitespace added on the repeat
        out = text if len(calls) == 1 else text.replace(",", ", ", 1)
        return [(["hh2", "--input", p], 0, out)]

    runner = run.Runner(job, None, [doc], [path])
    assert runner.run(0)[1] is True
    assert runner.run(0)[1] is False
    assert runner.failed == 1 and runner.attempted == 2


# -- statistics -----------------------------------------------------------------

def test_tail_has_ten_values_beyond_it():
    values = list(range(1, 41))
    value, pct, beyond = run.tail(values)
    assert value == 30 and beyond == 10
    assert sum(v > value for v in values) == 10
    assert pct == 75.0
    assert run.tail([3, 1, 2]) == (3, 100.0, 0)


def test_passes_rescale_each_run_by_the_reference_around_it(monkeypatch):
    # the reference reads twice, then four times its nominal time
    refs = iter([2, 2, 4, 4, 4] * 4)
    monkeypatch.setattr(run, "reference_s",
                        lambda count=3: next(refs) * run.NOMINAL_REF_S)

    class Fake:
        def run(self, i, probe=False):
            # one probe during job 1 reads three times the nominal time
            return 0.3, i != 1, [3 * run.NOMINAL_REF_S] if i else []

    raw, scaled, ok = run.run_passes(Fake(), 2, 0.0)
    assert raw == [[0.3], [0.3]]           # seconds 0: exactly one pass
    assert scaled == [[pytest.approx(0.15)], [pytest.approx(0.1)]]
    assert ok == [True, False]


def test_probes_run_only_while_probing():
    with run.probing() as probes:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:
            pass
    count = len(probes)
    assert count >= 3 and all(p > 0 for p in probes)
    time.sleep(3 * run.PROBE_PERIOD)
    assert len(probes) == count


def test_self_time_on_a_nested_tree():
    # 0 [0,10] -> 1 [1,4] -> 2 [2,3];  0 -> 3 [5,9] -> 4 [6,8]
    parents = [-1, 0, 1, 0, 3]
    starts = [0.0, 1.0, 2.0, 5.0, 6.0]
    ends = [10.0, 4.0, 3.0, 9.0, 8.0]
    assert spans.self_times(parents, starts, ends) == [3.0, 2.0, 1.0, 2.0, 2.0]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    parents = [-1, 0, 0, -1, 3]
    starts = [0.0, 1.0, 3.0, 20.0, 23.0]
    ends = [10.0, 5.0, 7.0, 24.0, 26.0]
    got = spans.self_times(parents, starts, ends)
    assert got[0] == 4.0       # children cover 1..7
    assert got[3] == 3.0       # the child's 24..26 lies outside its parent


def test_summarise_adds_self_time_per_name_and_table_reduces():
    t = spans.Tracer()
    job = t.open("bench.job", 0.0)
    table = t.open("rewrite.table", 1.0)
    for k in range(3):
        t.close(t.open("rewrite.reduce", 2.0 + k), 2.5 + k)
    t.close(table, 6.0)
    t.close(t.open("rewrite.reduce", 7.0), 8.0)
    t.close(job, 10.0)
    by_name, table_reduces = spans.summarise(t)
    assert table_reduces == 3
    assert by_name["rewrite.reduce"] == [4, 2.5, 2.5]
    assert by_name["rewrite.table"] == [1, 5.0, 3.5]
    assert by_name["bench.job"] == [1, 10.0, 4.0]


# -- span installation ----------------------------------------------------------

def test_install_patches_every_binding_and_uninstall_restores_them(small):
    _, path = small
    reduce, rref = rewrite.reduce, hochschild.rref
    dispatch = dict(cli._DISPATCH)
    init = rewrite.FiniteDimAlgebra.__dict__["__init__"]
    tracer = spans.Tracer()
    patches = spans.install(tracer, time.perf_counter)
    try:
        assert hochschild.reduce is not reduce
        assert presentation.reduce is hochschild.reduce
        assert cli._DISPATCH["hh2"] is not dispatch["hh2"]
        tracer.job = 0
        root = tracer.open("bench.job", time.perf_counter())
        _out(["hh2", "--input", path])
        tracer.close(root, time.perf_counter())
    finally:
        spans.uninstall(patches)
    assert rewrite.reduce is reduce and hochschild.reduce is reduce
    assert hochschild.rref is rref
    assert cli._DISPATCH == dispatch
    assert rewrite.FiniteDimAlgebra.__dict__["__init__"] is init
    names = tracer.names
    parent_of = {names[i]: names[p] for i, p in enumerate(tracer.parents)
                 if p >= 0 and names[i] in ("cli.main", "cli.cmd.hh2",
                                            "hochschild.hh2")}
    assert parent_of == {"cli.main": "bench.job",
                         "cli.cmd.hh2": "cli.main",
                         "hochschild.hh2": "cli.cmd.hh2"}
    assert "rewrite.table" in names and "linalg.rref" in names
    assert tracer.counts["rewrite.redex_scans"] > 0
    assert all(e >= s for s, e in zip(tracer.starts, tracer.ends))
