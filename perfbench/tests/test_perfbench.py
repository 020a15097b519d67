"""Tests of the benchmark's own logic.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from spans import Target, Tracer, leftover_wrappers, self_times  # noqa: E402


# -- tail percentile ----------------------------------------------------------


def test_tail_is_the_value_with_ten_samples_above():
    value, pct = stats.tail(list(range(1, 101)))
    assert value == 90 and pct == 90.0
    assert sum(1 for s in range(1, 101) if s > value) == 10


def test_tail_ignores_input_order_and_scales_with_sample_count():
    samples = list(range(1000))
    random.Random(0).shuffle(samples)
    value, pct = stats.tail(samples)
    assert value == 989 and pct == 99.0


def test_tail_with_too_few_samples_is_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert stats.tail(list(range(10))) == (9.0, 100.0)
    assert stats.tail(list(range(11))) == (0.0, 100.0 / 11)


# -- self time ------------------------------------------------------------------


def test_self_time_subtracts_children():
    # request [0, 10] > a [1, 7] > b [2, 5]; request > c [7, 9] (layer a again)
    layers_of = ["request", "a", "b", "a"]
    start = [0.0, 1.0, 2.0, 7.0]
    end = [10.0, 7.0, 5.0, 9.0]
    parent = [-1, 0, 1, 0]
    selfs = self_times(layers_of, start, end, parent)
    assert selfs == pytest.approx({"request": 10 - 6 - 2, "a": (6 - 3) + 2, "b": 3})
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_from_a_tracer_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.open("x", "outer")       # t=0
    inner = tracer.open("y", "inner")       # t=1
    tracer.close(inner)                     # t=2
    tracer.close(outer)                     # t=3
    assert list(tracer.root) == [0, 0]
    selfs = self_times([tracer.labels[i][0] for i in tracer.label],
                       tracer.start, tracer.end, tracer.parent)
    assert selfs == {"x": 2.0, "y": 1.0}


# -- failures are counted ---------------------------------------------------------


def _planted(answer, kind="homology:q"):
    n = 3
    check = workloads._check_homology(workloads.friendship_alpha(n), workloads.friendship_betti(n))
    return workloads.Query(kind, f"f{n}", lambda: answer, check)


def test_right_answer_passes():
    n = 3
    outcome = worker.run_pass([_planted((workloads.friendship_alpha(n),
                                         workloads.friendship_betti(n)))])
    assert worker.summarize(outcome)["failed"] == 0


def test_planted_wrong_betti_is_a_failure():
    alpha = workloads.friendship_alpha(3)
    wrong = (alpha, (1, 1, 87))            # Euler characteristic still holds
    summary = worker.summarize(worker.run_pass([_planted(wrong)]))
    assert summary["failed"] == 1 and summary["unexpected"] == 1


def test_crash_is_a_failure_and_known_defects_stay_failures():
    def boom():
        raise ValueError("refused")

    crash = workloads.Query("homology:q", "f3", boom, lambda a: None)
    known = _planted((workloads.friendship_alpha(3), (0, -16, 71)),
                     kind=f"homology:{workloads.GF_BIG}")
    summary = worker.summarize(worker.run_pass([crash, known]))
    assert summary["attempted"] == 2 and summary["failed"] == 2
    assert summary["unexpected"] == 1


def test_known_defect_matches_only_its_signature():
    n, big = 3, f"homology:{workloads.GF_BIG}"
    alpha = workloads.friendship_alpha(n)

    def boom():
        raise OverflowError("int64")

    other_failures = [
        _planted(((1,) + alpha[1:], workloads.friendship_betti(n)), kind=big),  # wrong f-vector
        _planted((alpha, (1, 0, 80)), kind=big),                             # breaks Euler
        workloads.Query(big, "f3", boom, lambda a: None),                    # a crash
    ]
    summary = worker.summarize(worker.run_pass(other_failures))
    assert summary["failed"] == 3 and summary["unexpected"] == 3


def test_cli_oracles_catch_wrong_answers():
    assert workloads._check_graph("c42")(
        {"m": 5, "edges": [[1, 2], [1, 4], [1, 5], [2, 3], [3, 4], [3, 5]],
         "labels": {**{f"v{i}": i for i in range(1, 6)},
                    **{f"e{k}": 5 + k for k in range(1, 7)}}}) is None
    assert workloads._check_graph("f2")(
        {"m": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 1], [1, 3]],
         "labels": {**{f"v{i}": i for i in range(1, 6)},
                    **{f"e{k}": 5 + k for k in range(1, 7)}}}) is not None
    rows, _ = _verify_rows()
    assert workloads._check_verify_friendship({"rows": rows, "all_pass": False}) is None
    rows[2]["betti"]["computed"]["q"] = [1, 0, 87]
    assert workloads._check_verify_friendship({"rows": rows, "all_pass": False}) is not None


def _verify_rows():
    from tscomplex.cli import friendship_verification_rows

    return friendship_verification_rows(3)


def test_cli_workload_answers_are_checked_in_process(tmp_path):
    import tscomplex as T

    cli = workloads.Cli(T, random.Random(3), tmp_path / "work")
    try:
        queries = cli.queries(0, in_process=True)
        outcomes = worker.run_pass(queries)
        assert [o["error"] for o in outcomes] == [None] * len(outcomes)
        # A wrong Betti number in c42's homology over Q, for which no closed form is used.
        i = next(i for i, q in enumerate(queries) if q.subject == "c42.homology-q")
        q, answer = queries[i], outcomes[i]["answer"]
        text = answer[1].replace('"betti":[1,0,', '"betti":[1,1,')
        assert text != answer[1]
        assert q.check((answer[0], text, answer[2])) is not None
    finally:
        cli.close()


def test_covers_check_rejects_a_non_minimal_or_missing_cover():
    facets = [(1, 2), (2, 3)]
    census = workloads.cover_census(facets)
    assert census == {1: 1, 2: 1}               # {2} and {1, 3}
    assert workloads.check_covers(facets, [(2,), (1, 3)], census) is None
    assert workloads.check_covers(facets, [(2,), (1, 2)], census) is not None
    assert workloads.check_covers(facets, [(2,)], census) is not None


def test_minimal_nonfaces_of_a_hollow_triangle_and_a_path():
    assert workloads.minimal_nonfaces([(1, 2), (1, 3), (2, 3)]) == {(1, 2, 3)}
    assert workloads.minimal_nonfaces([(1, 2), (2, 3)]) == {(1, 3)}


# -- tracing ------------------------------------------------------------------------


def test_tracing_is_answer_neutral_and_restores_every_name():
    import tscomplex as T
    import tscomplex.cohen_macaulay as cm

    originals = (T.homology_summary, cm.homology_summary, T.SimplicialComplex.link)
    w = workloads.FriendshipExact(T, random.Random(5), None)
    queries = [q for q in w.queries(0) if q.subject == "f3"]
    untraced = worker.run_pass(queries)
    tracer = Tracer()
    tracer.install(layers.TARGETS, layers.PACKAGE_MODULES)
    assert cm.homology_summary is not originals[1]
    try:
        traced = worker.run_pass(queries, tracer)
    finally:
        tracer.uninstall()
    assert [o["answer"] for o in traced] == [o["answer"] for o in untraced]
    assert leftover_wrappers(layers.PACKAGE_MODULES) == []
    assert (T.homology_summary, cm.homology_summary, T.SimplicialComplex.link) == originals
    metrics = layers.layer_metrics(tracer)
    assert metrics["cohen_macaulay.is_cm.calls"] == 1
    assert metrics["homology.rank_q.calls"] == 2
    assert metrics["cohen_macaulay.links_visited"] > 0


def test_a_removed_name_reads_as_zero_calls():
    tracer = Tracer()
    gone = Target("covers", "minimal_vertex_covers", "tscomplex.covers", "no_such_function")
    tracer.install([gone], layers.PACKAGE_MODULES)
    tracer.uninstall()
    assert tracer.missing == [gone]
    assert layers.layer_metrics(tracer)["covers.minimal_vertex_covers.calls"] == 0


# -- the declared metrics are the reported ones ----------------------------------------


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
