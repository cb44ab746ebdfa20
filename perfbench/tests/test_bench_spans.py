"""Self-time arithmetic and the span recorder on synthetic span trees."""

import pytest

from spans import END, NAME, START, Tracer, self_times, summarize


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_children():
    # root [0, 10] > a [1, 4] > g [2, 3];  root > b [5, 7]
    tr = Tracer(clock=fake_clock(0, 1, 2, 3, 4, 5, 7, 10))
    root = tr.begin("root")
    a = tr.begin("a")
    g = tr.begin("g")
    tr.end(g)
    tr.end(a)
    b = tr.begin("b")
    tr.end(b)
    tr.end(root)
    own = self_times(tr.spans)
    assert own == {root[0]: 5, a[0]: 2, g[0]: 1, b[0]: 2}
    assert sum(own.values()) == root[END] - root[START]


def test_self_time_counts_overlapping_children_once():
    spans = [
        [0, None, 0, "root", 0.0, 10.0, None],
        [1, 0, 0, "x", 1.0, 4.0, None],
        [2, 0, 0, "y", 3.0, 6.0, None],
        [3, 0, 0, "z", 8.0, 12.0, None],  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10 - 5 - 2)


def test_summarize_inclusive_time_skips_nested_same_name():
    spans = [
        [0, None, 0, "gamma", 0.0, 4.0, {"n": 1}],
        [1, 0, 0, "gamma", 1.0, 3.0, {"n": 2, "atoms_max": 5}],
        [2, None, 1, "gamma", 5.0, 6.0, {"atoms_max": 3}],
    ]
    row = summarize(spans)["gamma"]
    assert row["calls"] == 3
    assert row["s"] == pytest.approx(5.0)
    assert row["self_s"] == pytest.approx(5.0)
    assert row["counts"] == {"n": 3, "atoms_max": 5}


def test_wrap_records_exceptions_and_unpatch_restores():
    class Owner:
        @staticmethod
        def f(x):
            if x < 0:
                raise ValueError("negative")
            return 2 * x

    original = Owner.f
    tr = Tracer()
    tr.patch([(Owner, "f")], lambda parent: f"f.under.{parent}",
             lambda args, kwargs, result: {"failed": int(isinstance(result, Exception))})
    assert Owner.f(3) == 6
    with pytest.raises(ValueError):
        Owner.f(-1)
    tr.unpatch()
    assert Owner.f is original
    assert [rec[NAME] for rec in tr.spans] == ["f.under.None", "f.under.None"]
    assert summarize(tr.spans)["f.under.None"]["counts"]["failed"] == 1
