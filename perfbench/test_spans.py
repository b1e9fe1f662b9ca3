"""Span arithmetic on nested synthetic calls with known self times."""

import types

import pytest

from spans import Tracer, self_times, union_length


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert union_length([(0, 10), (2, 3)]) == 10.0


def test_nested_self_times():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.advance(2.0)

    def middle():
        clock.advance(1.0)
        leaf_w()
        clock.advance(0.5)
        leaf_w()

    def outer():
        clock.advance(3.0)
        middle_w()
        clock.advance(1.0)

    leaf_w = tracer.timed("m.leaf", leaf)
    middle_w = tracer.timed("m.middle", middle)
    outer_w = tracer.timed("m.outer", outer)
    outer_w()
    clock.advance(7.0)  # outside every span
    outer_w()

    got = self_times(tracer.spans)
    assert got == {"m.outer": 8.0, "m.middle": 3.0, "m.leaf": 8.0}
    assert tracer.counts["m.leaf.calls"] == 4
    assert tracer.counts["m.outer.calls"] == 2
    top = [(s, e) for _n, s, e, parent in tracer.spans if parent < 0]
    assert union_length(top) == sum(got.values())


def test_child_clipped_to_parent():
    spans = [["p", 0.0, 4.0, -1], ["c", 3.0, 6.0, 0]]
    assert self_times(spans) == {"p": 3.0, "c": 3.0}


def test_errors_close_spans_and_count():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.advance(1.0)
        raise KeyError("x")

    wrapped = tracer.timed("m.boom", boom, on_error=((KeyError, "m.boom.misses"),))
    with pytest.raises(KeyError):
        wrapped()
    assert tracer.counts["m.boom.misses"] == 1
    assert self_times(tracer.spans) == {"m.boom": 1.0}
    assert tracer._open == []


def test_install_restores_attributes():
    mod = types.SimpleNamespace(f=lambda: 1)
    original = mod.f
    tracer = Tracer()

    def install(tr):
        tr.patch(mod, "f", tr.counted("m.f", mod.f))

    with tracer.installed(install):
        assert mod.f() == 1
        assert mod.f is not original
    assert mod.f is original
    assert tracer.counts["m.f.calls"] == 1
