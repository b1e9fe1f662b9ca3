"""Scaling of timed pieces by the reference samples that bracket them."""

import pytest

import speed


class FakeHost:
    """A clock that only moves when told to, and reference samples that
    take the given durations in turn."""

    def __init__(self, ref_times):
        self.now = 0.0
        self.ref_times = list(ref_times)

    def clock(self):
        return self.now

    def reference_sample(self):
        took = self.ref_times.pop(0)
        self.now += took
        return took


@pytest.fixture
def host(monkeypatch):
    def make(ref_times):
        fake = FakeHost(ref_times)
        monkeypatch.setattr(speed, "clock", fake.clock)
        monkeypatch.setattr(speed, "reference_sample", fake.reference_sample)
        return fake
    return make


def test_pieces_scaled_by_bracketing_references(host):
    nominal = speed.REF_NOMINAL_S
    every = speed.REF_EVERY_S
    # half speed for the first two samples, then nominal speed
    fake = host([2 * nominal, 2 * nominal, nominal])
    meter = speed.Meter()
    meter.start()
    fake.now += 0.4 * every
    meter.lap()                    # below REF_EVERY_S: no sample yet
    fake.now += 0.8 * every
    meter.lap()                    # past it: the second sample runs here
    fake.now += 0.4 * every
    meter.lap()
    scaled = meter.stop()          # the third sample closes the last piece
    assert [took for took, _ in meter.pieces] == pytest.approx(
        [0.4 * every, 0.8 * every, 0.4 * every])
    assert meter.raw_total == pytest.approx(1.6 * every)
    assert scaled == pytest.approx([0.2 * every, 0.4 * every, 0.4 * every * 2 / 3])
    assert fake.ref_times == []


def test_stop_without_pending_work_takes_no_extra_sample(host):
    nominal = speed.REF_NOMINAL_S
    fake = host([nominal, nominal])
    meter = speed.Meter()
    meter.start()
    fake.now += 2 * speed.REF_EVERY_S
    meter.lap()                    # takes the closing sample
    assert meter.stop() == pytest.approx([2 * speed.REF_EVERY_S])
    assert len(meter.refs) == 2


def test_reference_work_is_fixed():
    assert speed.reference_work() == speed.reference_work()
