"""The injectable clock every timed code path reads (``repro.obs.clock``)."""

import pytest

from repro.obs.clock import (
    Clock,
    FakeClock,
    SystemClock,
    clock,
    now,
    reset_clock,
    set_clock,
    using_clock,
)


class TestSystemClock:
    def test_now_is_monotonic(self):
        system = SystemClock()
        readings = [system.now() for _ in range(5)]
        assert readings == sorted(readings)

    def test_protocol_base_raises(self):
        with pytest.raises(NotImplementedError):
            Clock().now()


class TestFakeClock:
    def test_starts_at_start_and_stands_still(self):
        fake = FakeClock(start=10.0)
        assert fake.now() == 10.0
        assert fake.now() == 10.0  # no drift between reads

    def test_advance_moves_the_clock(self):
        fake = FakeClock()
        fake.advance(1.5)
        assert fake.now() == pytest.approx(1.5)


class TestInstallation:
    def test_module_functions_read_the_installed_clock(self):
        fake = FakeClock(start=5.0)
        set_clock(fake)
        try:
            assert clock() is fake
            assert now() == 5.0
            fake.advance(1.0)
            assert now() == pytest.approx(6.0)
        finally:
            reset_clock()
        assert isinstance(clock(), SystemClock)

    def test_using_clock_restores_on_exit(self):
        previous = clock()
        with using_clock(FakeClock()) as fake:
            assert clock() is fake
        assert clock() is previous

    def test_using_clock_restores_on_exception(self):
        previous = clock()
        with pytest.raises(RuntimeError):
            with using_clock(FakeClock()):
                raise RuntimeError("boom")
        assert clock() is previous

    def test_using_clock_nests(self):
        outer, inner = FakeClock(start=1.0), FakeClock(start=2.0)
        with using_clock(outer):
            with using_clock(inner):
                assert now() == 2.0
            assert now() == 1.0
