"""Unit tests for the admission gate and the per-client token bucket."""

import threading

import pytest

from repro.ha.admission import (
    ADMITTED,
    SHED_QUEUE_FULL,
    SHED_TIMEOUT,
    AdmissionGate,
    ServerLimits,
    TokenBucketLimiter,
)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestAdmissionGate:
    def test_admits_up_to_max_concurrent(self):
        gate = AdmissionGate(max_concurrent=2, max_queue=0)
        assert gate.try_acquire().admitted
        assert gate.try_acquire().admitted
        assert gate.active == 2

    def test_sheds_queue_full_without_waiting(self):
        gate = AdmissionGate(max_concurrent=1, max_queue=0, queue_timeout_s=10.0)
        gate.try_acquire()
        result = gate.try_acquire()
        assert not result.admitted
        assert result.outcome == SHED_QUEUE_FULL
        assert result.retry_after_s > 0
        assert gate.shed == {SHED_QUEUE_FULL: 1}

    def test_sheds_on_queue_timeout(self):
        gate = AdmissionGate(max_concurrent=1, max_queue=4, queue_timeout_s=0.02)
        gate.try_acquire()
        result = gate.try_acquire()
        assert result.outcome == SHED_TIMEOUT

    def test_release_admits_a_waiter(self):
        gate = AdmissionGate(max_concurrent=1, max_queue=4, queue_timeout_s=5.0)
        gate.try_acquire()
        results = []

        def waiter():
            results.append(gate.try_acquire())

        thread = threading.Thread(target=waiter)
        thread.start()
        # wait for the thread to actually enter the queue
        for _ in range(1000):
            if gate.waiting == 1:
                break
            threading.Event().wait(0.001)
        gate.release()
        thread.join(timeout=5)
        assert results and results[0].outcome == ADMITTED
        assert results[0].waited_s >= 0.0

    def test_release_without_acquire_raises(self):
        gate = AdmissionGate()
        with pytest.raises(RuntimeError):
            gate.release()

    def test_stats_and_metrics(self):
        gate = AdmissionGate(max_concurrent=1, max_queue=0)
        gate.try_acquire()
        gate.try_acquire()  # shed
        stats = gate.stats()
        assert stats["active"] == 1
        assert stats["shed_queue_full"] == 1
        from repro.obs import counter_total

        assert counter_total(gate.metrics, "admission_shed_total") == 1

    def test_drain_waits_for_active(self):
        gate = AdmissionGate(max_concurrent=2)
        gate.try_acquire()
        assert not gate.drain(timeout_s=0.01)
        gate.release()
        assert gate.drain(timeout_s=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionGate(max_concurrent=0)
        with pytest.raises(ValueError):
            AdmissionGate(max_queue=-1)
        with pytest.raises(ValueError):
            AdmissionGate(queue_timeout_s=-1)


class TestTokenBucketLimiter:
    def test_burst_then_deny(self):
        clock = FakeClock()
        limiter = TokenBucketLimiter(rate_per_s=1.0, burst=3, clock=clock)
        assert [limiter.allow("c") for _ in range(4)] == [True, True, True, False]
        assert limiter.denied == 1

    def test_refills_over_time(self):
        clock = FakeClock()
        limiter = TokenBucketLimiter(rate_per_s=2.0, burst=1, clock=clock)
        assert limiter.allow("c")
        assert not limiter.allow("c")
        clock.t += 0.5  # one token accrues at 2/s
        assert limiter.allow("c")

    def test_retry_after_is_honest(self):
        clock = FakeClock()
        limiter = TokenBucketLimiter(rate_per_s=2.0, burst=1, clock=clock)
        limiter.allow("c")
        clock.t += 0.25  # half a token accrues at 2/s
        wait = limiter.admit("c")  # the denial carries its own wait
        assert wait == pytest.approx(0.25)
        assert limiter.denied == 1
        clock.t += wait
        assert limiter.admit("c") == 0.0

    def test_clients_are_independent(self):
        clock = FakeClock()
        limiter = TokenBucketLimiter(rate_per_s=1.0, burst=1, clock=clock)
        assert limiter.allow("a")
        assert not limiter.allow("a")
        assert limiter.allow("b")

    def test_client_table_bounded(self):
        clock = FakeClock()
        limiter = TokenBucketLimiter(rate_per_s=1.0, burst=1, clock=clock, max_clients=3)
        for i in range(10):
            clock.t += 1.0
            limiter.allow(f"client-{i}")
        assert len(limiter._buckets) <= 3

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucketLimiter(rate_per_s=0)
        with pytest.raises(ValueError):
            TokenBucketLimiter(burst=0)


class TestServerLimits:
    def test_default_is_protective(self):
        limits = ServerLimits.default()
        assert limits.gate is not None
        assert limits.limiter is not None
        assert limits.max_body_bytes > 0

    def test_default_accepts_overrides(self):
        limits = ServerLimits.default(gate=None, upload_ttl_s=7.0)
        assert limits.gate is None
        assert limits.limiter is not None
        assert limits.upload_ttl_s == 7.0
