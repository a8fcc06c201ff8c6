"""Tests for retry, circuit breaking, degraded reads and engine hygiene."""

import random
import threading

import numpy as np
import pytest

from repro.fault.breaker import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    CircuitBreaker,
)
from repro.fault.device import FaultRule, FaultyBlockDevice, InjectedIOError
from repro.fault.retry import Retrier, RetryPolicy
from repro.service.engine import (
    STATUS_DEGRADED,
    STATUS_ERROR,
    STATUS_OK,
    EngineClosedError,
    AdmissionError,
    QueryEngine,
)
from repro.service.queries import (
    CustomQuery,
    PointQuery,
    RangeSumQuery,
    execute_query,
    execute_query_degraded,
    DegradedValue,
    query_weight_bound,
)
from repro.storage.iostats import IOStats
from repro.storage.journal import JournaledDevice
from repro.storage.tiled import TiledStandardStore
from repro.transform.chunked import transform_standard_chunked


def _store(shape=(16, 16), pool_capacity=64, wrap=None, stats=None):
    data = np.random.default_rng(11).normal(size=shape)
    store = TiledStandardStore(
        shape, block_edge=4, pool_capacity=pool_capacity, stats=stats
    )
    if wrap is not None:
        store.tile_store.wrap_device(wrap)
    transform_standard_chunked(store, data, (8, 8))
    store.flush()
    store.drop_cache()
    return store, data


class TestRetryPolicy:
    def test_delay_grows_and_caps(self):
        policy = RetryPolicy(
            base_delay_s=0.01, multiplier=2.0, max_delay_s=0.05, jitter=0.0
        )
        rng = random.Random(0)
        delays = [policy.delay_for(a, rng) for a in range(1, 6)]
        assert delays == [0.01, 0.02, 0.04, 0.05, 0.05]

    def test_jitter_stays_in_band_and_replays(self):
        policy = RetryPolicy(base_delay_s=0.01, jitter=0.5, seed=3)
        a = [policy.delay_for(1, random.Random(3)) for __ in range(5)]
        b = [policy.delay_for(1, random.Random(3)) for __ in range(5)]
        assert a == b
        for delay in a:
            assert 0.005 <= delay <= 0.015

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


class TestRetrier:
    def test_transient_failure_retried_to_success(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise InjectedIOError("flaky")
            return "done"

        slept = []
        retrier = Retrier(
            RetryPolicy(max_attempts=4, jitter=0.0, base_delay_s=0.01),
            sleep=slept.append,
        )
        assert retrier.call(flaky) == "done"
        assert retrier.retries == 2
        assert slept == [0.01, 0.02]

    def test_exhaustion_raises_last_error(self):
        retrier = Retrier(
            RetryPolicy(max_attempts=3, base_delay_s=0.0),
            sleep=lambda _: None,
        )
        with pytest.raises(InjectedIOError):
            retrier.call(lambda: (_ for _ in ()).throw(InjectedIOError("x")))
        assert retrier.gave_up == 1
        assert retrier.retries == 2

    def test_non_retryable_propagates_immediately(self):
        calls = {"n": 0}

        def bug():
            calls["n"] += 1
            raise ValueError("bug, not transient")

        retrier = Retrier(RetryPolicy(max_attempts=5), sleep=lambda _: None)
        with pytest.raises(ValueError):
            retrier.call(bug)
        assert calls["n"] == 1


class TestCircuitBreaker:
    def test_trips_after_threshold_and_half_opens(self):
        clock = {"t": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=3, reset_timeout_s=10.0, clock=lambda: clock["t"]
        )
        assert breaker.state == STATE_CLOSED
        for __ in range(3):
            assert breaker.allow()
            breaker.on_failure()
        assert breaker.state == STATE_OPEN
        assert not breaker.allow()  # shedding
        clock["t"] = 11.0
        assert breaker.allow()  # half-open probe
        assert breaker.state == STATE_HALF_OPEN
        breaker.on_success()
        assert breaker.state == STATE_CLOSED

    def test_half_open_failure_reopens(self):
        clock = {"t": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=5.0, clock=lambda: clock["t"]
        )
        breaker.on_failure()
        assert breaker.state == STATE_OPEN
        clock["t"] = 6.0
        assert breaker.allow()
        breaker.on_failure()  # the probe failed
        assert breaker.state == STATE_OPEN
        assert breaker.opens == 2

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.on_failure()
        breaker.on_success()
        breaker.on_failure()
        assert breaker.state == STATE_CLOSED


class TestDegradedQueries:
    def test_broken_block_yields_bounded_answer(self):
        stats = IOStats()
        faulty = {}

        def wrap(device):
            faulty["dev"] = FaultyBlockDevice(device)
            return JournaledDevice(faulty["dev"])

        store, data = _store(wrap=wrap, stats=stats)
        # Break a materialised block permanently.
        victim = next(iter(store.tile_store.directory().values()))
        faulty["dev"].broken_blocks.add(victim)
        store.drop_cache()

        query = PointQuery((5, 5))
        outcome = execute_query_degraded(store, query)
        if isinstance(outcome, DegradedValue):
            truth = float(data[5, 5])
            assert outcome.error_bound >= 0.0
            assert np.isfinite(outcome.error_bound)
            assert abs(outcome.value - truth) <= outcome.error_bound + 1e-9
            assert victim in outcome.missing_blocks
        else:
            # The point's root path happened to avoid the broken block;
            # then the answer must simply be exact.
            assert np.isclose(outcome, data[5, 5])

    def test_range_sum_bound_holds(self):
        stats = IOStats()
        faulty = {}

        def wrap(device):
            faulty["dev"] = FaultyBlockDevice(device)
            return JournaledDevice(faulty["dev"])

        store, data = _store(wrap=wrap, stats=stats)
        query = RangeSumQuery((0, 0), (15, 15))
        truth = float(data.sum())
        # Break every block: the degraded answer must still be bounded.
        for block_id in store.tile_store.directory().values():
            faulty["dev"].broken_blocks.add(block_id)
        store.drop_cache()
        outcome = execute_query_degraded(store, query)
        assert isinstance(outcome, DegradedValue)
        assert np.isfinite(outcome.error_bound)
        assert abs(outcome.value - truth) <= outcome.error_bound + 1e-9

    def test_degraded_zeros_never_cached(self):
        """After the fault clears, reads see true data, not the zeros."""
        faulty = {}

        def wrap(device):
            faulty["dev"] = FaultyBlockDevice(device)
            return JournaledDevice(faulty["dev"])

        store, data = _store(wrap=wrap)
        victim = next(iter(store.tile_store.directory().values()))
        faulty["dev"].broken_blocks.add(victim)
        store.drop_cache()
        execute_query_degraded(store, RangeSumQuery((0, 0), (15, 15)))
        faulty["dev"].broken_blocks.clear()  # fault heals
        value = execute_query(store, PointQuery((5, 5)))
        assert np.isclose(value, data[5, 5])

    def test_cache_only_reads_no_blocks(self):
        store, data = _store(wrap=JournaledDevice)
        query = RangeSumQuery((1, 2), (13, 9))
        truth = float(data[1:14, 2:10].sum())
        before = store.stats.snapshot()
        outcome = execute_query_degraded(store, query, cache_only=True)
        delta = store.stats.delta_since(before)
        assert isinstance(outcome, DegradedValue)
        assert delta.block_reads == 0
        assert delta.cache_misses == len(outcome.missing_blocks)
        assert np.isfinite(outcome.error_bound)
        assert abs(outcome.value - truth) <= outcome.error_bound
        # Refused misses installed no frames: a normal pass reads them
        # once, after which a cache-only pass is exact.
        warm = execute_query(store, query)
        before = store.stats.snapshot()
        again = execute_query_degraded(store, query, cache_only=True)
        assert not isinstance(again, DegradedValue)
        assert again == warm
        assert store.stats.delta_since(before).block_reads == 0

    def test_weight_bounds(self):
        store, __ = _store()
        assert query_weight_bound(store, PointQuery((1, 1))) == 1.0
        bound = query_weight_bound(store, RangeSumQuery((0, 0), (15, 15)))
        assert np.isfinite(bound) and bound >= 1.0
        assert query_weight_bound(
            store, CustomQuery(lambda s: 0)
        ) == float("inf")


class TestSelfHealingEngine:
    def test_transient_faults_retried_to_exact_answers(self):
        faulty = {}

        def wrap(device):
            faulty["dev"] = FaultyBlockDevice(
                device, seed=9, read_error_rate=0.15
            )
            return faulty["dev"]

        store, data = _store(wrap=wrap)
        engine = QueryEngine(
            store,
            num_workers=2,
            retry_policy=RetryPolicy(
                max_attempts=6, base_delay_s=0.0001, seed=1
            ),
            degraded_reads=True,
        )
        try:
            positions = [(i, j) for i in range(0, 16, 3) for j in range(0, 16, 3)]
            results = [engine.run(PointQuery(p)) for p in positions]
        finally:
            engine.close()
        assert faulty["dev"].fault_counts()["read_error"] > 0
        wrong = 0
        for position, result in zip(positions, results):
            truth = float(data[position])
            if result.ok:
                if not np.isclose(result.value, truth, atol=1e-9):
                    wrong += 1
            elif result.degraded:
                if abs(result.value - truth) > result.error_bound + 1e-9:
                    wrong += 1
            else:
                pytest.fail(f"unexpected status {result.status}")
        assert wrong == 0

    def test_persistent_fault_degrades_with_bound(self):
        faulty = {}

        def wrap(device):
            faulty["dev"] = FaultyBlockDevice(device)
            return JournaledDevice(faulty["dev"])

        store, data = _store(wrap=wrap)
        for block_id in store.tile_store.directory().values():
            faulty["dev"].broken_blocks.add(block_id)
        store.drop_cache()
        engine = QueryEngine(
            store,
            num_workers=2,
            retry_policy=RetryPolicy(max_attempts=2, base_delay_s=0.0),
            degraded_reads=True,
        )
        try:
            result = engine.run(PointQuery((3, 3)))
        finally:
            engine.close()
        assert result.status == STATUS_DEGRADED
        assert result.error_bound is not None
        assert abs(result.value - data[3, 3]) <= result.error_bound + 1e-9
        assert engine.metrics.counter("queries_degraded").value == 1

    def test_breaker_sheds_after_consecutive_failures(self):
        faulty = {}

        def wrap(device):
            faulty["dev"] = FaultyBlockDevice(device)
            return faulty["dev"]

        store, __ = _store(wrap=wrap)
        for block_id in store.tile_store.directory().values():
            faulty["dev"].broken_blocks.add(block_id)
        store.drop_cache()
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout_s=60.0)
        engine = QueryEngine(
            store, num_workers=1, breaker=breaker, degraded_reads=False
        )
        try:
            for __ in range(4):
                result = engine.run(PointQuery((3, 3)))
                assert result.status == STATUS_ERROR
        finally:
            engine.close()
        assert breaker.state == STATE_OPEN
        assert breaker.shed > 0
        snapshot = engine.snapshot()
        assert snapshot["breaker"]["state"] == STATE_OPEN
        assert snapshot["faults"]["read_error"] > 0
        assert engine.metrics.counter("queries_shed").value > 0

    def test_fault_free_resilient_engine_matches_plain(self):
        """Retry + breaker + degraded reads, zero faults: bit-identical
        answers and identical IOStats to the plain engine."""

        def serve(resilient):
            stats = IOStats()
            store, __ = _store(stats=stats)
            kwargs = {}
            if resilient:
                kwargs = {
                    "retry_policy": RetryPolicy(),
                    "breaker": CircuitBreaker(),
                    "degraded_reads": True,
                }
            engine = QueryEngine(store, num_workers=2, **kwargs)
            try:
                queries = [
                    PointQuery((i, j))
                    for i in range(0, 16, 5)
                    for j in range(0, 16, 5)
                ] + [RangeSumQuery((0, 0), (7, 7))]
                batch = engine.execute_batch(queries)
            finally:
                engine.close()
            values = tuple(
                float(np.asarray(r.value).sum()) for r in batch.results
            )
            statuses = tuple(r.status for r in batch.results)
            return values, statuses, stats.snapshot()

        plain_v, plain_s, plain_io = serve(resilient=False)
        res_v, res_s, res_io = serve(resilient=True)
        assert plain_v == res_v
        assert plain_s == res_s == tuple([STATUS_OK] * len(plain_s))
        assert plain_io == res_io


class TestEngineHygiene:
    def test_poisoned_query_never_hangs_or_kills_worker(self):
        store, data = _store()
        engine = QueryEngine(store, num_workers=1)
        try:
            def buggy(_store):
                raise ZeroDivisionError("query bug")

            bad = engine.run(CustomQuery(buggy))
            assert bad.status == STATUS_ERROR
            assert "query bug" in bad.error
            # The sole worker must still be alive and serving.
            good = engine.run(PointQuery((2, 2)))
            assert good.ok and np.isclose(good.value, data[2, 2])
        finally:
            engine.close()

    def test_submit_after_close_raises_typed_error(self):
        store, __ = _store()
        engine = QueryEngine(store, num_workers=1)
        engine.close()
        with pytest.raises(EngineClosedError):
            engine.submit(PointQuery((0, 0)))
        with pytest.raises(AdmissionError):  # subclass relationship
            engine.submit(PointQuery((0, 0)))
        with pytest.raises(RuntimeError):  # seed compatibility
            engine.execute_batch([PointQuery((0, 0))])

    def test_close_is_idempotent_and_concurrent_safe(self):
        store, __ = _store()
        engine = QueryEngine(store, num_workers=2)
        submissions = [engine.submit(PointQuery((i, i))) for i in range(8)]
        errors = []

        def closer():
            try:
                engine.close()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=closer) for __ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        engine.close()  # and once more for idempotence
        assert not errors
        # Every in-flight query got a definite result.
        for submission in submissions:
            result = submission.result(timeout=5.0)
            assert result.status in (STATUS_OK, STATUS_ERROR)
        assert engine.closed


class TestJournalIOStatsDelta:
    def test_journal_delta_is_exactly_groups_plus_records(self):
        """Fault-free runs with the journal enabled keep every seed
        counter identical and add exactly D+1 journal writes per
        group-committed flush of D blocks."""

        def run(journaled):
            stats = IOStats()
            groups = []
            if journaled:
                def wrap(device):
                    journal_device = JournaledDevice(device)
                    groups.append(journal_device)
                    return journal_device

                store, data = _store(stats=stats, wrap=wrap)
            else:
                store, data = _store(stats=stats)
            # A query wave after the load exercises reads too.
            from repro.service.queries import execute_query

            for i in range(0, 16, 4):
                execute_query(store, PointQuery((i, i)))
            store.flush()
            return stats.snapshot(), store

        plain, plain_store = run(journaled=False)
        journaled, journal_store = run(journaled=True)
        for field in (
            "block_reads",
            "block_writes",
            "coefficient_reads",
            "coefficient_writes",
            "cache_hits",
            "cache_misses",
        ):
            assert getattr(plain, field) == getattr(journaled, field), field
        assert plain.journal_writes == 0
        # The bulk load flushed all tiles in one group; the documented
        # delta is (blocks flushed + 1 commit record) per group.
        flushed_blocks = journal_store.tile_store.device.inner.num_blocks
        assert journaled.journal_writes == flushed_blocks + 1
        np.testing.assert_array_equal(
            plain_store.tile_store.device.dump_blocks(),
            journal_store.tile_store.device.dump_blocks(),
        )
