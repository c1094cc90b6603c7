"""Calendar queue vs the binary-heap reference: bit-identical by property test.

The calendar/ladder backend earns its O(1) amortized pop only if it is
*exactly* the heap — same ``(time, priority, seq)`` total order, same
counters, same scans, same pickled checkpoints.  These tests drive both
backends through randomized event streams (and through full simulations)
and require equality everywhere.
"""

import pickle

import numpy as np
import pytest

from repro.defenses import NoDefense
from repro.experiments.models import model_fn_for
from repro.federated import (
    AdversaryConfig,
    BufferFlush,
    CalendarQueue,
    ClientUpdateArrival,
    EventScheduler,
    FaultConfig,
    FederatedSimulation,
    LocalTrainingConfig,
    LogNormalLatency,
    RandomDropout,
    RoundDeadline,
    ScenarioConfig,
    SimulationConfig,
    TransmissionFailure,
)
from repro.utils.rng import rng_from_seed


def random_event(rng, time):
    """One random event of any of the four kinds at the given timestamp."""
    kind = rng.integers(4)
    if kind == 0:
        return ClientUpdateArrival(
            time=time, client_id=int(rng.integers(100)), origin_round=int(rng.integers(5))
        )
    if kind == 1:
        return TransmissionFailure(
            time=time, client_id=int(rng.integers(100)), attempt=int(rng.integers(3))
        )
    if kind == 2:
        return RoundDeadline(time=time, round_index=int(rng.integers(5)))
    return BufferFlush(time=time, round_index=int(rng.integers(5)))


def assert_same_state(heap, calendar):
    """Every observable of the two backends must agree."""
    assert len(heap) == len(calendar)
    assert heap.now == calendar.now
    assert heap.pending_arrival_count() == calendar.pending_arrival_count()
    assert heap.in_flight_count() == calendar.in_flight_count()
    assert heap.pending_arrivals() == calendar.pending_arrivals()
    assert heap.in_flight_payloads() == calendar.in_flight_payloads()
    assert heap.peek() == calendar.peek()


class TestCalendarMatchesHeap:
    @pytest.mark.parametrize("seed", range(20))
    def test_interleaved_stream_pops_identical_trace(self, seed):
        """Random schedule/pop/advance/pickle interleavings, tight widths so
        every structure (run, overflow heap, fine buckets, coarse ladder)
        gets exercised."""
        rng = rng_from_seed(seed)
        heap = EventScheduler()
        calendar = CalendarQueue(bucket_width=0.1, spill_factor=4, horizon=8)
        for _ in range(400):
            action = rng.random()
            if action < 0.5 or len(heap) == 0:
                # Bias times toward the recent past/near future so inserts
                # land behind the promotion frontier (overflow heap), inside
                # the fine window, and out on the ladder.
                time = heap.now + float(rng.choice([-0.05, 0.0, 0.05, 0.5, 3.0, 100.0]))
                event = random_event(rng, max(0.0, time))
                heap.schedule(event)
                calendar.schedule(event)
            elif action < 0.9:
                assert heap.pop() == calendar.pop()
            elif action < 0.95:
                delta = float(rng.random())
                heap.advance(delta)
                calendar.advance(delta)
            else:
                # Checkpointing pickles the scheduler wholesale mid-stream.
                heap = pickle.loads(pickle.dumps(heap))
                calendar = pickle.loads(pickle.dumps(calendar))
            assert_same_state(heap, calendar)
        while len(heap):
            assert heap.pop() == calendar.pop()
        assert_same_state(heap, calendar)

    def test_equal_timestamp_pileup_pops_in_priority_then_seq_order(self):
        """10k events at the same instant: flushes first, then arrivals and
        failures in insertion order, then deadlines — on both backends."""
        heap = EventScheduler()
        calendar = CalendarQueue(bucket_width=0.25)
        rng = rng_from_seed(7)
        for _ in range(10_000):
            event = random_event(rng, 5.0)
            heap.schedule(event)
            calendar.schedule(event)
        trace = []
        while len(heap):
            event = heap.pop()
            assert calendar.pop() == event
            trace.append(event.priority)
        assert trace == sorted(trace)

    def test_bucket_boundary_times_never_invert(self):
        """Regression: an event at exactly the promoted bucket's boundary
        (where ``int(t // width)`` lands one epoch early, e.g. ``2.5 // 0.1``)
        must pop in (time, priority, seq) order, not behind the run."""
        heap = EventScheduler()
        calendar = CalendarQueue(bucket_width=0.1)
        first = ClientUpdateArrival(time=2.5, client_id=0)
        heap.schedule(first)
        calendar.schedule(first)
        assert heap.pop() == calendar.pop()  # promotes the 2.5 bucket
        flush = BufferFlush(time=2.5, round_index=0)
        late = ClientUpdateArrival(time=2.5, client_id=1)
        for event in (late, flush):
            heap.schedule(event)
            calendar.schedule(event)
        # The flush outranks the equal-time arrival on both backends.
        assert heap.pop() == calendar.pop() == flush
        assert heap.pop() == calendar.pop() == late

    def test_far_future_ladder_spill_and_explode(self):
        """Events far beyond the fine horizon ride the coarse ladder and
        still drain in exact order."""
        heap = EventScheduler()
        calendar = CalendarQueue(bucket_width=0.5, spill_factor=8, horizon=4)
        rng = rng_from_seed(3)
        times = rng.uniform(0.0, 10_000.0, size=2_000)
        for time in times:
            event = random_event(rng, float(time))
            heap.schedule(event)
            calendar.schedule(event)
        while len(heap):
            assert heap.pop() == calendar.pop()

    def test_empty_pop_raises_on_both(self):
        for scheduler in (EventScheduler(), CalendarQueue()):
            with pytest.raises(IndexError, match="empty event scheduler"):
                scheduler.pop()
            assert scheduler.peek() is None

    def test_clock_never_runs_backwards(self):
        for scheduler in (EventScheduler(), CalendarQueue()):
            scheduler.schedule(ClientUpdateArrival(time=5.0, client_id=0))
            scheduler.pop()
            scheduler.schedule(ClientUpdateArrival(time=1.0, client_id=1))
            scheduler.pop()
            assert scheduler.now == 5.0
            with pytest.raises(ValueError, match="backwards"):
                scheduler.advance(-1.0)


class TestCalendarValidation:
    def test_calendar_parameter_validation(self):
        with pytest.raises(ValueError, match="bucket_width"):
            CalendarQueue(bucket_width=0.0)
        with pytest.raises(ValueError, match="spill_factor"):
            CalendarQueue(spill_factor=1)
        with pytest.raises(ValueError, match="horizon"):
            CalendarQueue(horizon=0)


SCENARIOS = {
    "sync-deadline": ScenarioConfig(
        availability=RandomDropout(0.2),
        latency=LogNormalLatency(median=1.0, sigma=0.8),
        deadline=3.0,
    ),
    "buffered-async": ScenarioConfig(
        latency=LogNormalLatency(median=1.0, sigma=1.0),
        aggregation="buffered-async",
        buffer_size=3,
    ),
    "quorum-faults-adversary": ScenarioConfig(
        latency=LogNormalLatency(median=1.0, sigma=0.6),
        faults=FaultConfig(
            client_crash_rate=0.05,
            frame_corruption_rate=0.1,
            quorum_fraction=0.75,
            backoff_base=0.2,
        ),
        adversary=AdversaryConfig(fraction=0.2, kind="sign-flip"),
    ),
}


def record_trace(result):
    """The observable event-stream signature of a run: everything a timing
    adversary or a metrics table could tell apart."""
    return [
        (
            r.round_index,
            r.round_start,
            r.simulated_duration,
            r.global_accuracy,
            r.num_aggregated,
            r.num_stale,
            r.num_carried_forward,
            tuple(r.arrival_times),
            tuple(r.merged_latencies),
        )
        for r in result.rounds
    ]


class TestFullSimulationBackendIdentity:
    def run(self, dataset, scenario, scheduler=None, rounds=3, num_shards=0):
        """Run a simulation, on the heap reference when ``scheduler`` is an
        :class:`EventScheduler` substituted for the built-in calendar queue."""
        config = SimulationConfig(
            rounds=rounds,
            local=LocalTrainingConfig(local_epochs=1, batch_size=32),
            clients_per_round=6,
            seed=11,
            track_per_client_accuracy=False,
            scenario=scenario,
            num_shards=num_shards,
        )
        sim = FederatedSimulation(dataset, model_fn_for(dataset), config, defense=NoDefense())
        assert isinstance(sim._scheduler, CalendarQueue)
        if scheduler is not None:
            sim._scheduler = scheduler
        return sim.run()

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_backends_are_bit_identical(self, tiny_motionsense, name):
        heap = self.run(tiny_motionsense, SCENARIOS[name], EventScheduler())
        calendar = self.run(tiny_motionsense, SCENARIOS[name])
        assert record_trace(heap) == record_trace(calendar)
        for key in heap.final_state:
            np.testing.assert_array_equal(heap.final_state[key], calendar.final_state[key])

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_backends_identical_when_sharded(self, tiny_motionsense, name):
        heap = self.run(tiny_motionsense, SCENARIOS[name], EventScheduler(), num_shards=2)
        calendar = self.run(tiny_motionsense, SCENARIOS[name], num_shards=2)
        assert record_trace(heap) == record_trace(calendar)

    def test_checkpoint_resume_is_bit_identical_on_calendar(self, tiny_motionsense):
        scenario = SCENARIOS["buffered-async"]
        straight = self.run(tiny_motionsense, scenario, rounds=4)

        config = SimulationConfig(
            rounds=4,
            local=LocalTrainingConfig(local_epochs=1, batch_size=32),
            clients_per_round=6,
            seed=11,
            track_per_client_accuracy=False,
            scenario=scenario,
        )
        first = FederatedSimulation(
            tiny_motionsense, model_fn_for(tiny_motionsense), config, defense=NoDefense()
        )
        for _ in range(2):
            first._records.append(first.run_round())
        blob = first.checkpoint()
        resumed = FederatedSimulation(
            tiny_motionsense, model_fn_for(tiny_motionsense), config, defense=NoDefense()
        )
        resumed.restore_checkpoint(blob)
        result = resumed.run()
        assert record_trace(result) == record_trace(straight)
        for key in result.final_state:
            np.testing.assert_array_equal(result.final_state[key], straight.final_state[key])
