"""Virtual-time event scheduler: determinism, tie-breaking, bit-identity."""

import hashlib

import numpy as np
import pytest

from repro.federated import (
    FederatedSimulation,
    FixedLatency,
    LocalTrainingConfig,
    LogNormalLatency,
    RandomDropout,
    ScenarioConfig,
    SimulationConfig,
)
from repro.federated.events import (
    BufferedFlushPolicy,
    BufferFlush,
    ClientUpdateArrival,
    EventScheduler,
    RoundDeadline,
    SyncFlushPolicy,
)
from repro.experiments.models import paper_cnn


def model_fn_for_dataset(dataset):
    return lambda rng: paper_cnn(dataset.input_shape, dataset.num_classes, rng)


def run_sim(
    dataset, scenario=ScenarioConfig(), rounds=3, seed=0, clients_per_round=6, num_shards=0
):
    config = SimulationConfig(
        rounds=rounds,
        local=LocalTrainingConfig(local_epochs=1, batch_size=32),
        clients_per_round=clients_per_round,
        seed=seed,
        track_per_client_accuracy=False,
        scenario=scenario,
        num_shards=num_shards,
    )
    return FederatedSimulation(dataset, model_fn_for_dataset(dataset), config).run()


class TestEventScheduler:
    def test_pops_in_time_order(self):
        scheduler = EventScheduler()
        scheduler.schedule(ClientUpdateArrival(time=3.0, client_id=1))
        scheduler.schedule(ClientUpdateArrival(time=1.0, client_id=2))
        scheduler.schedule(ClientUpdateArrival(time=2.0, client_id=3))
        assert [scheduler.pop().client_id for _ in range(3)] == [2, 3, 1]

    def test_clock_advances_and_never_regresses(self):
        scheduler = EventScheduler()
        scheduler.schedule(ClientUpdateArrival(time=5.0, client_id=1))
        scheduler.pop()
        assert scheduler.now == 5.0
        # an event scheduled in the past pops at the current clock
        scheduler.schedule(ClientUpdateArrival(time=1.0, client_id=2))
        scheduler.pop()
        assert scheduler.now == 5.0

    def test_equal_time_arrivals_pop_in_insertion_order(self):
        """The tie-break that keeps the default scenario bit-identical to the
        legacy barrier loop: same-time arrivals come out in client order."""
        scheduler = EventScheduler()
        for client_id in (7, 3, 11, 5):
            scheduler.schedule(ClientUpdateArrival(time=0.0, client_id=client_id))
        assert [scheduler.pop().client_id for _ in range(4)] == [7, 3, 11, 5]

    def test_arrival_outranks_deadline_at_equal_time(self):
        """An update landing exactly at T is on time."""
        scheduler = EventScheduler()
        scheduler.schedule(RoundDeadline(time=2.0, round_index=0))
        scheduler.schedule(ClientUpdateArrival(time=2.0, client_id=1))
        assert isinstance(scheduler.pop(), ClientUpdateArrival)
        assert isinstance(scheduler.pop(), RoundDeadline)

    def test_flush_outranks_arrival_at_equal_time(self):
        """The K-th arrival's flush closes the round before same-instant
        arrivals from other rounds leak into the buffer."""
        scheduler = EventScheduler()
        scheduler.schedule(ClientUpdateArrival(time=2.0, client_id=1))
        scheduler.schedule(BufferFlush(time=2.0, round_index=0))
        assert isinstance(scheduler.pop(), BufferFlush)

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventScheduler().pop()

    def test_pending_arrivals_lists_only_arrivals(self):
        scheduler = EventScheduler()
        scheduler.schedule(RoundDeadline(time=1.0, round_index=0))
        scheduler.schedule(ClientUpdateArrival(time=3.0, client_id=1))
        scheduler.schedule(ClientUpdateArrival(time=2.0, client_id=2))
        pending = scheduler.pending_arrivals()
        assert [event.client_id for event in pending] == [2, 1]

    def test_heap_order_is_reproducible(self):
        """Scheduling the same events twice yields the same pop sequence."""

        def trace():
            scheduler = EventScheduler()
            for i in range(20):
                scheduler.schedule(
                    ClientUpdateArrival(time=float((i * 7) % 5), client_id=i)
                )
            scheduler.schedule(RoundDeadline(time=2.0, round_index=0))
            order = []
            while len(scheduler):
                event = scheduler.pop()
                order.append((type(event).__name__, event.time, getattr(event, "client_id", -1)))
            return order

        assert trace() == trace()


class TestFlushPolicies:
    def test_sync_waits_for_all(self):
        policy = SyncFlushPolicy()
        assert not policy.should_flush(buffered=3, outstanding=1)
        assert policy.should_flush(buffered=4, outstanding=0)

    def test_sync_with_absent_stragglers_never_flushes_early(self):
        policy = SyncFlushPolicy(expected_absent=2)
        assert not policy.should_flush(buffered=4, outstanding=0)

    def test_buffered_flushes_on_kth(self):
        policy = BufferedFlushPolicy(buffer_size=3)
        assert not policy.should_flush(buffered=2, outstanding=5)
        assert policy.should_flush(buffered=3, outstanding=4)


class TestEngineDeterminism:
    def test_default_scenario_reproduces_synchronous_flow(self, tiny_motionsense):
        """The one round loop under ``ScenarioConfig()`` reproduces the
        paper's synchronous barrier flow bit for bit.  The expected values
        were recorded from the barrier loop the event path replaced (seed 0,
        six clients per round, three rounds)."""
        result = run_sim(tiny_motionsense)
        assert result.accuracy_curve() == [0.125, 0.08333333333333333, 0.08333333333333333]
        assert [r.mean_local_loss for r in result.rounds] == [
            1.8335522611935933,
            1.7883210182189941,
            1.7725468675295513,
        ]
        digest = hashlib.sha256()
        for name, value in result.final_state.items():
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(value).tobytes())
        assert digest.hexdigest() == (
            "549ef4e430ea37a8234e9db8449c9b75c7cc356a90b2a96f7df6c00116e3b9f2"
        )
        # the (degenerate) event stream: everyone lands at the round start
        for record in result.rounds:
            assert record.simulated_duration == 0.0
            assert len(record.arrival_times) == record.num_aggregated

    @pytest.mark.parametrize(
        "scenario",
        [
            ScenarioConfig(latency=LogNormalLatency(median=1.0, sigma=0.7, client_spread=0.4)),
            ScenarioConfig(
                availability=RandomDropout(0.2),
                latency=LogNormalLatency(median=1.0, sigma=0.7),
                deadline=3.0,
            ),
            ScenarioConfig(
                availability=RandomDropout(0.2),
                latency=LogNormalLatency(median=1.0, sigma=0.7),
                deadline=3.0,
                aggregation="buffered-async",
                buffer_size=4,
            ),
        ],
        ids=["sync-full", "sync-deadline", "buffered-async"],
    )
    def test_event_stream_identical_across_shard_layouts(self, tiny_motionsense, scenario):
        """Same seed ⇒ identical event order, timestamps, and model bits
        whether the cohort trains in one piece or over leaf shards — the
        scheduler's determinism contract."""
        unsharded = run_sim(tiny_motionsense, scenario)
        sharded = run_sim(tiny_motionsense, scenario, num_shards=2)
        for a, b in zip(unsharded.rounds, sharded.rounds):
            assert a.arrival_times == b.arrival_times  # order AND timestamps
            assert a.round_start == b.round_start
            assert a.simulated_duration == b.simulated_duration
            assert a.idle_fraction == b.idle_fraction
        assert unsharded.accuracy_curve() == sharded.accuracy_curve()
        for name in unsharded.final_state:
            np.testing.assert_array_equal(
                unsharded.final_state[name], sharded.final_state[name]
            )

    def test_same_seed_same_event_trace(self, tiny_motionsense):
        scenario = ScenarioConfig(latency=LogNormalLatency(median=1.0, sigma=0.7))
        first = run_sim(tiny_motionsense, scenario)
        second = run_sim(tiny_motionsense, scenario)
        assert first.arrival_log() == second.arrival_log()

    def test_server_consumes_arrivals_in_time_order(self, tiny_motionsense):
        scenario = ScenarioConfig(latency=LogNormalLatency(median=1.0, sigma=0.7))
        result = run_sim(tiny_motionsense, scenario)
        for record in result.rounds:
            times = [t for _, t in record.arrival_times]
            assert times == sorted(times)
            # merged updates reach the defense/server in the same time order
        for round_updates, record in zip(result.received_updates, result.rounds):
            assert [u.sender_id for u in round_updates] == [c for c, _ in record.arrival_times]

    def test_wall_clock_is_contiguous_across_rounds(self, tiny_motionsense):
        scenario = ScenarioConfig(latency=LogNormalLatency(median=1.0, sigma=0.7))
        result = run_sim(tiny_motionsense, scenario)
        clock = 0.0
        for record in result.rounds:
            assert record.round_start == pytest.approx(clock)
            clock += record.simulated_duration
        assert result.total_simulated_seconds() == pytest.approx(clock)

    def test_in_transit_updates_survive_round_boundaries(self, tiny_motionsense):
        """An arrival scheduled past the flush stays in the heap and lands in
        the next round with its original timestamp."""
        ids = [c.client_id for c in tiny_motionsense.clients()]
        scenario = ScenarioConfig(
            latency=FixedLatency(seconds=1.0, per_client={ids[0]: 7.0}),
            deadline=5.0,
            aggregation="buffered-async",
            buffer_size=len(ids),
        )
        result = run_sim(tiny_motionsense, scenario, clients_per_round=None)
        # round 0 closes at its deadline (t=5) with the slow client in transit
        assert result.rounds[0].simulated_duration == 5.0
        # round 1 merges it at its true absolute arrival time t=7
        late = [entry for entry in result.rounds[1].arrival_times if entry[0] == ids[0]]
        assert late == [(ids[0], 7.0)]
        assert result.rounds[1].num_stale == 1
        # its recorded latency is the full 7 s transit from *its* broadcast,
        # not the 2 s residual wait inside round 1
        position = [c for c, _ in result.rounds[1].arrival_times].index(ids[0])
        assert result.rounds[1].merged_latencies[position] == 7.0

    def test_async_deadline_with_nothing_arrived_waits_for_first_arrival(
        self, tiny_motionsense
    ):
        """A buffered-async deadline that fires before any arrival must not
        crash the round: the server cannot aggregate nothing, so the round
        stays open and closes at the next merged arrival."""
        ids = [c.client_id for c in tiny_motionsense.clients()]
        scenario = ScenarioConfig(
            latency=FixedLatency(seconds=7.0),
            deadline=5.0,
            aggregation="buffered-async",
            buffer_size=len(ids),
        )
        result = run_sim(tiny_motionsense, scenario, clients_per_round=None, rounds=2)
        first = result.rounds[0]
        # the round lapsed its t=5 deadline and closed at the first t=7
        # arrival (the flush outranks the simultaneous remainder)
        assert first.simulated_duration == 7.0
        assert first.num_aggregated == 1
        # the rest stayed in transit and merged next round, one round stale
        assert result.rounds[1].num_stale == len(ids) - 1

    def test_effective_throughput_and_idle_are_measured(self, tiny_motionsense):
        ids = [c.client_id for c in tiny_motionsense.clients()]
        scenario = ScenarioConfig(latency=FixedLatency(seconds=2.0), deadline=8.0)
        result = run_sim(tiny_motionsense, scenario, clients_per_round=None)
        for record in result.rounds:
            # everyone arrives at t+2, round closes there: zero idle time
            assert record.simulated_duration == 2.0
            assert record.idle_fraction == 0.0
            assert record.effective_throughput == pytest.approx(len(ids) / 2.0)
