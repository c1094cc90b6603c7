"""Timing side-channel adversary on the virtual-time event stream."""

import numpy as np
import pytest

from repro.attacks.timing import TimingSideChannel
from repro.experiments.models import paper_cnn
from repro.federated import (
    FederatedSimulation,
    FixedLatency,
    LocalTrainingConfig,
    LogNormalLatency,
    ScenarioConfig,
    SimulationConfig,
)
from repro.federated.simulation import RoundRecord


def run_sim(dataset, scenario, rounds=5, seed=0):
    config = SimulationConfig(
        rounds=rounds,
        local=LocalTrainingConfig(local_epochs=1, batch_size=32),
        clients_per_round=None,
        seed=seed,
        track_per_client_accuracy=False,
        scenario=scenario,
    )
    model_fn = lambda rng: paper_cnn(dataset.input_shape, dataset.num_classes, rng)
    return FederatedSimulation(dataset, model_fn, config).run()


def make_records(latencies_per_round):
    """Hand-built RoundRecords: list of {client: latency} dicts."""
    records = []
    clock = 0.0
    for round_index, latencies in enumerate(latencies_per_round):
        ordered = sorted(latencies.items(), key=lambda item: (item[1], item[0]))
        duration = max(latencies.values())
        records.append(
            RoundRecord(
                round_index=round_index,
                global_accuracy=0.0,
                round_start=clock,
                simulated_duration=duration,
                arrival_times=[(client, clock + latency) for client, latency in ordered],
            )
        )
        clock += duration
    return records


class TestValidation:
    def test_warmup_must_be_positive(self):
        with pytest.raises(ValueError, match="warmup_rounds"):
            TimingSideChannel(warmup_rounds=0)

    def test_predict_before_fit_raises(self):
        probe = TimingSideChannel()
        with pytest.raises(RuntimeError, match="fit"):
            probe.predict_round(make_records([{0: 1.0}])[0])

    def test_empty_stream_raises(self):
        probe = TimingSideChannel()
        with pytest.raises(ValueError, match="arrival timestamps"):
            probe.run([RoundRecord(round_index=0, global_accuracy=0.0)])

    def test_all_rounds_consumed_by_warmup_raises(self):
        probe = TimingSideChannel(warmup_rounds=2)
        with pytest.raises(ValueError, match="warm-up"):
            probe.run(make_records([{0: 1.0, 1: 2.0}] * 2))


class TestReidentification:
    def test_systematic_latency_is_fully_reidentified(self):
        """Distinct per-client constant latencies -> perfect matching."""
        latencies = {client: 1.0 + 0.5 * client for client in range(6)}
        records = make_records([latencies] * 5)
        report = TimingSideChannel(warmup_rounds=2).run(records)
        assert report.accuracy == 1.0
        assert report.random_guess == pytest.approx(1.0 / 6.0)
        assert report.advantage > 0.8
        assert report.scored_rounds == 3
        assert report.scored_arrivals == 18

    def test_permuted_arrival_order_does_not_matter(self):
        """The profile matches on latency, not on slot position."""
        base = {client: 1.0 + 0.5 * client for client in range(5)}
        records = make_records([base] * 4)
        report = TimingSideChannel(warmup_rounds=1).run(records)
        assert report.accuracy == 1.0

    def test_iid_latency_scores_near_chance(self):
        """No systematic component -> nothing to profile -> ~random guess."""
        rng = np.random.default_rng(0)
        rounds = [
            {client: float(rng.lognormal(0.0, 0.6)) for client in range(12)}
            for _ in range(12)
        ]
        report = TimingSideChannel(warmup_rounds=3).run(make_records(rounds))
        assert report.accuracy < report.random_guess + 0.25

    def test_per_round_accuracies_cover_eval_window(self):
        records = make_records([{0: 1.0, 1: 2.0}] * 6)
        report = TimingSideChannel(warmup_rounds=2).run(records)
        assert [r for r, _ in report.per_round] == [2, 3, 4, 5]
        assert all(a == 1.0 for _, a in report.per_round)


class TestOnSimulationResult:
    def test_fixed_latency_federation_is_reidentified(self, tiny_motionsense):
        ids = [c.client_id for c in tiny_motionsense.clients()]
        per_client = {client_id: 0.5 + 0.25 * i for i, client_id in enumerate(ids)}
        scenario = ScenarioConfig(latency=FixedLatency(seconds=1.0, per_client=per_client))
        result = run_sim(tiny_motionsense, scenario, rounds=4)
        report = TimingSideChannel(warmup_rounds=2).run(result)
        assert report.accuracy == 1.0
        assert report.random_guess == pytest.approx(1.0 / len(ids))

    def test_client_spread_gives_signal_over_iid(self, tiny_motionsense):
        """The systematic per-client speed factor is what leaks identity."""
        spread = ScenarioConfig(
            latency=LogNormalLatency(median=1.0, sigma=0.1, client_spread=1.0)
        )
        iid = ScenarioConfig(latency=LogNormalLatency(median=1.0, sigma=0.1))
        spread_report = TimingSideChannel(warmup_rounds=3).run(
            run_sim(tiny_motionsense, spread, rounds=8)
        )
        iid_report = TimingSideChannel(warmup_rounds=3).run(
            run_sim(tiny_motionsense, iid, rounds=8)
        )
        assert spread_report.advantage > iid_report.advantage
        # ~10x lift over the 1/24 random-assignment baseline
        assert spread_report.advantage > 0.25

    def test_default_scenario_has_no_timing_signal(self, tiny_motionsense):
        """Without a latency model every arrival lands at the round start and
        pops in client order; matching that would score a spurious 1.0."""
        result = run_sim(tiny_motionsense, ScenarioConfig(), rounds=4)
        with pytest.raises(ValueError, match="no signal"):
            TimingSideChannel(warmup_rounds=2).run(result)
