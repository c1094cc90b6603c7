"""Round orchestration: configs, records, end-to-end mini-runs."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro.defenses import GaussianNoiseDefense, NoDefense
from repro.experiments.models import paper_cnn
from repro.federated import (
    FederatedSimulation,
    LocalTrainingConfig,
    ScenarioConfig,
    SimulationConfig,
)
from repro.federated.update import ModelUpdate


@pytest.fixture()
def fast_config():
    return SimulationConfig(
        rounds=2,
        local=LocalTrainingConfig(local_epochs=1, batch_size=32),
        clients_per_round=6,
        seed=0,
    )


def model_fn_for_dataset(dataset):
    return lambda rng: paper_cnn(dataset.input_shape, dataset.num_classes, rng)


class TestSimulationConfig:
    def test_round_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(rounds=0, local=LocalTrainingConfig())

    def test_defaults(self):
        config = SimulationConfig(rounds=3, local=LocalTrainingConfig())
        assert config.clients_per_round is None
        assert config.track_per_client_accuracy
        assert config.scenario == ScenarioConfig()

    def test_scenario_must_be_a_scenario_config(self):
        with pytest.raises(TypeError, match="ScenarioConfig"):
            SimulationConfig(rounds=1, local=LocalTrainingConfig(), scenario=None)

    @pytest.mark.parametrize("knob, value", [("parallelism", 8), ("scheduler", "heap")])
    def test_removed_knobs_are_rejected(self, knob, value):
        # one round loop on one scheduler: there is no thread-pool width or
        # scheduler backend left to choose
        with pytest.raises(TypeError, match=knob):
            SimulationConfig(rounds=1, local=LocalTrainingConfig(), **{knob: value})


class TestFederatedSimulation:
    def test_runs_configured_rounds(self, tiny_motionsense, fast_config):
        sim = FederatedSimulation(tiny_motionsense, model_fn_for_dataset(tiny_motionsense), fast_config)
        result = sim.run()
        assert len(result.rounds) == 2
        assert result.defense_name == "classical-fl"
        assert all(0.0 <= r.global_accuracy <= 1.0 for r in result.rounds)

    def test_client_subsampling(self, tiny_motionsense, fast_config):
        sim = FederatedSimulation(tiny_motionsense, model_fn_for_dataset(tiny_motionsense), fast_config)
        result = sim.run()
        assert all(len(round_updates) == 6 for round_updates in result.received_updates)

    def test_all_clients_when_unset(self, tiny_motionsense):
        config = SimulationConfig(rounds=1, local=LocalTrainingConfig(local_epochs=1, batch_size=64), seed=0)
        sim = FederatedSimulation(tiny_motionsense, model_fn_for_dataset(tiny_motionsense), config)
        result = sim.run()
        assert len(result.received_updates[0]) == tiny_motionsense.num_clients

    def test_per_client_accuracy_tracked(self, tiny_motionsense, fast_config):
        sim = FederatedSimulation(tiny_motionsense, model_fn_for_dataset(tiny_motionsense), fast_config)
        result = sim.run()
        per_client = result.per_client_accuracy_at(0)
        assert len(per_client) == tiny_motionsense.num_clients

    def test_per_client_accuracy_untracked_raises(self, tiny_motionsense):
        config = SimulationConfig(
            rounds=1,
            local=LocalTrainingConfig(local_epochs=1, batch_size=64),
            seed=0,
            track_per_client_accuracy=False,
        )
        sim = FederatedSimulation(tiny_motionsense, model_fn_for_dataset(tiny_motionsense), config)
        result = sim.run()
        with pytest.raises(ValueError):
            result.per_client_accuracy_at(0)
        with pytest.raises(KeyError):
            result.per_client_accuracy_at(99)

    def test_same_seed_same_curve(self, tiny_motionsense, fast_config):
        def run():
            sim = FederatedSimulation(
                tiny_motionsense, model_fn_for_dataset(tiny_motionsense), fast_config
            )
            return sim.run().accuracy_curve()

        assert run() == run()

    def test_client_selection_independent_of_defense(self, tiny_motionsense, fast_config):
        """The defense's RNG usage must not perturb which clients train."""

        def senders(defense):
            sim = FederatedSimulation(
                tiny_motionsense, model_fn_for_dataset(tiny_motionsense), fast_config, defense=defense
            )
            result = sim.run()
            return [sorted(u.sender_id for u in round_updates) for round_updates in result.received_updates]

        plain = senders(NoDefense())
        # Noisy defense consumes the defense RNG heavily but keeps senders.
        noisy = senders(GaussianNoiseDefense(sigma=0.01))
        assert plain == noisy

    def test_accuracy_curve_and_inference_curve_helpers(self, tiny_motionsense, fast_config):
        sim = FederatedSimulation(tiny_motionsense, model_fn_for_dataset(tiny_motionsense), fast_config)
        result = sim.run()
        assert len(result.accuracy_curve()) == 2
        assert result.inference_curve() == []  # no attack attached

    def test_learning_progress_over_rounds(self, tiny_motionsense):
        config = SimulationConfig(
            rounds=4, local=LocalTrainingConfig(local_epochs=2, batch_size=32), seed=0
        )
        sim = FederatedSimulation(tiny_motionsense, model_fn_for_dataset(tiny_motionsense), config)
        curve = sim.run().accuracy_curve()
        assert curve[-1] > 1.0 / tiny_motionsense.num_classes  # beats random


class TestRoundOrder:
    def test_update_order_matches_participants(self, tiny_motionsense, fast_config):
        """The default scenario merges arrivals in selection order."""
        sim = FederatedSimulation(
            tiny_motionsense, model_fn_for_dataset(tiny_motionsense), fast_config
        )
        result = sim.run()
        for round_updates in result.received_updates:
            senders = [u.sender_id for u in round_updates]
            assert senders == sorted(senders)

    def test_sharded_runs_bit_identical_to_unsharded(self, tiny_motionsense, fast_config):
        """Splitting the cohort over leaf shards must not change any round."""

        def run(num_shards):
            sim = FederatedSimulation(
                tiny_motionsense,
                model_fn_for_dataset(tiny_motionsense),
                replace(fast_config, num_shards=num_shards),
            )
            return sim.run()

        serial = run(0)
        sharded = run(3)
        for a, b in zip(serial.rounds, sharded.rounds):
            assert a.global_accuracy == b.global_accuracy
            assert a.mean_local_loss == b.mean_local_loss
            assert a.per_client_accuracy == b.per_client_accuracy
            assert a.arrival_times == b.arrival_times
        for name in serial.final_state:
            np.testing.assert_array_equal(serial.final_state[name], sharded.final_state[name])


class TestMeanLossGuard:
    def test_missing_final_loss_metadata_is_nan_without_warning(self):
        updates = [ModelUpdate(sender_id=i, round_index=0, state={}) for i in range(3)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = FederatedSimulation._mean_local_loss(updates)
        assert np.isnan(value)

    def test_nan_losses_are_excluded(self):
        updates = [
            ModelUpdate(sender_id=0, round_index=0, state={}, metadata={"final_loss": 1.0}),
            ModelUpdate(sender_id=1, round_index=0, state={}, metadata={"final_loss": float("nan")}),
            ModelUpdate(sender_id=2, round_index=0, state={}, metadata={"final_loss": 3.0}),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = FederatedSimulation._mean_local_loss(updates)
        assert value == pytest.approx(2.0)

    def test_empty_round_is_nan(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(FederatedSimulation._mean_local_loss([]))
