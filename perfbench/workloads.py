"""The three benchmark workloads: each builds one real ``FederatedSimulation``.

Every input is a pure function of the workload seed: the dataset, the model
initialisation, cohort selection, the MixNN proxy's mixing draws and the ∇Sim
adversary's RNG.  Only the enclave's RSA key is fresh per build; it never
reaches the aggregate.  All load comes from one process.  ``run.py`` pins the
BLAS pools to one thread before numpy loads; the sharded workload adds two
worker processes and the MixNN decrypt pool its default thread count.

Why each workload exists, and which layer each one stresses, is recorded in
``perfbench/README.md`` and in ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

__all__ = ["Workload", "WORKLOADS"]


@dataclass(frozen=True)
class Workload:
    """A simulation factory plus the output checks its runs must pass."""

    name: str
    build: Callable  # (seed, rounds) -> FederatedSimulation, not yet run
    #: learning rounds per episode, the first of which is the warm-up
    rounds: int
    #: ``final_accuracy`` must reach this (3x chance for the task)
    accuracy_floor: float
    #: ∇Sim cumulative accuracy must stay at or below this (``None`` = no
    #: adversary attached); undefended, the same attack reaches 1.0
    attack_ceiling: float | None = None


def _paper_cifar10_mixnn(seed: int, rounds: int):
    """The paper's experiment: ``run_scheme("cifar10", "mixnn", "ci")``'s
    wiring with a passive ∇Sim observer on the server."""
    from repro.attacks import GradSimAttack
    from repro.experiments.common import make_defense
    from repro.experiments.config import build_experiment
    from repro.experiments.models import model_fn_for
    from repro.federated import FederatedSimulation
    from repro.utils.rng import rng_from_seed, stable_seed

    dataset, params = build_experiment("cifar10", scale="ci", seed=seed)
    model_fn = model_fn_for(dataset)
    attack = GradSimAttack(
        background_clients=dataset.background_clients(),
        model_fn=model_fn,
        config=params.local_config(),
        rng=rng_from_seed(stable_seed(seed, "attack")),
        mode="passive",
        attack_epochs=params.attack_epochs,
    )
    return FederatedSimulation(
        dataset,
        model_fn,
        params.simulation_config(seed=seed, rounds=rounds),
        defense=make_defense("mixnn", params, seed=seed),
        attack=attack,
    )


def _population(seed: int):
    from repro.data.population import SyntheticPopulation
    from repro.experiments.models import model_fn_for

    dataset = SyntheticPopulation(
        population_size=100_000, num_features=16, num_classes=4, seed=seed
    )
    return dataset, model_fn_for(dataset)


def _population_config(seed: int, rounds: int, cohort: int, **plane):
    from repro.federated import LocalTrainingConfig, SimulationConfig

    # lr 0.05 is the rate the linear probe learns at: ~0.8 accuracy after
    # four rounds, 1.0 by about round eleven (lr 1e-3 stays at chance).
    return SimulationConfig(
        rounds=rounds,
        local=LocalTrainingConfig(local_epochs=1, batch_size=8, learning_rate=0.05),
        clients_per_round=cohort,
        seed=seed,
        track_per_client_accuracy=False,
        retain_received_updates=False,
        cohort_batching=True,
        **plane,
    )


def _population_mixnn_256(seed: int, rounds: int):
    from repro.defenses import MixNNDefense
    from repro.federated import FederatedSimulation
    from repro.utils.rng import rng_from_seed, stable_seed

    dataset, model_fn = _population(seed)
    return FederatedSimulation(
        dataset,
        model_fn,
        _population_config(seed, rounds, cohort=256),
        defense=MixNNDefense(k=None, rng=rng_from_seed(stable_seed(seed, "mixnn-proxy"))),
    )


def _population_sharded_median_1024(seed: int, rounds: int):
    from repro.federated import FederatedSimulation

    dataset, model_fn = _population(seed)
    return FederatedSimulation(
        dataset,
        model_fn,
        _population_config(
            seed,
            rounds,
            cohort=1024,
            num_shards=2,
            shard_backend="process",
            aggregation="median",
        ),
    )


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "paper-cifar10-mixnn",
            _paper_cifar10_mixnn,
            rounds=13,
            accuracy_floor=0.3,
            attack_ceiling=0.7,
        ),
        Workload(
            "population-mixnn-256", _population_mixnn_256, rounds=13, accuracy_floor=0.75
        ),
        Workload(
            "population-sharded-median-1024",
            _population_sharded_median_1024,
            rounds=41,
            accuracy_floor=0.75,
        ),
    )
}
