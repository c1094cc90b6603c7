"""Extension experiments beyond the paper's figures.

Three studies DESIGN.md §6 commits to:

* :func:`run_defense_comparison` — all five defenses (classical FL, noisy
  gradient, MixNN, secure aggregation, DP clip-and-noise) on one dataset,
  scoring utility and active-∇Sim privacy side by side.  This renders the
  paper's §1 argument ("secure aggregation protects but needs the server's
  cooperation; perturbation protects but costs utility; MixNN costs neither")
  as a measured table.
* :func:`run_passive_vs_active` — §5's two adversary modes head-to-head.
* :func:`run_relink_robustness` — §6.4 as an *attack* rather than a census: a
  malicious server tries to re-link mixed layer pieces using its reference
  models; near-chance piece accuracy confirms the paper's robustness claim.

Plus the scenario-engine study this reproduction adds beyond the paper:

* :func:`run_scenario_comparison` — the same dataset under realistic client
  churn (10–30 % per-round dropout) with three round-closure schemes:
  synchronous wait-for-all-survivors, synchronous with a straggler deadline,
  and FedBuff-style staleness-weighted buffered-async aggregation.  Scores
  final utility against wall-clock cost, idle fraction, and throughput as
  *measured* on the virtual-time event stream, and runs the
  :class:`~repro.attacks.timing.TimingSideChannel` adversary on the same
  stream — the attack surface the round-closure policy itself creates.
* :func:`run_deadline_throughput_frontier` — the deadline/buffer knob sweep
  behind the scenario comparison: how much measured wall-clock time does each
  closure policy trade for how much final accuracy.
* :func:`run_dirichlet_churn_matrix` — Dirichlet(α) label skew crossed with
  churn models (random dropout, outage traces): does non-IID data amplify
  the damage of losing clients?
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..attacks import GradSimAttack, RelinkAttack, build_reference_states
from ..defenses import (
    ClipAndNoiseDefense,
    GaussianNoiseDefense,
    MixNNDefense,
    NoDefense,
    SecureAggregationDefense,
)
from ..federated import FederatedSimulation
from ..utils.rng import rng_from_seed, stable_seed
from .config import build_experiment
from .models import model_fn_for
from .reporting import format_table

__all__ = [
    "DefenseComparisonRow",
    "run_defense_comparison",
    "run_passive_vs_active",
    "run_relink_robustness",
    "ScenarioComparisonRow",
    "SCENARIO_SCHEMES",
    "make_scenario",
    "run_scenario_comparison",
    "render_scenario_comparison",
    "FrontierRow",
    "FRONTIER_DEADLINES",
    "FRONTIER_BUFFER_FRACTIONS",
    "frontier_points",
    "frontier_row",
    "run_deadline_throughput_frontier",
    "render_frontier",
    "DirichletChurnCell",
    "CHURN_MODES",
    "run_dirichlet_churn_matrix",
    "render_dirichlet_churn_matrix",
    "ChaosRow",
    "CHAOS_PROXY_CRASH_RATES",
    "run_chaos",
    "render_chaos",
    "ByzantineRow",
    "BYZANTINE_FRACTIONS",
    "BYZANTINE_RULES",
    "run_byzantine_comparison",
    "render_byzantine_comparison",
    "PopulationRow",
    "POPULATION_SCALES",
    "run_population_study",
    "render_population",
    "ShardedRow",
    "SHARDED_SHARD_COUNTS",
    "SHARDED_CRASH_RATES",
    "run_sharded_comparison",
    "render_sharded",
    "CohortRow",
    "COHORT_SIZES",
    "run_cohort_study",
    "render_cohort",
]

#: The extended defense roster (name -> factory taking the params object).
EXTENDED_DEFENSES = {
    "classical-fl": lambda params, seed: NoDefense(),
    "noisy-gradient": lambda params, seed: GaussianNoiseDefense(sigma=params.noise_sigma),
    "mixnn": lambda params, seed: MixNNDefense(
        rng=rng_from_seed(stable_seed(seed, "mixnn-proxy"))
    ),
    "secure-aggregation": lambda params, seed: SecureAggregationDefense(),
    # clip_norm is chosen to actually bind on these models' update deltas so
    # the defense is a distinct point from the plain noisy-gradient baseline.
    "dp-clip-noise": lambda params, seed: ClipAndNoiseDefense(clip_norm=0.2, noise_multiplier=0.3),
}


@dataclass
class DefenseComparisonRow:
    """One defense's (utility, privacy) outcome."""

    defense: str
    final_accuracy: float
    mean_inference: float
    random_guess: float

    @property
    def leakage(self) -> float:
        return self.mean_inference - self.random_guess


def _attacked_run(dataset_name, defense_factory, scale, seed, rounds, mode="active"):
    dataset, params = build_experiment(dataset_name, scale=scale, seed=seed)
    model_fn = model_fn_for(dataset)
    attack = GradSimAttack(
        background_clients=dataset.background_clients(),
        model_fn=model_fn,
        config=params.local_config(),
        rng=rng_from_seed(stable_seed(seed, "attack")),
        mode=mode,
        attack_epochs=params.attack_epochs,
    )
    simulation = FederatedSimulation(
        dataset,
        model_fn,
        params.simulation_config(seed=seed, rounds=rounds),
        defense=defense_factory(params, seed),
        attack=attack,
    )
    return simulation.run(), dataset


def run_defense_comparison(
    dataset_name: str = "motionsense",
    scale: str = "ci",
    seed: int = 0,
    rounds: int = 5,
) -> list[DefenseComparisonRow]:
    """Score every defense on (final accuracy, mean inference accuracy)."""
    rows: list[DefenseComparisonRow] = []
    for name, factory in EXTENDED_DEFENSES.items():
        result, dataset = _attacked_run(dataset_name, factory, scale, seed, rounds)
        rows.append(
            DefenseComparisonRow(
                defense=name,
                final_accuracy=result.accuracy_curve()[-1],
                mean_inference=float(np.mean(result.inference_values())),
                random_guess=dataset.random_guess_accuracy,
            )
        )
    return rows


def render_defense_comparison(rows: list[DefenseComparisonRow]) -> str:
    header = ["defense", "final accuracy", "mean inference", "leakage above guess"]
    body = [
        [row.defense, round(row.final_accuracy, 3), round(row.mean_inference, 3), round(row.leakage, 3)]
        for row in rows
    ]
    return format_table(header, body)


def run_passive_vs_active(
    dataset_name: str = "motionsense",
    scale: str = "ci",
    seed: int = 0,
    rounds: int = 5,
) -> dict[str, list[float]]:
    """∇Sim's two modes on classical FL (the §5 comparison)."""
    curves: dict[str, list[float]] = {}
    for mode in ("passive", "active"):
        result, _ = _attacked_run(dataset_name, EXTENDED_DEFENSES["classical-fl"], scale, seed, rounds, mode=mode)
        curves[mode] = result.inference_values()
    return curves


@dataclass
class ScenarioComparisonRow:
    """One round-closure scheme's outcome under client churn.

    Durations, idle fractions, and throughput are *measured* on the
    virtual-time event stream; ``timing_attack`` is the arrival-order
    re-identification accuracy of the
    :class:`~repro.attacks.timing.TimingSideChannel` adversary on the same
    stream (``nan`` when the run is too short to profile and score).
    """

    scheme: str
    final_accuracy: float
    mean_round_duration: float
    mean_aggregated: float
    total_stale: int
    total_stragglers: int
    total_seconds: float = 0.0
    mean_idle_fraction: float = 0.0
    effective_throughput: float = 0.0
    timing_attack: float = float("nan")
    timing_guess: float = float("nan")

    @property
    def accuracy_per_second(self) -> float:
        """Final accuracy per simulated second of round time (efficiency)."""
        if self.mean_round_duration <= 0:
            return float("inf")
        return self.final_accuracy / self.mean_round_duration

    @property
    def timing_advantage(self) -> float:
        """Timing adversary's lift over random assignment."""
        return self.timing_attack - self.timing_guess


#: The compared round-closure schemes, in presentation order.
SCENARIO_SCHEMES: tuple[str, ...] = ("sync-full", "sync-deadline", "buffered-async")


def make_scenario(
    scheme: str,
    dropout: float,
    cohort: int,
    deadline: float = 2.5,
    staleness_alpha: float = 0.5,
    buffer_fraction: float = 0.6,
    latency_median: float = 1.0,
    straggler_fraction: float = 0.15,
    client_spread: float = 0.35,
):
    """Build the :class:`ScenarioConfig` for one round-closure scheme.

    All three share the same churn (``dropout``) and latency distribution
    (log-normal, median ``latency_median`` s, a ``straggler_fraction`` heavy
    tail, and a systematic per-client speed spread — real fleets mix fast and
    slow devices, which is also what gives the timing side channel its
    signal), so the schemes differ only in *when the server closes the
    round*:

    * ``"sync-full"`` waits for every surviving client (round time = slowest
      survivor — the straggler tail dominates);
    * ``"sync-deadline"`` closes at ``deadline`` simulated seconds whenever a
      straggler is still outstanding;
    * ``"buffered-async"`` closes on the ``buffer_fraction · cohort``-th
      arrival and folds late updates into later rounds, down-weighted by
      ``(1 + staleness) ** -alpha``.
    """
    from ..federated.scenario import LogNormalLatency, RandomDropout, ScenarioConfig

    availability = RandomDropout(dropout) if dropout > 0 else None
    latency = LogNormalLatency(
        median=latency_median,
        sigma=0.5,
        straggler_fraction=straggler_fraction,
        straggler_multiplier=8.0,
        client_spread=client_spread,
    )
    if scheme == "sync-full":
        return ScenarioConfig(availability=availability, latency=latency)
    if scheme == "sync-deadline":
        return ScenarioConfig(availability=availability, latency=latency, deadline=deadline)
    if scheme == "buffered-async":
        return ScenarioConfig(
            availability=availability,
            latency=latency,
            aggregation="buffered-async",
            buffer_size=max(1, int(round(buffer_fraction * cohort))),
            staleness_alpha=staleness_alpha,
        )
    raise KeyError(f"unknown scenario scheme {scheme!r}; choose from {SCENARIO_SCHEMES}")


def _timing_report(result, rounds: int):
    """Run the timing side channel if the run is long enough to warm up."""
    if rounds < 2:
        return None
    from ..attacks.timing import TimingSideChannel

    probe = TimingSideChannel(warmup_rounds=max(1, min(2, rounds - 1)))
    return probe.run(result)


def run_scenario_comparison(
    dataset_name: str = "motionsense",
    scale: str = "ci",
    seed: int = 0,
    rounds: int = 5,
    dropout: float = 0.2,
    deadline: float = 2.5,
    buffer_fraction: float = 0.6,
    staleness_alpha: float = 0.5,
    latency_median: float = 1.0,
    straggler_fraction: float = 0.15,
    schemes: tuple[str, ...] = SCENARIO_SCHEMES,
) -> list[ScenarioComparisonRow]:
    """Compare the three round-closure schemes under client churn.

    ``dropout`` is the per-(client, round) churn probability — the ISSUE's
    operating band is 10–30 %.  Client selection, training RNGs, and the
    churn/latency draws are all shared across schemes (pure functions of
    ``(seed, client_id, round)``), so the rows differ only in round-closure
    policy.  ``schemes`` restricts the comparison (the CLI's ``--scheme``).
    """
    from dataclasses import replace as dc_replace

    rows: list[ScenarioComparisonRow] = []
    for scheme in schemes:
        dataset, params = build_experiment(dataset_name, scale=scale, seed=seed)
        model_fn = model_fn_for(dataset)
        cohort = params.clients_per_round or dataset.num_clients
        config = dc_replace(
            params.simulation_config(seed=seed, rounds=rounds),
            scenario=make_scenario(
                scheme,
                dropout,
                cohort,
                deadline=deadline,
                staleness_alpha=staleness_alpha,
                buffer_fraction=buffer_fraction,
                latency_median=latency_median,
                straggler_fraction=straggler_fraction,
            ),
        )
        result = FederatedSimulation(dataset, model_fn, config).run()
        durations = [r.simulated_duration for r in result.rounds]
        timing = _timing_report(result, rounds)
        rows.append(
            ScenarioComparisonRow(
                scheme=scheme,
                final_accuracy=result.accuracy_curve()[-1],
                mean_round_duration=float(np.mean(durations)),
                mean_aggregated=float(np.mean([r.num_aggregated for r in result.rounds])),
                total_stale=int(sum(r.num_stale for r in result.rounds)),
                total_stragglers=int(sum(r.num_stragglers for r in result.rounds)),
                total_seconds=result.total_simulated_seconds(),
                mean_idle_fraction=result.mean_idle_fraction(),
                effective_throughput=result.effective_throughput(),
                timing_attack=timing.accuracy if timing else float("nan"),
                timing_guess=timing.random_guess if timing else float("nan"),
            )
        )
    return rows


def render_scenario_comparison(rows: list[ScenarioComparisonRow]) -> str:
    header = [
        "scheme",
        "final accuracy",
        "mean round secs",
        "mean merged/round",
        "stale",
        "stragglers",
        "idle frac",
        "merged/sec",
        "timing attack",
        "timing guess",
    ]
    body = [
        [
            row.scheme,
            round(row.final_accuracy, 3),
            round(row.mean_round_duration, 2),
            round(row.mean_aggregated, 1),
            row.total_stale,
            row.total_stragglers,
            round(row.mean_idle_fraction, 3),
            round(row.effective_throughput, 2),
            round(row.timing_attack, 3),
            round(row.timing_guess, 3),
        ]
        for row in rows
    ]
    return format_table(header, body)


# ----------------------------------------------------------------------
# Deadline-vs-throughput frontier (measured on the event stream)
# ----------------------------------------------------------------------
#: default knob sweeps, shared with the ``deadline_throughput_frontier``
#: benchmark rows so snapshots and reports never drift apart
FRONTIER_DEADLINES: tuple[float, ...] = (1.5, 2.5, 4.0)
FRONTIER_BUFFER_FRACTIONS: tuple[float, ...] = (0.4, 0.6, 0.8)


@dataclass
class FrontierRow:
    """One (scheme, knob) point on the deadline-vs-throughput frontier."""

    scheme: str
    knob: str
    final_accuracy: float
    total_seconds: float
    effective_throughput: float
    mean_idle_fraction: float

    @property
    def accuracy_per_second(self) -> float:
        if self.total_seconds <= 0:
            return float("inf")
        return self.final_accuracy / self.total_seconds

    def as_row(self) -> dict:
        return {
            "scheme": self.scheme,
            "knob": self.knob,
            "final_accuracy": self.final_accuracy,
            "total_simulated_seconds": self.total_seconds,
            "merged_per_simulated_sec": self.effective_throughput,
            "mean_idle_fraction": self.mean_idle_fraction,
        }


def frontier_points(
    deadlines: tuple[float, ...] = FRONTIER_DEADLINES,
    buffer_fractions: tuple[float, ...] = FRONTIER_BUFFER_FRACTIONS,
) -> list[tuple[str, str, dict]]:
    """The swept ``(scheme, knob label, make_scenario overrides)`` points."""
    points: list[tuple[str, str, dict]] = [("sync-full", "-", {})]
    points += [
        ("sync-deadline", f"deadline={value:g}s", {"deadline": value}) for value in deadlines
    ]
    points += [
        ("buffered-async", f"buffer={value:g}", {"buffer_fraction": value})
        for value in buffer_fractions
    ]
    return points


def frontier_row(scheme: str, knob: str, result) -> FrontierRow:
    """Score one finished scenario run as a frontier point."""
    from ..metrics.latency import summarize_round_timing

    timing = summarize_round_timing(result.rounds)
    return FrontierRow(
        scheme=scheme,
        knob=knob,
        final_accuracy=result.accuracy_curve()[-1],
        total_seconds=timing.total_seconds,
        effective_throughput=timing.effective_throughput,
        mean_idle_fraction=timing.mean_idle_fraction,
    )


def run_deadline_throughput_frontier(
    dataset_name: str = "motionsense",
    scale: str = "ci",
    seed: int = 0,
    rounds: int = 5,
    dropout: float = 0.2,
    deadlines: tuple[float, ...] = FRONTIER_DEADLINES,
    buffer_fractions: tuple[float, ...] = FRONTIER_BUFFER_FRACTIONS,
    staleness_alpha: float = 0.5,
    latency_median: float = 1.0,
    straggler_fraction: float = 0.15,
) -> list[FrontierRow]:
    """Sweep the round-closure knobs and *measure* the resulting frontier.

    One sync-full anchor, one sync-deadline point per ``deadline``, one
    buffered-async point per ``buffer fraction`` — identical churn/latency
    draws throughout, so every row is the same workload under a different
    closure policy.  Durations and throughput come from the virtual-time
    event stream (flush timestamps), not from analytic formulas: this is the
    deadline-vs-throughput tradeoff the scenario engine previously could
    only infer.
    """
    from dataclasses import replace as dc_replace

    rows: list[FrontierRow] = []
    for scheme, knob, overrides in frontier_points(deadlines, buffer_fractions):
        dataset, params = build_experiment(dataset_name, scale=scale, seed=seed)
        model_fn = model_fn_for(dataset)
        cohort = params.clients_per_round or dataset.num_clients
        config = dc_replace(
            params.simulation_config(seed=seed, rounds=rounds),
            scenario=make_scenario(
                scheme,
                dropout,
                cohort,
                staleness_alpha=staleness_alpha,
                latency_median=latency_median,
                straggler_fraction=straggler_fraction,
                **overrides,
            ),
        )
        result = FederatedSimulation(dataset, model_fn, config).run()
        rows.append(frontier_row(scheme, knob, result))
    return rows


def render_frontier(rows: list[FrontierRow]) -> str:
    header = [
        "scheme",
        "knob",
        "final accuracy",
        "total secs",
        "merged/sec",
        "idle frac",
        "acc/sec",
    ]
    body = [
        [
            row.scheme,
            row.knob,
            round(row.final_accuracy, 3),
            round(row.total_seconds, 2),
            round(row.effective_throughput, 2),
            round(row.mean_idle_fraction, 3),
            round(row.accuracy_per_second, 4),
        ]
        for row in rows
    ]
    return format_table(header, body)


# ----------------------------------------------------------------------
# Dirichlet × churn matrix: does non-IID amplify dropout damage?
# ----------------------------------------------------------------------
#: churn models crossed with each Dirichlet α, in presentation order
CHURN_MODES: tuple[str, ...] = ("none", "dropout", "outage-trace")


@dataclass
class DirichletChurnCell:
    """One (α, churn mode) cell of the non-IID × churn matrix."""

    alpha: float
    churn: str
    final_accuracy: float
    mean_aggregated: float

    @property
    def label(self) -> str:
        return f"α={self.alpha:g}/{self.churn}"


def _churn_availability(mode: str, dropout: float, client_ids: list[int], rounds: int):
    """The availability model for one churn mode of the matrix."""
    from ..federated.scenario import ChurnTrace, RandomDropout

    if mode == "none":
        return None
    if mode == "dropout":
        return RandomDropout(dropout)
    if mode == "outage-trace":
        # Deterministic rotating outage: each round a different third of the
        # fleet is offline — the worst case for heavy label skew, where one
        # missing client can remove a class from the round entirely.
        trace = {}
        for round_index in range(rounds):
            trace[round_index] = [
                client_id
                for position, client_id in enumerate(sorted(client_ids))
                if position % 3 != round_index % 3
            ]
        return ChurnTrace(trace)
    raise KeyError(f"unknown churn mode {mode!r}; choose from {CHURN_MODES}")


def run_dirichlet_churn_matrix(
    dataset_name: str = "motionsense",
    scale: str = "ci",
    seed: int = 0,
    rounds: int = 4,
    alphas: tuple[float, ...] = (10.0, 0.3),
    dropout: float = 0.3,
) -> list[DirichletChurnCell]:
    """Cross Dirichlet(α) label skew with churn models.

    For each ``alpha`` the base dataset is re-partitioned with
    :class:`~repro.data.DirichletReshard` (large α ≈ IID, small α = heavy
    skew) and run under each churn mode of :data:`CHURN_MODES` with identical
    training seeds.  Comparing the per-α accuracy *drop* between the
    ``none`` column and the churn columns answers the ROADMAP question: does
    non-IID data amplify dropout damage?
    """
    from dataclasses import replace as dc_replace

    from ..data import DirichletReshard
    from ..federated.scenario import ScenarioConfig

    cells: list[DirichletChurnCell] = []
    for alpha in alphas:
        base, params = build_experiment(dataset_name, scale=scale, seed=seed)
        dataset = DirichletReshard(base, alpha=alpha, seed=seed)
        model_fn = model_fn_for(dataset)
        client_ids = [c.client_id for c in dataset.clients()]
        for mode in CHURN_MODES:
            availability = _churn_availability(mode, dropout, client_ids, rounds)
            config = dc_replace(
                params.simulation_config(seed=seed, rounds=rounds),
                scenario=ScenarioConfig(availability=availability),
            )
            result = FederatedSimulation(dataset, model_fn, config).run()
            cells.append(
                DirichletChurnCell(
                    alpha=alpha,
                    churn=mode,
                    final_accuracy=result.accuracy_curve()[-1],
                    mean_aggregated=float(
                        np.mean([r.num_aggregated for r in result.rounds])
                    ),
                )
            )
    return cells


def churn_damage(cells: list[DirichletChurnCell]) -> dict[float, dict[str, float]]:
    """Accuracy drop vs the no-churn column, per ``(alpha, churn mode)``."""
    by_alpha: dict[float, dict[str, DirichletChurnCell]] = {}
    for cell in cells:
        by_alpha.setdefault(cell.alpha, {})[cell.churn] = cell
    damage: dict[float, dict[str, float]] = {}
    for alpha, row in by_alpha.items():
        baseline = row["none"].final_accuracy
        damage[alpha] = {
            mode: baseline - cell.final_accuracy
            for mode, cell in row.items()
            if mode != "none"
        }
    return damage


def render_dirichlet_churn_matrix(cells: list[DirichletChurnCell]) -> str:
    header = ["alpha", "churn", "final accuracy", "mean merged/round", "damage vs no-churn"]
    damage = churn_damage(cells)
    body = [
        [
            f"{cell.alpha:g}",
            cell.churn,
            round(cell.final_accuracy, 3),
            round(cell.mean_aggregated, 1),
            "-" if cell.churn == "none" else round(damage[cell.alpha][cell.churn], 3),
        ]
        for cell in cells
    ]
    lines = [format_table(header, body)]
    alphas = sorted(damage)
    if len(alphas) >= 2:
        skewed, iid = alphas[0], alphas[-1]
        worst_skewed = max(damage[skewed].values())
        worst_iid = max(damage[iid].values())
        amplified = worst_skewed > worst_iid
        lines.append(
            f"non-IID (α={skewed:g}) worst-case churn damage {worst_skewed:+.3f} vs "
            f"IID-ish (α={iid:g}) {worst_iid:+.3f} — "
            + ("non-IID amplifies dropout damage" if amplified else "no amplification observed")
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Chaos study: the round pipeline under seeded fault injection
# ----------------------------------------------------------------------
#: default proxy-crash sweep, shared with the ``fault_recovery`` benchmark
#: rows so snapshots and reports never drift apart
CHAOS_PROXY_CRASH_RATES: tuple[float, ...] = (0.0, 0.05, 0.2)


@dataclass
class ChaosRow:
    """One fault-rate operating point of the chaos sweep.

    ``final_accuracy`` and ``effective_throughput`` say what the faults cost;
    the ledger columns (``injected = retried + failed_over + discarded`` by
    construction) say what the fault plane did about them; the recovery
    percentiles say how long one fault took to absorb.
    """

    proxy_crash_rate: float
    frame_corruption_rate: float
    final_accuracy: float
    mean_aggregated: float
    effective_throughput: float
    total_faults: int
    total_retries: int
    failed_over: int
    discarded: int
    retransmissions: int
    recovery_p50_seconds: float
    recovery_p99_seconds: float
    carried_forward: int

    def as_row(self) -> dict:
        return {
            "proxy_crash_rate": self.proxy_crash_rate,
            "frame_corruption_rate": self.frame_corruption_rate,
            "final_accuracy": round(self.final_accuracy, 4),
            "mean_aggregated": round(self.mean_aggregated, 2),
            "merged_per_s": round(self.effective_throughput, 4),
            "faults": self.total_faults,
            "retries": self.total_retries,
            "failed_over": self.failed_over,
            "discarded": self.discarded,
            "retransmissions": self.retransmissions,
            "recovery_p50_s": round(self.recovery_p50_seconds, 4),
            "recovery_p99_s": round(self.recovery_p99_seconds, 4),
            "carried_forward": self.carried_forward,
        }


def run_chaos(
    dataset_name: str = "motionsense",
    scale: str = "ci",
    seed: int = 0,
    rounds: int = 4,
    dropout: float = 0.1,
    proxy_crash_rates: tuple[float, ...] = CHAOS_PROXY_CRASH_RATES,
    frame_corruption_rate: float = 0.05,
    client_crash_rate: float = 0.0,
    enclave_failure_rate: float = 0.0,
    quorum_fraction: float = 0.7,
    max_attempts: int = 4,
    hop_timeout: float | None = None,
    latency_median: float = 1.0,
) -> list[ChaosRow]:
    """Sweep proxy-crash rates through a full MixNN round pipeline.

    Every row runs the same seeded workload (selection, training, churn, and
    latency draws are pure functions of ``(seed, client, round)``) under the
    MixNN defense with the fault plane armed, varying only the proxy-crash
    probability — so accuracy/throughput deltas between rows are attributable
    to the faults and their recovery, nothing else.  Frame corruption is held
    at ``frame_corruption_rate`` across all rows (including the 0-crash row:
    that row measures the transport-retry floor, not a fault-free baseline).
    Each run's ledger is validated (injected == retried + failed-over +
    discarded) before its row is emitted.
    """
    from dataclasses import replace as dc_replace

    from ..federated.faults import FaultConfig
    from ..metrics.latency import summarize_round_timing

    rows: list[ChaosRow] = []
    for crash_rate in proxy_crash_rates:
        dataset, params = build_experiment(dataset_name, scale=scale, seed=seed)
        model_fn = model_fn_for(dataset)
        cohort = params.clients_per_round or dataset.num_clients
        faults = FaultConfig(
            client_crash_rate=client_crash_rate,
            frame_corruption_rate=frame_corruption_rate,
            enclave_failure_rate=enclave_failure_rate,
            proxy_crash_rate=crash_rate,
            quorum_fraction=quorum_fraction,
            max_attempts=max_attempts,
            hop_timeout=hop_timeout,
        )
        scenario = dc_replace(
            make_scenario("sync-full", dropout, cohort, latency_median=latency_median),
            faults=faults,
        )
        config = dc_replace(
            params.simulation_config(seed=seed, rounds=rounds),
            scenario=scenario,
        )
        result = FederatedSimulation(
            dataset,
            model_fn,
            config,
            defense=MixNNDefense(rng=rng_from_seed(stable_seed(seed, "mixnn-proxy"))),
        ).run()
        result.fault_ledger.validate()
        timing = summarize_round_timing(result.rounds)
        ledger = result.fault_ledger
        rows.append(
            ChaosRow(
                proxy_crash_rate=crash_rate,
                frame_corruption_rate=frame_corruption_rate,
                final_accuracy=result.accuracy_curve()[-1],
                mean_aggregated=float(np.mean([r.num_aggregated for r in result.rounds])),
                effective_throughput=timing.effective_throughput,
                total_faults=ledger.injected,
                total_retries=timing.total_retries,
                failed_over=ledger.failed_over,
                discarded=ledger.discarded,
                retransmissions=ledger.retransmissions,
                recovery_p50_seconds=timing.recovery_p50_seconds,
                recovery_p99_seconds=timing.recovery_p99_seconds,
                carried_forward=int(sum(r.num_carried_forward for r in result.rounds)),
            )
        )
    return rows


def render_chaos(rows: list[ChaosRow]) -> str:
    header = [
        "proxy crash",
        "frame corrupt",
        "final accuracy",
        "mean merged/round",
        "merged/sec",
        "faults",
        "retries",
        "failed over",
        "discarded",
        "retransmits",
        "recovery p50 s",
        "recovery p99 s",
        "carried",
    ]
    body = [
        [
            f"{row.proxy_crash_rate:g}",
            f"{row.frame_corruption_rate:g}",
            round(row.final_accuracy, 3),
            round(row.mean_aggregated, 1),
            round(row.effective_throughput, 2),
            row.total_faults,
            row.total_retries,
            row.failed_over,
            row.discarded,
            row.retransmissions,
            round(row.recovery_p50_seconds, 3),
            round(row.recovery_p99_seconds, 3),
            row.carried_forward,
        ]
        for row in rows
    ]
    lines = [format_table(header, body)]
    if len(rows) >= 2:
        base, worst = rows[0], rows[-1]
        if base.effective_throughput > 0:
            slowdown = 1.0 - worst.effective_throughput / base.effective_throughput
            lines.append(
                f"throughput at {worst.proxy_crash_rate:g} proxy-crash is "
                f"{slowdown:+.1%} below the {base.proxy_crash_rate:g}-crash row; "
                f"accuracy delta {worst.final_accuracy - base.final_accuracy:+.3f} "
                "(every ledger balanced: injected == retried + failed-over + discarded)"
            )
    return "\n".join(lines)


#: Attacker fractions the Byzantine comparison sweeps (0 = clean baseline).
BYZANTINE_FRACTIONS: tuple[float, ...] = (0.0, 0.1, 0.3)

#: Aggregation policies the Byzantine comparison scores against plain mean.
BYZANTINE_RULES: tuple[str, ...] = ("mean", "median", "trimmed", "norm_filter", "krum", "multi-krum")


@dataclass
class ByzantineRow:
    """One (rule × attacker-fraction × defense) cell of the Byzantine sweep.

    ``accuracy_drop`` is measured against the same (rule, defense) pair's
    clean (fraction-0) run, so it isolates what the *poison* cost, not what
    the robust rule itself costs on honest updates.  The ledger columns obey
    ``injected == merged + filtered + rejected`` (validated per run), and
    ``transcript_verify_ms`` is the measured cost of re-walking the full
    hash-chained round transcript — the audit overhead the integrity layer
    charges.
    """

    rule: str
    attacker_fraction: float
    defense: str
    final_accuracy: float
    accuracy_drop: float
    injected: int
    merged: int
    filtered: int
    rejected: int
    attack_success_rate: float
    filter_precision: float
    filter_recall: float
    transcript_verify_ms: float

    def as_row(self) -> dict:
        return {
            "rule": self.rule,
            "attacker_fraction": self.attacker_fraction,
            "defense": self.defense,
            "final_accuracy": round(self.final_accuracy, 4),
            "accuracy_drop": round(self.accuracy_drop, 4),
            "injected": self.injected,
            "merged": self.merged,
            "filtered": self.filtered,
            "rejected": self.rejected,
            "attack_success_rate": round(self.attack_success_rate, 4),
            "filter_precision": round(self.filter_precision, 4),
            "filter_recall": round(self.filter_recall, 4),
            "transcript_verify_ms": round(self.transcript_verify_ms, 4),
        }


def run_byzantine_comparison(
    dataset_name: str = "motionsense",
    scale: str = "ci",
    seed: int = 0,
    rounds: int = 3,
    attack: str = "sign-flip",
    attack_scale: float = 100.0,
    fractions: tuple[float, ...] = BYZANTINE_FRACTIONS,
    rules: tuple[str, ...] = BYZANTINE_RULES,
    defenses: tuple[str, ...] = ("none", "mixnn"),
    replay_rate: float = 0.0,
    dropout: float = 0.0,
) -> list[ByzantineRow]:
    """Score every aggregation policy against a poisoning adversary.

    The full cross of ``rules × fractions × defenses``, every cell the same
    seeded workload (selection, training, and attacker activation are pure
    functions of ``(seed, client, round)``) so accuracy deltas between cells
    are attributable to the poison and the policy, nothing else.  Fraction
    ``0.0`` rows are the clean baselines the per-rule ``accuracy_drop``
    is measured against (and double as the zero-adversary bit-identity
    witnesses: their adversary plane is armed but silent).  Each run
    validates its adversary ledger and verifies its round transcript before
    the row is emitted — a row in the output *is* a passed audit.
    """
    import time
    from dataclasses import replace as dc_replace

    from ..federated.adversary import AdversaryConfig
    from ..metrics.robustness import summarize_robustness

    rows: list[ByzantineRow] = []
    baselines: dict[tuple[str, str], float] = {}
    ordered_fractions = sorted(set(fractions))
    for defense_name in defenses:
        for rule in rules:
            for fraction in ordered_fractions:
                dataset, params = build_experiment(dataset_name, scale=scale, seed=seed)
                model_fn = model_fn_for(dataset)
                cohort = params.clients_per_round or dataset.num_clients
                adversary = AdversaryConfig(
                    fraction=fraction,
                    kind=attack,
                    scale=attack_scale,
                    replay_rate=replay_rate if fraction > 0 else 0.0,
                )
                scenario = dc_replace(
                    make_scenario("sync-full", dropout, cohort),
                    adversary=adversary,
                )
                config = dc_replace(
                    params.simulation_config(seed=seed, rounds=rounds),
                    scenario=scenario,
                    aggregation=rule,
                )
                defense = (
                    MixNNDefense(rng=rng_from_seed(stable_seed(seed, "mixnn-proxy")))
                    if defense_name == "mixnn"
                    else NoDefense()
                )
                result = FederatedSimulation(dataset, model_fn, config, defense=defense).run()
                baseline = baselines.get((defense_name, rule))
                summary = summarize_robustness(result, baseline_accuracy=baseline)
                start = time.perf_counter()
                result.transcript.verify()
                verify_ms = (time.perf_counter() - start) * 1e3
                if fraction == 0.0:
                    baselines[(defense_name, rule)] = summary.final_accuracy
                rows.append(
                    ByzantineRow(
                        rule=rule,
                        attacker_fraction=fraction,
                        defense=defense_name,
                        final_accuracy=summary.final_accuracy,
                        accuracy_drop=summary.accuracy_drop,
                        injected=summary.injected,
                        merged=summary.merged,
                        filtered=summary.filtered,
                        rejected=summary.rejected,
                        attack_success_rate=summary.attack_success_rate,
                        filter_precision=summary.filter_precision,
                        filter_recall=summary.filter_recall,
                        transcript_verify_ms=verify_ms,
                    )
                )
    return rows


def render_byzantine_comparison(rows: list[ByzantineRow]) -> str:
    header = [
        "rule",
        "attackers",
        "defense",
        "final accuracy",
        "accuracy drop",
        "injected",
        "merged",
        "filtered",
        "rejected",
        "attack success",
        "filter precision",
        "filter recall",
        "verify ms",
    ]
    body = [
        [
            row.rule,
            f"{row.attacker_fraction:g}",
            row.defense,
            round(row.final_accuracy, 3),
            round(row.accuracy_drop, 3),
            row.injected,
            row.merged,
            row.filtered,
            row.rejected,
            round(row.attack_success_rate, 3),
            round(row.filter_precision, 3),
            round(row.filter_recall, 3),
            round(row.transcript_verify_ms, 3),
        ]
        for row in rows
    ]
    lines = [format_table(header, body)]
    worst_fraction = max((r.attacker_fraction for r in rows), default=0.0)
    if worst_fraction > 0:
        at_worst = [r for r in rows if r.attacker_fraction == worst_fraction]
        mean_rows = [r for r in at_worst if r.rule == "mean"]
        robust = [r for r in at_worst if r.rule != "mean"]
        if mean_rows and robust:
            best = max(robust, key=lambda r: r.final_accuracy)
            lines.append(
                f"at {worst_fraction:.0%} attackers, plain mean merges "
                f"{mean_rows[0].merged}/{mean_rows[0].injected} poisons "
                f"(accuracy drop {mean_rows[0].accuracy_drop:+.3f}); best robust rule "
                f"{best.rule!r} holds at accuracy {best.final_accuracy:.3f} "
                f"(attack success {best.attack_success_rate:.0%}); every ledger and "
                "transcript verified"
            )
    return "\n".join(lines)


def run_relink_robustness(
    dataset_name: str = "motionsense",
    scale: str = "ci",
    seed: int = 0,
    rounds: int = 2,
):
    """The §6.4 re-linking adversary against actual mixed updates.

    Runs one MixNN round, builds the adversary's reference models from the
    broadcast, and measures how often a per-layer classification of the mixed
    pieces recovers each piece's true source attribute.
    """
    dataset, params = build_experiment(dataset_name, scale=scale, seed=seed)
    model_fn = model_fn_for(dataset)
    simulation = FederatedSimulation(
        dataset,
        model_fn,
        params.simulation_config(seed=seed, rounds=rounds),
        defense=MixNNDefense(rng=rng_from_seed(stable_seed(seed, "mixnn-proxy"))),
    )
    result = simulation.run()
    mixed_updates = result.received_updates[-1]
    # The broadcast those updates refined is the previous round's aggregate;
    # recover it the way the adversary would: re-aggregate the prior round.
    from ..federated.update import aggregate_updates

    previous = result.received_updates[-2] if rounds >= 2 else mixed_updates
    broadcast_state = aggregate_updates(previous)
    references = build_reference_states(
        broadcast_state,
        dataset.background_clients(),
        model_fn,
        params.local_config(),
        rng_from_seed(stable_seed(seed, "relink")),
        attack_epochs=params.attack_epochs,
    )
    truth = {c.client_id: c.attribute for c in dataset.clients()}
    attack = RelinkAttack(references, broadcast_state)
    report = attack.run(mixed_updates, true_attributes=truth)
    return report, dataset


# ----------------------------------------------------------------------
# Population-scale engine study (million-client lazy federation)
# ----------------------------------------------------------------------
#: default (population size, clients per round) per runner scale
POPULATION_SCALES = {"ci": (100_000, 1_000), "paper": (1_000_000, 10_000)}


@dataclass
class PopulationRow:
    """One population-scale round measurement."""

    population_size: int
    clients_per_round: int
    rounds: int
    wall_seconds: float
    trained_clients_per_sec: float
    peak_materialized: int
    peak_traced_mb: float
    final_accuracy: float


def run_population_study(
    scale: str = "ci",
    seed: int = 0,
    rounds: int = 1,
    population_size: int | None = None,
    clients_per_round: int | None = None,
    alpha: float | None = None,
) -> PopulationRow:
    """One memory-instrumented run of the population-scale engine.

    A :class:`~repro.data.population.SyntheticPopulation` federation on the
    lazy client plane and the calendar scheduler: clients exist as
    descriptors, the selected cohort materializes for its round and is
    released after the merge.  The row records the tracemalloc peak of the
    whole run next to the population's materialization high-water mark — the
    engine's claim is that both are set by ``clients_per_round``, never by
    ``population_size``.
    """
    import time
    import tracemalloc

    from ..data import SyntheticPopulation
    from ..federated import (
        LocalTrainingConfig,
        LogNormalLatency,
        ScenarioConfig,
        SimulationConfig,
    )

    default_size, default_cohort = POPULATION_SCALES[scale]
    population_size = population_size if population_size is not None else default_size
    clients_per_round = (
        clients_per_round if clients_per_round is not None else default_cohort
    )
    dataset = SyntheticPopulation(population_size=population_size, alpha=alpha, seed=seed)
    config = SimulationConfig(
        rounds=rounds,
        local=LocalTrainingConfig(local_epochs=1, batch_size=8, learning_rate=0.05),
        clients_per_round=clients_per_round,
        seed=seed,
        track_per_client_accuracy=False,
        retain_received_updates=False,
        scenario=ScenarioConfig(latency=LogNormalLatency(median=1.0, sigma=0.5)),
    )
    tracemalloc.start()
    start = time.perf_counter()
    simulation = FederatedSimulation(dataset, model_fn_for(dataset), config)
    result = simulation.run()
    wall = time.perf_counter() - start
    _, peak_traced = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return PopulationRow(
        population_size=population_size,
        clients_per_round=clients_per_round,
        rounds=rounds,
        wall_seconds=wall,
        trained_clients_per_sec=rounds * clients_per_round / wall,
        peak_materialized=simulation.population.peak_materialized,
        peak_traced_mb=peak_traced / 1e6,
        final_accuracy=result.rounds[-1].global_accuracy,
    )


def render_population(row: PopulationRow) -> str:
    header = [
        "population",
        "cohort/round",
        "rounds",
        "wall s",
        "trained clients/s",
        "peak materialized",
        "peak traced MB",
        "final acc",
    ]
    body = [
        [
            row.population_size,
            row.clients_per_round,
            row.rounds,
            round(row.wall_seconds, 2),
            round(row.trained_clients_per_sec, 1),
            row.peak_materialized,
            round(row.peak_traced_mb, 1),
            round(row.final_accuracy, 3),
        ]
    ]
    bound = "cohort-bounded" if row.peak_materialized <= row.clients_per_round else "UNBOUNDED"
    return "\n".join(
        [
            format_table(header, body),
            f"memory: {bound} — {row.peak_materialized} of {row.population_size} "
            f"clients ever materialized at once ({row.peak_traced_mb:.1f} MB traced peak)",
        ]
    )


# ----------------------------------------------------------------------
# Sharded hierarchical aggregation study
# ----------------------------------------------------------------------
#: leaf-shard counts the ``sharded`` command sweeps by default
SHARDED_SHARD_COUNTS = (1, 2, 4)
#: per-(shard, round, attempt) crash probabilities swept by default (0 is the
#: fault-free row; the non-zero row exercises retry/backoff and failover)
SHARDED_CRASH_RATES = (0.0, 0.3)


@dataclass
class ShardedRow:
    """One (shard count × crash rate) cell of the sharded-plane study."""

    num_shards: int
    shard_crash_rate: float
    clients_per_round: int
    wall_seconds: float
    rounds_per_sec: float
    final_accuracy: float
    #: final global state byte-equal to the serial (``shards=0``) run of the
    #: same seeded workload — the plane's bit-identity contract, measured
    byte_identical: bool
    crashes: int
    retried: int
    failed_over: int


def run_sharded_comparison(
    dataset_name: str = "motionsense",
    scale: str = "ci",
    seed: int = 0,
    rounds: int = 3,
    num_shards: tuple[int, ...] = SHARDED_SHARD_COUNTS,
    shard_crash_rates: tuple[float, ...] = SHARDED_CRASH_RATES,
    clients_per_round: int | None = None,
) -> list[ShardedRow]:
    """Sweep shard counts × crash rates; score each cell against serial.

    Every cell runs the same seeded workload (selection, training, and crash
    draws are pure functions of ``(seed, entity, round)``) through the
    sharded data plane, varying only the plan width and the injected
    shard-crash probability.  For each crash rate one serial (``shards=0``)
    reference run anchors the bit-identity check: by the merge-order
    contract, every cell's final state must be byte-equal to it, crashes and
    failovers included.  Each faulted cell's ledger is validated and its
    hierarchical transcript verified before the row is emitted.
    """
    import time
    from dataclasses import replace as dc_replace

    from ..federated import ScenarioConfig
    from ..federated.faults import FaultConfig

    def run_once(shards: int, crash_rate: float):
        dataset, params = build_experiment(dataset_name, scale=scale, seed=seed)
        model_fn = model_fn_for(dataset)
        config = params.simulation_config(seed=seed, rounds=rounds)
        overrides: dict = {
            "num_shards": shards,
            "scenario": ScenarioConfig(
                faults=FaultConfig(shard_crash_rate=crash_rate)
            ),
        }
        if clients_per_round is not None:
            overrides["clients_per_round"] = clients_per_round
        config = dc_replace(config, **overrides)
        start = time.perf_counter()
        result = FederatedSimulation(dataset, model_fn, config).run()
        return result, time.perf_counter() - start

    rows: list[ShardedRow] = []
    for crash_rate in shard_crash_rates:
        serial, _ = run_once(0, crash_rate)
        for shards in num_shards:
            result, wall = run_once(shards, crash_rate)
            result.fault_ledger.validate()
            result.shard_transcript.verify()
            identical = all(
                np.array_equal(serial.final_state[name], value)
                for name, value in result.final_state.items()
            )
            crash_entries = [
                entry
                for entry in result.fault_ledger.entries
                if entry.kind == "shard-crash"
            ]
            rows.append(
                ShardedRow(
                    num_shards=shards,
                    shard_crash_rate=crash_rate,
                    clients_per_round=result.rounds[-1].num_selected,
                    wall_seconds=wall,
                    rounds_per_sec=rounds / wall,
                    final_accuracy=result.accuracy_curve()[-1],
                    byte_identical=identical,
                    crashes=len(crash_entries),
                    retried=sum(
                        1 for entry in crash_entries if entry.resolution == "retried"
                    ),
                    failed_over=sum(
                        1 for entry in crash_entries if entry.resolution == "failed-over"
                    ),
                )
            )
    return rows


def render_sharded(rows: list[ShardedRow]) -> str:
    header = [
        "shards",
        "crash rate",
        "wall s",
        "rounds/s",
        "final acc",
        "byte-identical",
        "crashes",
        "retried",
        "failed over",
    ]
    body = [
        [
            row.num_shards,
            row.shard_crash_rate,
            round(row.wall_seconds, 2),
            round(row.rounds_per_sec, 2),
            round(row.final_accuracy, 3),
            "yes" if row.byte_identical else "NO",
            row.crashes,
            row.retried,
            row.failed_over,
        ]
        for row in rows
    ]
    identical = sum(1 for row in rows if row.byte_identical)
    return "\n".join(
        [
            format_table(header, body),
            f"bit-identity: {identical}/{len(rows)} cells byte-equal to the "
            f"serial path (merge-order contract)",
        ]
    )


# ----------------------------------------------------------------------
# Cohort-batched training study: serial loop vs one stacked pass
# ----------------------------------------------------------------------

#: cohort sizes swept by the cohort command (clients per stacked pass)
COHORT_SIZES = (16, 64, 256)


@dataclass
class CohortRow:
    """One cohort size of the serial-vs-batched local-training comparison."""

    cohort_size: int
    local_epochs: int
    serial_seconds: float
    batched_seconds: float
    speedup: float
    serial_clients_per_sec: float
    batched_clients_per_sec: float
    #: refined rows byte-equal to the serial path — the linear-probe
    #: bit-identity contract (conv architectures promise 1e-6 relative
    #: tolerance instead; the synthetic population trains a linear probe)
    bit_identical: bool
    max_abs_deviation: float


def run_cohort_study(
    seed: int = 0,
    cohort_sizes: tuple[int, ...] = COHORT_SIZES,
    local_epochs: int = 1,
    batch_size: int = 8,
    repeats: int = 3,
) -> list[CohortRow]:
    """Time one round's local training serial vs cohort-batched per size.

    Runs on its own synthetic linear-probe population (same workload as the
    ``cohort_train_seconds`` benchmark): for each cohort size the identical
    seeded workload trains once through the serial
    :func:`~repro.federated.client.train_rows_into` loop and once through
    :class:`~repro.federated.cohort.CohortTrainer`'s stacked pass, best-of-
    ``repeats`` each after a shared warm-up.  Every row also *measures* the
    numerical contract: for this architecture the refined ``(M, D)`` rows
    must be byte-equal between the two paths.
    """
    import time

    from ..data import SyntheticPopulation
    from ..federated import LocalTrainingConfig
    from ..federated.client import ClientPopulation, train_rows_into
    from ..federated.cohort import CohortTrainer
    from ..nn.serialization import schema_of

    def best_of(fn) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    local = LocalTrainingConfig(local_epochs=local_epochs, batch_size=batch_size)
    rows: list[CohortRow] = []
    for cohort in cohort_sizes:
        dataset = SyntheticPopulation(population_size=cohort, seed=seed)
        model_fn = model_fn_for(dataset)
        population = ClientPopulation.for_dataset(dataset, model_fn, local, seed=seed)
        broadcast = model_fn(rng_from_seed(seed)).state_dict()
        schema = schema_of(broadcast)
        pairs = list(enumerate(population.client_ids(range(cohort))))
        rows_serial = np.empty((cohort, schema.total_size), dtype=np.float32)
        rows_batched = np.empty_like(rows_serial)
        trainer = CohortTrainer(population, schema)
        train_rows_into(population, pairs, broadcast, 0, schema, rows_serial)  # warm-up
        trainer.train_rows(pairs, broadcast, 0, rows_batched)
        serial = best_of(
            lambda: train_rows_into(population, pairs, broadcast, 1, schema, rows_serial)
        )
        batched = best_of(lambda: trainer.train_rows(pairs, broadcast, 1, rows_batched))
        rows.append(
            CohortRow(
                cohort_size=cohort,
                local_epochs=local_epochs,
                serial_seconds=serial,
                batched_seconds=batched,
                speedup=serial / batched,
                serial_clients_per_sec=cohort / serial,
                batched_clients_per_sec=cohort / batched,
                bit_identical=np.array_equal(rows_serial, rows_batched),
                max_abs_deviation=float(np.abs(rows_serial - rows_batched).max()),
            )
        )
    return rows


def render_cohort(rows: list[CohortRow]) -> str:
    header = [
        "cohort",
        "epochs",
        "serial s",
        "batched s",
        "speedup",
        "serial cl/s",
        "batched cl/s",
        "bit-identical",
        "max |dev|",
    ]
    body = [
        [
            row.cohort_size,
            row.local_epochs,
            round(row.serial_seconds, 4),
            round(row.batched_seconds, 4),
            round(row.speedup, 2),
            round(row.serial_clients_per_sec, 1),
            round(row.batched_clients_per_sec, 1),
            "yes" if row.bit_identical else "NO",
            f"{row.max_abs_deviation:.1e}",
        ]
        for row in rows
    ]
    identical = sum(1 for row in rows if row.bit_identical)
    return "\n".join(
        [
            format_table(header, body),
            f"bit-identity: {identical}/{len(rows)} cohort sizes byte-equal to "
            f"the serial training loop (linear-probe contract)",
        ]
    )
