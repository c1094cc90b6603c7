"""Timing side-channel adversary: arrival order as an identity prior.

The wall-clock round engine exposes exactly what a network-level observer
(or the honest-but-curious server itself) sees: a stream of timestamped
update arrivals (:attr:`~repro.federated.simulation.RoundRecord.
arrival_times`).  Content defenses — MixNN mixing, encryption to the proxy —
do not touch this channel: a device on a slow uplink arrives late in *every*
round, so arrival rank is a fingerprint that survives mixing.

:class:`TimingSideChannel` is the first step of the ROADMAP's
"scenario-aware attacks": the adversary profiles per-client round-trip
latency during a warm-up window where identities are known (the same
auxiliary-knowledge assumption ∇Sim makes for its reference models), then
re-identifies the sender of each later arrival by nearest-profile matching
without replacement, consuming arrivals in time order.

The attack is honest about its limits: under i.i.d. latency draws (every
client samples the same distribution fresh each round) it scores at chance,
because there is nothing systematic to profile.  It bites exactly when
latency has a per-client systematic component —
:class:`~repro.federated.scenario.LogNormalLatency` with ``client_spread``,
:class:`~repro.federated.scenario.FixedLatency` with per-client overrides,
or any real fleet where device class and link quality persist across rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["TimingSideChannel", "TimingAttackReport"]


@dataclass(frozen=True)
class TimingAttackReport:
    """Outcome of a timing re-identification run."""

    #: fraction of scored arrivals whose sender was re-identified
    accuracy: float
    #: expected accuracy of a uniformly random assignment over the same slots
    random_guess: float
    #: rounds used to build the latency profiles
    warmup_rounds: int
    #: rounds actually scored (arrival-bearing rounds after warm-up)
    scored_rounds: int
    #: arrivals scored across all evaluation rounds
    scored_arrivals: int
    #: per-round ``(round_index, accuracy)`` over the evaluation window
    per_round: tuple[tuple[int, float], ...] = field(default=())

    @property
    def advantage(self) -> float:
        """Re-identification lift over the random-assignment baseline."""
        return self.accuracy - self.random_guess


class TimingSideChannel:
    """Rank client identities from the arrival event stream.

    ``warmup_rounds`` arrival-bearing rounds are used as labelled background
    knowledge (mean observed latency per client); every later round is
    scored by greedily assigning each arrival, in time order, to the
    unclaimed profiled client whose mean latency is nearest.  All decisions
    are deterministic (ties break toward the smaller client id).
    """

    def __init__(self, warmup_rounds: int = 2) -> None:
        if warmup_rounds < 1:
            raise ValueError(f"warmup_rounds must be >= 1, got {warmup_rounds}")
        self.warmup_rounds = warmup_rounds
        #: client id -> mean observed round-trip latency over the warm-up
        self.profiles: dict[int, float] = {}

    # ------------------------------------------------------------------
    # Profiling (the adversary's background knowledge)
    # ------------------------------------------------------------------
    def fit(self, records) -> dict[int, float]:
        """Build per-client latency profiles from the warm-up window."""
        samples: dict[int, list[float]] = {}
        used = 0
        for record in records:
            if not record.arrival_times:
                continue
            if used >= self.warmup_rounds:
                break
            used += 1
            for sender_id, arrival_time in record.arrival_times:
                samples.setdefault(int(sender_id), []).append(
                    float(arrival_time) - float(record.round_start)
                )
        self.profiles = {
            client: float(np.mean(values)) for client, values in sorted(samples.items())
        }
        return self.profiles

    def predict_round(self, record) -> list[tuple[int, int]]:
        """Greedy re-identification of one round's arrivals.

        Returns ``(true_sender, predicted_sender)`` per arrival, in time
        order.  Each profiled client is claimed at most once per round
        (arrivals are a near-permutation of the cohort).
        """
        if not self.profiles:
            raise RuntimeError("fit() the warm-up window before predicting")
        available = dict(self.profiles)
        pairs: list[tuple[int, int]] = []
        for sender_id, arrival_time in record.arrival_times:
            latency = float(arrival_time) - float(record.round_start)
            if available:
                predicted = min(
                    available.items(), key=lambda item: (abs(item[1] - latency), item[0])
                )[0]
                del available[predicted]
            else:  # more arrivals than profiled clients: forced wrong guess
                predicted = -1
            pairs.append((int(sender_id), predicted))
        return pairs

    # ------------------------------------------------------------------
    # End-to-end scoring
    # ------------------------------------------------------------------
    def run(self, source) -> TimingAttackReport:
        """Profile then score a finished run.

        ``source`` is a :class:`~repro.federated.simulation.SimulationResult`
        or a plain list of :class:`~repro.federated.simulation.RoundRecord`.
        """
        records = getattr(source, "rounds", source)
        self.fit(records)
        if not self.profiles:
            raise ValueError("no arrival timestamps to profile in the warm-up window")
        if len(set(self.profiles.values())) == 1:
            # Every arrival lands at the same instant (no latency model): the
            # stream pops in client order and ties break toward the smaller
            # id, so "re-identification" would just replay the tie-break.
            raise ValueError(
                "the profiled latencies carry no signal (all equal) — configure a "
                "latency model on the ScenarioConfig to give arrivals a timing"
            )
        warmup_left = self.warmup_rounds
        correct = 0
        total = 0
        guess_mass = 0.0
        per_round: list[tuple[int, float]] = []
        for record in records:
            if not record.arrival_times:
                continue
            if warmup_left > 0:
                warmup_left -= 1
                continue
            pairs = self.predict_round(record)
            hits = sum(1 for true, predicted in pairs if true == predicted)
            correct += hits
            total += len(pairs)
            # a uniform bijective assignment is right on a slot w.p. 1/|pool|
            guess_mass += len(pairs) / max(len(self.profiles), len(pairs))
            per_round.append((record.round_index, hits / len(pairs)))
        if total == 0:
            raise ValueError(
                f"no rounds left to score after {self.warmup_rounds} warm-up rounds"
            )
        return TimingAttackReport(
            accuracy=correct / total,
            random_guess=guess_mass / total,
            warmup_rounds=self.warmup_rounds,
            scored_rounds=len(per_round),
            scored_arrivals=total,
            per_round=tuple(per_round),
        )
