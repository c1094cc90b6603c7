"""Episode loop, output checks and metrics of the end-to-end round benchmark.

A run repeats *episodes* until ``--seconds`` is spent (at least two).  An
episode builds a fresh simulation from the seed and calls its public
``run()``: round 0 is the warm-up and belongs to set-up, every later round is
timed.  Because an episode is a pure function of the seed, every episode of a
run must end in the same accuracy, attack accuracy and final-state digest —
the same-seed determinism check.

With ``--trace 0`` every episode is untraced and the run reports the
end-to-end metrics.  With ``--trace 1`` episodes alternate untraced and
traced (wrappers from :mod:`tracer` installed), the traced ones give the
per-layer split, and the ratio of the two round medians is the tracing
overhead.
"""

from __future__ import annotations

import gc
import hashlib
import multiprocessing
import os
import resource
import statistics
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from tracer import Tracer, keygen_layer, round_layers, self_times
from workloads import WORKLOADS, Workload

__all__ = ["END_TO_END", "PER_LAYER", "run_workload"]

#: end-to-end metrics (``--trace 0``): name -> unit
END_TO_END = {
    "setup_s": "s",
    "round_s_p50": "s",
    "round_s_tail": "s",
    "updates_per_s": "1/s",
    "cpu_s_per_round": "s",
    "peak_rss_mb": "MB",
    "final_accuracy": "ratio",
}

#: per-layer metrics (``--trace 1``): name -> unit.  Times are self time,
#: counts are per timed round; both are medians over the traced rounds.
PER_LAYER = {
    "nn.backward_s": "s/round",
    "nn.backward_calls": "count/round",
    "federated.client.local_update_s": "s/round",
    "federated.cohort.train_s": "s/round",
    "federated.client.materialize_s": "s/round",
    "data.client_data_s": "s/round",
    "federated.client.clients_materialized": "count/round",
    "federated.sharding.train_round_s": "s/round",
    "federated.sharding.shard_busy_max_s": "s/round",
    "federated.sharding.merge_s": "s/round",
    "federated.sharding.ipc_wait_s": "s/round",
    "federated.sharding.shard_idle_share": "ratio",
    "defenses.process_round_s": "s/round",
    "mixnn.encrypt_s": "s/round",
    "mixnn.decrypt_s": "s/round",
    "mixnn.store_s": "s/round",
    "mixnn.compose_s": "s/round",
    "mixnn.updates_encrypted": "count/round",
    "mixnn.bytes_encrypted": "bytes/round",
    "mixnn.chimeras_emitted": "count/round",
    "mixnn.decrypt_ok_ratio": "ratio",
    "mixnn.keygen_s": "s",
    "federated.server.aggregate_s": "s/round",
    "federated.integrity.transcript_s": "s/round",
    "federated.server.kept_ratio": "ratio",
    "attacks.gradsim.on_round_s": "s/round",
    "attacks.gradsim.inference_accuracy": "ratio",
    "metrics.model_accuracy_s": "s/round",
    "metrics.per_client_accuracies_s": "s/round",
    "round.unattributed_s": "s/round",
    "trace.overhead_ratio": "ratio",
}

#: §4.2: per-parameter column sums of the defense's input and output agree
COLUMN_SUM_TOLERANCE = 1e-5
#: the layers' spans must cover the rounds: the rounds' own unattributed
#: time stays below this share of their wall time
UNATTRIBUTED_SHARE_LIMIT = 0.10
_SHM_DIR = "/dev/shm"
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# Process accounting (Linux /proc; shard workers are live children)
# ----------------------------------------------------------------------
def _worker_cpu_seconds() -> dict[int, float]:
    """user+sys CPU of every live child process, by pid."""
    out = {}
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/stat", encoding="ascii") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        out[child.pid] = (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
    return out


def _worker_peak_rss_kb() -> int:
    """Summed peak resident set of every live child process."""
    total = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
        except OSError:
            continue
    return total


def _own_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _shm_segments() -> set[str]:
    try:
        return {name for name in os.listdir(_SHM_DIR) if name.startswith("psm_")}
    except OSError:
        return set()


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def _column_sums(updates) -> dict[str, np.ndarray]:
    sums: dict[str, np.ndarray] = {}
    for update in updates:
        for name, value in update.state.items():
            value = np.asarray(value, dtype=np.float64)
            sums[name] = sums[name] + value if name in sums else value.copy()
    return sums


class _ColumnSumAudit:
    """Checks one round of ``defense.process_round`` against §4.2: the
    defense forwards every parameter's mass exactly once, so per-unit column
    sums of what goes in and what comes out agree."""

    def __init__(self, defense) -> None:
        self.defense = defense
        self.error: str | None = "the audited round never reached the defense"
        process = defense.process_round

        def audited(updates, rng, broadcast_state=None):
            before = _column_sums(updates)
            received = process(updates, rng, broadcast_state=broadcast_state)
            self.error = _column_sum_mismatch(before, len(updates), received)
            return received

        defense.process_round = audited

    def remove(self) -> None:
        vars(self.defense).pop("process_round", None)


def _column_sum_mismatch(before: dict, count: int, received) -> str | None:
    if len(received) != count:
        return f"defense emitted {len(received)} updates for {count} inputs"
    after = _column_sums(received)
    if after.keys() != before.keys():
        return "defense output schema differs from its input"
    worst = max(float(np.max(np.abs(after[name] - before[name]))) for name in before)
    if worst > COLUMN_SUM_TOLERANCE:
        return f"column sums differ by {worst:.3g} (> {COLUMN_SUM_TOLERANCE})"
    return None


def _state_digest(state: dict) -> str:
    digest = hashlib.sha256()
    for name, value in state.items():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# One episode
# ----------------------------------------------------------------------
@dataclass
class Episode:
    index: int
    traced: bool
    tracer: Tracer
    setup_s: float = float("nan")
    keygen_s: float = 0.0
    #: wall time, CPU time (children included) and merged updates per timed round
    walls: list[float] = field(default_factory=list)
    cpus: list[float] = field(default_factory=list)
    merged: list[int] = field(default_factory=list)
    worker_peak_kb: int = 0
    rounds_attempted: int = 0
    #: 1 when the episode raised: the round (or the set-up) that raised failed
    rounds_failed: int = 0
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    final_accuracy: float = float("nan")
    attack_accuracy: float | None = None
    digest: str = ""
    duration_s: float = 0.0

    def check(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(message)


def run_episode(workload: Workload, seed: int, index: int, traced: bool) -> Episode:
    """Build, run and check one simulation; time its set-up and rounds."""
    tracer = Tracer(round_layers() if traced else [keygen_layer()])
    episode = Episode(index=index, traced=traced, tracer=tracer)
    gc.collect()
    shm_before = _shm_segments()
    started = perf_counter()
    sim = None
    try:
        with tracer:
            sim = workload.build(seed, workload.rounds)
            construct_s = perf_counter() - started
            audit = _ColumnSumAudit(sim.defense)
            run_round = sim.run_round
            if traced:
                run_round = tracer.wrap("round", run_round)

            def timed_round():
                round_index = sim.server.round_index
                tracer.round = (index, round_index)
                episode.rounds_attempted += 1
                cpu_before, workers_before = _own_cpu_seconds(), _worker_cpu_seconds()
                start = perf_counter()
                record = run_round()
                wall = perf_counter() - start
                workers_after = _worker_cpu_seconds()
                cpu = _own_cpu_seconds() - cpu_before + sum(
                    seconds - workers_before.get(pid, 0.0)
                    for pid, seconds in workers_after.items()
                )
                if round_index == 0:
                    episode.setup_s = construct_s + wall
                    audit.remove()
                else:
                    episode.walls.append(wall)
                    episode.cpus.append(cpu)
                    episode.merged.append(record.num_aggregated)
                if round_index == workload.rounds - 1:
                    # The pool is shut down when run() returns; sample it now.
                    episode.worker_peak_kb = _worker_peak_rss_kb()
                return record

            sim.run_round = timed_round
            result = sim.run()
    except Exception:
        traceback.print_exc()
        # A set-up that raised before round 0 is the failed attempt.
        episode.rounds_attempted = max(episode.rounds_attempted, 1)
        episode.rounds_failed = 1
        return episode
    finally:
        if sim is not None:
            sim.close()
        episode.duration_s = perf_counter() - started

    episode.keygen_s = sum(
        end - start for name, start, end, _, _ in tracer.spans if name == "mixnn.keygen"
    )
    last = result.rounds[-1]
    episode.final_accuracy = last.global_accuracy
    episode.attack_accuracy = last.inference_accuracy
    episode.digest = _state_digest(result.final_state)

    episode.check(len(result.rounds) == workload.rounds, "episode ran short")
    episode.check(audit.error is None, f"§4.2 column-sum audit: {audit.error}")
    for name, transcript in (
        ("server", result.transcript),
        ("shard", result.shard_transcript),
    ):
        if transcript is None:
            continue
        try:
            transcript.verify()
            episode.check(True, "")
        except Exception as exc:  # any breach type the transcript raises
            episode.check(False, f"{name} transcript failed verify(): {exc}")
    episode.check(
        last.global_accuracy >= workload.accuracy_floor,
        f"final accuracy {last.global_accuracy:.3f} below floor {workload.accuracy_floor}",
    )
    if workload.attack_ceiling is not None:
        episode.check(
            last.inference_accuracy is not None
            and last.inference_accuracy <= workload.attack_ceiling,
            f"∇Sim accuracy {last.inference_accuracy} above ceiling {workload.attack_ceiling}",
        )
    leaked = _shm_segments() - shm_before
    episode.check(not leaked, f"/dev/shm segments left behind: {sorted(leaked)}")
    if traced:
        _check_span_coverage(episode)
    return episode


def _check_span_coverage(episode: Episode) -> None:
    """The layers' top-level spans must account for the traced rounds: over
    the episode's timed rounds, the rounds' own unattributed time stays
    within the stated share of their wall time."""
    spans = episode.tracer.spans
    unattributed = wall = 0.0
    for (name, start, end, _, round_key), own in zip(spans, self_times(spans)):
        if name == "round" and round_key[1] > 0:
            unattributed += own
            wall += end - start
    episode.check(
        unattributed <= UNATTRIBUTED_SHARE_LIMIT * wall,
        f"{unattributed:.4f} s of {wall:.4f} s of timed rounds outside every layer span",
    )


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _tail(walls: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten rounds beyond it."""
    ordered = sorted(walls)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end_metrics(episodes: list[Episode]) -> tuple[dict, str]:
    walls = [wall for episode in episodes for wall in episode.walls]
    cpus = [cpu for episode in episodes for cpu in episode.cpus]
    merged = sum(sum(episode.merged) for episode in episodes)
    tail, percentile = _tail(walls)
    own_peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(episode.setup_s for episode in episodes),
        "round_s_p50": statistics.median(walls),
        "round_s_tail": tail,
        "updates_per_s": merged / sum(walls),
        "cpu_s_per_round": sum(cpus) / len(cpus),
        "peak_rss_mb": (own_peak_kb + max(e.worker_peak_kb for e in episodes)) / 1024.0,
        "final_accuracy": episodes[0].final_accuracy,
    }
    beyond = min(10, len(walls) - 1)
    note = f"p{percentile:.0f} of {len(walls)} timed rounds, {beyond} beyond it"
    return values, note


def _round_rows(traced: list[Episode]) -> list[dict[str, float]]:
    """One row per traced timed round: each span name's self time (and its
    inclusive time under ``"<name> inclusive"``) plus the hooks' counts."""
    per_round: dict[tuple, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for episode in traced:
        spans = episode.tracer.spans
        for (name, start, end, _, round_key), own in zip(spans, self_times(spans)):
            if round_key is None or round_key[1] == 0:
                continue  # warm-up round: set-up, not a measured round
            row = per_round[round_key]
            row[name] += own
            row[f"{name} inclusive"] += end - start
            if name == "nn.backward":
                row["nn.backward_calls"] += 1
        for (round_key, counter), value in episode.tracer.counts.items():
            if round_key[1] != 0:
                per_round[round_key][counter] += value
    return list(per_round.values())


def _median(rows: list[dict[str, float]], key: str) -> float:
    return statistics.median(row.get(key, 0.0) for row in rows)


def per_layer_metrics(traced: list[Episode], untraced: list[Episode]) -> dict:
    rows = _round_rows(traced)

    def ratio(numerator: str, denominator: str) -> float:
        total = sum(row.get(denominator, 0.0) for row in rows)
        return sum(row.get(numerator, 0.0) for row in rows) / total if total else 0.0

    # A time metric is its span's (or engine clock's) name plus "_s"; a count
    # or share is recorded under its own name.
    values = {
        name: _median(rows, name[: -len("_s")] if name.endswith("_s") else name)
        for name in PER_LAYER
    }
    values["round.unattributed_s"] = _median(rows, "round")
    values["mixnn.decrypt_ok_ratio"] = ratio("mixnn.decrypt_ok", "mixnn.decrypt_attempted")
    values["federated.server.kept_ratio"] = ratio(
        "federated.server.kept", "federated.server.considered"
    )
    values["mixnn.keygen_s"] = statistics.median(episode.keygen_s for episode in traced)
    values["attacks.gradsim.inference_accuracy"] = traced[0].attack_accuracy or 0.0
    traced_walls = [wall for episode in traced for wall in episode.walls]
    untraced_walls = [wall for episode in untraced for wall in episode.walls]
    values["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(
        untraced_walls
    )
    return values


def _split_table(traced: list[Episode]) -> list[str]:
    """Each span's median self and inclusive time per round, largest first,
    as a share of the traced round median."""
    rows = _round_rows(traced)
    round_p50 = _median(rows, "round inclusive")
    names = {key for row in rows for key in row if f"{key} inclusive" in row}
    table = sorted(((_median(rows, name), name) for name in names), reverse=True)
    lines = [f"  span self / inclusive time per round, share of the round median {round_p50:.4f} s:"]
    for own, name in table:
        inclusive = _median(rows, f"{name} inclusive")
        lines.append(
            f"    {name:<34} {own:9.5f} s {100 * own / round_p50:5.1f} %"
            f" | {inclusive:9.5f} s {100 * inclusive / round_p50:5.1f} %"
        )
    return lines


# ----------------------------------------------------------------------
# A run
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: str) -> dict:
    """Run episodes of one workload for ``seconds``; print and return the result."""
    workload = WORKLOADS[name]
    # Import every layer's module and load the native helper first, so no
    # set-up pays one-off interpreter work.
    round_layers()
    import repro.experiments.common  # noqa: F401
    from repro.utils import native

    native.load()
    deadline = perf_counter() + seconds
    episodes: list[Episode] = []
    while True:
        index = len(episodes)
        episode = run_episode(workload, seed, index, traced=trace and index % 2 == 1)
        episodes.append(episode)
        status = "; ".join(episode.failures) or ("raised" if episode.rounds_failed else "ok")
        print(
            f"  episode {index} ({'traced' if episode.traced else 'untraced'}): "
            f"setup {episode.setup_s:.3f} s (keygen {episode.keygen_s:.3f} s), "
            f"{len(episode.walls)} timed rounds, final accuracy {episode.final_accuracy:.3f}, "
            f"attack {episode.attack_accuracy}, {status}",
            flush=True,
        )
        if episode.rounds_failed:
            break
        if len(episodes) >= 2 and deadline - perf_counter() < episode.duration_s:
            break

    complete = [e for e in episodes if not e.rounds_failed]
    # The run's own checks: every episode's, plus same-seed determinism.
    attempted = sum(e.rounds_attempted + e.checks for e in episodes) + 1
    failed = sum(e.rounds_failed + len(e.failures) for e in episodes)
    outcomes = {(e.final_accuracy, e.attack_accuracy, e.digest) for e in complete}
    if len(outcomes) != 1:
        failed += 1
        print(f"  FAILED determinism: same-seed episodes disagree: {sorted(map(str, outcomes))}")

    untraced = [e for e in complete if not e.traced]
    traced = [e for e in complete if e.traced]
    metrics: dict[str, dict] = {}
    if untraced and (traced or not trace):
        print(f"{name} seed {seed}: {len(complete)} episodes, digest {complete[0].digest[:16]}")
        if trace:
            values, units = per_layer_metrics(traced, untraced), PER_LAYER
            print("\n".join(_split_table(traced)))
            for metric, value in values.items():
                print(f"  {metric:<40} {value:14.6f} {units[metric]}")
            path = os.path.join(out_dir, f"trace-{name}-seed{seed}.jsonl")
            with open(path, "w", encoding="utf-8") as out:
                for episode in traced:
                    episode.tracer.write_jsonl(out)
            print(f"  spans written to {path}")
        else:
            values, tail_note = end_to_end_metrics(untraced)
            units = END_TO_END
            keygen = statistics.median(e.keygen_s for e in untraced)
            notes = {
                "setup_s": f"median of {len(untraced)} set-ups; mixnn.keygen_s {keygen:.4f} s of it",
                "round_s_tail": tail_note,
            }
            for metric, value in values.items():
                print(f"  {metric:<20} {value:12.5f} {units[metric]:<6} {notes.get(metric, '')}")
        attack = complete[0].attack_accuracy
        if attack is not None:
            print(
                f"  attack_inference_accuracy {attack:.4f} "
                f"(∇Sim cumulative; chance 1/3, ceiling {workload.attack_ceiling})"
            )
        metrics = {key: {"value": value, "unit": units[key]} for key, value in values.items()}
    print(f"  failed_ratio {failed}/{attempted}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
