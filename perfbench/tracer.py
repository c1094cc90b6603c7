"""Span tracer that times each layer of a round from outside the library.

The library records no spans of its own, so the benchmark wraps the public
entrypoint of every layer (a class method or a module-level function) while a
traced episode runs, and restores the originals afterwards.  A span is
``[name, start, end, parent, round]``: ``parent`` is the index of the
enclosing span (``-1`` at top level) and ``round`` the ``(episode,
round_index)`` the span ran in.  Spans stay in memory; :meth:`Tracer.write_jsonl`
writes them out when the benchmark ends.

A layer's *self time* is its span's duration minus the part covered by its
child spans, so per-layer times of one round add up to the round's wall time.
Spans are only recorded on the thread that created the tracer: the enclave's
decryption pool calls no wrapped entrypoint, and a call from any other thread
passes straight through rather than corrupting the span stack.
"""

from __future__ import annotations

import functools
import json
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

__all__ = ["Layer", "Tracer", "self_times", "round_layers", "keygen_layer"]


@dataclass(frozen=True)
class Layer:
    """One wrapped entrypoint: ``owner.attribute`` recorded as span ``span``.

    ``before(args)`` runs just before the call and returns a token that
    ``after(tracer, token, args, result)`` receives once the call returns; the
    pair records counts measured where the work happens.
    """

    span: str
    owner: object
    attribute: str
    before: Callable | None = None
    after: Callable | None = None


class Tracer:
    """In-memory span and counter recorder with install/uninstall of wrappers."""

    def __init__(self, layers: list[Layer]) -> None:
        self.layers = layers
        self.spans: list[list] = []
        #: ``(round, counter) -> value`` measured by the layers' ``after`` hooks
        self.counts: dict[tuple, float] = {}
        #: the ``(episode, round_index)`` new spans are attributed to
        self.round: tuple[int, int] | None = None
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._originals: list[tuple[object, str, object]] = []

    def count(self, name: str, value: float = 1.0) -> None:
        key = (self.round, name)
        self.counts[key] = self.counts.get(key, 0.0) + value

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> Callable:
        """``fn`` recorded as span ``name`` nested under the current span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.round]
            index = len(tracer.spans)
            tracer.spans.append(span)
            token = before(args) if before is not None else None
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(tracer, token, args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every layer's entrypoint with its traced wrapper."""
        for layer in self.layers:
            original = vars(layer.owner)[layer.attribute]
            self._originals.append((layer.owner, layer.attribute, original))
            setattr(
                layer.owner,
                layer.attribute,
                self.wrap(layer.span, original, layer.before, layer.after),
            )

    def uninstall(self) -> None:
        """Put every original entrypoint back (idempotent)."""
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def write_jsonl(self, out) -> None:
        """Write one JSON line per span to the open text file ``out``: name,
        start and end (seconds from the first span), parent index, episode
        and round."""
        origin = min((span[1] for span in self.spans), default=0.0)
        for name, start, end, parent, round_key in self.spans:
            episode, round_index = round_key if round_key is not None else (None, None)
            record = {
                "name": name,
                "start": start - origin,
                "end": end - origin,
                "parent": parent,
                "episode": episode,
                "round": round_index,
            }
            out.write(json.dumps(record) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


# ----------------------------------------------------------------------
# The layers of a round, named by the module that owns each entrypoint
# ----------------------------------------------------------------------
def _count_materialized_before(args):
    return args[0].materialized


def _count_materialized_after(tracer, before, args, result):
    # A cache miss builds a client: the population's live count goes up by one.
    tracer.count("federated.client.clients_materialized", args[0].materialized - before)


def _count_encrypted(tracer, _token, _args, result):
    tracer.count("mixnn.updates_encrypted")
    tracer.count("mixnn.bytes_encrypted", result.nbytes)


def _count_decrypted(tracer, _token, args, result):
    tracer.count("mixnn.decrypt_attempted", len(args[1]))
    tracer.count("mixnn.decrypt_ok", sum(isinstance(item, bytes) for item in result))


def _count_emitted(tracer, _token, _args, result):
    tracer.count("mixnn.chimeras_emitted", len(result))


def _count_kept(tracer, _token, args, _result):
    report = args[0].last_aggregation_report
    tracer.count("federated.server.kept", len(report.kept))
    tracer.count("federated.server.considered", len(report.kept) + len(report.dropped))


def _record_shard_timings(tracer, _token, args, _result):
    """Worker spans live in other processes; adopt the engine's own clock."""
    timings = args[0].last_timings
    busy = [
        train + reduce
        for train, reduce in zip(
            timings["per_shard_train_seconds"], timings["per_shard_reduce_seconds"]
        )
    ]
    dispatch = timings["wall_seconds"] - timings["merge_seconds"]
    tracer.count("federated.sharding.shard_busy_max", max(busy))
    tracer.count("federated.sharding.merge", timings["merge_seconds"])
    # Root-side time spent beyond the slowest shard's busy time: pickling,
    # IPC round trips and pool scheduling.
    tracer.count("federated.sharding.ipc_wait", max(0.0, dispatch - max(busy)))
    capacity = dispatch * len(busy)
    idle = 1.0 - sum(busy) / capacity if capacity > 0 else 0.0
    tracer.count("federated.sharding.shard_idle_share", max(0.0, idle))


def keygen_layer() -> Layer:
    """The enclave's RSA key generation (paid once per proxy, in set-up)."""
    import repro.mixnn.enclave as enclave

    return Layer("mixnn.keygen", enclave, "generate_keypair")


def round_layers() -> list[Layer]:
    """Every layer entrypoint a round can reach, in call-graph order."""
    import repro.federated.simulation as simulation
    from repro.attacks.gradsim import GradSimAttack
    from repro.data.population import SyntheticPopulation
    from repro.defenses.base import NoDefense
    from repro.defenses.mixnn_defense import MixNNDefense
    from repro.federated.client import ClientPopulation, FederatedClient
    from repro.federated.cohort import CohortTrainer
    from repro.federated.integrity import RoundTranscript
    from repro.federated.server import AggregationServer
    from repro.federated.sharding import ShardedRoundEngine
    from repro.mixnn.enclave import SGXEnclaveSim
    from repro.mixnn.proxy import MixNNProxy
    from repro.nn.tensor import GradTape, Tensor

    return [
        Layer(
            "federated.client.materialize",
            ClientPopulation,
            "get",
            before=_count_materialized_before,
            after=_count_materialized_after,
        ),
        Layer("data.client_data", SyntheticPopulation, "client_data"),
        Layer("federated.client.local_update", FederatedClient, "local_update"),
        Layer("federated.cohort.train", CohortTrainer, "train_updates"),
        Layer("nn.backward", Tensor, "backward"),
        Layer("nn.backward", GradTape, "backward"),
        Layer(
            "federated.sharding.train_round",
            ShardedRoundEngine,
            "train_round",
            after=_record_shard_timings,
        ),
        Layer("defenses.process_round", NoDefense, "process_round"),
        Layer("defenses.process_round", MixNNDefense, "process_round"),
        Layer("mixnn.encrypt", MixNNProxy, "encrypt_for_proxy", after=_count_encrypted),
        Layer("mixnn.decrypt", SGXEnclaveSim, "decrypt_many", after=_count_decrypted),
        Layer("mixnn.store", MixNNProxy, "stream", after=_count_emitted),
        Layer("mixnn.compose", MixNNProxy, "flush", after=_count_emitted),
        keygen_layer(),
        Layer(
            "federated.server.aggregate",
            AggregationServer,
            "receive_and_aggregate",
            after=_count_kept,
        ),
        Layer("federated.integrity.transcript", RoundTranscript, "append"),
        Layer("attacks.gradsim.on_round", GradSimAttack, "on_round"),
        Layer("metrics.model_accuracy", simulation, "model_accuracy"),
        Layer("metrics.per_client_accuracies", simulation, "per_client_accuracies"),
    ]
