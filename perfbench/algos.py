"""The benchmark's own algorithms: a seeded source and a checking sink.

They sit at the ends of every chain; the hops between them run the
program's :class:`~repro.algorithms.forwarding.CopyForwardAlgorithm`
(or :class:`TracedRelay`, which only adds the cluster-info hook).

The source carries two streams.  The *saturated* stream is the engine's
own back-to-back source loop (``start_source``) on ``load.app``; the
source supplies its seeded payloads, stamps one message in
:data:`STAMP_EVERY` with the time it was produced, and stops forwarding
the stream on :data:`CLOSE`.  The *open-loop* stream on ``load.light_app`` emits one
message per ``1/rate`` seconds of the engine's clock whatever the
system does: message ``i`` is due at ``start + i / rate``, each engine
timer emits every message already due, and each is stamped with its due
time, so a stall shows as latency on the messages behind it.

Wall times are ``time.monotonic()`` — CLOCK_MONOTONIC, one clock for
every process on the machine — so a cluster sink's arrival times
compare with the source's stamps and with the benchmark's spawn times.

Cluster workers build these classes from ``NodeSpec`` import paths.
When a worker inherits ``PERFBENCH_TRACE=1`` the first construction
installs :class:`perfbench.tracer.Tracer` in that worker process, and
every node reports the process-wide counts through ``cluster_info``.
A cluster's source and sink take ``probe=True``: each then runs the
worker's :class:`~perfbench.speed.SpeedProbe` (one per process), whose
samples come back with the final report, so the cluster's saturated
rates are scaled by the speed of the processes that carried them.
"""

from __future__ import annotations

import asyncio
import time
import zlib

from repro.algorithms.forwarding import CopyForwardAlgorithm
from repro.core.algorithm import Algorithm, Disposition
from repro.core.ids import NodeId
from repro.core.message import Message
from repro.core.msgtypes import MsgType

from perfbench import tracer
from perfbench.loadgen import entry_digest, make_load
from perfbench.speed import SpeedProbe

#: one saturated-stream message in this many is timed, at both ends
STAMP_EVERY = 16
#: ``CONTROL.type`` verbs: stop forwarding the saturated stream
CLOSE = 7
#: start the open-loop stream at ``param1`` messages per second
LIGHT = 8
#: stop the open-loop stream; source and sink then report per-message times
REPORT = 9


#: this worker process's host-speed probe and the task sampling it
_probe: SpeedProbe | None = None
_probe_task: asyncio.Task | None = None


def _control_type(msg: Message) -> int:
    return int(msg.fields().get("type", 0))


class _Reporting:
    """Mixin: expose the process tracer's counts to the cluster info verb,
    and with ``probe`` set run the process's speed probe."""

    probe = False

    def on_start(self) -> None:
        global _probe, _probe_task
        super().on_start()
        if self.probe and _probe is None:
            _probe = SpeedProbe()
            _probe_task = asyncio.get_running_loop().create_task(_probe.run())

    def probe_samples(self) -> dict:
        return {"probe": _probe.samples} if self.probe and _probe is not None else {}

    def cluster_info(self) -> dict:
        info = self.report()
        active = tracer.from_env()
        if active is not None:
            info["trace"] = active.snapshot()
        return info

    def report(self) -> dict:
        return {}


class TracedRelay(_Reporting, CopyForwardAlgorithm):
    """Copy-forward relay; reports the worker's trace counts when traced."""

    def __init__(self, downstreams: list[NodeId] | None = None) -> None:
        tracer.from_env()
        super().__init__(downstreams=downstreams)


class BenchSource(_Reporting, CopyForwardAlgorithm):
    """Seeded saturated stream plus an open-loop stream (see module doc)."""

    def __init__(self, downstreams: list[NodeId] | None = None,
                 workload: str = "", load_seed: int = 0, probe: bool = False) -> None:
        tracer.from_env()
        super().__init__(downstreams=downstreams)
        self.probe = probe
        self.load = make_load(workload, load_seed)
        self.closed = False
        self.light_closed = False
        #: saturated-stream messages forwarded (the sink must see them all)
        self.forwarded_msgs = 0
        #: open-loop messages emitted and how late each emission ran
        self.light_msgs = 0
        self.lateness: list[float] = []
        #: (app, seq) -> wall time the message was due (sampled when saturated)
        self.stamps: dict[tuple[int, int], float] = {}
        self._start = 0.0
        self._period = 0.0

    def produce_payload(self, app: int, seq: int, size: int) -> bytes:
        if seq % STAMP_EVERY == 0:
            self.stamps[app, seq] = time.monotonic()
        return self.load.payload(seq)

    def on_data(self, msg: Message) -> Disposition:
        if self.closed:
            return Disposition.DONE
        self.forwarded_msgs += 1
        return super().on_data(msg)

    def begin_light(self, rate: float) -> None:
        """Start the open-loop stream now."""
        self._period = 1.0 / rate
        self._start = self.engine.now()
        self.engine.set_timer(0.0)

    def on_timer(self, token: int) -> Disposition:
        if self.light_closed:
            return Disposition.DONE
        now, wall = self.engine.now(), time.monotonic()
        load = self.load
        seq = self.light_msgs
        due = self._start + seq * self._period
        while due <= now:
            msg = Message(MsgType.DATA, self.node_id, load.light_app, load.payload(seq), seq=seq)
            for dest in self.downstream_targets:
                self.send(msg, dest)
            self.stamps[load.light_app, seq] = wall - (now - due)
            self.lateness.append(now - due)
            seq += 1
            due = self._start + seq * self._period
        self.light_msgs = seq
        self.engine.set_timer(max(0.0, due - self.engine.now()))
        return Disposition.DONE

    def on_control(self, msg: Message) -> Disposition:
        verb = _control_type(msg)
        if verb == CLOSE:
            self.closed = True
        elif verb == LIGHT:
            self.begin_light(float(msg.fields().get("param1", 0)))
        elif verb == REPORT:
            self.light_closed = True
        return Disposition.DONE

    def report(self) -> dict:
        info = {"forwarded": self.forwarded_msgs, "light": self.light_msgs}
        if self.light_closed:
            info["stamps"] = [[app, seq, t] for (app, seq), t in self.stamps.items()]
            info["lateness"] = self.lateness
            info.update(self.probe_samples())
        return info


class BenchSink(_Reporting, Algorithm):
    """Digest, order and arrival-time recorder at the end of a chain.

    ``digest`` is the order-independent sum of :func:`entry_digest` over
    every received ``(app, seq, crc32(payload))``.  A chain is FIFO, so
    a sequence number at or below the previous one of the same stream,
    or a stream the load does not have, is an order error.  Arrival
    times are kept for the open-loop stream and for the saturated
    messages the source times.
    """

    def __init__(self, workload: str = "", load_seed: int = 0, probe: bool = False) -> None:
        tracer.from_env()
        super().__init__()
        self.probe = probe
        load = make_load(workload, load_seed)
        self.light_app = load.light_app
        self._last_seq = {load.app: -1, load.light_app: -1}
        self.received = 0
        self.digest = 0
        self.order_errors = 0
        self.first_at: float | None = None
        self.arrivals: dict[tuple[int, int], float] = {}
        self.closed = False

    def on_data(self, msg: Message) -> Disposition:
        now = time.monotonic()
        if self.first_at is None:
            self.first_at = now
        app, seq = msg.app, msg.seq
        last = self._last_seq.get(app)
        if last is None or seq <= last:
            self.order_errors += 1
        else:
            self._last_seq[app] = seq
        self.digest = (self.digest + entry_digest(app, seq, zlib.crc32(msg.payload))) \
            & 0xFFFFFFFFFFFFFFFF
        self.received += 1
        if app == self.light_app or seq % STAMP_EVERY == 0:
            self.arrivals[app, seq] = now
        return Disposition.DONE

    def on_control(self, msg: Message) -> Disposition:
        if _control_type(msg) == REPORT:
            self.closed = True
        return Disposition.DONE

    def report(self) -> dict:
        info = {
            "received": self.received,
            "digest": self.digest,
            "order_errors": self.order_errors,
            "first_at": self.first_at,
        }
        if self.closed:
            info["arrivals"] = [[app, seq, t] for (app, seq), t in self.arrivals.items()]
            info.update(self.probe_samples())
        return info
