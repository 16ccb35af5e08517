"""The shared switching engine core, independent of any transport.

The paper describes **one** engine design — control messages drained
from the publicized port, data switched from receiver buffers to sender
buffers in weighted round-robin order, bounded buffers producing back
pressure, sources paced by flow control — and realizes it over
different transports.  This module is that single design:
:class:`EngineCore` owns every piece of switching semantics, and a
concrete engine (:class:`repro.sim.engine.SimEngine` over the
discrete-event kernel, :class:`repro.net.engine.AsyncioEngine` over
asyncio TCP) only supplies the *ports* the core is parameterized by:

- the **Clock port** — :meth:`EngineCore.now`;
- the **ObserverSink port** — :meth:`EngineCore.send_to_observer`;
- the **Transport port** — outbound routing/queues, connection
  management, task spawning and sleeping (everything prefixed with an
  underscore in the abstract list below).

Backends must *not* reimplement anything the core owns — the method
list is frozen by ``tests/test_engine_parity_surface.py``, which walks
both backends' ASTs and fails if a core-owned method reappears there.
That guard is what keeps the two engines from drifting apart again.

Synchronization primitives are duck-typed rather than imported: the
core works against any bounded FIFO with the :class:`MessageQueue`
surface and any level-triggered flag with the :class:`WakeEvent`
surface (``SimQueue``/``SimEvent`` in the simulator,
``AsyncBoundedQueue``/``asyncio.Event`` live).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Coroutine, Iterable, Protocol

from repro.core.algorithm import Algorithm, Disposition
from repro.core.bandwidth import NodeThrottle
from repro.core.ids import CONTROL_APP, AppId, NodeId
from repro.core.message import Message
from repro.core.msgtypes import MsgType, is_engine_type
from repro.core.stats import LinkStats, LinkStatsSnapshot
from repro.core.switch import PendingForward, ReceiverPort, SwitchScheduler
from repro.telemetry.tracing import EventType


class MessageQueue(Protocol):
    """The bounded-FIFO surface the core requires of every buffer."""

    @property
    def is_empty(self) -> bool: ...
    @property
    def closed(self) -> bool: ...
    def __len__(self) -> int: ...
    def put_nowait(self, item: Message) -> bool: ...
    def put_force(self, item: Message) -> None: ...
    def get_nowait(self) -> Message: ...


class WakeEvent(Protocol):
    """The level-triggered flag surface (``SimEvent`` / ``asyncio.Event``)."""

    def set(self) -> None: ...
    def clear(self) -> None: ...
    async def wait(self) -> Any: ...


class EngineCore(ABC):
    """One overlay node's switching semantics, shared by every transport.

    A backend constructs the core with its own control queue and wake
    events (whose blocking flavour matches the backend's scheduler) and
    implements the abstract Transport/Clock/ObserverSink methods.  The
    core then runs the engine loop, the weighted-round-robin switch,
    pending-forward retries, engine-owned control handling, status
    reporting, source pacing and all telemetry emission.
    """

    def __init__(
        self,
        node_id: NodeId,
        algorithm: Algorithm,
        config: Any,
        control: MessageQueue,
        wake: WakeEvent,
        send_space: WakeEvent,
    ) -> None:
        self._node_id = node_id
        self.algorithm = algorithm
        self.config = config
        self.throttle = NodeThrottle(config.bandwidth)
        self._scheduler = SwitchScheduler()
        self._control = control
        self._wake = wake
        self._send_space = send_space
        self._running = False
        self._sources: dict[AppId, Any] = {}
        self._local_apps: set[AppId] = set()
        self._app_upstreams: dict[AppId, set[NodeId]] = {}
        self._app_downstreams: dict[AppId, set[NodeId]] = {}
        # switching context: which receiver port (or source) produced the
        # message the algorithm is currently processing
        self._current_port: ReceiverPort | None = None
        self._source_pending: list[PendingForward] | None = None
        self._lost_messages = 0
        self._lost_bytes = 0
        # opt-in telemetry; when off, every hot-path hook is one `is None`.
        # Backends whose identity is only final later (port-0 binding)
        # call _bind_instruments once the node id is settled.
        self._ins = None
        self._peer_strs: dict[NodeId, str] = {}
        #: data-message send() calls observed while the algorithm runs,
        #: used to recognize local delivery (processed without re-sending)
        self._data_sends = 0

    def _bind_instruments(self) -> None:
        tel = self.config.telemetry
        if tel is not None:
            self._ins = tel.instruments_for(self._node_id)

    # ------------------------------------------------------------------ Clock port

    @abstractmethod
    def now(self) -> float:
        """Current time on this backend's clock (virtual or monotonic)."""

    # ----------------------------------------------------------- ObserverSink port

    @abstractmethod
    def send_to_observer(self, msg: Message) -> None:
        """Deliver a message to the observer over this backend's channel."""

    # -------------------------------------------------------------- Transport port

    @abstractmethod
    def _dispatch(self, msg: Message, dest: NodeId) -> None:
        """Route one message toward a non-local destination."""

    @abstractmethod
    def _outbound_queue(self, dest: NodeId) -> MessageQueue | None:
        """The established outbound buffer toward ``dest``, if any.

        A pure lookup — must not create connections as a side effect.
        """

    @abstractmethod
    def downstreams(self) -> list[NodeId]:
        """Peers this node holds an outgoing connection to."""

    @abstractmethod
    def disconnect(self, dest: NodeId) -> None:
        """Gracefully tear down the connection to ``dest`` (if any)."""

    @abstractmethod
    def _request_connect(self, dest: NodeId) -> None:
        """Begin establishing a persistent connection to ``dest``."""

    @abstractmethod
    def _request_shutdown(self) -> None:
        """Begin this node's graceful termination."""

    @abstractmethod
    def _spawn(self, coro: Coroutine, name: str) -> Any:
        """Schedule a coroutine as a cancellable task on the backend."""

    @abstractmethod
    async def _sleep(self, delay: float) -> None:
        """Suspend the calling task for ``delay`` seconds."""

    @abstractmethod
    def _call_later(self, delay: float, callback: Any, *args: Any) -> None:
        """Invoke ``callback(*args)`` after ``delay`` seconds."""

    async def _yield_control(self) -> None:
        """Backend hook run after every pass that made progress.

        The default keeps control (a no-op await).  The asyncio backend
        overrides it with a true reschedule so IO tasks can breathe; the
        simulator overrides it to park at once when the pass left no
        work.  Parking belongs in the hook, not in the shared loop: on
        asyncio, the round that follows a yield is part of how weighted
        round-robin splits the output between upstreams.
        """

    def _on_engine_start(self) -> None:
        """Backend hook run when the engine loop begins (boot handshakes)."""

    def _flush_round(self) -> None:
        """Backend hook run once after every switch round that made progress.

        The batching contract is *one flush per destination per round*,
        not one per message.  The default is a no-op because both
        shipped backends already satisfy the contract without work here:
        the sim kernel has no flush concept, and the asyncio backend's
        per-peer sender tasks wake at ``_yield_control`` and drain the
        whole send queue into a single ``writer.drain()``.  A backend
        whose transport needs an explicit end-of-round flush (e.g. one
        buffering frames in the engine task itself) overrides this.
        """

    def _source_pacing(self) -> float:
        """Delay between source emissions once flow control is satisfied."""
        return 0.0

    def _credit_scale(self) -> int:
        """Multiplier applied to port weights at each credit epoch.

        Fairness between upstreams is a ratio of weights, so scaling
        every allowance equally leaves it intact; what changes is the
        granularity — one epoch moves ``weight * scale`` messages per
        port.  The asyncio backend scales epochs up to batch size; the
        simulator keeps per-message granularity (default 1) because its
        figures observe the fine-grained interleaving.
        """
        return 1

    def _rounds_per_wakeup(self) -> int:
        """How many switch rounds one engine wakeup may run (default 1).

        A credit epoch moves only ``weight`` messages per port, so with
        one round per wakeup a relay forwards a single message per
        scheduler pass no matter how many are buffered.  The asyncio
        backend raises this so one wakeup sweeps the whole backlog into
        the send queues and the per-peer sender flushes it as one
        batch.  The simulator keeps the default because its figures
        depend on the one-round-per-step interleaving, not because its
        wakeups are free: virtual time does not advance during one, but
        each costs wall-clock time in the kernel, and wakeups are a large
        share of the simulator's cost.  Weighted fairness is
        unaffected — rounds replenish credits by weight, so the *ratio*
        between competing upstreams holds regardless of how many rounds
        run back to back.
        """
        return 1

    def _source_burst(self) -> int:
        """How many messages the source emits per wakeup (default 1).

        A backend whose scheduler round-robins many tasks (asyncio) can
        raise this so each source wakeup emits a *wave*: downstream
        sweeps, sender drains, and ring batches then carry the whole
        wave per cycle, amortizing the fixed per-wakeup costs that
        otherwise dominate when exactly one message trickles through the
        pipeline per event-loop pass.  The simulator keeps the default
        because figure determinism depends on the one-emission-per-step
        cadence.  Its wakeups are not free either: each takes no virtual
        time but costs wall-clock time in the kernel.
        """
        return 1

    @abstractmethod
    def _send_buffer_levels(self) -> dict[str, int]:
        """Occupancy of every outbound buffer, keyed by ``str(dest)``."""

    @abstractmethod
    def _recv_rates(self, now: float) -> dict[str, float]:
        """Measured inbound B/s per upstream, keyed by ``str(peer)``."""

    @abstractmethod
    def _send_rates(self, now: float) -> dict[str, float]:
        """Measured outbound B/s per downstream, keyed by ``str(dest)``."""

    @abstractmethod
    def _up_rate_reports(self, now: float) -> Iterable[tuple[str, float]]:
        """(peer, rate) pairs for periodic UP_THROUGHPUT notifications."""

    @abstractmethod
    def _down_rate_reports(self, now: float) -> Iterable[tuple[str, float]]:
        """(peer, rate) pairs for periodic DOWN_THROUGHPUT notifications."""

    @abstractmethod
    def _stats_in(self, peer: NodeId) -> LinkStats | None:
        """Inbound link statistics for ``peer``, if tracked."""

    @abstractmethod
    def _stats_out(self, peer: NodeId) -> LinkStats | None:
        """Outbound link statistics for ``peer``, if tracked."""

    # ------------------------------------------------------------- EngineServices

    @property
    def node_id(self) -> NodeId:
        """This node's publicized identity."""
        return self._node_id

    @property
    def running(self) -> bool:
        """True between start and termination."""
        return self._running

    def send(self, msg: Message, dest: NodeId) -> None:
        """The single engine entry point available to algorithms.

        ``send`` never raises and never reports failure synchronously:
        abnormal outcomes surface later as engine-produced messages
        (Section 2.3).  Data messages respect sender-buffer bounds and
        participate in back pressure; other (small protocol) messages
        are never blocked, so control traffic cannot deadlock behind
        data.
        """
        if not self._running:
            return
        if dest == self._node_id:
            self._control.put_force(msg)
            self._wake.set()
            return
        self._dispatch(msg, dest)

    def _stage(self, msg: Message, dest: NodeId, queue: MessageQueue) -> None:
        """Enqueue one outbound message on an established connection.

        Data respects the queue bound (deferring on overflow so the
        switch retries next round); control traffic is forced past it.
        """
        if msg.type == MsgType.DATA:
            self._track_downstream(msg.app, dest)
            if not queue.put_nowait(msg):
                self._defer_data(msg, dest)
        else:
            queue.put_force(msg)

    def upstreams(self) -> list[NodeId]:
        """Peers with a receiver port on this node."""
        return [port.peer for port in self._scheduler.ports]

    def link_stats(self, peer: NodeId) -> LinkStatsSnapshot | None:
        """QoS snapshot for the link to/from ``peer`` (outgoing preferred)."""
        stats = self._stats_out(peer)
        if stats is None:
            stats = self._stats_in(peer)
        return None if stats is None else stats.snapshot(self.now())

    def start_source(self, app: AppId, payload_size: int) -> None:
        """Deploy a back-to-back application data source here."""
        if app in self._sources or not self._running:
            return
        self._local_apps.add(app)
        self._sources[app] = self._spawn(
            self._source_loop(app, payload_size), name=f"{self._node_id}/source-{app}"
        )

    def stop_source(self, app: AppId) -> None:
        """Terminate a deployed source and tell downstreams it is gone."""
        task = self._sources.pop(app, None)
        self._local_apps.discard(app)
        if task is not None:
            task.cancel()
        self._broadcast_broken_source(app)

    def set_timer(self, delay: float, token: int = 0) -> None:
        """Deliver a ``TIMER`` message to the algorithm after ``delay``."""
        msg = Message.with_fields(MsgType.TIMER, self._node_id, CONTROL_APP, token=token)
        self._call_later(delay, self._enqueue_notification, msg)

    def set_port_weight(self, peer: NodeId, weight: int) -> None:
        """Dynamically retune a receiver port's round-robin weight."""
        self._scheduler.set_weight(peer, weight)
        self._wake.set()

    def measure(self, peer: NodeId) -> None:
        """Probe RTT to ``peer``; the algorithm receives MEASURE_REPLY.

        The probe is a tiny HEARTBEAT request/echo over the persistent
        connection — used only on demand, never as a periodic heartbeat.
        """
        probe = Message.with_fields(
            MsgType.HEARTBEAT, self._node_id, CONTROL_APP,
            probe="req", t0=self.now(), origin=str(self._node_id),
        )
        self.send(probe, peer)

    def recv_rate(self, peer: NodeId) -> float:
        """Current incoming throughput from ``peer`` in bytes/second."""
        stats = self._stats_in(peer)
        return 0.0 if stats is None else stats.throughput.rate(self.now())

    def send_rate(self, peer: NodeId) -> float:
        """Current outgoing throughput to ``peer`` in bytes/second."""
        stats = self._stats_out(peer)
        return 0.0 if stats is None else stats.throughput.rate(self.now())

    def buffer_levels(self) -> dict[str, int]:
        """Receiver/sender buffer occupancy (for the observer's display)."""
        levels = {f"recv:{port.peer}": len(port.buffer) for port in self._scheduler.ports}
        for dest, depth in self._send_buffer_levels().items():
            levels[f"send:{dest}"] = depth
        return levels

    def queue_snapshot(self) -> dict[str, dict]:
        """O(1)-per-port queue depths and buffered bytes.

        ``recv`` maps each upstream label to ``[depth, bytes]`` (the
        switch's incrementally maintained gauges — no buffer is
        scanned); ``send`` maps each downstream label to its outbound
        buffer depth.  Routing algorithms poll this every tick to feed
        tunnel-occupancy penalties, and both backends embed it in the
        periodic STATUS report as the ``queues`` field.
        """
        recv = {
            label: [depth, nbytes]
            for label, (depth, nbytes) in self._scheduler.queue_snapshot().items()
        }
        return {
            "recv": recv,
            "send": self._send_buffer_levels(),
            "total_messages": self._scheduler.total_buffered(),
            "total_bytes": self._scheduler.total_buffered_bytes(),
        }

    # --------------------------------------------------------------------- engine

    async def _engine_loop(self) -> None:
        self._on_engine_start()
        self.algorithm.on_start()
        while self._running:
            progressed = self._drain_control()
            if self._switch_round():
                progressed = True
            if progressed:
                # Backend policy: keep switching while buffered work
                # remains before flushing and yielding.  Bounded even
                # with a large budget — the inner rounds consume the
                # (bounded) receive buffers and cannot refill them,
                # since IO tasks only run after the yield below.
                extra = self._rounds_per_wakeup() - 1
                while extra > 0:
                    more = self._drain_control()
                    if self._switch_round():
                        more = True
                    if not more:
                        break
                    extra -= 1
                self._flush_round()
                await self._yield_control()
            else:
                # No await happened since the last state change we saw, so
                # clear-then-wait cannot lose a wake-up (cooperative tasks).
                self._wake.clear()
                await self._wake.wait()

    def _drain_control(self) -> bool:
        progressed = False
        while self._running and not self._control.is_empty:
            msg = self._control.get_nowait()
            progressed = True
            if is_engine_type(msg.type):
                self._engine_process(msg)
            else:
                self.algorithm.process(msg)
        return progressed

    def _engine_process(self, msg: Message) -> None:
        """Handle engine-owned control types (``Engine::process`` in Table 1)."""
        if msg.type == MsgType.TERMINATE:
            self._request_shutdown()
        elif msg.type == MsgType.SET_BANDWIDTH:
            self._apply_bandwidth(msg)
        elif msg.type == MsgType.CONNECT:
            self._request_connect(NodeId.parse(msg.fields()["dest"]))
        elif msg.type == MsgType.DISCONNECT:
            self.disconnect(NodeId.parse(msg.fields()["dest"]))
        elif msg.type == MsgType.REQUEST:
            self.send_to_observer(self._status_report())
            self.algorithm.process(msg)  # let the algorithm add its own report
        elif msg.type == MsgType.HEARTBEAT:
            self._handle_probe(msg)

    def _handle_probe(self, msg: Message) -> None:
        fields = msg.fields()
        origin = NodeId.parse(fields["origin"])
        if fields.get("probe") == "req":
            extra = {}
            if "liveness" in fields:
                extra["liveness"] = fields["liveness"]
            echo = Message.with_fields(
                MsgType.HEARTBEAT, self._node_id, CONTROL_APP,
                probe="resp", t0=fields["t0"], origin=fields["origin"], **extra,
            )
            self.send(echo, origin)
        elif fields.get("probe") == "resp":
            if fields.get("liveness"):
                # Watchdog traffic: receiving the frame already reset the
                # peer's inactivity clock; the algorithm never sees it.
                return
            peer = msg.sender
            rtt = self.now() - float(fields["t0"])
            self._enqueue_notification(Message.with_fields(
                MsgType.MEASURE_REPLY, self._node_id, CONTROL_APP,
                peer=str(peer), rtt=rtt, send_rate=self.send_rate(peer),
            ))

    def _apply_bandwidth(self, msg: Message) -> None:
        fields = msg.fields()
        category, rate = fields["category"], fields["rate"]
        if category == "total":
            self.throttle.set_total(rate)
        elif category == "up":
            self.throttle.set_up(rate)
        elif category == "down":
            self.throttle.set_down(rate)
        elif category == "link":
            self.throttle.set_link(NodeId.parse(fields["peer"]), rate)
        else:
            raise ValueError(f"unknown bandwidth category: {category!r}")

    def _status_report(self) -> Message:
        now = self.now()
        fields = dict(
            node=str(self._node_id),
            upstreams=[str(p) for p in self.upstreams()],
            downstreams=[str(d) for d in self.downstreams()],
            recv_buffers=self._recv_buffer_levels(),
            send_buffers=self._send_buffer_levels(),
            recv_rates=self._recv_rates(now),
            send_rates=self._send_rates(now),
            lost_messages=self._lost_messages,
            lost_bytes=self._lost_bytes,
            apps=sorted(self._local_apps | set(self._app_upstreams)),
            queues=self.queue_snapshot(),
        )
        if self.config.telemetry is not None:
            self._refresh_buffer_gauges()
            fields["metrics"] = self.config.telemetry.snapshot(node=str(self._node_id))
        return Message.with_fields(MsgType.STATUS, self._node_id, CONTROL_APP, **fields)

    def _recv_buffer_levels(self) -> dict[str, int]:
        return {p.label: len(p.buffer) for p in self._scheduler.ports_view()}

    def _refresh_buffer_gauges(self) -> None:
        if self._ins is None:
            return
        self._ins.set_buffer_gauges(self._recv_buffer_levels(), self._send_buffer_levels())

    # --------------------------------------------------------------------- switch

    def _switch_round(self) -> bool:
        """One weighted (deficit) round-robin pass over all receiver ports.

        Credits are consumed as messages depart a port, so under output
        congestion — where every message traverses the pending path —
        competing upstreams still share the output in weight proportion.
        When every port with work has exhausted its credit, a new credit
        epoch starts as the pass begins, and the pass then switches with
        the fresh credits.
        """
        ins = self._ins
        scheduler = self._scheduler
        # has_work() is O(1) and may read stale-positive; _credits_spent
        # then makes the exact decision in one scan.
        if scheduler.has_work() and self._credits_spent():
            scheduler.replenish_credits(self._credit_scale())
            if ins is not None:
                ins.n_credit_epochs += 1
        progressed = False
        moved = 0
        for port in scheduler.rotation():
            if not port.has_work():
                continue
            if port.credit <= 0:
                if ins is not None:
                    ins.credit_stalls[port.label] += 1
                    epoch = self._scheduler.epochs
                    if ins.tracer.enabled and port.stall_epoch != epoch:
                        port.stall_epoch = epoch
                        ins.trace_port(self.now(), EventType.CREDIT_EXHAUSTED, port.label)
                continue
            if port.pending:
                before = len(port.pending)
                self._retry_pending(port)
                completed = before - len(port.pending)
                if completed:
                    port.credit -= completed
                    progressed = True
                if port.blocked or port.credit <= 0:
                    continue
            while port.credit > 0 and not port.blocked and not port.buffer.is_empty:
                msg = port.buffer.get_nowait()  # type: ignore[attr-defined]
                port.note_bytes(-msg.size)
                port.switched += 1
                moved += 1
                if ins is not None:
                    self._record_pick(port, msg)
                self._track_upstream(msg.app, port.peer)
                self._current_port = port
                sends_before = self._data_sends
                try:
                    disposition = self.algorithm.process(msg)
                finally:
                    self._current_port = None
                if disposition is Disposition.HOLD:
                    port.held += 1
                elif ins is not None and self._data_sends == sends_before:
                    ins.n_delivers += 1
                    if ins.tracer.enabled:
                        ins.trace_msg(self.now(), EventType.DELIVER, msg)
                progressed = True
                if not port.blocked:
                    port.credit -= 1
        if ins is not None:
            ins.n_switch_rounds += 1
            if moved:
                ins.observe_batch(float(moved))
        return progressed

    def _credits_spent(self) -> bool:
        """True when a new credit epoch is due: every port that has work
        has spent its credit.

        Ports with credit left keep their claim on upcoming sender-buffer
        slots, which is exactly what makes the weight ratio hold under
        output congestion.  The backlog must be explicitly non-empty: the
        scheduler's O(1) has_work() can read momentarily-stale counters,
        and an empty backlog must not start an epoch.  One scan, stopping
        at the first port with work and credit.
        """
        backlog = False
        for port in self._scheduler.ports_view():
            if port.has_work():
                if port.credit > 0:
                    return False
                backlog = True
        return backlog

    def _peer_str(self, node: NodeId) -> str:
        """Cached ``str(node)`` for telemetry labels (NodeId.__str__ formats)."""
        label = self._peer_strs.get(node)
        if label is None:
            label = self._peer_strs[node] = str(node)
        return label

    def _record_pick(self, port: ReceiverPort, msg: Message) -> None:
        """Telemetry for one switched message (queue wait + pick event)."""
        ins = self._ins
        now = self.now()
        ins.switched[port.label] += 1
        times = port.wait_times
        if times:
            ins.observe_wait(now - times.popleft())
        if ins.tracer.enabled:
            ins.trace_msg(now, EventType.SWITCH_PICK, msg, port.label)

    def _retry_pending(self, port: ReceiverPort) -> bool:
        progressed = False
        ins = self._ins
        for forward in port.pending:
            progressed = self._try_forward(forward) or progressed
            if ins is not None:
                ins.n_retries += 1
                if forward.done:
                    ins.n_retry_completions += 1
                if ins.tracer.enabled:
                    ins.trace_retry(self.now(), forward.msg, forward.done)
        port.prune_pending()
        return progressed

    def _try_forward(self, forward: PendingForward) -> bool:
        placed_any = False
        still_remaining: list[NodeId] = []
        for dest in forward.remaining:
            queue = self._outbound_queue(dest)
            if queue is None or queue.closed:
                placed_any = True  # destination vanished; drop the obligation
                continue
            if queue.put_nowait(forward.msg):
                placed_any = True
            else:
                still_remaining.append(dest)
        forward.remaining = still_remaining
        return placed_any

    def _defer_data(self, msg: Message, dest: NodeId) -> None:
        """A data send hit a full sender buffer: remember the remaining sender."""
        ins = self._ins
        if ins is not None:
            label = self._peer_str(dest)
            ins.defers[label] += 1
            if ins.tracer.enabled:
                ins.trace_msg(self.now(), EventType.DEFER, msg, label)
        if self._current_port is not None:
            self._current_port.deferred += 1
            pending = self._current_port.pending
            if pending and pending[-1].msg is msg:
                pending[-1].remaining.append(dest)
            else:
                self._current_port.add_pending(PendingForward(msg, [dest]))
        elif self._source_pending is not None:
            if self._source_pending and self._source_pending[-1].msg is msg:
                self._source_pending[-1].remaining.append(dest)
            else:
                self._source_pending.append(PendingForward(msg, [dest]))
        else:
            # No switching context (e.g. algorithm reacting to a control
            # message): queue unconditionally rather than drop.
            queue = self._outbound_queue(dest)
            if queue is not None and not queue.closed:
                queue.put_force(msg)

    # --------------------------------------------------------------------- source

    async def _source_loop(self, app: AppId, payload_size: int) -> None:
        """Produce back-to-back data messages, flow-controlled by send buffers."""
        seq = 0
        while self._running and app in self._local_apps:
            # Emit a burst per wakeup (backend policy, default 1); flow
            # control still applies per message, so a full send buffer
            # parks the whole wave until space frees up.
            for _ in range(self._source_burst()):
                if not (self._running and app in self._local_apps):
                    break
                payload = self.algorithm.produce_payload(app, seq, payload_size)
                msg = Message(MsgType.DATA, self._node_id, app, payload, seq=seq)
                seq += 1
                if self._ins is not None:
                    self._ins.n_source += 1
                    msg._hop_t0 = self.now()  # first hop starts at the source
                    if self._ins.tracer.enabled:
                        self._ins.trace_msg(self.now(), EventType.SOURCE_EMIT, msg)
                self._source_pending = []
                try:
                    self.algorithm.process(msg)
                    while any(f.remaining for f in self._source_pending) and self._running:
                        self._send_space.clear()
                        await self._send_space.wait()
                        for forward in self._source_pending:
                            self._try_forward(forward)
                        self._source_pending = [f for f in self._source_pending if f.remaining]
                finally:
                    self._source_pending = None
            # Pace the producer: bounds event volume when sends are never
            # flow-controlled (see the backend's pacing policy).
            await self._sleep(self._source_pacing())

    def _broadcast_broken_source(self, app: AppId) -> None:
        downstreams = self._app_downstreams.pop(app, set())
        if self._ins is not None and downstreams:
            self._ins.n_domino += 1
        notice = Message.with_fields(
            MsgType.BROKEN_SOURCE, self._node_id, app, app=app, origin=str(self._node_id)
        )
        for dest in downstreams:
            queue = self._outbound_queue(dest)
            if queue is not None and not queue.closed:
                queue.put_force(notice.clone())

    def _propagate_broken_source(self, msg: Message, peer: NodeId) -> None:
        """Domino effect: the path through ``peer`` lost its source.

        Only when the *last* upstream feeding the application is gone
        (and we are not the source ourselves) does the failure cascade
        to our downstreams — multi-path topologies keep flowing.
        """
        app = AppId(msg.fields().get("app", msg.app))
        upstreams = self._app_upstreams.get(app)
        if upstreams is not None:
            upstreams.discard(peer)
            if upstreams:
                return
            del self._app_upstreams[app]
        if app not in self._local_apps:
            self._broadcast_broken_source(app)

    def _domino_upstream_lost(self, peer: NodeId) -> None:
        """Cascade for every application fed exclusively by a dead upstream."""
        for app, ups in list(self._app_upstreams.items()):
            ups.discard(peer)
            if not ups and app not in self._local_apps:
                del self._app_upstreams[app]
                self._broadcast_broken_source(app)

    # -------------------------------------------------------------------- reports

    async def _report_loop(self) -> None:
        """Periodically report per-link throughput to the algorithm."""
        while self._running:
            await self._sleep(self.config.report_interval)
            if not self._running:
                return
            self._refresh_buffer_gauges()
            now = self.now()
            for peer, rate in self._up_rate_reports(now):
                self._enqueue_notification(Message.with_fields(
                    MsgType.UP_THROUGHPUT, self._node_id, CONTROL_APP,
                    peer=peer, rate=rate,
                ))
            for peer, rate in self._down_rate_reports(now):
                self._enqueue_notification(Message.with_fields(
                    MsgType.DOWN_THROUGHPUT, self._node_id, CONTROL_APP,
                    peer=peer, rate=rate,
                ))

    def _send_boot(self) -> None:
        self.send_to_observer(Message.with_fields(
            MsgType.BOOT, self._node_id, CONTROL_APP, node=str(self._node_id)
        ))

    # --------------------------------------------------------------------- helpers

    def _enqueue_notification(self, msg: Message) -> None:
        if not self._running:
            return
        self._control.put_force(msg)
        self._wake.set()

    def _notify_broken_link(self, peer: NodeId, direction: str) -> None:
        if self._ins is not None:
            self._ins.on_broken_link(direction)
        self._enqueue_notification(Message.with_fields(
            MsgType.BROKEN_LINK, self._node_id, CONTROL_APP,
            peer=str(peer), direction=direction,
        ))

    def _record_loss(self, msg: Message) -> None:
        """Cumulative node-level loss accounting (survives link teardown)."""
        self._lost_messages += 1
        self._lost_bytes += msg.size
        if self._ins is not None:
            self._ins.n_drops += 1
            self._ins.n_dropped_bytes += msg.size
            if self._ins.tracer.enabled:
                self._ins.trace_msg(self.now(), EventType.DROP, msg)

    def _track_downstream(self, app: AppId, dest: NodeId) -> None:
        # get-then-add: setdefault would allocate a throwaway set per call
        peers = self._app_downstreams.get(app)
        if peers is None:
            peers = self._app_downstreams[app] = set()
        peers.add(dest)

    def _track_upstream(self, app: AppId, peer: NodeId) -> None:
        peers = self._app_upstreams.get(app)
        if peers is None:
            peers = self._app_upstreams[app] = set()
        peers.add(peer)
