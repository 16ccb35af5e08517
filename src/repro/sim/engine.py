"""The simulated engine backend: EngineCore over the discrete-event kernel.

All switching semantics — control draining, the weighted-round-robin
switch, pending-forward retries, probe/bandwidth/status handling, source
pacing, telemetry — live in :class:`repro.core.engine_core.EngineCore`.
This module supplies only what is transport-specific: simulated links
(one receiver task per upstream, one sender task per downstream),
link construction through the :class:`Fabric`, inactivity detection
tuned to virtual time, and graceful termination.

The algorithm runs only inside the engine task (plus source tasks, which
never interleave mid-``process``), preserving the paper's guarantee that
algorithms need no thread-safe data structures.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Any, Coroutine, Iterable, Protocol

from repro.core.algorithm import Algorithm
from repro.core.bandwidth import BandwidthSpec
from repro.core.engine_core import EngineCore
from repro.core.ids import CONTROL_APP, NodeId
from repro.core.message import Message
from repro.core.msgtypes import MsgType
from repro.core.stats import LinkStats
from repro.core.switch import ReceiverPort
from repro.errors import BufferClosedError, LinkDownError
from repro.sim.kernel import Kernel, Task
from repro.sim.link import SimLink
from repro.sim.sync import SimEvent, SimQueue
from repro.telemetry import Telemetry
from repro.telemetry.tracing import EventType


class Fabric(Protocol):
    """What an engine needs from the surrounding network."""

    def open_link(self, src: NodeId, dst: NodeId) -> SimLink | None:
        """Create a directed connection; ``None`` if ``dst`` is not alive."""

    def to_observer(self, msg: Message) -> None:
        """Deliver a message to the (centralized) observer."""

    def node_terminated(self, node: NodeId) -> None:
        """Notification that ``node`` finished its graceful shutdown."""


@dataclass
class EngineConfig:
    """Tunables of one engine instance.

    ``buffer_capacity`` is the paper's per-buffer size in messages (both
    receiver and sender buffers) — the lever between delay-sensitive
    (small) and bandwidth-aggressive (large) behaviour (Section 2.4).
    """

    buffer_capacity: int = 64
    report_interval: float = 1.0
    #: seconds of upstream silence before the link is declared failed;
    #: ``None`` disables inactivity detection (sim links usually fail loudly).
    inactivity_timeout: float | None = None
    #: minimal virtual time between two source-produced messages.  "Back to
    #: back as fast as possible" needs a floor in a discrete-event world:
    #: without one, a source whose sends are never flow-controlled (e.g.
    #: all its destinations just died) would produce unboundedly many
    #: messages without advancing virtual time.
    source_interval: float = 0.001
    #: period between repeated bootstrap requests to the observer, so nodes
    #: that booted early still learn about later arrivals; ``None`` sends a
    #: single bootstrap request at start-up only.
    bootstrap_refresh: float | None = 5.0
    bandwidth: BandwidthSpec = dataclass_field(default_factory=BandwidthSpec)
    #: opt-in telemetry (metrics + lifecycle tracing); ``None`` keeps the
    #: data path entirely uninstrumented (the default).
    telemetry: Telemetry | None = None


@dataclass
class _SenderLink:
    """Engine-side state of one outgoing connection (thread-per-sender)."""

    dest: NodeId
    link: SimLink
    queue: SimQueue[Message]
    stats: LinkStats
    task: Task | None = None
    #: virtual time at which the current in-flight delivery started, for
    #: inactivity detection of silently-stalled links; None when idle.
    in_flight_since: float | None = None
    #: cached ``str(dest)`` for telemetry labels
    label: str = dataclass_field(init=False, default="")

    def __post_init__(self) -> None:
        self.label = str(self.dest)


class SimEngine(EngineCore):
    """One virtualized overlay node: engine + algorithm + connections."""

    def __init__(
        self,
        kernel: Kernel,
        node_id: NodeId,
        algorithm: Algorithm,
        fabric: Fabric,
        config: EngineConfig | None = None,
    ) -> None:
        self.kernel = kernel
        self._fabric = fabric
        config = config or EngineConfig()
        super().__init__(
            node_id, algorithm, config,
            control=SimQueue(kernel),  # the publicized port
            wake=SimEvent(kernel),
            send_space=SimEvent(kernel),
        )
        self._senders: dict[NodeId, _SenderLink] = {}
        self._upstream_links: dict[NodeId, SimLink] = {}
        self._recv_stats: dict[NodeId, LinkStats] = {}
        self._last_recv_at: dict[NodeId, float] = {}
        self._terminated = False
        self._tasks: list[Task] = []
        self._bind_instruments()

    # ------------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Bind the algorithm and spawn the engine's tasks."""
        if self._running or self._terminated:
            raise RuntimeError(f"engine {self._node_id} already started")
        self._running = True
        self.algorithm.bind(self)
        self._tasks.append(self.kernel.spawn(self._engine_loop(), name=f"{self._node_id}/engine"))
        self._tasks.append(self.kernel.spawn(self._report_loop(), name=f"{self._node_id}/report"))
        if self.config.inactivity_timeout is not None:
            self._tasks.append(
                self.kernel.spawn(self._watchdog_loop(), name=f"{self._node_id}/watchdog")
            )

    def terminate(self) -> None:
        """Gracefully shut the node down (the observer's *terminate node*).

        All incident links are broken so neighbours detect the failure
        through their normal error paths; local tasks are cancelled and
        data structures cleared — the paper's graceful termination.
        """
        if not self._running:
            return
        self._running = False
        self._terminated = True
        for task in self._sources.values():
            task.cancel()
        self._sources.clear()
        self._local_apps.clear()
        for sender in list(self._senders.values()):
            sender.link.break_()
            sender.queue.close()
            if sender.task is not None:
                sender.task.cancel()
        self._senders.clear()
        for link in list(self._upstream_links.values()):
            link.break_()
        self._upstream_links.clear()
        for port in list(self._scheduler.ports):
            self._scheduler.remove_port(port.peer)
        self._control.close()
        self._wake.set()
        self._send_space.set()
        for task in self._tasks:
            task.cancel()
        self._tasks.clear()
        self.algorithm.on_stop()
        self._fabric.node_terminated(self._node_id)

    # ------------------------------------------------------ Clock / ObserverSink

    def now(self) -> float:
        return self.kernel.now

    def send_to_observer(self, msg: Message) -> None:
        if self._running:
            self._fabric.to_observer(msg)

    # -------------------------------------------------------------- Transport port

    def _dispatch(self, msg: Message, dest: NodeId) -> None:
        sender = self._ensure_sender(dest)
        if sender is None:
            self._notify_broken_link(dest, direction="down")
            return
        if self._ins is not None and msg.type == MsgType.DATA:
            self._data_sends += 1
        self._stage(msg, dest, sender.queue)

    def _outbound_queue(self, dest: NodeId) -> SimQueue[Message] | None:
        sender = self._senders.get(dest)
        return None if sender is None else sender.queue

    def downstreams(self) -> list[NodeId]:
        return list(self._senders)

    def _request_connect(self, dest: NodeId) -> None:
        self.connect(dest)

    def _request_shutdown(self) -> None:
        self.terminate()

    def _spawn(self, coro: Coroutine, name: str) -> Task:
        return self.kernel.spawn(coro, name=name)

    async def _sleep(self, delay: float) -> None:
        await self.kernel.sleep(delay)

    def _call_later(self, delay: float, callback: Any, *args: Any) -> None:
        self.kernel.call_later(delay, callback, *args)

    async def _yield_control(self) -> None:
        # The kernel is cooperative, so nothing can add work while this
        # task runs: after a pass that left no buffered or pending message
        # and no control message, another round would switch nothing.
        if self._running and not self._scheduler.has_work() and self._control.is_empty:
            self._wake.clear()
            await self._wake.wait()

    def _on_engine_start(self) -> None:
        # Table 1: start the TCP server, bootstrap from observer, then loop.
        self._send_boot()
        if self.config.bootstrap_refresh is not None:
            self._tasks.append(
                self.kernel.spawn(self._bootstrap_loop(), name=f"{self._node_id}/boot")
            )

    def _source_pacing(self) -> float:
        return self.config.source_interval

    def _send_buffer_levels(self) -> dict[str, int]:
        return {s.label: len(s.queue) for s in self._senders.values()}

    def _recv_rates(self, now: float) -> dict[str, float]:
        return {str(p): st.throughput.rate(now) for p, st in self._recv_stats.items()}

    def _send_rates(self, now: float) -> dict[str, float]:
        return {s.label: s.stats.throughput.rate(now) for s in self._senders.values()}

    def _up_rate_reports(self, now: float) -> Iterable[tuple[str, float]]:
        for peer, stats in self._recv_stats.items():
            if self._scheduler.get_port(peer) is None:
                continue
            yield str(peer), stats.throughput.rate(now)

    def _down_rate_reports(self, now: float) -> Iterable[tuple[str, float]]:
        for dest, sender in self._senders.items():
            yield str(dest), sender.stats.throughput.rate(now)

    def _stats_in(self, peer: NodeId) -> LinkStats | None:
        return self._recv_stats.get(peer)

    def _stats_out(self, peer: NodeId) -> LinkStats | None:
        sender = self._senders.get(peer)
        return None if sender is None else sender.stats

    # ----------------------------------------------------------------- connections

    def connect(self, dest: NodeId) -> bool:
        """Ensure a persistent outgoing connection to ``dest`` exists."""
        return self._ensure_sender(dest) is not None

    def disconnect(self, dest: NodeId) -> None:
        """Tear down the outgoing connection to ``dest`` (if any)."""
        sender = self._senders.pop(dest, None)
        if sender is None:
            return
        sender.link.break_()
        lost = sender.queue.drain()
        sender.queue.close()
        for msg in lost:
            sender.stats.loss.record(msg.size)
            self._record_loss(msg)
        if sender.task is not None:
            sender.task.cancel()
        self.throttle.drop_link(dest)
        for app in list(self._app_downstreams):
            self._app_downstreams[app].discard(dest)

    def accept_upstream(self, link: SimLink) -> None:
        """Register an incoming connection (called by the fabric)."""
        if not self._running or link.src in self._upstream_links:
            return
        self._upstream_links[link.src] = link
        buffer: SimQueue[Message] = SimQueue(self.kernel, capacity=self.config.buffer_capacity)
        port = ReceiverPort(peer=link.src, buffer=buffer)  # type: ignore[arg-type]
        self._scheduler.add_port(port)
        self._recv_stats[link.src] = LinkStats()
        self._last_recv_at[link.src] = self.kernel.now
        self._tasks.append(
            self.kernel.spawn(
                self._receiver_loop(link, port), name=f"{self._node_id}/recv-{link.src}"
            )
        )
        self._enqueue_notification(
            Message.with_fields(MsgType.NEW_UPSTREAM, self._node_id, CONTROL_APP, peer=str(link.src))
        )

    def deliver_control(self, msg: Message) -> None:
        """Inject a message into the node's publicized port (observer path)."""
        if not self._running:
            return
        self._control.put_force(msg)
        self._wake.set()

    async def _bootstrap_loop(self) -> None:
        refresh = self.config.bootstrap_refresh
        assert refresh is not None
        while self._running:
            await self.kernel.sleep(refresh)
            if self._running:
                self._send_boot()

    # ------------------------------------------------------------------- receivers

    async def _receiver_loop(self, link: SimLink, port: ReceiverPort) -> None:
        peer = link.src
        stats = self._recv_stats[peer]
        while self._running:
            try:
                msg, sent_at = await link.inbox.get()
            except BufferClosedError:
                if self._running:
                    self._upstream_failed(peer)
                return
            arrival = sent_at + link.latency
            if arrival > self.kernel.now:
                await self.kernel.sleep(arrival - self.kernel.now)
            delay = self.throttle.reserve_recv(msg.size, self.kernel.now)
            if delay > 0:
                if self._ins is not None:
                    self._ins.on_throttle_stall("down", delay)
                await self.kernel.sleep(delay)
            stats.throughput.record(msg.size, self.kernel.now)
            self._last_recv_at[peer] = self.kernel.now
            if not self._running:
                return
            if msg.type == MsgType.DATA:
                try:
                    await port.buffer.put(msg)  # type: ignore[attr-defined]
                except BufferClosedError:
                    return
                port.note_bytes(msg.size)
                ins = self._ins
                if ins is not None:
                    now = self.kernel.now
                    label = port.label
                    ins.enqueued[label] += 1
                    port.wait_times.append(now)
                    msg._hop_t0 = now  # this hop's clock starts here
                    if ins.tracer.enabled:
                        ins.trace_msg(now, EventType.ENQUEUE, msg, label)
            else:
                if msg.type == MsgType.BROKEN_SOURCE:
                    self._propagate_broken_source(msg, peer)
                self._control.put_force(msg)
            self._wake.set()

    def _upstream_failed(self, peer: NodeId) -> None:
        """An incoming connection failed (broken pipe / closed socket)."""
        link = self._upstream_links.pop(peer, None)
        if link is not None:
            link.break_()
        port = self._scheduler.remove_port(peer)
        if port is not None:
            lost = port.buffer.drain() if hasattr(port.buffer, "drain") else []  # type: ignore[attr-defined]
            stats = self._recv_stats.get(peer)
            if stats is not None:
                for msg in lost:
                    stats.loss.record(msg.size)
                    self._record_loss(msg)
        # Drop the stats entry with the port: a dead upstream must not
        # linger in status-report recv_rates (stale-NodeId leak).
        self._recv_stats.pop(peer, None)
        self._last_recv_at.pop(peer, None)
        self._notify_broken_link(peer, direction="up")
        # Domino effect: any application fed exclusively by this upstream
        # has lost its source from our point of view.
        self._domino_upstream_lost(peer)
        self._wake.set()

    async def _watchdog_loop(self) -> None:
        """Detect upstream failures via long consecutive traffic inactivity."""
        timeout = self.config.inactivity_timeout
        assert timeout is not None
        while self._running:
            await self.kernel.sleep(timeout / 2)
            if not self._running:
                return
            now = self.kernel.now
            for peer, last in list(self._last_recv_at.items()):
                if now - last > timeout:
                    link = self._upstream_links.get(peer)
                    if link is not None:
                        link.break_()  # unblocks the receiver task, which cleans up
                    else:
                        self._upstream_failed(peer)
            # Sender side: a delivery stuck longer than the timeout means the
            # downstream is silently gone (stalled link) — tear it down.
            for sender in list(self._senders.values()):
                started = sender.in_flight_since
                if started is not None and now - started > timeout:
                    sender.link.break_()
                    if sender.task is not None:
                        sender.task.cancel()
                    self._sender_failed(sender, undelivered=[])

    # --------------------------------------------------------------------- senders

    def _ensure_sender(self, dest: NodeId) -> _SenderLink | None:
        sender = self._senders.get(dest)
        if sender is not None:
            return sender
        link = self._fabric.open_link(self._node_id, dest)
        if link is None:
            return None
        queue: SimQueue[Message] = SimQueue(self.kernel, capacity=self.config.buffer_capacity)
        sender = _SenderLink(dest=dest, link=link, queue=queue, stats=LinkStats())
        self._senders[dest] = sender
        sender.task = self.kernel.spawn(
            self._sender_loop(sender), name=f"{self._node_id}/send-{dest}"
        )
        self._tasks.append(sender.task)
        return sender

    async def _sender_loop(self, sender: _SenderLink) -> None:
        while self._running:
            try:
                msg = await sender.queue.get()
            except BufferClosedError:
                return
            sender.in_flight_since = self.kernel.now
            delay = self.throttle.reserve_send(sender.dest, msg.size, self.kernel.now)
            if delay > 0:
                if self._ins is not None:
                    self._ins.on_throttle_stall("up", delay)
                await self.kernel.sleep(delay)
            if self._ins is not None and sender.link.inbox.is_full:
                self._ins.backpressure[sender.label] += 1
            try:
                await sender.link.deliver(msg)
            except LinkDownError:
                if self._running:
                    self._sender_failed(sender, undelivered=[msg])
                return
            sender.in_flight_since = None
            sender.stats.throughput.record(msg.size, self.kernel.now)
            ins = self._ins
            if ins is not None and msg.type == MsgType.DATA:
                label = sender.label
                ins.forwarded[label] += 1
                now = self.kernel.now
                t0 = msg._hop_t0
                if t0 is not None:
                    ins.observe_hop(now - t0 if now > t0 else 0.0)
                if ins.tracer.enabled:
                    ins.trace_msg(now, EventType.FORWARD, msg, label)
            self._send_space.set()
            # Freed send space is news to the engine only when a forward
            # waits on it; otherwise the wake-up would switch nothing.
            if self._scheduler.has_pending():
                self._wake.set()

    def _sender_failed(self, sender: _SenderLink, undelivered: list[Message]) -> None:
        """An outgoing connection failed mid-send."""
        current = self._senders.get(sender.dest)
        if current is not sender:
            return  # already replaced or removed
        del self._senders[sender.dest]
        lost = undelivered + sender.queue.drain()
        sender.queue.close()
        for msg in lost:
            sender.stats.loss.record(msg.size)
            self._record_loss(msg)
        self.throttle.drop_link(sender.dest)
        for port in self._scheduler.ports:
            port.discard_dest(sender.dest)
        if self._source_pending is not None:
            for forward in self._source_pending:
                forward.remaining = [d for d in forward.remaining if d != sender.dest]
        for app in list(self._app_downstreams):
            self._app_downstreams[app].discard(sender.dest)
        self._notify_broken_link(sender.dest, direction="down")
        self._send_space.set()
        self._wake.set()

    def __repr__(self) -> str:
        state = "running" if self._running else ("terminated" if self._terminated else "new")
        return f"SimEngine({self._node_id}, {state})"
