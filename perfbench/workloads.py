"""The four workloads, run inside one child process each.

Every workload is a chain whose first node is
:class:`~perfbench.algos.BenchSource` and whose last node is
:class:`~perfbench.algos.BenchSink`; a driver class per backend builds
it and :func:`measure` runs the same phases on every one:

- **set-up** ends at the first message delivered at the sink; it is
  timed from the moment the benchmark spawned the process (``spawn_t``,
  CLOCK_MONOTONIC), less the speed probe taken before it, and divided
  by that probe's slowness (:mod:`perfbench.speed`);
- **throughput**: after a warm-up, deliveries at the sink are counted
  over back-to-back windows of :data:`WINDOW` seconds; on a saturated
  chain each window's rate is multiplied by the slowness the probe
  measured during it in the processes that run the chain;
- **drain**: the saturated stream stops being forwarded and the sink
  must receive everything that was;
- **latency**: the open-loop stream runs at ``LIGHT_RATE`` for
  :data:`LIGHT_MSGS` messages (``virtual_openloop``: it is the whole
  workload); each message is timed from its due time to its arrival,
  and the run reports the median over one-second windows of each
  window's median.  A saturated chain's queueing delay depends on where
  its bottleneck happens to sit, so latency is taken at light load —
  except on ``sim_chain``, whose virtual-time dynamics are the same on
  every run: there the sampled saturated messages are timed during the
  throughput windows, which is the wall time the simulator takes to
  carry a message through the Fig. 5 chain, and each window's median
  is divided by its slowness;
- **check**: count, order and digest at the sink against the inputs.

``sim_chain`` also runs a fixed virtual duration (``virtual_s``): the
simulated work is then identical on every run with one seed, so traced
work counts repeat exactly.
"""

from __future__ import annotations

import asyncio
import os
import statistics
import time
from typing import Any, Awaitable, Callable

from perfbench import tracer
from perfbench.algos import CLOSE, LIGHT, REPORT, BenchSink, BenchSource
from perfbench.loadgen import LIGHT_RATE, Load
from perfbench.speed import PROBE_REF_S, SpeedProbe, steal_ticks

#: seconds per throughput window (the run reports the median window)
WINDOW = 1.0
#: warm-up before the first window: fills the chain's bounded buffers
WARMUP = {"sim_chain": 0.5, "virtual_chain": 1.0, "virtual_openloop": 0.5,
          "cluster_chain": 1.0}
#: open-loop messages of the light-load phase after a saturated drain
LIGHT_MSGS = 1000
#: virtual seconds per kernel slice in the sim workload
SIM_SLICE = 0.02
#: virtual time every sim set-up trial reaches before comparing outputs
SIM_CHECK_VIRTUAL_S = 0.5
#: a wait (first traffic, drain) that has not finished after this long fails
TIMEOUT = 20.0
#: the open-loop generator may run at most this late (p99) for a valid run
LATENESS_LIMIT_MS = 20.0
#: a latency bin with fewer arrivals (a window's ragged edge) is skipped
MIN_BIN_SAMPLES = 20
#: probe chunks timed before set-up, to scale ``setup_s``
SETUP_PROBES = 5

CHAIN_NODES = {"sim_chain": 8, "virtual_chain": 40, "virtual_openloop": 40,
               "cluster_chain": 16}
BUFFER_CAPACITY = 10


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), round(q / 100.0 * len(ordered) + 0.5)))
    return ordered[rank - 1]


def windowed_median(samples: list[tuple[float, float]], start: float,
                    probe: SpeedProbe | None = None) -> float:
    """Median over :data:`WINDOW`-second bins (by arrival time) of each
    bin's median latency, divided by the host's slowness in that bin: a
    contention burst shorter than half the phase moves it no more than
    it moves the median throughput window.  Without ``probe``, unscaled."""
    bins: dict[int, list[float]] = {}
    for arrival, latency in samples:
        bins.setdefault(int((arrival - start) // WINDOW), []).append(latency)
    full = {k: b for k, b in bins.items() if len(b) >= MIN_BIN_SAMPLES} or bins
    return statistics.median(
        statistics.median(b) / (probe.slowness(start + k * WINDOW, start + (k + 1) * WINDOW)
                                if probe else 1.0)
        for k, b in full.items())


# ------------------------------------------------------------------- drivers


class _InProcess:
    """Shared by the drivers whose source and sink live in this process."""

    source_alg: BenchSource
    sink_alg: BenchSink
    setup_times: dict[str, float] = {}
    probe: SpeedProbe

    async def sink(self) -> dict:
        return self.sink_alg.report()

    async def source_info(self) -> dict:
        return self.source_alg.report()

    async def control(self, node: str, verb: int, param: float = 0) -> None:
        from repro.core.ids import NodeId
        from repro.core.message import Message
        from repro.core.msgtypes import MsgType

        target = self.source_alg if node == "source" else self.sink_alg
        target.process(Message.with_fields(MsgType.CONTROL, NodeId("0.0.0.0", 0), 0,
                                           type=verb, param1=param, param2=0))

    async def trace(self) -> dict:
        active = tracer.from_env()
        return active.snapshot() if active else {}

    def status_frames(self) -> int:
        return 0

    _sampler: asyncio.Task | None = None

    def start_probe(self) -> None:
        """Sample host speed in this process, where the program runs."""
        self._sampler = asyncio.create_task(self.probe.run())

    def stop_probe(self) -> None:
        if self._sampler:
            self._sampler.cancel()

    async def gather_probe(self) -> None:
        pass


class SimChain(_InProcess):
    """8-node chain on the discrete-event backend, one engine source."""

    def __init__(self, load: Load) -> None:
        from repro.algorithms.forwarding import CopyForwardAlgorithm
        from repro.sim.engine import EngineConfig
        from repro.sim.network import NetworkConfig, SimNetwork

        self.load = load
        self.probe = SpeedProbe()
        self.net = SimNetwork(NetworkConfig(
            engine=EngineConfig(buffer_capacity=BUFFER_CAPACITY), seed=load.seed))
        self.source_alg = BenchSource(workload=load.workload, load_seed=load.seed)
        self.sink_alg = BenchSink(workload=load.workload, load_seed=load.seed)
        n = CHAIN_NODES[load.workload]
        algorithms = [self.source_alg, *(CopyForwardAlgorithm() for _ in range(n - 2)),
                      self.sink_alg]
        self.ids = [self.net.add_node(a, name=f"n{i}") for i, a in enumerate(algorithms)]
        for algorithm, nxt in zip(algorithms[:-1], self.ids[1:]):
            algorithm.set_downstreams([nxt])

    def step(self) -> None:
        self.net.run(SIM_SLICE)
        self.probe.poll()

    async def setup(self) -> float:
        self.net.start()
        self.net.observer.deploy_source(self.ids[0], app=self.load.app,
                                        payload_size=self.load.size)
        while self.sink_alg.first_at is None:
            self.step()
        return self.sink_alg.first_at

    async def elapse(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self.step()

    async def until(self, predicate: Callable[[], Awaitable[bool]], timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        while not await predicate() and time.monotonic() < deadline:
            self.step()
        return await predicate()

    async def stop_saturated(self) -> None:
        self.net.observer.terminate_source(self.ids[0], self.load.app)

    async def trace(self) -> dict:
        snapshot = await super().trace()
        if snapshot:
            snapshot["calls"]["sim.kernel.events"] = self.net.kernel._sequence
        return snapshot

    async def close(self) -> None:
        pass


class _Async:
    async def elapse(self, seconds: float) -> None:
        await asyncio.sleep(seconds)

    async def until(self, predicate: Callable[[], Awaitable[bool]], timeout: float,
                    interval: float = 0.005) -> bool:
        deadline = time.monotonic() + timeout
        while not await predicate():
            if time.monotonic() > deadline:
                return False
            await asyncio.sleep(interval)
        return True


class VirtualChain(_Async, _InProcess):
    """40 asyncio engines on one loop with zero-copy loopback links."""

    def __init__(self, load: Load) -> None:
        from repro.algorithms.forwarding import CopyForwardAlgorithm
        from repro.net.engine import NetEngineConfig
        from repro.net.virtual import VirtualHost

        self.load = load
        self.probe = SpeedProbe()
        self.host = VirtualHost()
        self.source_alg = BenchSource(workload=load.workload, load_seed=load.seed)
        self.sink_alg = BenchSink(workload=load.workload, load_seed=load.seed)
        n = CHAIN_NODES[load.workload]
        self.algorithms = [self.source_alg, *(CopyForwardAlgorithm() for _ in range(n - 2)),
                           self.sink_alg]
        config = NetEngineConfig(buffer_capacity=BUFFER_CAPACITY)
        self.engines = [self.host.add_node(a, config=config) for a in self.algorithms]

    async def setup(self) -> float:
        await self.host.start()
        for algorithm, nxt in zip(self.algorithms[:-1], self.engines[1:]):
            algorithm.set_downstreams([nxt.node_id])
        await self.host.connect_chain()
        if self.load.workload == "virtual_openloop":
            self.source_alg.begin_light(LIGHT_RATE)
        else:
            self.engines[0].start_source(self.load.app, self.load.size)
        await self.until(self._delivered, TIMEOUT)
        return self.sink_alg.first_at

    async def _delivered(self) -> bool:
        return self.sink_alg.first_at is not None

    async def stop_saturated(self) -> None:
        self.engines[0].stop_source(self.load.app)

    async def close(self) -> None:
        await self.host.stop()


class ClusterChain(_Async):
    """16 nodes on a 2-worker fleet, the first half pinned to one worker
    and the second half to the other, joined by one shm hop.

    Halves, not round-robin: when every hop crosses processes, each hop
    carries 5 KB across cores and wakes the other worker, costs that the
    single-thread speed probe does not see, and the run-to-run spread of
    both rate and latency passed 10% on a shared host.
    """

    def __init__(self, load: Load) -> None:
        from repro.cluster.controller import ClusterConfig, ClusterController
        from repro.core.ids import NodeId
        from repro.net.observer_server import ObserverServer

        self.load = load
        self.probe = SpeedProbe()
        self.n = CHAIN_NODES[load.workload]
        self.sink_name = f"n{self.n - 1}"
        self.observer = ObserverServer(NodeId("127.0.0.1", 0), poll_interval=0.5)
        self.controller = ClusterController(self.observer, ClusterConfig(workers=2))
        self.placed: dict = {}
        self.setup_times: dict[str, float] = {}

    def specs(self) -> list:
        from repro.cluster.spec import NodeSpec, ref

        kwargs = {"workload": self.load.workload, "load_seed": self.load.seed, "probe": True}
        workers = sorted(self.controller.workers)

        def pin(i: int) -> str:
            return workers[i * len(workers) // self.n]

        specs = [NodeSpec(name=self.sink_name, algorithm="perfbench.algos:BenchSink",
                          kwargs=kwargs, pin=pin(self.n - 1))]
        for i in range(self.n - 2, 0, -1):
            specs.append(NodeSpec(name=f"n{i}", algorithm="perfbench.algos:TracedRelay",
                                  kwargs={"downstreams": [ref(f"n{i + 1}")]}, pin=pin(i)))
        specs.append(NodeSpec(name="n0", algorithm="perfbench.algos:BenchSource",
                              kwargs={"downstreams": [ref("n1")], **kwargs}, pin=pin(0)))
        return specs

    async def setup(self) -> float:
        controller, observer = self.controller, self.observer
        await observer.start()
        t0 = time.perf_counter()
        await controller.start()
        spawn_s = time.perf_counter() - t0
        # one worker per CPU, so the scheduler cannot stack both on one
        cpus = sorted(os.sched_getaffinity(0))
        for i, state in enumerate(controller.workers.values()):
            os.sched_setaffinity(state.pid, {cpus[i % len(cpus)]})
        placed = self.placed = await controller.deploy(self.specs())

        async def alive() -> bool:
            return all(p.node_id in observer.observer.alive for p in placed.values())

        await self.until(alive, TIMEOUT)
        # Connect the chain before the source starts, as virtual_chain
        # does: a link dialed lazily by the first data send reorders the
        # messages sent while the dial is in flight.
        for i in range(self.n - 1):
            observer.observer.connect(placed[f"n{i}"].node_id, placed[f"n{i + 1}"].node_id)
        for i in range(self.n - 1):
            async def connected(name: str = f"n{i}",
                                nxt: str = str(placed[f"n{i + 1}"].node_id)) -> bool:
                return nxt in (await controller.node_info(name))["downstreams"]

            await self.until(connected, TIMEOUT)
        self.setup_times = {"spawn_s": spawn_s,
                            "deploy_s": time.perf_counter() - t0 - spawn_s}
        controller.deploy_source("n0", app=self.load.app, payload_size=self.load.size)

        async def delivered() -> bool:
            return bool((await self.sink())["received"])

        await self.until(delivered, TIMEOUT, interval=0.01)
        return (await self.sink())["first_at"]

    async def _info(self, name: str) -> dict:
        return (await self.controller.node_info(name))["info"]

    async def sink(self) -> dict:
        return await self._info(self.sink_name)

    async def source_info(self) -> dict:
        return await self._info("n0")

    async def control(self, node: str, verb: int, param: float = 0) -> None:
        name = "n0" if node == "source" else self.sink_name
        self.controller.send_control(name, verb, param1=int(param))

    async def stop_saturated(self) -> None:
        self.observer.observer.terminate_source(self.placed["n0"].node_id, self.load.app)

    async def trace(self) -> dict:
        """Counts of every worker process, summed (one reporting node each)."""
        total: dict = {}
        per_worker = {p.worker: name for name, p in self.placed.items()}
        for name in per_worker.values():
            total = tracer.add(total, (await self._info(name)).get("trace", {}))
        if total:
            total["processes"] = len(per_worker)
        return total

    def status_frames(self) -> int:
        return self.observer.frames_in

    def start_probe(self) -> None:
        """The workers holding the source and the sink sample host speed."""

    def stop_probe(self) -> None:
        pass

    async def gather_probe(self) -> None:
        for info in (await self.source_info(), await self.sink()):
            self.probe.samples.extend((t, c) for t, c in info["probe"])

    async def close(self) -> None:
        await self.controller.stop()
        await self.observer.stop()


DRIVERS = {"sim_chain": SimChain, "virtual_chain": VirtualChain,
           "virtual_openloop": VirtualChain, "cluster_chain": ClusterChain}


# ------------------------------------------------------------------- phases


async def measure(load: Load, phase: str, seconds: float, spawn_t: float,
                  virtual_s: float | None = None) -> dict:
    """Run one phase (``setup`` or ``measure``) of ``load.workload``."""
    setup_probe = SpeedProbe()
    for _ in range(SETUP_PROBES):
        setup_probe.sample()
    wall0 = time.monotonic()
    probe_s = wall0 - setup_probe.samples[0][0]
    driver: Any = DRIVERS[load.workload](load)
    try:
        first_at = await driver.setup()
        raw_setup = first_at - spawn_t - probe_s
        result: dict = {"setup_s": raw_setup / setup_probe.slowness(0.0, wall0),
                        "raw_setup_s": raw_setup, **driver.setup_times}
        if phase == "setup":
            if load.workload == "sim_chain":  # same seed, same output
                driver.net.run(SIM_CHECK_VIRTUAL_S - driver.net.kernel.now)
                result["check"] = [driver.sink_alg.received, driver.sink_alg.digest]
            return result
        return await _measure(driver, load, seconds, wall0, virtual_s, result)
    finally:
        driver.stop_probe()
        await driver.close()


async def _measure(driver: Any, load: Load, seconds: float, wall0: float,
                   virtual_s: float | None, result: dict) -> dict:
    openloop = load.workload == "virtual_openloop"
    windows: list[tuple[float, float, int]] = []  # start, end, messages delivered
    if not openloop:  # the probe scales saturated rates, and would delay light traffic
        driver.start_probe()
    timed_app = load.app if load.workload == "sim_chain" else load.light_app
    timed = (0.0, float("inf"))  # arrivals whose latency counts
    if virtual_s is not None:  # sim only: fixed simulated work, traced from the start
        while driver.net.kernel.now < virtual_s:
            driver.step()
        before: dict = {}
        start_wall = wall0
        windows.append((wall0, time.monotonic(), driver.sink_alg.received))
    else:
        await driver.elapse(WARMUP[load.workload])
        before = await driver.trace()
        frames0 = driver.status_frames()
        start_wall = time.monotonic()
        steal0 = steal_ticks()
        r0, t0 = (await driver.sink())["received"], start_wall
        for _ in range(max(1, round(seconds / WINDOW))):
            await driver.elapse(WINDOW)
            r1, t1 = (await driver.sink())["received"], time.monotonic()
            windows.append((t0, t1, r1 - r0))
            r0, t0 = r1, t1
        if openloop or timed_app == load.app:
            timed = (start_wall, time.monotonic())
        result["status_frames_per_s"] = (driver.status_frames() - frames0) / (t0 - start_wall)
        result["steal_s"] = (steal_ticks() - steal0) / os.sysconf("SC_CLK_TCK")
    driver.stop_probe()
    after = await driver.trace()
    if after:
        result["processes"] = after.pop("processes", 1)
        before.pop("processes", None)
        result["trace"] = tracer.diff(after, before)
        result["window_s"] = time.monotonic() - start_wall

    source: dict = {}

    async def drained() -> bool:
        source.update(await driver.source_info())
        sink = await driver.sink()
        return sink["received"] >= source["forwarded"] + source["light"] and (
            "stamps" not in source or "arrivals" in sink)

    if not openloop:
        await driver.control("source", CLOSE)
        await driver.until(drained, TIMEOUT)
        await driver.stop_saturated()
    if timed_app == load.light_app and not openloop:
        timed = (time.monotonic(), float("inf"))
        await driver.control("source", LIGHT, LIGHT_RATE)

        async def light_done() -> bool:
            return (await driver.source_info())["light"] >= LIGHT_MSGS

        # no polling while the stream runs: a cluster's info requests
        # would wake the workers as often as the messages do
        await driver.elapse(LIGHT_MSGS / LIGHT_RATE)
        await driver.until(light_done, TIMEOUT)
    await driver.control("source", REPORT)
    await driver.control("sink", REPORT)

    async def reported() -> bool:
        return "stamps" in (await driver.source_info())

    await driver.until(reported, TIMEOUT)
    await driver.until(drained, TIMEOUT)
    await driver.gather_probe()
    probe = driver.probe
    raw_rates = [n / (t1 - t0) for t0, t1, n in windows]
    rates = raw_rates if openloop else [
        rate * probe.slowness(t0, t1) for rate, (t0, t1, _) in zip(raw_rates, windows)]
    sink = await driver.sink()
    forwarded, light = source["forwarded"], source["light"]
    missing = forwarded + light - sink["received"]
    expected = (load.expected_digest(load.app, forwarded)
                + load.expected_digest(load.light_app, light)) & 0xFFFFFFFFFFFFFFFF
    digest_bad = int(missing == 0 and sink["digest"] != expected)
    result.update({
        "attempted": forwarded + light,
        "failed": abs(missing) + sink["order_errors"] + digest_bad,
        "failures": {"missing": missing, "order": sink["order_errors"], "digest": digest_bad},
        "rates": rates,
        "msgs_per_s": statistics.median(rates),
        "raw_msgs_per_s": statistics.median(raw_rates),
    })
    stamps = {(app, seq): t for app, seq, t in source["stamps"]}
    timed_arrivals = [(t, (t - stamps[app, seq]) * 1000.0)
                      for app, seq, t in sink.get("arrivals", [])
                      if app == timed_app and timed[0] <= t < timed[1] and (app, seq) in stamps]
    lat = [latency for _, latency in timed_arrivals]
    late = [x * 1000.0 for x in source["lateness"]] or [0.0]
    result.update({
        "latency_samples": len(lat),
        "latency_p50_ms": windowed_median(timed_arrivals, timed[0],
                                          probe if timed_app == load.app else None),
        "raw_latency_p50_ms": windowed_median(timed_arrivals, timed[0]),
        "slowness": statistics.median(c for _, c in probe.samples or [(0, PROBE_REF_S)])
        / PROBE_REF_S,
        "latency_p99_ms": percentile(lat, 99),
        "lateness_ms": {"p50": percentile(late, 50), "p99": percentile(late, 99),
                        "max": max(late), "limit": LATENESS_LIMIT_MS},
    })
    return result


def run(load: Load, phase: str, seconds: float, spawn_t: float,
        virtual_s: float | None = None) -> dict:
    """Run one phase of ``load.workload`` in this process."""
    return asyncio.run(measure(load, phase, seconds, spawn_t, virtual_s))
