"""When a simulated engine sleeps and what wakes it.

The engine parks as soon as a pass leaves no buffered, pending or
control work, and a send completion wakes it only while a forward
waits on send space.  These tests pin the wake-ups that must survive
that diet: freed send space for a blocked relay, termination of a
parked engine, and a weight retuned while parked.
"""

from repro.algorithms.forwarding import CopyForwardAlgorithm, SinkAlgorithm
from repro.core.bandwidth import BandwidthSpec
from repro.sim.engine import EngineConfig
from repro.sim.network import NetworkConfig, SimNetwork

KB = 1000.0


def _awaiting(task) -> list[str]:
    """Names of the coroutines a parked kernel task is suspended in."""
    names = []
    awaited = task._coro
    while awaited is not None and hasattr(awaited, "cr_code"):
        names.append(awaited.cr_code.co_name)
        awaited = awaited.cr_await
    return names


def _engine_task(net, node):
    name = f"{node}/engine"
    return next(task for task in net.kernel.live_tasks if task.name == name)


def _relay_net(relay_up: float):
    """src -> relay -> sink with the relay's uplink as the bottleneck.

    Periodic throughput reports are pushed out of the runs' horizon, so
    they cannot stand in for the wake-ups under test.
    """
    net = SimNetwork(NetworkConfig(
        engine=EngineConfig(buffer_capacity=4, report_interval=60.0)))
    src_alg, relay_alg, sink_alg = CopyForwardAlgorithm(), CopyForwardAlgorithm(), SinkAlgorithm()
    src = net.add_node(src_alg, name="src")
    relay = net.add_node(relay_alg, name="relay", bandwidth=BandwidthSpec(up=relay_up))
    sink = net.add_node(sink_alg, name="sink")
    src_alg.set_downstreams([relay])
    relay_alg.set_downstreams([sink])
    return net, src, relay, sink, sink_alg


def test_relay_blocked_on_send_space_resumes_when_the_sender_frees_it():
    net, src, relay, sink, sink_alg = _relay_net(relay_up=50 * KB)
    net.start()
    net.observer.deploy_source(src, app=1, payload_size=5000)
    net.run(2.0)
    engine = net.engine(relay)
    port = engine._scheduler.get_port(src)
    assert port.deferred > 0  # the relay's sender queue filled up
    net.observer.terminate_source(src, app=1)
    # From here nothing arrives upstream: the relay's backlog (receive
    # buffer, pending forward, sender queue) drains only through wake-ups
    # from its own sender freeing send space.
    net.run(0.2)
    assert engine._scheduler.has_pending() or engine._scheduler.total_buffered()
    net.run(2.0)
    assert not engine._scheduler.has_work()
    assert sink_alg.received == port.switched
    assert sink_alg.received > 10


def test_terminate_engine_parked_after_a_pass_exits_cleanly():
    net, src, relay, sink, sink_alg = _relay_net(relay_up=1000 * KB)
    net.start()
    net.observer.deploy_source(src, app=1, payload_size=1000)
    net.run(0.5)
    net.observer.terminate_source(src, app=1)
    net.run(0.5)
    received = sink_alg.received
    assert received > 0
    task = _engine_task(net, relay)
    assert "_yield_control" in _awaiting(task)  # parked right after a pass
    net.engine(relay).terminate()
    net.run(1.0)
    assert task.finished and task.cancelled
    assert not any(t.name.startswith(f"{relay}/") for t in net.kernel.live_tasks)
    assert sink_alg.received == received


def test_weight_set_while_parked_applies_to_the_next_backlog():
    net = SimNetwork(NetworkConfig(engine=EngineConfig(buffer_capacity=4)))
    a_alg, b_alg, relay_alg = CopyForwardAlgorithm(), CopyForwardAlgorithm(), CopyForwardAlgorithm()
    by_app = {1: 0, 2: 0}

    class CountingSink(SinkAlgorithm):
        def on_data(self, msg):
            by_app[msg.app] += 1
            return super().on_data(msg)

    a = net.add_node(a_alg, name="a")
    b = net.add_node(b_alg, name="b")
    relay = net.add_node(relay_alg, name="relay", bandwidth=BandwidthSpec(up=100 * KB))
    sink = net.add_node(CountingSink(), name="sink")
    a_alg.set_downstreams([relay])
    b_alg.set_downstreams([relay])
    relay_alg.set_downstreams([sink])
    net.start()
    for node, app in ((a, 1), (b, 2)):
        net.observer.deploy_source(node, app=app, payload_size=5000)
    net.run(1.0)
    for node, app in ((a, 1), (b, 2)):
        net.observer.terminate_source(node, app=app)
    net.run(2.0)
    engine = net.engine(relay)
    assert not engine._scheduler.has_work()
    assert "_yield_control" in _awaiting(_engine_task(net, relay))
    engine.set_port_weight(a, 3)  # retuned while the relay is parked
    for node, app in ((a, 1), (b, 2)):
        net.observer.deploy_source(node, app=app, payload_size=5000)
    net.run(1.0)  # refill: the new backlog builds up under back pressure
    before = dict(by_app)
    net.run(6.0)
    share_a = by_app[1] - before[1]
    share_b = by_app[2] - before[2]
    assert share_b > 0
    assert 2.7 < share_a / share_b < 3.3
