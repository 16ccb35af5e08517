"""Work counts of the simulated Fig. 5 chain, pinned exactly.

The discrete-event run is deterministic, so the number of kernel events
and switch rounds it takes to move each message one hop is a property
of the code, not of the machine.  A wake-up that does no work shows up
here as a higher count long before it shows up as lost throughput.
"""

from repro.algorithms.forwarding import CopyForwardAlgorithm, SinkAlgorithm
from repro.sim.engine import EngineConfig
from repro.sim.network import NetworkConfig, SimNetwork
from repro.telemetry import Telemetry


def _total(snapshot: dict, metric: str) -> float:
    return sum(series["value"] for series in snapshot[metric]["series"])


def test_chain_work_per_hop():
    telemetry = Telemetry()
    net = SimNetwork(NetworkConfig(
        engine=EngineConfig(buffer_capacity=10), seed=1, telemetry=telemetry,
    ))
    algorithms = [CopyForwardAlgorithm() for _ in range(7)] + [SinkAlgorithm()]
    ids = [net.add_node(alg, name=f"n{i}") for i, alg in enumerate(algorithms)]
    for upstream, downstream in zip(algorithms, ids[1:]):
        upstream.set_downstreams([downstream])
    net.start()
    net.observer.deploy_source(ids[0], app=1, payload_size=5000)
    net.run(3.0)

    # the virtual-time dynamics themselves: the same deliveries as ever
    assert algorithms[-1].received == 2964
    snapshot = telemetry.snapshot()
    hops = _total(snapshot, "ioverlay_engine_switched_messages_total")
    rounds = _total(snapshot, "ioverlay_engine_switch_rounds_total")
    assert hops == 20853
    # One switch round per message-hop: no round runs only to find
    # nothing to switch, or only to start a credit epoch.
    assert rounds / hops <= 1.05
    # Per hop: the receiver's link-latency sleep (one timer event), the
    # engine wake-up, the sender's dequeue and, once the link window is
    # full, the sender's blocked hand-off; plus the source's pacing.
    assert net.kernel._sequence / hops <= 3.85
