"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sim_chain --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the run environment and every metric by name and unit.

Each workload runs in child processes of this one (``--phase``).  With
``--trace 0``:

- ``setup_s`` is the median, over :data:`SETUP_TRIALS` set-up-only
  processes and the measuring process, of the time from spawning the
  process to the first message delivered at the sink, scaled to the
  reference host speed (:mod:`perfbench.speed`) measured just before;
- ``msgs_per_s`` is the median over one-second windows of messages
  delivered at the sink per wall-clock second, after a warm-up; on the
  saturated workloads each window is scaled to the reference host speed
  measured during it, where the program runs;
- ``latency_p50_ms`` is the median latency, from due time to arrival at
  the sink, of the open-loop stream at 200 msg/s: the whole of
  ``virtual_openloop``, and a light-load phase after the drain on
  ``virtual_chain`` and ``cluster_chain`` (a saturated chain's queueing
  delay depends on where its bottleneck happens to sit).  It is not
  scaled: at light load it is mostly waking idle CPUs and timers, which
  the speed probe does not measure.  On ``sim_chain`` it is the scaled
  wall time the simulator takes to carry a sampled saturated message
  through the chain;
- the lines before the result give each of these unscaled and over
  every window, the host's median slowness against the reference and
  the CPU time the hypervisor stole during the windows (informational);
- ``rss_mb`` is the peak resident set of the largest process the run
  started (cluster workers included);
- ``attempted`` counts the messages the source forwarded, ``failed``
  those missing at the sink after the drain plus order and digest
  mismatches; ``fail_ratio`` = failed / attempted is printed.

With ``--trace 1`` the same workload runs once untraced and once under
:class:`perfbench.tracer.Tracer` (``sim_chain``: a fixed virtual
duration, traced twice, and its work counts must repeat exactly), and
the per-layer metrics are printed; the raw spans go to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("sim_chain", "virtual_chain", "virtual_openloop", "cluster_chain")
#: set-up-only processes per run, besides the measuring process
SETUP_TRIALS = 4
#: virtual seconds of the traced ``sim_chain`` run
SIM_TRACE_VIRTUAL_S = 2.0
#: every child of one workload's run must have finished within this
RUN_BUDGET_S = 170.0
#: latency samples a valid run needs: ten beyond its 99th percentile
MIN_LATENCY_SAMPLES = 1000

#: work counts that must repeat exactly across two traced sim_chain runs
EXACT_COUNTS = ("sim.kernel.events_per_hop", "core.switch.rounds_per_hop",
                "sim.sync.queue_ops_per_hop", "core.message.constructions_per_hop")


def _import_path() -> list[str]:
    return [str(ROOT / "src"), str(ROOT)]


# ------------------------------------------------------------------ environment


def calibration_probe_ms() -> float:
    """A fixed pure-Python loop, no repository code: machine speed, in ms."""
    from perfbench.speed import probe_chunk

    return min(probe_chunk(200_000) for _ in range(3)) * 1000.0


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "probe_ms": round(calibration_probe_ms(), 2),
    }


# ---------------------------------------------------------------- child process


def child(workload: str, phase: str, seed: int, seconds: float, deadline: float,
          virtual_s: float | None = None, traced: bool = False) -> dict:
    """Run one phase in a fresh process; its last stdout line is the result.

    The child leads its own process group, so a child past the run's
    deadline is killed together with any cluster workers it started.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(_import_path())
    env.pop("PERFBENCH_TRACE", None)
    if traced:
        env["PERFBENCH_TRACE"] = "1"
    argv = [sys.executable, str(Path(__file__).resolve()), "--phase", phase,
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--spawn-t", repr(time.monotonic())]
    if virtual_s is not None:
        argv += ["--virtual-s", str(virtual_s)]
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stop_group(proc)
        raise RuntimeError(f"{workload} {phase} child passed the run deadline") from None
    except BaseException:  # interrupted or terminated: take the children along
        stop_group(proc)
        raise
    wait_group(proc.pid)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} {phase} child exited with {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def wait_group(pgid: int, timeout: float = 10.0) -> bool:
    """Wait until no process of group ``pgid`` is left; False on timeout."""
    limit = time.monotonic() + timeout
    while time.monotonic() < limit:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.02)
    return False


def stop_group(proc: subprocess.Popen) -> None:
    """SIGTERM a child's process group (cluster workers shut down cleanly
    and release their rings), then SIGKILL whatever is left."""
    try:
        os.killpg(proc.pid, signal.SIGTERM)
        proc.communicate(timeout=5.0)
    except (ProcessLookupError, subprocess.TimeoutExpired):
        pass
    if not wait_group(proc.pid, timeout=5.0):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        wait_group(proc.pid)


def child_main(args: argparse.Namespace) -> None:
    from perfbench import tracer, workloads
    from perfbench.loadgen import make_load

    if args.workload != "cluster_chain":
        tracer.from_env()  # a cluster's tracers live in its workers
    load = make_load(args.workload, args.seed)
    result = workloads.run(load, args.phase, args.seconds, args.spawn_t, args.virtual_s)
    # peak resident set of this process and of the cluster workers it reaped
    result["rss_mb"] = max(resource.getrusage(who).ru_maxrss for who in
                           (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0
    active = tracer.from_env() if args.workload != "cluster_chain" else None
    if active is not None:
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{args.workload}-{args.seed}-{os.getpid()}.jsonl"
        with path.open("w") as handle:
            for name, start, end, parent in active.spans:
                handle.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                         "parent": parent}) + "\n")
    print(json.dumps(result))


# --------------------------------------------------------------- layer metrics


def layer_metrics(trace: dict, processes: int, window_s: float) -> dict[str, float]:
    """Per-layer metrics from a traced window's counts (see BENCHMARK.json)."""
    calls, items, self_ns = trace.get("calls", {}), trace.get("items", {}), trace.get("self_ns", {})
    hops = calls.get("switched", 0)

    def c(*names: str) -> int:
        return sum(calls.get(name, 0) for name in names)

    def per(n: float, base: float) -> float:
        return n / base if base else 0.0

    sync = [f"sim.sync.SimQueue.{m}" for m in
            ("put", "get", "put_nowait", "put_force", "get_nowait", "drain")]
    queues = [f"net.queues.AsyncBoundedQueue.{m}" for m in
              ("put", "get", "put_nowait", "put_many_nowait", "put_force", "get_nowait",
               "drain")]
    rounds = c("core.engine_core.EngineCore._switch_round")
    shm_frames = items.get("net.shm.ShmEndpoint.drain_frames", 0)
    wall_ns = window_s * 1e9 * processes
    metrics = {
        "sim.kernel.events_per_hop": per(c("sim.kernel.events"), hops),
        "sim.kernel.wakeups_per_hop": per(c("sim.kernel.Task._step_send",
                                            "sim.kernel.Task._step_throw"), hops),
        "sim.sync.queue_ops_per_hop": per(c(*sync), hops),
        "sim.link.sends_per_hop": per(c("sim.link.SimLink.deliver"), hops),
        "core.switch.rounds_per_hop": per(rounds, hops),
        "core.switch.msgs_per_round": per(hops, rounds),
        "core.engine_core.defers_per_msg": per(c("core.engine_core.EngineCore._defer_data"), hops),
        "core.engine_core.retries_per_msg": per(c("core.engine_core.EngineCore._try_forward"),
                                                hops),
        "core.message.constructions_per_hop": per(c("core.message.Message.__init__",
                                                    "core.message.Message.unpack",
                                                    "core.message.Message.with_seq"), hops),
        "net.queues.ops_per_hop": per(c(*queues), hops),
        "net.queues.items_per_bulk_put": per(
            items.get("net.queues.AsyncBoundedQueue.put_many_nowait", 0),
            c("net.queues.AsyncBoundedQueue.put_many_nowait")),
        "net.queues.wait_ms": per(trace.get("queue_wait_ns", 0) / 1e6,
                                  trace.get("queue_waited", 0)),
        "net.virtual.sends_per_hop": per(c("net.virtual._LoopbackPipe.send"), hops),
        "net.framing.frames_per_flush": per(items.get("net.framing.write_batch", 0),
                                            c("net.framing.write_batch")),
        "net.shm.frames_per_drain": per(shm_frames, c("net.shm.ShmEndpoint.drain_frames")),
        "net.shm.parks_per_kframe": per(1000.0 * c("net.shm.ShmEndpoint._park"), shm_frames),
    }
    for layer in ("sim", "core", "net", "algorithms"):
        metrics[f"{layer}.self_share"] = per(self_ns.get(layer, 0), wall_ns)
    return metrics


# ---------------------------------------------------------------------- runs


def run_untraced(workload: str, seed: int, seconds: float,
                 deadline: float) -> tuple[dict, dict]:
    setups = [child(workload, "setup", seed, seconds, deadline) for _ in range(SETUP_TRIALS)]
    main = child(workload, "measure", seed, seconds, deadline)
    metrics = {
        "msgs_per_s": main["msgs_per_s"],
        "latency_p50_ms": main["latency_p50_ms"],
        "setup_s": statistics.median([r["setup_s"] for r in setups] + [main["setup_s"]]),
        "rss_mb": max(r["rss_mb"] for r in [*setups, main]),
    }
    failed = main["failed"]
    notes = {"failures": main["failures"], "latency_p99_ms": main["latency_p99_ms"],
             "latency_samples": main["latency_samples"], "windows": main["rates"],
             "slowness": main["slowness"], "steal_s": main["steal_s"],
             "unscaled": {"msgs_per_s": main["raw_msgs_per_s"],
                          "latency_p50_ms": main["raw_latency_p50_ms"],
                          "setup_s": statistics.median(
                              [r["raw_setup_s"] for r in setups] + [main["raw_setup_s"]])}}
    ok = main["latency_samples"] >= MIN_LATENCY_SAMPLES
    if not ok:
        notes["invalid"] = f"fewer than {MIN_LATENCY_SAMPLES} latency samples: run longer"
    if workload == "sim_chain":  # every rerun of one seed delivers the same bytes
        from perfbench.loadgen import make_load

        load = make_load(workload, seed)
        checks = {tuple(r["check"]) for r in setups}
        notes["rerun_check"] = sorted(checks)
        if len(checks) != 1 or any(digest != load.expected_digest(load.app, count)
                                   for count, digest in checks):
            ok = False
            failed += 1
    notes["generator_lateness_ms"] = main["lateness_ms"]
    ok = ok and main["lateness_ms"]["p99"] <= main["lateness_ms"]["limit"]
    return {"metrics": metrics, "attempted": main["attempted"], "failed": failed,
            "ok": ok}, notes


def run_traced(workload: str, seed: int, seconds: float,
               deadline: float) -> tuple[dict, dict]:
    virtual_s = SIM_TRACE_VIRTUAL_S if workload == "sim_chain" else None
    half = max(1.0, seconds / 2)
    plain = child(workload, "measure", seed, half, deadline, virtual_s)
    traced = [child(workload, "measure", seed, half, deadline, virtual_s, traced=True)
              for _ in range(2 if workload == "sim_chain" else 1)]
    first = traced[0]
    metrics = layer_metrics(first["trace"], first["processes"], first["window_s"])
    ok = True
    notes: dict = {}
    if len(traced) > 1:
        again = layer_metrics(traced[1]["trace"], 1, traced[1]["window_s"])
        notes["exact_counts"] = {name: [metrics[name], again[name]] for name in EXACT_COUNTS}
        ok = all(metrics[name] == again[name] for name in EXACT_COUNTS)
    metrics["cluster.spawn_s"] = first.get("spawn_s", 0.0)
    metrics["cluster.deploy_s"] = first.get("deploy_s", 0.0)
    metrics["observer.status_frames_per_s"] = first.get("status_frames_per_s", 0.0)
    metrics["telemetry.trace_overhead"] = first["msgs_per_s"] / plain["msgs_per_s"]
    # from the untraced run: too noisy run to run to gate on (see CHANGES.md)
    metrics["bench.latency_p99_ms"] = plain["latency_p99_ms"]
    metrics["bench.generator_late_p99_ms"] = plain["lateness_ms"]["p99"]
    runs = [plain, *traced]
    return {"metrics": metrics, "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs), "ok": ok}, notes


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = environment()
    deadline = time.monotonic() + RUN_BUDGET_S
    result, notes = (run_traced if trace else run_untraced)(workload, seed, seconds, deadline)
    units = declared_units(trace)
    if set(result["metrics"]) != set(units):
        raise RuntimeError(f"metrics {sorted(result['metrics'])} differ from BENCHMARK.json")
    print(f"workload {workload} seed {seed} trace {int(trace)}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for key, value in notes.items():
        print(f"note {key} {json.dumps(value)}")
    for name, unit in units.items():
        print(f"{name} {result['metrics'][name]:.6g} {unit}")
    fail_ratio = result["failed"] / max(1, result["attempted"])
    print(f"fail_ratio {fail_ratio:.6g} ratio (attempted {result['attempted']}, "
          f"failed {result['failed']})")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "measure"), help=argparse.SUPPRESS)
    parser.add_argument("--spawn-t", type=float, default=0.0, help=argparse.SUPPRESS)
    parser.add_argument("--virtual-s", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    sys.path[:0] = _import_path()
    if args.phase:
        child_main(args)
        return 0
    # SIGTERM unwinds like Ctrl-C, so the running child's group is killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no src/repro to benchmark under " + str(ROOT), file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    correct = all(r["ok"] and r["failed"] == 0 for r in results)
    units = declared_units(bool(args.trace))
    metrics = {}
    for name, r in zip(names, results):
        prefix = "" if len(names) == 1 else f"{name}."
        for key, unit in units.items():
            metrics[prefix + key] = {"value": r["metrics"][key], "unit": unit}
    print(json.dumps({"correct": correct, "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
