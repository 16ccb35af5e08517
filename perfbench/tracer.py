"""Spans and counts around calls into the program's layers, from outside.

:meth:`Tracer.install` replaces selected functions and methods of
``repro`` (and asyncio's callback runner) with wrappers; nothing under
``src/`` changes.  A *span* wrapper records a name, a start, an end and
the enclosing span, and charges the span's *self time* — its duration
minus the time its child spans cover — to a layer.  A *count* wrapper
(used for coroutine functions, whose call returns before the work is
done) only counts calls.  Task steps — one asyncio callback or one
``repro.sim.kernel`` task resumption — are spans too, charged to the
layer of the coroutine or callback they run, so the code of the
engines' own loops is attributed to its layer rather than lost.

Spans are kept in memory (the first :data:`KEEP_SPANS`) and written out
by the caller at the end; the per-name call counts and per-layer self
times cover every call.  Queue waiting is measured as item residence:
each ``AsyncBoundedQueue`` gets a shadow FIFO of put times, popped on
every get.
"""

from __future__ import annotations

import asyncio
import importlib
import os
import sys
import time
from collections import Counter, deque
from typing import Any, Callable

#: raw spans kept for the trace file; counts and self times cover all
KEEP_SPANS = 20_000

SWITCH = "core.engine_core.EngineCore._switch_round"

_ACTIVE: "Tracer | None" = None


def from_env() -> "Tracer | None":
    """The process tracer, installed on first use when ``PERFBENCH_TRACE=1``."""
    global _ACTIVE
    if _ACTIVE is None and os.environ.get("PERFBENCH_TRACE") == "1":
        _ACTIVE = Tracer()
        _ACTIVE.install()
    return _ACTIVE


_LAYER_CACHE: dict[Any, str] = {}
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def layer_of_code(code: Any) -> str:
    """``sim``/``core``/``net``/... for code in ``repro/<layer>/``, else
    ``bench`` for this package and ``other`` for the standard library."""
    layer = _LAYER_CACHE.get(code)
    if layer is None:
        import repro

        filename = getattr(code, "co_filename", "")
        repro_dir = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
        if filename.startswith(repro_dir):
            layer = filename[len(repro_dir):].split(os.sep, 1)[0].removesuffix(".py")
        elif filename.startswith(_BENCH_DIR):
            layer = "bench"
        else:
            layer = "other"
        _LAYER_CACHE[code] = layer
    return layer


def _callable_code(fn: Any) -> Any:
    fn = getattr(fn, "__func__", fn)
    return getattr(fn, "__code__", None)


def _handle_layer(args: tuple) -> str:
    """Layer of an asyncio callback: a task step goes to its coroutine."""
    callback = args[0]._callback
    owner = getattr(callback, "__self__", None)
    if isinstance(owner, asyncio.Future):
        coro = owner.get_coro() if isinstance(owner, asyncio.Task) else None
        return layer_of_code(getattr(coro, "cr_code", None))
    return layer_of_code(_callable_code(callback))


def _sim_step_layer(args: tuple) -> str:
    return layer_of_code(getattr(args[0]._coro, "cr_code", None))


class Tracer:
    """In-memory spans, call counts and per-layer self time."""

    def __init__(self, keep: int = KEEP_SPANS) -> None:
        self.calls: Counter[str] = Counter()
        self.items: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.queue_wait_ns = 0
        self.queue_waited = 0
        self.spans: list[tuple[str, int, int, str | None]] = []
        self.keep = keep
        self._stack: list[list] = []

    # ----------------------------------------------------------------- wrappers

    def span(self, name: str, fn: Callable, layer: str | Callable[[tuple], str],
             after: Callable[[tuple, Any], None] | None = None) -> Callable:
        stack, calls, self_ns, spans = self._stack, self.calls, self.self_ns, self.spans
        keep = self.keep
        clock = time.perf_counter_ns
        fixed = layer if isinstance(layer, str) else None

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            entry = [name, 0]
            stack.append(entry)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_ns[fixed or layer(args)] += duration - entry[1]
                calls[name] += 1
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                if len(spans) < keep:
                    spans.append((name, start, end, parent[0] if parent else None))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def count(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def count_async(self, name: str, fn: Callable,
                    after: Callable[[tuple, Any], None]) -> Callable:
        calls = self.calls

        async def wrapper(*args: Any) -> Any:
            calls[name] += 1
            result = await fn(*args)
            after(args, result)
            return result

        return wrapper

    # ------------------------------------------------------------ queue waiting

    def _put(self, args: tuple, result: Any) -> None:
        queue = args[0]
        n = 1 if result is None or result is True else int(result or 0)
        if n:
            stamps = queue.__dict__.setdefault("_bench_put_ns", deque())
            stamps.extend([time.perf_counter_ns()] * n)

    def _get(self, args: tuple, result: Any) -> None:
        stamps = args[0].__dict__.get("_bench_put_ns")
        if stamps:
            self.queue_wait_ns += time.perf_counter_ns() - stamps.popleft()
            self.queue_waited += 1

    def _drain(self, args: tuple, result: Any) -> None:
        stamps = args[0].__dict__.get("_bench_put_ns")
        now = time.perf_counter_ns()
        for _ in range(min(len(result), len(stamps or ()))):
            self.queue_wait_ns += now - stamps.popleft()
            self.queue_waited += 1

    def _batch_items(self, args: tuple, result: Any) -> None:
        self.items["net.framing.write_batch"] += len(args[1])

    def _drained_frames(self, args: tuple, result: Any) -> None:
        self.items["net.shm.ShmEndpoint.drain_frames"] += 1 + len(result)

    def _bulk_items(self, args: tuple, result: Any) -> None:
        self.items["net.queues.AsyncBoundedQueue.put_many_nowait"] += result
        self._put(args, result)

    def _switched(self, args: tuple, result: Any) -> None:
        # a data message handed to the algorithm by the switch = one hop
        if self._stack and self._stack[-1][0] == SWITCH and args[1].type == self._data:
            self.calls["switched"] += 1

    # ----------------------------------------------------------------- install

    def install(self) -> None:
        """Wrap every instrumented function; call once per process."""
        from repro.core.msgtypes import MsgType

        self._data = MsgType.DATA
        S, C = "span", "count"
        table: list[tuple[str, str, str, Any]] = [
            ("repro.sim.kernel", "Kernel.run", S, "sim"),
            ("repro.sim.kernel", "Task._step_send", S, _sim_step_layer),
            ("repro.sim.kernel", "Task._step_throw", S, _sim_step_layer),
            *(("repro.sim.sync", f"SimQueue.{m}", S, "sim")
              for m in ("put_nowait", "put_force", "get_nowait", "drain")),
            ("repro.sim.sync", "SimQueue.put", C, None),
            ("repro.sim.sync", "SimQueue.get", C, None),
            ("repro.sim.link", "SimLink.deliver", C, None),
            *(("repro.core.engine_core", f"EngineCore.{m}", S, "core")
              for m in ("send", "_stage", "_switch_round", "_drain_control",
                        "_retry_pending", "_try_forward", "_defer_data",
                        "_flush_round")),
            *(("repro.core.switch", f"SwitchScheduler.{m}", S, "core")
              for m in ("rotation", "has_work", "replenish_credits")),
            *(("repro.core.message", f"Message.{m}", S, "core")
              for m in ("__init__", "unpack", "with_seq", "pack", "header_bytes")),
            ("repro.core.algorithm", "Algorithm.process", S, "algorithms"),
            *(("repro.net.engine", f"AsyncioEngine.{m}", S, "net")
              for m in ("_dispatch", "_enqueue_to_peer", "send_to_observer")),
            *(("repro.net.queues", f"AsyncBoundedQueue.{m}", S, "net")
              for m in ("put_nowait", "put_force", "put_many_nowait", "get_nowait",
                        "drain")),
            ("repro.net.queues", "AsyncBoundedQueue.put", "wait", self._put),
            ("repro.net.queues", "AsyncBoundedQueue.get", "wait", self._get),
            ("repro.net.virtual", "_LoopbackPipe.send", S, "net"),
            ("repro.net.virtual", "_LoopbackPipe.recv", C, None),
            ("repro.net.framing", "write_batch", S, "net"),
            ("repro.net.framing", "write_message", S, "net"),
            ("repro.net.framing", "pack_headers", S, "net"),
            ("repro.net.framing", "read_message", C, None),
            ("repro.net.shm", "ShmEndpoint.send_message", S, "net"),
            ("repro.net.shm", "ShmEndpoint.drain_frames", S, "net"),
            ("repro.net.shm", "ShmEndpoint._sweep", S, "net"),
            ("repro.net.shm", "ShmEndpoint._park", C, None),
            ("repro.net.shm", "ShmEndpoint.drain", C, None),
            ("asyncio.events", "Handle._run", S, _handle_layer),
            ("perfbench.algos", "BenchSink.on_data", S, "bench"),
            ("perfbench.algos", "BenchSource.produce_payload", S, "bench"),
            ("perfbench.algos", "BenchSource.on_timer", S, "bench"),
        ]
        afters = {
            "AsyncBoundedQueue.put_nowait": self._put,
            "AsyncBoundedQueue.put_force": self._put,
            "AsyncBoundedQueue.put_many_nowait": self._bulk_items,
            "AsyncBoundedQueue.get_nowait": self._get,
            "AsyncBoundedQueue.drain": self._drain,
            "write_batch": self._batch_items,
            "ShmEndpoint.drain_frames": self._drained_frames,
            "Algorithm.process": self._switched,
        }
        for module_name, qualname, kind, layer in table:
            module = importlib.import_module(module_name)
            layer_prefix = {"repro.core.algorithm": "algorithms"}.get(
                module_name, module_name.removeprefix("repro.").replace("perfbench.", "bench."))
            name = f"{layer_prefix}.{qualname}"
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = owner.__dict__[attr]
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            if kind == S:
                wrapped = self.span(name, fn, layer, afters.get(qualname))
            elif kind == C:
                wrapped = self.count(name, fn)
            else:
                wrapped = self.count_async(name, fn, layer)
            setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
            if not owner_name:  # re-bind `from module import fn` copies too
                for other in list(sys.modules.values()):
                    if getattr(other, "__name__", "").startswith("repro.") \
                            and other.__dict__.get(attr) is fn:
                        setattr(other, attr, wrapped)

    # ----------------------------------------------------------------- results

    def snapshot(self) -> dict:
        """Every counter, JSON-ready; subtract two snapshots for a window."""
        return {
            "calls": dict(self.calls),
            "items": dict(self.items),
            "self_ns": dict(self.self_ns),
            "queue_wait_ns": self.queue_wait_ns,
            "queue_waited": self.queue_waited,
        }


def diff(after: dict, before: dict) -> dict:
    """``after - before`` for two :meth:`Tracer.snapshot` results."""
    out: dict = {}
    for key, value in after.items():
        if isinstance(value, dict):
            old = before.get(key, {})
            out[key] = {k: v - old.get(k, 0) for k, v in value.items()}
        else:
            out[key] = value - before.get(key, 0)
    return out


def add(a: dict, b: dict) -> dict:
    """Sum of two snapshots (one per worker process)."""
    out: dict = {}
    for key in set(a) | set(b):
        x, y = a.get(key, 0), b.get(key, 0)
        if isinstance(x, dict) or isinstance(y, dict):
            x, y = x or {}, y or {}
            out[key] = {k: x.get(k, 0) + y.get(k, 0) for k in set(x) | set(y)}
        else:
            out[key] = x + y
    return out
