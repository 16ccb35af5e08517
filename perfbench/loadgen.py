"""The one load generator: every workload input is a function of the seed.

A :class:`Load` fixes the two application ids (the saturated stream's
and the open-loop stream's), the payload size and a pool of seeded
payloads: message ``seq`` carries ``pool[seq % len(pool)]``.  Because
payload content is a pure function of ``(seq, size, seed)``, the digest
of the first ``n`` messages of a stream is known before the run; sinks
fold what they receive into the same order-independent digest.  Every
workload offers its open-loop stream at :data:`LIGHT_RATE`.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

_MASK = (1 << 64) - 1
#: distinct payloads per load; message ``seq`` uses ``pool[seq % POOL]``
POOL = 61

#: workload -> payload bytes
SIZES = {"sim_chain": 5000, "virtual_chain": 5000, "virtual_openloop": 64,
         "cluster_chain": 5000}
#: open-loop offered rate, msg/s: about 1/8 of the saturated 40-node
#: VirtualHost chain's capacity, so its queues stay short
LIGHT_RATE = 200.0


def entry_digest(app: int, seq: int, crc: int) -> int:
    """One message's contribution to the order-independent digest."""
    return (crc * 0x9E3779B97F4A7C15 + seq * 0xC2B2AE3D27D4EB4F + app) & _MASK


@dataclass(frozen=True)
class Load:
    """The generated inputs of one workload and seed."""

    workload: str
    seed: int
    app: int
    light_app: int
    size: int
    pool: tuple[bytes, ...]
    crcs: tuple[int, ...]

    def payload(self, seq: int) -> bytes:
        return self.pool[seq % len(self.pool)]

    def expected_digest(self, app: int, count: int) -> int:
        """Digest of messages ``0 .. count-1`` of stream ``app``."""
        total = 0
        crcs = self.crcs
        k = len(crcs)
        for seq in range(count):
            total += entry_digest(app, seq, crcs[seq % k])
        return total & _MASK


def make_load(workload: str, seed: int) -> Load:
    """The inputs of ``workload`` for ``seed`` (same seed, same inputs)."""
    size = SIZES[workload]
    rng = random.Random(f"{workload}:{seed}")
    app = rng.randrange(1, 1 << 15)
    light_app = app + (1 << 15)
    pool = tuple(rng.randbytes(size) for _ in range(POOL))
    return Load(workload, seed, app, light_app, size, pool,
                tuple(zlib.crc32(p) for p in pool))
