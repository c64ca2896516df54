"""A fixed reference workload, timed between operations to track machine speed.

The speed of this machine drifts by up to 2x over tens of seconds, and CPU
time drifts with it.  The benchmark therefore times this reference
throughout a run, outside every timed operation, and scales each time it
reports by ``NOMINAL_S / local reference time``: the time the operation
would have taken on a machine that runs the reference in ``NOMINAL_S``.

The reference mixes the kinds of work the server does (random lookups in
a dict too large for the caches, a keyed sort, keyed BLAKE2b hashing and
JSON round trips), because the drift does not slow them alike: a pure
bytecode loop did not track the drift of a store fetch at all (see README).
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
import statistics
import time

# The reference's median time on the 2-core reference machine (see README).
NOMINAL_S = 2.5e-3
# Seconds between two timings of the reference in a run.
EVERY_S = 0.1
# Timings on each side of an operation that give its local speed.
WINDOW = 2


class Reference:
    """The reference workload; its data (about 30 MB) is built once."""

    def __init__(self) -> None:
        rnd = random.Random(0)
        self.table = {i: i for i in range(400_000)}
        self.keys = rnd.sample(range(400_000), 1500)
        self.pairs = [(f"e{rnd.randrange(10**6):07d}", rnd.randrange(100)) for _ in range(800)]
        self.doc = {"entries": [[f"x{j:05d}", j] for j in range(40)], "noisy_values": [j + 0.25 for j in range(40)]}

    def run(self) -> float:
        """Seconds taken by one pass of the reference."""
        start = time.perf_counter()
        acc = 0
        for k in self.keys:
            acc += self.table[k]
        sorted(self.pairs, key=lambda kv: (-kv[1], kv[0]))
        seed = b"reference-seed-0123456789abcdef!"
        for i in range(150):
            sub = hashlib.blake2b(b"count:%d" % i, key=seed, digest_size=32).digest()
            hashlib.blake2b((0).to_bytes(8, "big"), key=sub, digest_size=8).digest()
        for _ in range(6):
            json.loads(json.dumps(self.doc, sort_keys=True, separators=(",", ":")))
        return time.perf_counter() - start


class SpeedTrack:
    """Reference timings taken during a run, and the scale factor they give."""

    def __init__(self) -> None:
        self.reference = Reference()
        self.at: list[float] = []
        self.took: list[float] = []
        self._due = 0.0

    def sample(self) -> None:
        at = time.perf_counter()
        self.took.append(self.reference.run())
        self.at.append(at)
        self._due = time.perf_counter() + EVERY_S

    def maybe_sample(self) -> None:
        if time.perf_counter() >= self._due:
            self.sample()

    def factor(self, when: float) -> float:
        """NOMINAL_S over the median reference time around ``when``."""
        i = bisect.bisect(self.at, when)
        near = self.took[max(0, i - WINDOW) : i + WINDOW]
        return NOMINAL_S / statistics.median(near)

    def median(self) -> float:
        return statistics.median(self.took)

    def run_factor(self) -> float:
        """NOMINAL_S over the median of the whole run.  Scales set-up time,
        around which no reference is timed: the reference would compete
        with the starting server, and timed back to back it runs on warm
        caches and reads fast."""
        return NOMINAL_S / self.median()
