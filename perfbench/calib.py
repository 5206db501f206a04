"""The reference loop that the benchmark's op latencies are expressed in.

The speed of the machine this benchmark was built on drifts by up to
half over minutes, the same for htlp's ops and for any other pure-Python
work (see README.md). Each op's time is therefore divided by the time of
a fixed pure-Python loop run on the same CPU just before it: a latency
of 30 "ref" means the op took as long as 30 runs of this loop.
"""

import time

#: A new reference sample is taken before an op once this much time has passed.
SAMPLE_EVERY_S = 0.25


def reference() -> float:
    """Seconds for one run of the reference loop (about 5 ms here).

    It allocates, hashes, sorts and looks up small objects, the kind of
    work htlp's ops do, and touches nothing of htlp.
    """
    start = time.perf_counter()
    rows = []
    for i in range(3000):
        key = frozenset((i, i + 1, i % 7))
        rows.append((len(key), key))
    rows.sort(key=lambda row: (row[0], hash(row[1])))
    table = {key: size for size, key in rows}
    if len(table) != 3000:
        raise AssertionError("reference loop changed")
    return time.perf_counter() - start


class Calibrator:
    """Reference samples taken between ops, at most every SAMPLE_EVERY_S."""

    def __init__(self):
        self.current = None
        self._taken_at = 0.0

    def before_op(self) -> float:
        """The reference time to divide the next op's time by."""
        now = time.perf_counter()
        if self.current is None or now - self._taken_at >= SAMPLE_EVERY_S:
            self.current = reference()
            self._taken_at = time.perf_counter()
        return self.current
