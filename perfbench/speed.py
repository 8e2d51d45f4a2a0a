"""Host-speed probe: CPU time normalised to a reference core speed.

On a shared host the cores' speed swings with what other tenants run:
measured here, the CPU time of one and the same pass ranged over 2x within
minutes (hyperthread and cache contention slow the instructions themselves,
so CPU time grows as well as wall time).  Medians over passes cannot remove
a swing that lasts a whole run.

So the benchmark runs :func:`probe`, a fixed piece of pure-Python work of
the same kind as the program's (tuple-keyed dict lookups, small
allocations, calls, integer and string operations), whose CPU time tracks
the host's current speed.

The probe runs once before and once after every timed operation, and,
while a :class:`Sampler` is active, after every ``SAMPLE_EVERY``-th run of
the garbage collector inside an operation (its time is taken out of the
operation's).  :func:`normalise` scales each operation's CPU time by
``NOMINAL_PROBE_S`` over the mean of its probes: the CPU time the
operation would take on a core where the probe, run in place, takes
``NOMINAL_PROBE_S``.  That is a fixed reference, not a calibration: 1 ms
is a round value near the probe's median in place on the host the
benchmark was written on (Intel Xeon, 2 vCPUs, Python 3.11).
"""

import gc
import time

#: CPU time of the calling thread, on which the program runs serially.
clock = time.thread_time

#: The probe's CPU time, run in place, on the reference core, in s.
NOMINAL_PROBE_S = 0.001

#: Entries the probe inserts; sets how long it runs.
PROBE_SIZE = 400

#: Collector runs per probe inside an operation: every 2 to 8 ms of CPU
#: time on the workloads.
SAMPLE_EVERY = 2


def probe():
    """CPU seconds of one run of the fixed reference work.

    The garbage collector is off while it runs, so the probe's time does
    not depend on the size of the program's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        table = {}
        acc = 0
        for i in range(PROBE_SIZE):
            key = (i & 255, i >> 3, i % 7)
            node = table.get(key)
            if node is None:
                node = table[key] = [i, key, str(i)]
            acc ^= hash(key) + len(node[2])
            acc += sum(j * j for j in range(8)) & 0xFF
        return clock() - start
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """While active, runs :func:`probe` after every ``SAMPLE_EVERY``-th
    run of the garbage collector.

    The collector runs at points fixed by the program's allocations, so
    the probes land at the same points in every pass.  A timer would
    not do: its probes, landing at varying points, shift the collector's
    allocation count, and a full collection then moved between two
    operations from one pass to the next (``table2``'s ``int8`` and
    ``int9``), swinging ``int9`` by 50%.  Samples are kept as CPU time
    when each began and its duration.
    """

    active = None

    def __init__(self):
        self.begun = []
        self.durations = []
        self.runs = 0

    def __enter__(self):
        gc.callbacks.append(self._callback)
        Sampler.active = self
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)
        Sampler.active = None

    def _callback(self, phase, info):
        if phase == "stop":
            self.runs += 1
            if self.runs % SAMPLE_EVERY == 0:
                self.begun.append(clock())
                self.durations.append(probe())

    def between(self, start, end):
        """Durations of the samples begun in ``[start, end)``; drops all."""
        inside = [d for begun, d in zip(self.begun, self.durations)
                  if start <= begun < end]
        self.begun, self.durations = [], []
        return inside


def measure(ops, key, fn, *args, **kwargs):
    """Call ``fn`` and append ``(key, CPU seconds, probes)`` to ``ops``.

    ``probes`` lists the probe just before the call (the previous
    operation's last), the probes the active :class:`Sampler` ran inside
    the call (their time is not in the CPU seconds) and one just after it.
    Returns what ``fn`` returned.
    """
    before = ops[-1][2][-1] if ops else probe()
    sampler = Sampler.active
    start = clock()
    value = fn(*args, **kwargs)
    end = clock()
    inside = sampler.between(start, end) if sampler else []
    ops.append((key, end - start - sum(inside),
                [before] + inside + [probe()]))
    return value


def normalise(ops):
    """``[(key, normalised seconds)]`` of ``(key, seconds, probes)`` ops."""
    return [(key, seconds * NOMINAL_PROBE_S * len(probes) / sum(probes))
            for key, seconds, probes in ops]
