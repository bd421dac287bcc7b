"""Fixed reference kernels that measure how fast the host runs at the moment.

On a shared host one core's speed drifts by up to a factor of two over
minutes, so a whole run can fall in a slow spell, and neither the fastest nor
the median of a run's own samples removes that. The benchmark therefore runs
a reference kernel right after every timed item, once per ``PER_KERNEL_S`` of
the item's time, and scales each item's time by the kernel's nominal time
over its median time around the item. The reported timings are seconds on a
host on which the kernel takes its nominal time; the measured, unscaled times
are printed beside them.

Contention slows some kinds of work more than others, so each workload is
scaled by a kernel that does its kind of work:

* ``rotations`` (``suite``, ``spectrum``): a Python loop driving small numpy
  row operations, as the package's Jacobi sweep does;
* ``line_graph`` (``build``): a graph's line graph built with dicts, sets and
  sorted tuples, then dumped as JSON, as the transforms and the CLI do.

The kernels must never change, because their time is the unit of every
end-to-end timing.
"""

import json
import statistics
import time

import numpy as np

# After an item, one kernel runs per PER_KERNEL_S of its time (at most
# MAX_KERNELS), so that a long item's local speed is measured over a longer
# span. A sample's local kernel time is the median of the kernels run right
# after it, widened to the neighbouring items' kernels until there are at
# least LOCAL_KERNELS.
PER_KERNEL_S = 0.02
MAX_KERNELS = 50
LOCAL_KERNELS = 7
# Kernels timed right before and right after each set-up, which is scaled by
# their median.
SETUP_KERNELS = 5

_START = np.add.outer(np.arange(10.0), np.arange(10.0)) % 3
_EDGES = tuple((i, j) for i in range(40) for j in range(i + 1, 40) if (7 * i + 13 * j) % 5 == 0)


def rotations():
    """45 plane rotations of a 10x10 array, one row pair at a time."""
    a = _START.copy()
    for p in range(9):
        for q in range(p + 1, 10):
            rowp, rowq = a[p, :].copy(), a[q, :].copy()
            a[p, :] = 0.8 * rowp - 0.6 * rowq
            a[q, :] = 0.6 * rowp + 0.8 * rowq
    return a


def line_graph():
    """The line graph of a fixed 40-vertex, 156-edge graph, as sorted JSON."""
    adjacency, incident = {}, {}
    for e, (u, v) in enumerate(_EDGES):
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
        incident.setdefault(u, []).append(e)
        incident.setdefault(v, []).append(e)
    lines = sorted((a, b) for es in incident.values() for i, a in enumerate(es) for b in es[i + 1:])
    degrees = sorted(len(n) for n in adjacency.values())
    return json.dumps({"degrees": degrees, "edges": lines})


# name -> (kernel, its time in a quiet spell on a 2-vCPU Xeon with Python 3.11,
# numpy 2.4 and one BLAS thread: the scaled timings read as seconds on that host)
KERNELS = {
    "rotations": (rotations, 0.25e-3),
    "line_graph": (line_graph, 0.65e-3),
}
WORKLOAD_KERNEL = {"suite": "rotations", "spectrum": "rotations", "build": "line_graph"}


class Reference:
    """The reference kernel of one workload."""

    def __init__(self, workload_name):
        self.name = WORKLOAD_KERNEL[workload_name]
        self.kernel, self.nominal_s = KERNELS[self.name]

    def timed(self, repeats=1):
        """Seconds of each of ``repeats`` kernel runs."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - start)
        return times

    def after_item(self, seconds):
        """Kernel seconds timed right after an item that took ``seconds``."""
        return self.timed(min(MAX_KERNELS, 1 + int(seconds / PER_KERNEL_S)))

    def scale(self, kernel_times):
        """The nominal kernel time over the median of ``kernel_times``."""
        return self.nominal_s / statistics.median(kernel_times)

    def scales(self, batches):
        """For each sample, the scale of its local kernel times.

        ``batches[i]`` holds the kernel times measured right after sample ``i``.
        """
        out = []
        for i in range(len(batches)):
            local = list(batches[i])
            before, after = i - 1, i + 1
            while len(local) < LOCAL_KERNELS and (before >= 0 or after < len(batches)):
                if before >= 0:
                    local += batches[before]
                    before -= 1
                if len(local) < LOCAL_KERNELS and after < len(batches):
                    local += batches[after]
                    after += 1
            out.append(self.scale(local))
        return out
