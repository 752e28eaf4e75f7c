"""A fixed reference kernel that measures how fast the host runs right now.

The host the benchmark runs on shares its processors with other guests.
Their load slows everything this process runs, numpy and the interpreter
alike, by up to about 1.6x, in phases that last from seconds to minutes, so
two runs of the same code minutes apart can differ by more than any bound a
regression gate could use. The benchmark therefore runs this kernel between
its timed passes and reports each time scaled to the speed the kernel sees:

    time at reference speed = measured time * REFERENCE_CHUNK_S / median chunk time

The kernel never changes and does not touch pathkf, so a change to the
package moves the scaled times exactly as it moves the raw ones, while a
slow phase of the host moves the pass and the kernel alike and cancels.
The raw times are kept beside the scaled ones in the results file.
"""

from __future__ import annotations

import math
import multiprocessing
import statistics
from time import perf_counter

import numpy as np

#: Chunk time that defines reference speed: scaled times read as seconds on
#: a host where one chunk takes this long (an Intel Xeon KVM guest with
#: Python 3.11 and numpy 2.4 takes 3-5 ms, depending on its neighbours'
#: load). Any constant would do, as long as it never changes: a regression
#: gate compares ratios.
REFERENCE_CHUNK_S = 0.004

#: Reference time run after each pass, as a share of that pass's time.
REFERENCE_SHARE = 0.2

_GRID = np.linspace(0.01, 2.0, 96)


def chunk() -> float:
    """One unit of the kernel: the same mix of small numpy calls and
    interpreter work as the package's spline scans."""
    total = 0.0
    grid = _GRID
    for i in range(160):
        k = 0.01 * (i + 1)
        flow = 2.0 + (1.0 - 2.0) * np.exp(-k * grid)
        weights = np.exp(-0.5 * (flow - 1.5) ** 2)
        weights /= weights.sum()
        mean = float(weights @ flow)
        total += mean + float(weights @ (flow - mean) ** 2)
        scores = {}
        for j in range(24):
            scores[j] = math.log1p(k * j) - 0.5 * (j - mean) ** 2
        total += max(scores.values())
    return total


def reference_walls(budget_s: float) -> list[float]:
    """Run whole chunks for about ``budget_s`` (at least one); their wall times."""
    walls = []
    spent = 0.0
    while not walls or spent < budget_s:
        t0 = perf_counter()
        chunk()
        walls.append(perf_counter() - t0)
        spent += walls[-1]
    return walls


def _serve(conn) -> None:
    """Worker loop of :class:`Reference`: a budget in, chunk times out."""
    try:
        while (budget_s := conn.recv()) is not None:
            conn.send(reference_walls(budget_s))
    except EOFError:
        pass  # the benchmark process ended without saying so


class Reference:
    """Runs the kernel on as many processors as the measured passes keep busy.

    With ``processes == 1`` the chunks run in this process. Otherwise that
    many worker processes, started once and idle between requests, run
    chunks at the same time, so that the kernel sees the host the way a
    pool of workers does, neighbours on every processor included. Use it as
    a context manager: leaving it stops and reaps the workers.
    """

    def __init__(self, processes: int = 1):
        self._conns = []
        self._procs = []
        if processes > 1:
            context = multiprocessing.get_context("fork")
            for _ in range(processes):
                ours, theirs = context.Pipe()
                proc = context.Process(target=_serve, args=(theirs,), daemon=True)
                proc.start()
                theirs.close()
                self._conns.append(ours)
                self._procs.append(proc)

    def walls(self, budget_s: float) -> list[float]:
        """Chunk times of about ``budget_s`` of kernel on every processor."""
        if not self._conns:
            return reference_walls(budget_s)
        for conn in self._conns:
            conn.send(budget_s)
        return [wall for conn in self._conns for wall in conn.recv()]

    def __enter__(self) -> Reference:
        return self

    def __exit__(self, *exc) -> None:
        for conn in self._conns:
            try:
                conn.send(None)
            except OSError:
                pass  # the worker is gone already
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join()
        for conn in self._conns:
            conn.close()


def speed_scale(chunk_walls) -> float:
    """Factor that turns a time measured alongside ``chunk_walls`` into one
    at reference speed."""
    return REFERENCE_CHUNK_S / statistics.median(chunk_walls)


def scaled_block_median(samples, chunk_walls, blocks: int = 5) -> float:
    """Median over consecutive, near-equal blocks of samples of the block's
    mean sample at reference speed.

    ``chunk_walls[i]`` holds the reference chunk times run after sample
    ``i``. Each block is scaled by its own chunks, which follows the host
    through speed phases longer than a block; the block mean absorbs
    shorter swings, and the median discards a block that a hiccup hit.
    """
    n = len(samples)
    if n == 0 or len(chunk_walls) != n:
        raise ValueError("need one list of chunk times per sample")
    k = min(blocks, n)
    scaled = []
    for b in range(k):
        lo, hi = b * n // k, (b + 1) * n // k
        mean = sum(samples[lo:hi]) / (hi - lo)
        scaled.append(mean * speed_scale([w for walls in chunk_walls[lo:hi] for w in walls]))
    return statistics.median(scaled)
