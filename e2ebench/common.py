"""Shared pieces of the end-to-end benchmark: statistics, repetitions,
set-up timing and the workload interface every workload module follows."""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import urllib.request
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: The checkout root: the directory that holds ``src/`` and ``e2ebench/``.
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: The seven models of the paper's evaluation (§5.1, Table 1).
PAPER_MODELS = ("vgg16", "resnet50", "alexnet", "gnmt16", "gnmt8", "awd-lm", "s2vt")


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``fraction`` of the sample at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_seconds(modules: Sequence[str], speed: "HostSpeed",
                   repeats: int = 5) -> float:
    """Median time to import ``modules`` in a fresh interpreter, in
    seconds of the calibration host (see ``HostSpeed``).

    Imports happen once per process, so each repetition runs in a child
    interpreter (timed from inside the child, so interpreter start-up is
    not counted).  ``subprocess.run`` waits for every child to exit.
    """
    code = (
        "import time\n"
        "t = time.perf_counter()\n"
        + "".join(f"import {m}\n" for m in modules)
        + "print(time.perf_counter() - t)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(repeats):
        mark = speed.mark()
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        seconds = float(out.stdout.strip().splitlines()[-1])
        speed.sample()
        samples.append(seconds * speed.factor(mark))
    return statistics.median(samples)


@dataclass
class Rep:
    """One repetition of a workload: a fixed amount of work for its seed.

    ``seconds`` is the wall time spent in calls into the system (the sum
    of ``latencies`` unless a workload says otherwise), ``speed`` the
    host's speed during the repetition and ``call_speeds`` the speed each
    call's latency is normalised by: the host's speed in the samples just
    before and just after the call (see ``HostSpeed``).
    ``work`` counts the units ``ops_per_s`` is measured in, ``latencies``
    holds the wall time of each call into the system, and ``outputs`` is
    the canonical, wall-clock-free form of everything the repetition
    produced (compared across repetitions and with tracing on and off).
    ``extra`` holds the per-layer metrics the repetition measured at the
    workload's own boundary (cache statistics, byte counts, a baseline
    timing), reported by traced runs beside the tracer's span metrics.
    """

    seconds: float = 0.0
    speed: float = 1.0
    call_speeds: List[float] = field(default_factory=list)
    work: int = 0
    latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    outputs: Any = None
    extra: Dict[str, float] = field(default_factory=dict)


class Workload:
    """Interface of one benchmark workload.

    A workload generates all of its inputs from ``seed`` in ``__init__``;
    ``setup`` builds the state a repetition needs (timed for ``setup_s``
    and repeated, so it must be safe to call more than once); ``run``
    executes one repetition, wrapping each call into the program in
    ``op_scope(tracer, speed)``; ``check`` returns the failed correctness
    checks of one repetition; ``plan_speedups`` returns the simulated
    speedup over data parallelism of every plan the repetition produced.
    """

    name = ""
    #: Modules imported by the workload, timed as part of ``setup_s``.
    modules: Tuple[str, ...] = ()
    #: Unit of ``Rep.work``, reported in the detail line.
    work_unit = ""
    #: The ``HostSpeed`` references that match what the workload runs;
    #: the default matches planner and simulator work.
    references: Tuple[str, ...] = ("python", "numpy")
    #: The references each call's latency is normalised by, in call order,
    #: for a workload whose calls do different kinds of work; ``None``:
    #: every call by all of ``references``.
    call_references: Optional[List[Tuple[str, ...]]] = None

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, tracer=None, speed=None) -> Rep:
        raise NotImplementedError

    def check(self, rep: Rep) -> List[str]:
        raise NotImplementedError

    def plan_speedups(self, rep: Rep) -> List[float]:
        raise NotImplementedError

    def close(self) -> None:
        pass


@contextmanager
def op_scope(tracer, speed=None):
    """Context for one call into the system: a fresh span op id when
    tracing, nothing otherwise.  Before the call it gives ``speed`` (a
    ``HostSpeed``) the chance to sample the host, outside the call's
    latency and outside every span."""
    if speed is not None:
        speed.tick()
        speed.call()
    with tracer.op() if tracer is not None else nullcontext():
        yield


def python_reference_kernel() -> float:
    """Wall time of a fixed piece of pure-Python work that calls nothing
    of the program: heap pushes and pops, dict updates and float
    arithmetic over small tuples, the mix the planner and the simulator
    are made of."""
    import heapq

    begin = perf_counter()
    heap: list = []
    ready: Dict[int, float] = {}
    clock = 0.0
    for i in range(3000):
        heapq.heappush(heap, ((i * 7919) % 1009 * 0.5, i, (i % 8, "f")))
        if len(heap) > 16:
            at, key, (stage, _) = heapq.heappop(heap)
            clock = max(clock, at) + 0.25 * (stage + 1)
            ready[key % 97] = ready.get(key % 97, 0.0) + clock
    if len(sorted(ready.values())) != 97:
        raise AssertionError("reference kernel did not touch every slot")
    return perf_counter() - begin


class EchoServer:
    """A standard-library HTTP server on localhost that answers every POST
    with its JSON body, and a client that times round trips to it: the
    same ``ThreadingHTTPServer`` / ``urllib`` / ``json`` path a served
    request takes, with none of the program behind it."""

    PAYLOAD = json.dumps({"stages": [[i, i + 1, 2] for i in range(32)],
                          "slowest_stage_seconds": 0.125}).encode()

    def __init__(self):
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, format, *args):
                pass

            def do_POST(self):  # noqa: N802 (http.server's naming)
                body = self.rfile.read(int(self.headers["Content-Length"]))
                out = json.dumps(json.loads(body)).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(out)))
                self.end_headers()
                self.wfile.write(out)

        class Server(ThreadingHTTPServer):
            daemon_threads = True

        self.server = Server(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       name="reference-echo", daemon=True)
        self.thread.start()
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}/echo"

    def round_trips(self) -> float:
        """Wall time of four round trips, one connection each."""
        begin = perf_counter()
        for _ in range(4):
            request = urllib.request.Request(
                self.url, data=self.PAYLOAD,
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=30) as response:
                json.loads(response.read())
        return perf_counter() - begin

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join()


def numpy_reference_kernel() -> float:
    """Wall time of a fixed piece of numpy work that calls nothing of the
    program, shaped like a training step: fresh activations (new pages
    each call), an im2col copy, a matmul, a ReLU and a weight gradient."""
    import numpy as np

    begin = perf_counter()
    weights = np.linspace(-1.0, 1.0, 144 * 32, dtype=np.float32).reshape(144, 32)
    x = np.full((32, 16, 16, 16), 0.5, dtype=np.float32)
    windows = np.lib.stride_tricks.sliding_window_view(x, (3, 3), axis=(2, 3))
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(32 * 14 * 14, 144)
    y = np.maximum(cols @ weights, 0.0)
    if not float((cols.T @ y).sum()) > 0.0:
        raise AssertionError("numpy reference kernel lost its work")
    return perf_counter() - begin


#: Wall time of each reference on the host the benchmark was calibrated
#: on (a 2-vCPU Xeon VM, medians over a few minutes): ``python`` is
#: ``python_reference_kernel()``, ``numpy`` ``numpy_reference_kernel()`` and
#: ``http`` ``EchoServer.round_trips()``.  Times normalised by
#: ``HostSpeed`` are in seconds of that host.
REFERENCE_SECONDS = {"python": 0.0044, "numpy": 0.0052, "http": 0.0034}


class HostSpeed:
    """The host's speed over time, relative to the calibration host.

    The host's CPU speed drifts by tens of percent within seconds to
    minutes (other tenants share its cores), and the wall time of every
    workload drifts with it.  So a reference -- fixed work that calls
    nothing of the program -- is timed before a call into the program
    when the last sample is ``INTERVAL`` seconds old, and around each
    stretch of wall time measured as a whole.  A sample's relative speed
    is ``nominal / reference time``; a call's latency counts as
    ``latency * factor``, with ``factor`` the mean relative speed of the
    samples just before and just after the call, and a stretch's
    ``factor`` is the mean over the samples from its start to its end.
    The reference runs between calls, so it is never part of a measured
    time.

    Kinds of work speed up and slow down by different amounts (pure
    Python the most; numpy on fresh arrays and HTTP over localhost with
    a thread per connection less), so a relative speed is taken over the
    sum of the ``REFERENCE_SECONDS`` kernels that match the work:
    ``references`` names every kernel sampled, and ``factor`` takes a
    subset for calls that run only part of that work.
    """

    #: Seconds between samples taken by ``tick``.
    INTERVAL = 0.1

    def __init__(self, references: Sequence[str]):
        self.references = tuple(references)
        #: Each sample: the seconds each reference took.
        self.samples: List[Dict[str, float]] = []
        #: For each call into the program: the newest sample before it.
        self.calls: List[int] = []
        self.echo = EchoServer() if "http" in self.references else None
        kernels = {"python": python_reference_kernel, "numpy": numpy_reference_kernel,
                   "http": self.echo.round_trips if self.echo else None}
        self.kernels = {name: kernels[name] for name in self.references}
        self.sample()  # warm up: the first calls pay for allocation
        self.samples.clear()

    def sample(self) -> None:
        self.samples.append({name: kernel() for name, kernel in self.kernels.items()})
        self.last = perf_counter()

    def tick(self) -> None:
        """Sample if the last sample is ``INTERVAL`` seconds old."""
        if perf_counter() - self.last >= self.INTERVAL:
            self.sample()

    def call(self) -> None:
        """Note that a call into the program starts: the sample before it
        is the newest, the one after it the next."""
        self.calls.append(len(self.samples) - 1)

    def mark(self) -> int:
        """Sample now and return where a stretch of wall time starts; the
        stretch ends with the next ``sample``."""
        self.sample()
        return len(self.samples) - 1

    def factor(self, mark: int, references: Optional[Sequence[str]] = None,
               end: Optional[int] = None) -> float:
        """The mean relative speed over the samples from ``mark`` to
        ``end`` (the newest by default), by the sum of ``references`` (all
        of them by default)."""
        names = references or self.references
        nominal = sum(REFERENCE_SECONDS[name] for name in names)
        window = self.samples[mark:end]
        return sum(nominal / sum(s[name] for name in names)
                   for s in window) / len(window)

    def close(self) -> None:
        if self.echo is not None:
            self.echo.close()
            self.echo = None
