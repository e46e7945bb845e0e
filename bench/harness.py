"""Shared plumbing for the four workloads: the speed meter, spans, the
stack sampler and statistics.

Nothing here imports ``repro`` at module level; ``run.py`` puts ``src/``
on ``sys.path`` before a workload module is imported, and the only
program names this file touches go through :func:`soft_import`.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import importlib
import json
import math
import pathlib
import resource
import signal
import statistics
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Relative on purpose: ``run.py`` chdirs to ROOT, and unix socket paths
#: (``sun_path`` is ~100 bytes) must stay short wherever the checkout is.
OUT_DIR = pathlib.Path("bench") / "out"

#: A set-up shorter than this is repeated (median of SETUP_REPEATS); a
#: longer one is steady enough alone and too dear to repeat.
SETUP_REPEAT_BELOW_S = 3.0
SETUP_REPEATS = 3


# -- statistics ---------------------------------------------------------------


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


median = statistics.median


def spread(samples: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's rule)."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    middle = statistics.median(samples)
    return (q3 - q1) / middle if middle else 0.0


def share(part: float, whole: float) -> float:
    """``part / whole`` with 0/0 = 0 ("the layer did no work")."""
    return part / whole if whole else 0.0


def slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ys on xs (0 when xs do not vary)."""
    mean_x, mean_y = statistics.fmean(xs), statistics.fmean(ys)
    var = sum((x - mean_x) ** 2 for x in xs)
    if not var:
        return 0.0
    return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / var


# -- reference-speed time -----------------------------------------------------


def calibrate() -> None:
    """A fixed piece of pure-Python work on a small working set.

    Dict, list, call, sort and string operations from the standard
    library only, with the collector off so that the program's heap
    size does not matter: its duration depends on how fast this CPU is
    running right now and on nothing a change to ``src/`` can touch.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        table: Dict[int, int] = {}
        for turn in range(CALIBRATION_TURNS):
            for i in range(4000):
                key = (i * 7919 + turn) % 1013
                table[key] = table.get(key, 0) + i
            ranked = sorted(table.items(), key=lambda kv: (kv[1] % 97, kv[0]))
            sum(value for _, value in ranked[::7])
            ",".join(str(key) for key, _ in ranked[:200])
            sum(1 for row in [(j, j + 1) for j in range(2000)] if row[1] % 3)
    finally:
        if collecting:
            gc.enable()


CALIBRATION_TURNS = 40
#: What :func:`calibrate` takes on the reference box (2-vCPU Xeon
#: @ 2.10 GHz, Python 3.11) when its neighbours are quiet.
REFERENCE_TICK_S = 0.040
#: Wall seconds between two ticks: ~10 % of a run goes into ticks.
TICK_PERIOD_S = 0.4


class SpeedMeter:
    """Turns elapsed seconds into seconds at the reference box's speed.

    The reference box is a shared virtual machine whose speed moves by
    10–80 % from one second to the next and from one minute to the next,
    on each vCPU separately; raw timings of the same work spread over
    10–30 % and no median over repeats survives a slow quarter of an
    hour. So every ~0.4 s, in this process and on whatever CPU it runs
    on, :func:`calibrate` runs (a *tick*, ~40 ms); an interval's duration
    is then reported as the elapsed time, less the ticks inside it,
    divided by how much slower than REFERENCE_TICK_S the ticks in and
    around it ran. Ticks interleaved at this rate take the spread of 30 s
    of work from ~11 % to ~3 %; ticks only before and after, or in
    another process, do not help (measured, see README.md).

    Inside ``with meter:`` a SIGALRM handler ticks, which reaches into
    loops the program owns. A tick must not overlap work done by other
    processes on its behalf — it would read their load as a slow machine
    — so ``swarm_live`` calls :meth:`tick` itself, between directives.
    """

    def __init__(self) -> None:
        self._starts: List[float] = []
        self._lengths: List[float] = []
        self._previous: Any = None

    def tick(self, *_signal: Any) -> None:
        started = time.perf_counter()
        calibrate()
        self._starts.append(started)
        self._lengths.append(time.perf_counter() - started)

    def __enter__(self) -> "SpeedMeter":
        self.tick()
        self._previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_PERIOD_S, TICK_PERIOD_S)
        return self

    def __exit__(self, *_exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self, start: float, end: float) -> float:
        """Reference-speed seconds of ``[start, end]`` (perf_counter stamps).

        Speed is read from the last tick before ``start``, the ticks
        inside, and the first tick after ``end`` if one has happened yet.
        """
        first = bisect.bisect_right(self._starts, start)
        last = bisect.bisect_right(self._starts, end)
        inside = sum(self._lengths[first:last])
        around = self._lengths[max(0, first - 1):last + 1]
        speed = REFERENCE_TICK_S / (sum(around) / len(around))
        return (end - start - inside) * speed

    def summary(self) -> Dict[str, float]:
        """How this run's ticks went: which regime the box was in."""
        return {
            "ticks": len(self._lengths),
            "tick_s_median": statistics.median(self._lengths),
            "tick_s_min": min(self._lengths),
            "tick_s_max": max(self._lengths),
            "slowdown_median": statistics.median(self._lengths) / REFERENCE_TICK_S,
        }

    def timed(self, fn: Callable[[], Any]) -> tuple:
        """``(reference seconds, result)`` of one call, from a collected heap."""
        gc.collect()
        started = time.perf_counter()
        result = fn()
        return self.seconds(started, time.perf_counter()), result


def repeat_setup(samples: List[float], again: Callable[[], float]) -> None:
    """Top ``samples`` (the set-ups already paid) up to SETUP_REPEATS.

    ``again`` performs (and discards) one more set-up and returns its
    seconds. Long set-ups are not repeated — see SETUP_REPEAT_BELOW_S.
    """
    while len(samples) < SETUP_REPEATS and samples[0] < SETUP_REPEAT_BELOW_S:
        samples.append(again())


def passes(seconds: float) -> Iterator[int]:
    """Yield pass numbers until ``seconds`` of passes ran (at least one).

    Workloads are fixed-size, so ``--seconds`` buys whole passes: every
    workload's full-size pass is longer than BENCHMARK.json's
    ``run_seconds``, which makes the driver's runs single-pass.
    """
    started = time.perf_counter()
    number = 0
    while True:
        yield number
        number += 1
        if time.perf_counter() - started >= seconds:
            return


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """``ru_maxrss`` in MB (Linux reports KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- soft probes --------------------------------------------------------------


def soft_import(module: str, name: str) -> Optional[Any]:
    """A name outside the supported surface, or None when it is gone.

    The harness is frozen once merged, so it may hard-import only
    ``repro.api`` and package-level exports. A per-layer probe that needs
    more asks here and reports *unmeasured* (None) instead of crashing
    when a later PR moves or deletes the name.
    """
    try:
        return getattr(importlib.import_module(module), name, None)
    except ImportError:
        return None


# -- spans --------------------------------------------------------------------


class Tracer:
    """In-memory span recorder: name, start, end, parent.

    Spans are recorded from bench code around the calls it makes into a
    layer and kept in a list until :meth:`write`; nothing is emitted
    while a workload runs. Stamps are raw ``perf_counter`` readings (so
    that spans nest); durations are read back through the speed meter.
    """

    def __init__(self, meter: SpeedMeter) -> None:
        self.meter = meter
        self.origin = time.perf_counter()
        #: ``[name, start, end, parent_index]``; parent -1 = root.
        self.spans: List[List[Any]] = []
        self._open: List[int] = [-1]

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1]])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        closed = self._open.pop()
        if closed != index:
            raise RuntimeError(
                f"span {span[0]!r} closed out of order (open: "
                f"{self.spans[closed][0]!r})"
            )

    def seconds(self, index: int) -> float:
        """Reference seconds of one closed span."""
        return self.meter.seconds(self.spans[index][1], self.spans[index][2])

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span and return its result."""
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def totals(self) -> Dict[str, float]:
        """Summed reference seconds of the closed spans, by name."""
        totals: Dict[str, float] = {}
        for name, start, end, _parent in self.spans:
            if end is not None:
                totals[name] = totals.get(name, 0.0) + self.meter.seconds(start, end)
        return totals

    def write(self, path: pathlib.Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start - self.origin,
                            "end": None if end is None else end - self.origin,
                            "parent": None if parent < 0 else parent,
                        }
                    )
                    + "\n"
                )


@contextlib.contextmanager
def span(tracer: Optional[Tracer], name: str) -> Iterator[None]:
    """A span when there is a tracer, nothing when there is none.

    For call sites shared by the traced and the untraced pass; hot loops
    call :meth:`Tracer.begin` / :meth:`Tracer.end` from a pass of their own.
    """
    if tracer is None:
        yield
        return
    index = tracer.begin(name)
    try:
        yield
    finally:
        tracer.end(index)


# -- stack sampler ------------------------------------------------------------

#: Packages whose modules are layers of their own (``replication.store``);
#: everywhere else the layer is the top-level package (``dtn``).
SPLIT_PACKAGES = ("replication", "emulation")


def layer_of(filename: str, src_root: str) -> str:
    """Map a source file under ``src_root`` to its layer, by path only."""
    parts = filename[len(src_root):].split("/")
    head = parts[0].removesuffix(".py")
    if head in SPLIT_PACKAGES and len(parts) > 1:
        return f"{head}.{parts[1].removesuffix('.py')}"
    return head


class StackSampler:
    """A SIGPROF sampler for loops the program owns.

    Every 1/hz seconds of process CPU time the handler charges one sample
    to the innermost frame whose file is under ``src/repro/`` (frames of
    the standard library are charged to the program frame that called
    them; a stack with no program frame is the harness itself). It pins
    no function names and touches no source. Python delivers signals
    between bytecodes, so a long C call is charged — once — to its caller.
    A sample that lands in a speed-meter tick is dropped.
    """

    def __init__(self, hz: float = 250.0) -> None:
        self.interval = 1.0 / hz
        self.src_root = str(SRC / "repro") + "/"
        self.by_file: Dict[str, int] = {}
        self.samples = 0
        self._previous: Any = None

    def _on_signal(self, _signum: int, frame: Any) -> None:
        root = self.src_root
        walk = frame
        while walk is not None:
            code = walk.f_code
            if code is calibrate.__code__:
                return  # a speed-meter tick, not the workload
            if code.co_filename.startswith(root):
                self.by_file[code.co_filename] = (
                    self.by_file.get(code.co_filename, 0) + 1
                )
                break
            walk = walk.f_back
        self.samples += 1

    def __enter__(self) -> "StackSampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *_exc: Any) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def self_shares(self, layers: Sequence[str]) -> Dict[str, float]:
        """``self_share.<layer>`` for each named layer, the rest as other."""
        by_layer: Dict[str, int] = {}
        for filename, count in self.by_file.items():
            layer = layer_of(filename, self.src_root)
            by_layer[layer] = by_layer.get(layer, 0) + count
        shares = {
            f"self_share.{layer}": share(by_layer.get(layer, 0), self.samples)
            for layer in layers
        }
        shares["self_share.other"] = (
            1.0 - sum(shares.values()) if self.samples else 0.0
        )
        return shares


#: The layers reported by name; everything else (and the harness's own
#: frames) is ``self_share.other``. These are the layers that held at
#: least 1 % of the samples of some in-process workload at the baseline,
#: plus ``emulation.metrics`` and ``faults``, which later issues name.
SAMPLED_LAYERS = (
    "replication.store",
    "replication.filters",
    "replication.versions",
    "replication.sync",
    "replication.session",
    "replication.items",
    "replication.replica",
    "replication.codec",
    "replication.integrity",
    "dtn",
    "emulation.network",
    "emulation.engine",
    "emulation.metrics",
    "emulation.columnar",
    "faults",
    "traces",
    "_compat",
)


# -- one workload run ---------------------------------------------------------

#: The simulated statistics a leg is pinned on (outcomes of the
#: simulation, not costs of computing it).
PINNED_STATISTICS = (
    "injected",
    "delivered",
    "transmissions",
    "mean_delay_hours",
    "mean_copies_at_end",
)


def pinned_view(summary: Dict[str, Any]) -> Dict[str, float]:
    return {key: summary[key] for key in PINNED_STATISTICS}


class Recorder:
    """Collects one run's samples, checks and per-layer numbers.

    A failed check is a failed operation (``failed`` counts it and
    ``correct`` goes false); it never removes a metric from the result.
    """

    def __init__(self) -> None:
        self.meter = SpeedMeter()
        self.setup_s: List[float] = []
        self.wall_s: List[float] = []
        self.items_per_s: List[float] = []
        self.latency_p50_ms: List[float] = []
        self.latency_p99_ms: List[float] = []
        self.latency_samples = 0
        #: Whose ``ru_maxrss`` is the workload's memory (swarm: children).
        self.rss_who = resource.RUSAGE_SELF
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: Seed-dependent simulated statistics (pinned for seed 42).
        self.simulated: Dict[str, Any] = {}
        #: Per-layer metrics of the traced pass; None = unmeasured.
        self.layers: Dict[str, Optional[float]] = {}

    def add_pass(
        self,
        wall_s: float,
        items: int,
        latency_p50_ms: float,
        latency_p99_ms: float,
        latency_samples: int,
    ) -> None:
        """One pass's numbers; ``items`` is what moved in ``wall_s``."""
        self.wall_s.append(wall_s)
        self.items_per_s.append(items / wall_s)
        self.latency_p50_ms.append(latency_p50_ms)
        self.latency_p99_ms.append(latency_p99_ms)
        self.latency_samples = latency_samples

    def add_timed_encounters(
        self, wall_s: float, items: int, latencies_ms: Sequence[float]
    ) -> None:
        """A pass whose encounters were timed one by one."""
        self.add_pass(
            wall_s,
            items,
            percentile(latencies_ms, 50),
            percentile(latencies_ms, 99),
            len(latencies_ms),
        )

    def operations(self, count: int) -> None:
        """``count`` operations ran to completion."""
        self.attempted += count

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(message)

    def check_pinned(self, expected: Optional[Dict[str, Any]]) -> None:
        """Compare ``simulated`` with the pinned file (seed 42 only)."""
        if expected is None:
            return
        for key, value in self.simulated.items():
            self.check(
                expected.get(key) == value,
                f"{key}: simulated {value!r} != pinned {expected.get(key)!r}",
            )

    def end_to_end(self, rss_mb: float) -> Dict[str, float]:
        return {
            "setup_s": median(self.setup_s),
            "wall_s": median(self.wall_s),
            "peak_rss_mb": rss_mb,
            "items_per_s": median(self.items_per_s),
            "sync_latency_ms_p50": median(self.latency_p50_ms),
            "sync_latency_ms_p99": median(self.latency_p99_ms),
        }


def cache_layers(
    *,
    filter_hits: float,
    filter_misses: float,
    checksum_hits: float,
    checksum_misses: float,
    index_skipped: float,
    store_seen: float,
    metadata_bytes: float,
    syncs: float,
) -> Dict[str, float]:
    """The useful-outcome ratios of the sync layer's caches and index.

    Exact counts made by the program (they repeat run to run), summed
    over every sync of the untraced pass.
    """
    return {
        "filters.cache_hit_share": share(
            filter_hits, filter_hits + filter_misses
        ),
        "integrity.cache_hit_share": share(
            checksum_hits, checksum_hits + checksum_misses
        ),
        "sync.index_skip_share": share(index_skipped, store_seen),
        "sync.metadata_bytes_per_sync": share(metadata_bytes, syncs),
    }
