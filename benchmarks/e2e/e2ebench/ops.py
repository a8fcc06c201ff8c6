"""Seeded operations, the HTTP client, and the dense-numpy answer oracle.

The generator makes every operation from the workload seed before anything
is timed; the program only ever receives the resulting URLs and bodies (or,
in the library workload, the boxes).  Each read carries the boxes its
answer must cover, so the oracle never trusts the response to say what was
asked.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .config import API_KEY, CUBE, DIMS, UPDATE_SHAPE, Geometry

Box = Tuple[Tuple[int, ...], Tuple[int, ...]]  # inclusive (lows, highs)


class Op(NamedTuple):
    """One client operation."""

    cls: str  # rollup | drill | point | write
    path: str
    body: Optional[bytes]  # JSON body of a write
    boxes: Tuple[Box, ...]  # cells a read's answer must list, in order
    corner: Optional[Tuple[int, ...]]  # writes: low corner of the deltas
    deltas: Optional[np.ndarray]


class Sample(NamedTuple):
    """One completed operation, as the client saw it."""

    op: Op
    status: int
    body: bytes
    sent: float
    received: float

    @property
    def ms(self) -> float:
        return (self.received - self.sent) * 1e3


# ----------------------------------------------------------------------
# generation
# ----------------------------------------------------------------------


def _aggregate_path(cuts: Sequence[str], drilldown: str = "") -> str:
    path = f"/cube/{CUBE}/aggregate?cut=" + "|".join(cuts)
    return path + (f"&drilldown={drilldown}" if drilldown else "")


def _range_cuts(lows, highs, skip_time: bool = False) -> List[str]:
    return [
        f"{name}:{low}-{high}"
        for name, low, high in zip(DIMS, lows, highs)
        if not (skip_time and name == "time")
    ]


def _random_box(geo: Geometry, rng) -> Box:
    """Uniformly random inclusive ranges: cuts that ignore the dyadic
    grid, so the shift-variant tile footprint is exercised."""
    pairs = [np.sort(rng.integers(extent, size=2)) for extent in geo.shape]
    return (
        tuple(int(pair[0]) for pair in pairs),
        tuple(int(pair[1]) for pair in pairs),
    )


def _months(geo: Geometry, year: int, quarter: Optional[int]) -> List[int]:
    """Time cells of the months of a year (or of one of its quarters), in
    drill-down order; a month is one cell."""
    __, quarters, months = geo.yqm
    if quarter is None:
        base, count = year * quarters * months, quarters * months
    else:
        base, count = (year * quarters + quarter) * months, months
    return list(range(base, base + count))


def rollup_aligned(geo: Geometry, rng) -> Op:
    """``time@yqm:Y.Q|lat:0-half`` — a hierarchy-aligned dashboard tile."""
    years, quarters, months = geo.yqm
    year, quarter = int(rng.integers(years)), int(rng.integers(quarters))
    half = geo.shape[0] // 2 - 1
    start = (year * quarters + quarter) * months
    lows = (0, 0, 0, start)
    highs = (half, geo.shape[1] - 1, geo.shape[2] - 1, start + months - 1)
    path = _aggregate_path([f"time@yqm:{year}.{quarter}", f"lat:0-{half}"])
    return Op("rollup", path, None, ((lows, highs),), None, None)


def rollup_random(geo: Geometry, rng) -> Op:
    lows, highs = _random_box(geo, rng)
    path = _aggregate_path(_range_cuts(lows, highs))
    return Op("rollup", path, None, ((lows, highs),), None, None)


def drill(
    geo: Geometry,
    rng,
    aligned: bool,
    year: Optional[int] = None,
    by_quarter: bool = False,
) -> Op:
    """A year (or, ``by_quarter``, one quarter) drilled down to its
    months; the other axes are uncut (``aligned``) or cut by random
    ranges."""
    years, quarters, __ = geo.yqm
    if year is None:
        year = int(rng.integers(years))
    quarter = int(rng.integers(quarters)) if by_quarter else None
    member = f"{year}.{quarter}" if by_quarter else f"{year}"
    if aligned:
        lows = [0, 0, 0, 0]
        highs = [extent - 1 for extent in geo.shape]
        cuts = [f"time@yqm:{member}"]
    else:
        box = _random_box(geo, rng)
        lows, highs = list(box[0]), list(box[1])
        cuts = [f"time@yqm:{member}"] + _range_cuts(lows, highs, skip_time=True)
    boxes = tuple(
        (tuple(lows[:3]) + (cell,), tuple(highs[:3]) + (cell,))
        for cell in _months(geo, year, quarter)
    )
    path = _aggregate_path(cuts, "time:month")
    return Op("drill", path, None, boxes, None, None)


def point(geo: Geometry, rng, low=None, high=None) -> Op:
    """A fully cut aggregate: one cell, uniform in ``[low, high)``."""
    low = low if low is not None else (0,) * len(geo.shape)
    high = high if high is not None else geo.shape
    cell = tuple(int(rng.integers(lo, hi)) for lo, hi in zip(low, high))
    path = _aggregate_path(_range_cuts(cell, cell))
    return Op("point", path, None, ((cell, cell),), None, None)


def write(geo: Geometry, rng) -> Op:
    """A 4x4x4x4 block of deltas at a seeded, aligned corner."""
    corner = tuple(
        int(rng.integers(extent // edge)) * edge
        for extent, edge in zip(geo.shape, UPDATE_SHAPE)
    )
    deltas = rng.normal(size=UPDATE_SHAPE)
    body = json.dumps(
        {"deltas": deltas.tolist(), "corner": dict(zip(DIMS, corner))}
    ).encode()
    return Op("write", f"/cube/{CUBE}/update", body, (), corner, deltas)


def mixed(rng, count: int, makers: Sequence[Tuple[float, callable]]) -> List[Op]:
    """``count`` reads split between ``(share, maker)`` pairs in exact
    proportion (at least one of each), in seeded random order."""
    total = sum(share for share, __ in makers)
    ops: List[Op] = []
    for share, maker in makers[1:]:
        ops.extend(maker() for __ in range(max(1, round(count * share / total))))
    ops.extend(makers[0][1]() for __ in range(max(1, count - len(ops))))
    return [ops[int(index)] for index in rng.permutation(len(ops))]


# ----------------------------------------------------------------------
# HTTP client
# ----------------------------------------------------------------------


class HttpClient:
    """One closed-loop client: the next request leaves when the previous
    answer has been read in full."""

    def __init__(self, address) -> None:
        self._conn = http.client.HTTPConnection(*address, timeout=60)

    def roundtrip(self, op: Op) -> Sample:
        sent = time.perf_counter()
        try:
            self._conn.request(
                "POST" if op.body is not None else "GET",
                op.path,
                body=op.body,
                headers={"X-API-Key": API_KEY},
            )
            response = self._conn.getresponse()
            body = response.read()
            status = response.status
        except (OSError, http.client.HTTPException) as exc:
            # a refused or broken connection counts as a failed request
            self._conn.close()
            status, body = 0, repr(exc).encode()
        return Sample(op, status, body, sent, time.perf_counter())

    def think(self, seconds: float) -> None:
        """The client's pause between an answer and its next request."""
        time.sleep(seconds)

    def close(self) -> None:
        self._conn.close()


class ClientPlan(NamedTuple):
    """What one client thread sends."""

    ops: Sequence[Op]
    until: Optional[threading.Event] = None  # cycle through ops until set
    done: Optional[threading.Event] = None  # set when this client finishes
    think_s: float = 0.0  # pause after each answer (still a closed loop)


def run_clients(address, plans: Sequence[ClientPlan], phase) -> List[List[Sample]]:
    """Run one closed-loop client per plan, all released together.

    ``phase`` is the timed-phase context each client thread enters around
    its own loop.  Returns each client's samples, in plan order.
    """
    barrier = threading.Barrier(len(plans))
    results: List[object] = [None] * len(plans)

    def client(index: int, plan: ClientPlan) -> None:
        connection = HttpClient(address)
        samples: List[Sample] = []
        try:
            barrier.wait(30)
            with phase():
                if plan.until is None:
                    for op in plan.ops:
                        samples.append(connection.roundtrip(op))
                        if plan.think_s:
                            connection.think(plan.think_s)
                else:
                    position = 0
                    while not plan.until.is_set():
                        op = plan.ops[position % len(plan.ops)]
                        samples.append(connection.roundtrip(op))
                        position += 1
            results[index] = samples
        except BaseException as exc:  # re-raised on the caller's thread
            results[index] = exc
            barrier.abort()
        finally:
            connection.close()
            if plan.done is not None:
                plan.done.set()

    threads = [
        threading.Thread(
            target=client, args=(index, plan), name=f"bench-client-{index}"
        )
        for index, plan in enumerate(plans)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return results  # type: ignore[return-value]


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------


class Oracle:
    """Dense model of the cube; the generator updates it alongside every
    acknowledged write."""

    #: relative tolerance on a box sum, against cells x the value scale
    RTOL = 1e-9

    def __init__(self, data: np.ndarray) -> None:
        self.model = np.array(data, dtype=np.float64)
        # updates add N(0,1) deltas; the margin keeps the scale an upper
        # bound for any number of them a run can apply
        self._scale = float(np.abs(self.model).max()) + 100.0

    def box_sum(self, box: Box) -> float:
        lows, highs = box
        region = tuple(slice(lo, hi + 1) for lo, hi in zip(lows, highs))
        return float(self.model[region].sum())

    def tolerance(self, box: Box) -> float:
        cells = 1
        for lo, hi in zip(*box):
            cells *= hi - lo + 1
        return self.RTOL * cells * self._scale

    def apply(self, op: Op) -> None:
        region = tuple(
            slice(start, start + extent)
            for start, extent in zip(op.corner, UPDATE_SHAPE)
        )
        self.model[region] += op.deltas

    @staticmethod
    def _overlap_sum(op: Op, box: Box) -> float:
        """Sum of the part of a write's deltas that falls inside ``box``."""
        region = []
        for start, extent, lo, hi in zip(op.corner, UPDATE_SHAPE, *box):
            first, last = max(start, lo), min(start + extent - 1, hi)
            if first > last:
                return 0.0
            region.append(slice(first - start, last - start + 1))
        return float(op.deltas[tuple(region)].sum())

    def value_ok(self, box: Box, value: float, pending: Sequence[Op] = ()) -> bool:
        """Whether ``value`` is the box sum with some prefix of the
        in-flight writes ``pending`` applied."""
        expected = self.box_sum(box)
        tolerance = self.tolerance(box)
        if abs(value - expected) <= tolerance:
            return True
        for op in pending:
            expected += self._overlap_sum(op, box)
            if abs(value - expected) <= tolerance:
                return True
        return False

    def read_ok(self, sample: Sample, pending: Sequence[Op] = ()) -> bool:
        """A read is right when it is a 200 whose cells are exactly the
        boxes asked for, each with the model's sum."""
        if sample.status != 200:
            return False
        try:
            cells = json.loads(sample.body)["cells"]
            if len(cells) != len(sample.op.boxes):
                return False
            for cell, box in zip(cells, sample.op.boxes):
                lows = tuple(cell["box"][name][0] for name in DIMS)
                highs = tuple(cell["box"][name][1] for name in DIMS)
                if (lows, highs) != box:
                    return False
                if not self.value_ok(box, cell["sum"], pending):
                    return False
        except (ValueError, KeyError, TypeError, IndexError):
            return False
        return True

    def check_reads(self, samples: Sequence[Sample]) -> int:
        """Failures among reads that ran with no write in flight."""
        return sum(not self.read_ok(sample) for sample in samples)

    def apply_writes(self, samples: Sequence[Sample]) -> int:
        """Apply every acknowledged write; returns the failures (a write
        that was not acknowledged is not applied)."""
        failed = 0
        for sample in samples:
            if sample.status == 200:
                self.apply(sample.op)
            else:
                failed += 1
        return failed

    def check_concurrent(
        self, reads: Sequence[Sample], writes: Sequence[Sample]
    ) -> Tuple[int, int]:
        """``(failed, torn)`` among reads that ran beside one sequential
        writer.

        Every write acknowledged before a read was sent must be visible
        in it; a write in flight while the read ran may or may not be.  A
        read that overlaps an in-flight write and matches no prefix of
        the writes is *torn*: the hub documents lock-free reads without
        snapshot isolation, so a half-applied batch can be observed.
        Torn reads are reported, not failed; a wrong answer with no write
        in flight is a failure.  Applies all acknowledged writes to the
        model as it goes.
        """
        failed = torn = applied = 0
        for read in sorted(reads, key=lambda sample: sample.sent):
            while (
                applied < len(writes)
                and writes[applied].received <= read.sent
            ):
                failed += self.apply_writes([writes[applied]])
                applied += 1
            pending = [
                other.op
                for other in writes[applied:]
                if other.sent < read.received and other.status == 200
            ]
            if not self.read_ok(read, pending):
                if pending and read.status == 200:
                    torn += 1
                else:
                    failed += 1
        failed += self.apply_writes(writes[applied:])
        return failed, torn
