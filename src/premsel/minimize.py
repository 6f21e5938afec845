"""Greedy reduction of dependency sets against a black-box sufficiency
oracle.

``greedy_minimize`` makes one pass over the candidates, dropping every
element whose removal keeps the oracle satisfied.  For monotone oracles
(sufficiency preserved under supersets, the usual case for real
verifiers) the result is 1-minimal: no single remaining element can be
removed.  For non-monotone oracles the outcome is order-dependent and
the per-probe guarantees are those of the pass itself.
``batch_minimize`` first tries to discard whole contiguous chunks with
halving sizes, which probes far fewer times when only a few elements
are needed, then finishes with the element-wise pass.
"""

from __future__ import annotations

import csv
import subprocess
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import PremselError


class InsufficientStartError(PremselError):
    """The starting set already fails the oracle; nothing to minimize."""


class _Timeout:
    """Verdict of a probe whose oracle ran out of time: insufficient."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "TIMEOUT"


TIMEOUT = _Timeout()


@dataclass(frozen=True, slots=True)
class ProbeRecord:
    """One attempted removal: the ids tried and the oracle's verdict.

    A sufficient probe means the attempted ids were removed.  The verdict
    is ``True``, ``False`` or the falsy :data:`TIMEOUT`."""

    attempted: tuple[str, ...]
    sufficient: bool | _Timeout


@dataclass(frozen=True)
class MinimizationResult:
    kept: tuple[str, ...]
    call_count: int
    trace: tuple[ProbeRecord, ...]

    @property
    def kept_set(self) -> frozenset[str]:
        return frozenset(self.kept)


class CountingOracle:
    """Wraps a sufficiency predicate and counts invocations.

    The predicate receives the candidate ids as a tuple in current
    chronological order but must treat them as a set: repeated calls
    with the same set must give the same verdict.
    """

    def __init__(self, predicate: Callable[[tuple[str, ...]], bool]):
        self._predicate = predicate
        self.calls = 0

    def __call__(self, ids: tuple[str, ...]) -> bool | _Timeout:
        self.calls += 1
        verdict = self._predicate(ids)
        return verdict if verdict is TIMEOUT else bool(verdict)


class SubprocessOracle:
    """Sufficiency oracle backed by an external command.

    The candidate ids are written to the command's standard input, one
    per line; exit status 0 means sufficient, anything else means
    insufficient.  The command's standard output and error are
    discarded: the exit status alone is the verdict, and a process the
    command leaves running in the background does not hold the probe
    open.  This is the hook point for plugging in real verifiers.  A
    command still running after ``timeout`` seconds is killed and its
    verdict is :data:`TIMEOUT`; processes it started itself are not
    killed with it.
    """

    def __init__(self, command: Sequence[str], timeout: float | None = None):
        self.command = list(command)
        self.timeout = timeout

    def __call__(self, ids: tuple[str, ...]) -> bool | _Timeout:
        text = "".join(f"{i}\n" for i in ids)
        try:
            proc = subprocess.run(self.command, input=text, text=True,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                  timeout=self.timeout)
        except subprocess.TimeoutExpired:
            return TIMEOUT
        return proc.returncode == 0


def _as_counting(oracle) -> CountingOracle:
    return oracle if isinstance(oracle, CountingOracle) else CountingOracle(oracle)


def _check_start(ids: list[str], oracle: CountingOracle) -> None:
    if len(set(ids)) != len(ids):
        raise ValueError("candidate ids must be distinct")
    verdict = oracle(tuple(ids))
    if verdict is TIMEOUT:
        raise InsufficientStartError("the oracle timed out on the starting set")
    if not verdict:
        raise InsufficientStartError("the starting set does not satisfy the oracle")


def _single_pass(current: list[str], candidates, oracle, trace) -> list[str]:
    for element in candidates:
        attempt = [x for x in current if x != element]
        ok = oracle(tuple(attempt))
        trace.append(ProbeRecord((element,), ok))
        if ok:
            current = attempt
    return current


def greedy_minimize(start: Sequence[str], oracle, order: str = "given") -> MinimizationResult:
    """Remove candidates one at a time, keeping each element iff its
    removal flips the oracle to insufficient.

    ``order`` is ``given`` (sequence order of ``start``) or ``reverse``;
    with chronologically ordered input the latter tries the newest
    dependencies first.
    """
    if order not in ("given", "reverse"):
        raise ValueError(f"order must be 'given' or 'reverse', got {order!r}")
    ids = list(start)
    oracle = _as_counting(oracle)
    before = oracle.calls
    _check_start(ids, oracle)
    trace: list[ProbeRecord] = []
    candidates = list(reversed(ids)) if order == "reverse" else list(ids)
    current = _single_pass(list(ids), candidates, oracle, trace)
    return MinimizationResult(tuple(current), oracle.calls - before, tuple(trace))


def batch_minimize(start: Sequence[str], oracle, schedule: Sequence[int] | None = None) -> MinimizationResult:
    """Chunked removal passes followed by the element-wise pass.

    ``schedule`` lists chunk sizes to try in order; the default halves
    from ``len(start)//2`` down to 2.  A final size-1 pass always runs
    (it is appended when missing), so the result contract matches
    ``greedy_minimize``; the degenerate schedule ``[1]`` produces an
    identical trace.
    """
    ids = list(start)
    if schedule is None:
        sizes = []
        size = len(ids) // 2
        while size >= 2:
            sizes.append(size)
            size //= 2
        sizes.append(1)
    else:
        sizes = [int(s) for s in schedule]
        if any(s < 1 for s in sizes):
            raise ValueError("chunk sizes must be positive")
        if not sizes or sizes[-1] != 1:
            sizes.append(1)
    oracle = _as_counting(oracle)
    before = oracle.calls
    _check_start(ids, oracle)
    trace: list[ProbeRecord] = []
    current = list(ids)
    for size in sizes:
        if size == 1:
            current = _single_pass(current, list(current), oracle, trace)
            continue
        snapshot = list(current)
        for lo in range(0, len(snapshot), size):
            chunk = snapshot[lo : lo + size]
            chunk_set = set(chunk)
            attempt = [x for x in current if x not in chunk_set]
            if len(attempt) == len(current):
                continue
            ok = oracle(tuple(attempt))
            trace.append(ProbeRecord(tuple(chunk), ok))
            if ok:
                current = attempt
    return MinimizationResult(tuple(current), oracle.calls - before, tuple(trace))


def write_trace_csv(result: MinimizationResult, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["step", "attempted_ids", "sufficient"])
        for step, record in enumerate(result.trace):
            verdict = ("timeout" if record.sufficient is TIMEOUT
                       else "true" if record.sufficient else "false")
            writer.writerow([step, " ".join(record.attempted), verdict])
