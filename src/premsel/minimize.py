"""Greedy reduction of dependency sets against a black-box sufficiency
oracle.

Both minimizers run the same removal passes: a pass of chunk size ``s``
cuts the remaining candidates into contiguous chunks of ``s`` and tries
to drop each chunk in turn, keeping the drop whenever the oracle stays
satisfied.  ``greedy_minimize`` is the single size-1 pass, one probe
per element.  For monotone oracles (sufficiency preserved under
supersets, the usual case for real verifiers) its result is 1-minimal:
no single remaining element can be removed.  For non-monotone oracles
the outcome is order-dependent and the per-probe guarantees are those
of the pass itself.  ``batch_minimize`` first runs passes of halving
chunk sizes, which probes far fewer times when only a few elements are
needed, then finishes with the size-1 pass.

An oracle is any callable that takes the candidate ids as a tuple, in
the order of the current candidates, and returns a verdict.  It must
treat the ids as a set and give the same verdict for the same set.
Each verdict is recorded as ``True``, ``False`` or :data:`TIMEOUT`, and
the result's ``call_count`` counts the starting check too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import PremselError
from .evaluate import write_csv


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
        import subprocess  # here, not at module import: only minimize probes need it
        text = "".join(f"{i}\n" for i in ids)
        try:
            proc = subprocess.run(self.command, input=text, text=True,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                  timeout=self.timeout)
        except subprocess.TimeoutExpired:
            return TIMEOUT
        return proc.returncode == 0


def _passes(ids: list[str], oracle, sizes, reverse: bool = False) -> MinimizationResult:
    """Check the starting set, then run one removal pass per chunk size
    of ``sizes``; ``reverse`` tries each pass's chunks last to first."""
    if len(set(ids)) != len(ids):
        raise ValueError("candidate ids must be distinct")
    verdict = oracle(tuple(ids))
    if verdict is TIMEOUT:
        raise InsufficientStartError("the oracle timed out on the starting set")
    if not verdict:
        raise InsufficientStartError("the starting set does not satisfy the oracle")
    trace: list[ProbeRecord] = []
    current = list(ids)
    for size in sizes:
        chunks = [current[lo : lo + size] for lo in range(0, len(current), size)]
        if reverse:
            chunks.reverse()
        for chunk in chunks:  # disjoint, so each is still whole in current when tried
            chunk_set = set(chunk)
            attempt = [x for x in current if x not in chunk_set]
            verdict = oracle(tuple(attempt))
            ok = verdict if verdict is TIMEOUT else bool(verdict)
            trace.append(ProbeRecord(tuple(chunk), ok))
            if ok:
                current = attempt
    return MinimizationResult(tuple(current), len(trace) + 1, tuple(trace))


def greedy_minimize(start: Sequence[str], oracle, order: str = "given") -> MinimizationResult:
    """Remove candidates one at a time, keeping each element iff its
    removal flips the oracle to insufficient: the size-1 pass alone.

    ``order`` is ``given`` (sequence order of ``start``) or ``reverse``;
    with chronologically ordered input the latter tries the newest
    dependencies first.
    """
    if order not in ("given", "reverse"):
        raise ValueError(f"order must be 'given' or 'reverse', got {order!r}")
    return _passes(list(start), oracle, [1], reverse=order == "reverse")


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
    return _passes(ids, oracle, sizes)


def write_trace_csv(result: MinimizationResult, path) -> None:
    def verdict(sufficient):
        return "timeout" if sufficient is TIMEOUT else "true" if sufficient else "false"

    write_csv(path, ["step", "attempted_ids", "sufficient"],
              ([step, " ".join(record.attempted), verdict(record.sufficient)]
               for step, record in enumerate(result.trace)))
