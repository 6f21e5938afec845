"""Greedy and chunked dependency minimization against synthetic oracles."""

import itertools
import os
import random
import signal
import sys
import time
import zlib

import pytest

from premsel.minimize import (
    InsufficientStartError,
    MinimizationResult,
    ProbeRecord,
    TIMEOUT,
    SubprocessOracle,
    batch_minimize,
    greedy_minimize,
    write_trace_csv,
)


def set_oracle(predicate):
    return lambda ids: predicate(frozenset(ids))


class TestGreedy:
    def test_only_a_matters(self):
        oracle = set_oracle(lambda s: "a" in s)
        result = greedy_minimize(["a", "b", "c"], oracle)
        assert result.kept == ("a",)
        assert len(result.trace) == 3  # one removal probe per element
        assert result.call_count == 4  # plus the initial sufficiency check

    def test_nothing_removable(self):
        start = frozenset({"a", "b", "c"})
        oracle = set_oracle(lambda s: s == start)
        result = greedy_minimize(["a", "b", "c"], oracle)
        assert set(result.kept) == start

    def test_insufficient_start_reported_before_any_work(self):
        calls = []

        def insufficient(ids):
            calls.append(ids)
            return False

        with pytest.raises(InsufficientStartError):
            greedy_minimize(["a", "b"], insufficient)
        assert calls == [("a", "b")]

    def test_order_dependent_but_always_one_minimal(self):
        # Sufficient iff {a, b} is contained or c is present; verified
        # 1-minimal by enumerating all single removals afterwards.
        def sufficient(s):
            return {"a", "b"} <= s or "c" in s

        for order in itertools.permutations(["a", "b", "c"]):
            oracle = set_oracle(sufficient)
            result = greedy_minimize(list(order), oracle)
            kept = result.kept_set
            assert sufficient(kept)
            for element in kept:
                assert not sufficient(kept - {element})

    def test_reverse_order(self):
        def sufficient(s):
            return {"a", "b"} <= s or "c" in s

        forward = greedy_minimize(["a", "b", "c"], set_oracle(sufficient), order="given")
        backward = greedy_minimize(["a", "b", "c"], set_oracle(sufficient), order="reverse")
        assert forward.kept_set == {"c"}
        assert backward.kept_set == {"a", "b"}

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            greedy_minimize(["a", "a"], set_oracle(lambda s: True))

    def test_result_is_subset_of_start(self):
        rng = random.Random(1)
        universe = [f"x{i}" for i in range(10)]
        for _ in range(50):
            needed = frozenset(rng.sample(universe, rng.randint(0, 4)))
            oracle = set_oracle(lambda s, needed=needed: needed <= s)
            result = greedy_minimize(universe, oracle)
            assert result.kept_set == needed
            assert result.kept_set <= set(universe)


class TestBatch:
    def test_far_fewer_probes_when_one_of_64_matters(self):
        universe = [f"x{i:02d}" for i in range(64)]
        greedy_oracle = set_oracle(lambda s: "x17" in s)
        batch_oracle = set_oracle(lambda s: "x17" in s)
        plain = greedy_minimize(universe, greedy_oracle)
        chunked = batch_minimize(universe, batch_oracle)
        assert plain.kept == chunked.kept == ("x17",)
        assert chunked.call_count < plain.call_count
        assert plain.call_count == 65

    def test_degenerate_schedule_matches_greedy_trace(self):
        def sufficient(s):
            return {"a", "b"} <= s or "c" in s

        plain = greedy_minimize(["a", "b", "c"], set_oracle(sufficient))
        degenerate = batch_minimize(["a", "b", "c"], set_oracle(sufficient), schedule=[1])
        assert degenerate.trace == plain.trace
        assert degenerate.call_count == plain.call_count
        assert degenerate.kept == plain.kept

    def test_everything_needed_survives_any_schedule(self):
        universe = [f"x{i}" for i in range(7)]
        full = frozenset(universe)
        for schedule in (None, [3], [5, 2], [7, 1]):
            oracle = set_oracle(lambda s: s == full)
            result = batch_minimize(universe, oracle, schedule)
            assert result.kept_set == full

    def test_chunking_invariant_for_unique_minimum_oracles(self):
        # A monotone oracle with a single minimal sufficient subset (the
        # realistic verifier case) pins the answer regardless of chunk
        # schedule.  With several incomparable minimal subsets, chunking
        # may legitimately land on a different, equally 1-minimal one.
        rng = random.Random(2)
        universe = [f"x{i}" for i in range(12)]
        for _ in range(40):
            needed = frozenset(rng.sample(universe, rng.randint(0, 5)))

            def sufficient(s, needed=needed):
                return needed <= s

            plain = greedy_minimize(universe, set_oracle(sufficient))
            assert plain.kept_set == needed
            for schedule in (None, [4], [6, 3]):
                chunked = batch_minimize(universe, set_oracle(sufficient), schedule)
                assert chunked.kept == plain.kept

    def test_multiple_minimal_sets_still_give_sound_one_minimal_results(self):
        rng = random.Random(21)
        universe = [f"x{i}" for i in range(8)]
        for _ in range(40):
            minimal_sets = tuple(
                frozenset(rng.sample(universe, rng.randint(1, 3)))
                for _ in range(rng.randint(1, 3))
            )

            def sufficient(s, sets=minimal_sets):
                return any(m <= s for m in sets)

            for schedule in (None, [4], [3, 2]):
                result = batch_minimize(universe, set_oracle(sufficient), schedule)
                kept = result.kept_set
                assert sufficient(kept)
                for element in kept:
                    assert not sufficient(kept - {element})

    def test_bad_schedule_rejected(self):
        with pytest.raises(ValueError):
            batch_minimize(["a"], set_oracle(lambda s: True), schedule=[0])


def _reference_single_pass(current, candidates, oracle, trace):
    for element in candidates:
        attempt = [x for x in current if x != element]
        ok = oracle(tuple(attempt))
        trace.append(ProbeRecord((element,), ok))
        if ok:
            current = attempt
    return current


def reference_minimize(start, predicate, sizes, order="given"):
    """The element-wise pass and the chunked passes as separate loops:
    the reference the shared pass loop is checked against.  ``sizes``
    ends in 1; ``order`` sets the element-wise pass's order."""
    calls = 0

    def oracle(ids):
        nonlocal calls
        calls += 1
        verdict = predicate(ids)
        return verdict if verdict is TIMEOUT else bool(verdict)

    assert oracle(tuple(start))
    trace = []
    current = list(start)
    for size in sizes:
        if size == 1:
            candidates = current[::-1] if order == "reverse" else list(current)
            current = _reference_single_pass(current, candidates, oracle, trace)
            continue
        snapshot = list(current)
        for lo in range(0, len(snapshot), size):
            chunk = snapshot[lo : lo + size]
            attempt = [x for x in current if x not in chunk]
            if len(attempt) == len(current):
                continue
            ok = oracle(tuple(attempt))
            trace.append(ProbeRecord(tuple(chunk), ok))
            if ok:
                current = attempt
    return MinimizationResult(tuple(current), calls, tuple(trace))


def _default_sizes(n):
    sizes = []
    size = n // 2
    while size >= 2:
        sizes.append(size)
        size //= 2
    return sizes + [1]


def _random_oracles(rng, universe):
    """A seeded monotone oracle (any of a few minimal sets suffices) and a
    seeded non-monotone one (a hash of the set decides, the whole
    universe always suffices)."""
    minimal_sets = [frozenset(rng.sample(universe, rng.randint(0, min(4, len(universe)))))
                    for _ in range(rng.randint(1, 3))]
    salt = rng.getrandbits(32).to_bytes(4, "little")
    full = frozenset(universe)

    def monotone(ids):
        return any(m <= frozenset(ids) for m in minimal_sets)

    def non_monotone(ids):
        s = frozenset(ids)
        return s == full or zlib.crc32(salt + ",".join(sorted(s)).encode()) % 3 != 0

    return {"monotone": monotone, "non-monotone": non_monotone}


class TestAgainstReference:
    @pytest.mark.parametrize("kind", ["monotone", "non-monotone"])
    def test_greedy_and_batch_traces_match_the_reference(self, kind):
        rng = random.Random(31)
        for _ in range(60):
            universe = [f"x{i}" for i in rng.sample(range(40), rng.randint(1, 14))]
            predicate = _random_oracles(rng, universe)[kind]
            runs = [
                (greedy_minimize(universe, predicate), [1], "given"),
                (greedy_minimize(universe, predicate, order="reverse"), [1], "reverse"),
                (batch_minimize(universe, predicate), _default_sizes(len(universe)), "given"),
            ]
            for _ in range(3):
                schedule = [rng.randint(1, len(universe) + 1) for _ in range(rng.randint(0, 4))]
                sizes = schedule if schedule and schedule[-1] == 1 else schedule + [1]
                runs.append((batch_minimize(universe, predicate, schedule), sizes, "given"))
            for result, sizes, order in runs:
                assert result == reference_minimize(universe, predicate, sizes, order)


class TestOracles:
    def test_verdicts_are_recorded_as_true_false_or_timeout(self):
        # a truthy or falsy verdict is recorded as a bool, TIMEOUT as itself
        verdicts = {("a", "b"): "yes", ("b",): 0, ("a",): TIMEOUT}
        result = greedy_minimize(["a", "b"], verdicts.get)
        assert [record.sufficient for record in result.trace] == [False, TIMEOUT]
        assert [type(record.sufficient) for record in result.trace] == [bool, type(TIMEOUT)]
        assert result.kept == ("a", "b")
        assert result.call_count == 3

    def test_oracle_determinism_probe(self):
        rng = random.Random(3)
        universe = [f"x{i}" for i in range(6)]
        needed = frozenset(rng.sample(universe, 2))
        oracle = set_oracle(lambda s: needed <= s)
        for _ in range(20):
            subset = tuple(rng.sample(universe, rng.randint(0, 6)))
            assert oracle(subset) == oracle(tuple(reversed(subset)))

    def test_subprocess_oracle_roundtrip(self):
        script = "import sys; sys.exit(0 if 'a' in sys.stdin.read().split() else 1)"
        oracle = SubprocessOracle([sys.executable, "-c", script])
        result = greedy_minimize(["a", "b", "c"], oracle)
        assert result.kept == ("a",)

    def test_trace_csv(self, tmp_path):
        result = greedy_minimize(["a", "b"], set_oracle(lambda s: "a" in s))
        path = tmp_path / "trace.csv"
        write_trace_csv(result, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "step,attempted_ids,sufficient"
        assert lines[1] == "0,a,false"
        assert lines[2] == "1,b,true"

    def test_a_hung_oracle_times_out_as_insufficient(self):
        started = time.monotonic()
        verdict = SubprocessOracle(["sleep", "30"], timeout=0.2)(("a",))
        assert verdict is TIMEOUT and not verdict
        assert time.monotonic() - started < 10

    @pytest.mark.parametrize("timeout", [None, 5.0])
    def test_a_background_child_does_not_hold_the_probe(self, tmp_path, timeout):
        # The oracle says "sufficient" and exits, leaving a child that
        # inherits its standard output; the verdict is the exit status.
        pid_file = tmp_path / "child.pid"
        script = f"cat >/dev/null; sleep 10 & echo $! > '{pid_file}'; exit 0"
        started = time.monotonic()
        try:
            verdict = SubprocessOracle(["sh", "-c", script], timeout=timeout)(("a", "b"))
            elapsed = time.monotonic() - started
        finally:
            if pid_file.exists():
                try:
                    os.kill(int(pid_file.read_text()), signal.SIGTERM)
                except (ProcessLookupError, ValueError):
                    pass
        assert verdict is True
        assert elapsed < 4
