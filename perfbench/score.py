"""Checking answers against the reference table, and the accuracy
metrics derived from them."""

from __future__ import annotations

import itertools
import math
import sys

import grid


class Scorer:
    """Counts ops and checks every answer a run gets.

    An event-engine answer must equal the reference bit for bit; an
    array-engine answer must be a finite positive latency and is scored
    by its relative error instead.
    """

    def __init__(self, ref: grid.Reference) -> None:
        self.ref = ref
        self.attempted = 0
        self.failed = 0
        self.broken = 0          # failed checks outside the measured ops
        self.rel_errs: list[float] = []
        self.answers: dict[tuple, float] = {}
        self.spans = 0
        self.findings = 0

    def check(self, point, latency, exact: bool,
              extra_ok: bool = True) -> bool:
        ok = (extra_ok and latency is not None and math.isfinite(latency)
              and latency > 0)
        if ok:
            want = self.ref.latency(point)
            if exact and float.hex(latency) != float.hex(want):
                ok = False
            else:
                self.rel_errs.append(abs(latency - want) / want)
                self.answers[point] = latency
        if not ok:
            print(f"perfbench: wrong answer for {grid.point_key(point)}: "
                  f"{latency!r}", file=sys.stderr)
        return ok

    def point(self, point, latency, exact: bool,
              extra_ok: bool = True) -> bool:
        """Check one measured op."""
        ok = self.check(point, latency, exact, extra_ok)
        self.op(ok)
        return ok

    def require(self, point, latency, exact: bool,
                extra_ok: bool = True) -> None:
        """Check an answer that is not a measured op (warm-up, queries)."""
        if not self.check(point, latency, exact, extra_ok):
            self.broken += 1

    def expect(self, what: str, want, got) -> None:
        """A check outside the measured ops."""
        if got != want:
            print(f"perfbench: {what}: {got!r} != {want!r}",
                  file=sys.stderr)
            self.broken += 1

    def op(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1

    def note_error(self, where, exc: BaseException) -> None:
        print(f"perfbench: {where}: {exc.__class__.__name__}: {exc}",
              file=sys.stderr)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.broken == 0

    def rank_agreement(self) -> float:
        """Share of component pairs, per answered cell, ordered as in the
        reference (1.0 when no cell has two answers)."""
        cells: dict[tuple, list] = {}
        for point in self.answers:
            cells.setdefault(point[:3] + point[4:], []).append(point)
        agree = total = 0
        for points in cells.values():
            for a, b in itertools.combinations(points, 2):
                want = self.ref.latency(a) - self.ref.latency(b)
                got = self.answers[a] - self.answers[b]
                total += 1
                agree += (want > 0) == (got > 0) and (want < 0) == (got < 0)
        return agree / total if total else 1.0

    def rel_err(self, q: float) -> float:
        if not self.rel_errs:
            return 0.0
        ordered = sorted(self.rel_errs)
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
