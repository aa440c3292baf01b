"""Unit-capacity resource calendars.

Three kinds of unit-capacity resources exist in the model (§III assumptions
(b) and (c)): a machine's execution slot, its outgoing comm channel and its
incoming comm channel.  :class:`IntervalTimeline` represents one such
resource as a sorted list of half-open busy intervals ``[start, end)`` and
supports the two queries the schedulers need:

* *earliest gap* — first time ≥ ``not_before`` at which a given duration
  fits (optionally restricted to appending after all existing work, which is
  what the receding-horizon heuristics do — they never look backward);
* *earliest common gap* — first time at which a duration fits in **two**
  timelines simultaneously (a transfer occupies the sender's out channel and
  the receiver's in channel for its whole duration).

Intervals may be released again (:meth:`release`) — used by the dynamic
engine when a machine loss invalidates previously committed work.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort

_EPS = 1e-9


class IntervalTimeline:
    """Sorted set of non-overlapping half-open busy intervals.

    Every successful mutation bumps :attr:`version`, a monotonically
    increasing counter.  The static round loop's slot store
    (:class:`repro.core.kernel.StaticSlots`) compares it to skip
    re-checking slots on calendars nothing has touched.
    """

    __slots__ = ("_busy", "version")

    def __init__(self) -> None:
        self._busy: list[tuple[float, float]] = []
        #: Mutation counter — incremented by :meth:`reserve` / :meth:`release`.
        self.version: int = 0

    # -- queries ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._busy)

    def intervals(self) -> list[tuple[float, float]]:
        """A copy of the busy intervals, sorted by start."""
        return list(self._busy)

    @property
    def tail(self) -> float:
        """End of the last busy interval (0.0 when empty)."""
        return self._busy[-1][1] if self._busy else 0.0

    def busy_time(self) -> float:
        """Total busy duration."""
        return sum(e - s for s, e in self._busy)

    def is_free(self, start: float, end: float) -> bool:
        """Whether ``[start, end)`` overlaps no busy interval."""
        if end <= start + _EPS:
            return True
        i = bisect_right(self._busy, (start, float("inf"))) - 1
        if i >= 0 and self._busy[i][1] > start + _EPS:
            return False
        if i + 1 < len(self._busy) and self._busy[i + 1][0] < end - _EPS:
            return False
        return True

    def has_work_at_or_after(self, t: float) -> bool:
        """Whether any busy interval ends after *t* (i.e. the resource is
        still committed at or beyond *t*)."""
        return bool(self._busy) and self._busy[-1][1] > t + _EPS

    def last_busy_end(self) -> float:
        """End of the last busy interval (``-inf`` when empty) — the fact
        :meth:`has_work_at_or_after` tests against, exposed so callers can
        hoist it out of per-tick loops while the calendar is static."""
        return self._busy[-1][1] if self._busy else float("-inf")

    def earliest_gap(
        self,
        duration: float,
        not_before: float = 0.0,
        append_only: bool = False,
    ) -> float:
        """Earliest start ≥ *not_before* where *duration* fits.

        With ``append_only`` the search starts at the timeline tail — the
        receding-horizon discipline of never scheduling into holes.
        Zero-duration requests return the earliest idle instant.
        """
        if duration < 0:
            raise ValueError(f"negative duration {duration}")
        t = max(not_before, self.tail) if append_only else not_before
        # Walk busy intervals that could conflict, pushing t forward.
        i = bisect_right(self._busy, (t, float("inf"))) - 1
        if i < 0:
            i = 0
        while i < len(self._busy):
            s, e = self._busy[i]
            if s >= t + duration - _EPS:
                break  # gap before this interval fits
            if e > t + _EPS:
                t = e  # conflict: jump past it
            i += 1
        return t

    # -- mutation ----------------------------------------------------------

    def reserve(self, start: float, end: float) -> None:
        """Mark ``[start, end)`` busy.

        Raises
        ------
        ValueError
            On negative-length intervals or overlap with existing work.
        """
        if end < start - _EPS:
            raise ValueError(f"interval end {end} before start {start}")
        if end <= start + _EPS:
            return  # zero-length: nothing to reserve
        if not self.is_free(start, end):
            raise ValueError(f"interval [{start}, {end}) overlaps existing reservation")
        insort(self._busy, (start, end))
        self.version += 1

    def release(self, start: float, end: float) -> None:
        """Remove a previously reserved interval (exact match required)."""
        if end <= start + _EPS:
            return
        i = bisect_left(self._busy, (start - _EPS, -float("inf")))
        while i < len(self._busy):
            s, e = self._busy[i]
            if abs(s - start) <= _EPS and abs(e - end) <= _EPS:
                del self._busy[i]
                self.version += 1
                return
            if s > start + _EPS:
                break
            i += 1
        raise ValueError(f"interval [{start}, {end}) was not reserved")

    def copy(self) -> "IntervalTimeline":
        dup = IntervalTimeline()
        dup._busy = list(self._busy)
        dup.version = self.version
        return dup


def earliest_common_gap(
    a: IntervalTimeline,
    b: IntervalTimeline,
    duration: float,
    not_before: float = 0.0,
) -> float:
    """Earliest start ≥ *not_before* where *duration* fits in both timelines.

    Alternates between the two calendars: each proposes its earliest gap at
    or after the current candidate; when both agree the slot is found.  The
    loop terminates because every disagreement advances the candidate past
    the end of at least one busy interval.
    """
    if duration < 0:
        raise ValueError(f"negative duration {duration}")
    t = not_before
    for _ in range(2 * (len(a) + len(b)) + 4):
        ta = a.earliest_gap(duration, t)
        tb = b.earliest_gap(duration, ta)
        if tb <= ta + _EPS:
            return ta
        t = tb
    raise RuntimeError("earliest_common_gap failed to converge")  # pragma: no cover
