"""Evaluation metrics over trial records: excursions, sensitivity, expenditure.

An excursion is a maximal run of consecutive samples with P > 1; one still
open when the record ends counts too, closed at the final sample.  Each
excursion's sensitivity is its peak height above P = 1 over its breadth in
seconds; the mean over a record set, divided by the excursion count n, gives
a normalized responsiveness figure that is comparable across arenas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .trials import TrialRecord


@dataclass(frozen=True)
class Excursion:
    """One maximal interval with P > 1.

    ``t_start`` is the first sample above the boundary, ``t_end`` the first
    subsequent sample back at or below it.  ``closed`` is False when the
    record ended while still outside (the excursion is then closed at the
    final sample).
    """

    t_start: float
    t_end: float
    p_max: float
    closed: bool = True

    def __post_init__(self) -> None:
        if not self.t_end > self.t_start:
            raise ValueError(f"t_end must exceed t_start, got [{self.t_start}, {self.t_end}]")
        if not self.p_max > 1.0:
            raise ValueError(f"p_max must exceed 1, got {self.p_max}")


@dataclass(frozen=True)
class SensitivityReport:
    n: int
    per_peak_s: tuple[float, ...]
    mean_s: float | None
    normalized_s: float | None
    success: bool
    yaw_active_s: float
    pitch_active_s: float
    overlap_s: float


class RecordTally:
    """One record's metrics, fed one sample at a time with ``add``.

    It finds the record's excursions, counts its samples with nonzero yaw,
    nonzero pitch and both at once, and notes whether every sample was
    visible.  ``finish`` closes a run still open at the end.  Only the
    excursions are kept, so a record can be tallied while it streams past.
    """

    __slots__ = ("dt", "excursions", "yaw_n", "pitch_n", "overlap_n", "success", "_run_start", "_run_peak", "_t_last")

    def __init__(self, dt: float) -> None:
        self.dt = dt
        self.excursions: list[Excursion] = []
        self.yaw_n = self.pitch_n = self.overlap_n = 0
        self.success = True
        self._run_start: float | None = None
        self._run_peak = 0.0
        self._t_last: float | None = None

    def add(self, t: float, p: float, yaw: float, pitch: float, visible: bool) -> None:
        if p > 1.0:
            if self._run_start is None:
                self._run_start = t
                self._run_peak = p
            elif p > self._run_peak:
                self._run_peak = p
        elif self._run_start is not None:
            self.excursions.append(Excursion(t_start=self._run_start, t_end=t, p_max=self._run_peak))
            self._run_start = None
        if yaw != 0.0:
            self.yaw_n += 1
            if pitch != 0.0:
                self.overlap_n += 1
        if pitch != 0.0:
            self.pitch_n += 1
        if not visible:
            self.success = False
        self._t_last = t

    def finish(self) -> "RecordTally":
        """Close a run still open at the last sample, once, after the last
        ``add``; an empty record is an error."""
        if self._t_last is None:
            raise ValueError("record has no samples")
        run_start = self._run_start
        if run_start is not None:
            # Closed at the final sample; a run that only begins there is given one
            # sample interval of breadth so the t_end > t_start invariant holds.
            t_end = self._t_last if self._t_last > run_start else run_start + self.dt
            self.excursions.append(Excursion(t_start=run_start, t_end=t_end, p_max=self._run_peak, closed=False))
        return self


def tally(record: TrialRecord) -> RecordTally:
    """Feed every sample of a record to a fresh tally and finish it."""
    acc = RecordTally(record.dt)
    add = acc.add
    for t, _, _, p, _, yaw, pitch, visible in record.samples:
        add(t, p, yaw, pitch, visible)
    return acc.finish()


def detect_excursions(record: TrialRecord) -> list[Excursion]:
    """Find all maximal runs of samples with P > 1 in one record."""
    return tally(record).excursions


def peak_sensitivity(e: Excursion) -> float:
    """Sensitivity of one peak: its height above P = 1 over its breadth in seconds."""
    return (e.p_max - 1.0) / (e.t_end - e.t_start)


def control_expenditure(record: TrialRecord) -> tuple[float, float, float]:
    """Seconds of nonzero yaw, nonzero pitch, and both-at-once in one record."""
    acc = tally(record)
    return acc.yaw_n * record.dt, acc.pitch_n * record.dt, acc.overlap_n * record.dt


def normalized_sensitivity(mean_s: float, n: int) -> float | None:
    """Mean sensitivity divided by the excursion count; None when n = 0."""
    if n == 0:
        return None
    return mean_s / n


def cross_arena_normalized(values: list[float]) -> float:
    """Arena-independent figure: the mean of per-arena normalized sensitivities."""
    if not values:
        raise ValueError("need at least one normalized value")
    return math.fsum(values) / len(values)


def summarize(records: list[TrialRecord]) -> SensitivityReport:
    """Aggregate excursion and expenditure metrics over a set of records."""
    return summarize_tallies([tally(record) for record in records])


def summarize_tallies(tallies: list[RecordTally]) -> SensitivityReport:
    """Aggregate finished tallies, one per record, into a report.

    The tallies must share one loop period: two different ``dt`` values are
    refused with a ``ValueError`` naming both.  Each expenditure is then that
    ``dt`` times a whole sample count.  The report is independent of record
    order: the peaks are ordered by their excursions, sorted canonically, and
    summed with exact accumulation.  Peaks whose sum overflows a float are
    refused with a ``ValueError``.
    """
    if not tallies:
        raise ValueError("need at least one record")
    dt = tallies[0].dt
    for acc in tallies:
        if acc.dt != dt:
            raise ValueError(f"records must share one loop period, got dt = {dt!r} and {acc.dt!r}")
    excursions = sorted((e for acc in tallies for e in acc.excursions), key=lambda e: (e.t_start, e.t_end, e.p_max))
    per_peak = [peak_sensitivity(e) for e in excursions]
    n = len(per_peak)
    try:
        mean_s = math.fsum(per_peak) / n if n else None
    except OverflowError as exc:  # finite peaks whose sum is not
        raise ValueError(f"excursion sensitivities too large to sum: {exc}") from None
    return SensitivityReport(
        n=n,
        per_peak_s=tuple(per_peak),
        mean_s=mean_s,
        normalized_s=normalized_sensitivity(mean_s, n),
        success=all(acc.success for acc in tallies),
        yaw_active_s=dt * sum(acc.yaw_n for acc in tallies),
        pitch_active_s=dt * sum(acc.pitch_n for acc in tallies),
        overlap_s=dt * sum(acc.overlap_n for acc in tallies),
    )
