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
    excursions: tuple[Excursion, ...]
    n: int
    per_peak_s: tuple[float, ...]
    mean_s: float | None
    normalized_s: float | None
    success: bool
    yaw_active_s: float
    pitch_active_s: float
    overlap_s: float


def detect_excursions(record: TrialRecord) -> list[Excursion]:
    """Find all maximal runs of samples with P > 1 in one record."""
    if not record.samples:
        raise ValueError("record has no samples")
    excursions: list[Excursion] = []
    run_start: float | None = None
    run_peak = 0.0
    for sample in record.samples:
        if sample.p > 1.0:
            if run_start is None:
                run_start = sample.t
                run_peak = sample.p
            else:
                run_peak = max(run_peak, sample.p)
        elif run_start is not None:
            excursions.append(Excursion(t_start=run_start, t_end=sample.t, p_max=run_peak))
            run_start = None
    if run_start is not None:
        t_last = record.samples[-1].t
        # Closed at the final sample; a run that only begins there is given one
        # sample interval of breadth so the t_end > t_start invariant holds.
        t_end = t_last if t_last > run_start else run_start + record.dt
        excursions.append(Excursion(t_start=run_start, t_end=t_end, p_max=run_peak, closed=False))
    return excursions


def peak_sensitivity(e: Excursion) -> float:
    """Sensitivity of one peak: its height above P = 1 over its breadth in seconds."""
    return (e.p_max - 1.0) / (e.t_end - e.t_start)


def _active_counts(record: TrialRecord) -> tuple[int, int, int]:
    """Samples with nonzero yaw, nonzero pitch, and both at once."""
    yaw_n = sum(1 for s in record.samples if s.yaw_cmd != 0.0)
    pitch_n = sum(1 for s in record.samples if s.pitch_cmd != 0.0)
    overlap_n = sum(1 for s in record.samples if s.yaw_cmd != 0.0 and s.pitch_cmd != 0.0)
    return yaw_n, pitch_n, overlap_n


def control_expenditure(record: TrialRecord) -> tuple[float, float, float]:
    """Seconds of nonzero yaw, nonzero pitch, and both-at-once in one record."""
    if not record.samples:
        raise ValueError("record has no samples")
    yaw_n, pitch_n, overlap_n = _active_counts(record)
    return yaw_n * record.dt, pitch_n * record.dt, overlap_n * record.dt


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
    """Aggregate excursion and expenditure metrics over a set of records.

    The report is independent of record order: excursions are sorted
    canonically and all sums use exact accumulation.
    """
    if not records:
        raise ValueError("need at least one record")
    per_record: list[tuple[Excursion, float]] = []
    for record in records:
        for e in detect_excursions(record):
            per_record.append((e, peak_sensitivity(e)))
    per_record.sort(key=lambda item: (item[0].t_start, item[0].t_end, item[0].p_max))
    excursions = [e for e, _ in per_record]
    per_peak = [s for _, s in per_record]
    n = len(excursions)
    mean_s = math.fsum(per_peak) / n if n else None
    # group expenditure counts by dt so the totals are exact under permutation
    by_dt: dict[float, list[int]] = {}
    for record in records:
        acc = by_dt.setdefault(record.dt, [0, 0, 0])
        for k, count in enumerate(_active_counts(record)):
            acc[k] += count
    yaw_s = math.fsum(dt * counts[0] for dt, counts in sorted(by_dt.items()))
    pitch_s = math.fsum(dt * counts[1] for dt, counts in sorted(by_dt.items()))
    overlap_s = math.fsum(dt * counts[2] for dt, counts in sorted(by_dt.items()))
    return SensitivityReport(
        excursions=tuple(excursions),
        n=n,
        per_peak_s=tuple(per_peak),
        mean_s=mean_s,
        normalized_s=normalized_sensitivity(mean_s, n) if n else None,
        success=all(s.visible for record in records for s in record.samples),
        yaw_active_s=yaw_s,
        pitch_active_s=pitch_s,
        overlap_s=overlap_s,
    )
