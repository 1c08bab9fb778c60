from __future__ import annotations

import random

import pytest

from conftest import record_from_p
from roitrack.metrics import (
    Excursion,
    RecordTally,
    control_expenditure,
    cross_arena_normalized,
    detect_excursions,
    normalized_sensitivity,
    peak_sensitivity,
    summarize,
    summarize_tallies,
    tally,
)
from roitrack.trials import TrialConfig, run_trial


class TestDetectExcursions:
    def test_never_exits(self):
        record = record_from_p([0.5, 0.5, 0.5, 0.5])
        assert detect_excursions(record) == []

    def test_hand_walked_single_excursion(self):
        record = record_from_p([0.8, 1.2, 1.4, 0.9], dt=1.0)
        (exc,) = detect_excursions(record)
        assert exc.t_start == 1.0
        assert exc.t_end == 3.0
        assert exc.p_max == 1.4
        assert exc.closed

    def test_boundary_sample_is_not_an_excursion(self):
        record = record_from_p([0.8, 1.0, 0.8])
        assert detect_excursions(record) == []

    def test_two_separate_excursions(self):
        record = record_from_p([0.5, 1.5, 0.5, 2.0, 2.5, 0.5], dt=1.0)
        a, b = detect_excursions(record)
        assert (a.t_start, a.t_end, a.p_max) == (1.0, 2.0, 1.5)
        assert (b.t_start, b.t_end, b.p_max) == (3.0, 5.0, 2.5)

    def test_open_excursion_flagged_and_closed_at_final_sample(self):
        record = record_from_p([0.5, 1.5, 1.8], dt=1.0)
        (exc,) = detect_excursions(record)
        assert not exc.closed
        assert exc.t_start == 1.0
        assert exc.t_end == 2.0
        assert exc.p_max == 1.8

    def test_single_sample_open_excursion_keeps_positive_breadth(self):
        record = record_from_p([0.5, 0.5, 1.5], dt=1.0)
        (exc,) = detect_excursions(record)
        assert not exc.closed
        assert exc.t_end > exc.t_start

    def test_count_equals_downward_crossings(self):
        rng = random.Random(11)
        for _ in range(50):
            ps = [rng.choice([0.4, 0.8, 1.2, 1.7, 2.5]) for _ in range(60)]
            record = record_from_p(ps, dt=0.1)
            crossings = sum(
                1 for a, b in zip(ps, ps[1:]) if a > 1.0 and b <= 1.0
            )
            open_at_end = 1 if ps[-1] > 1.0 else 0
            assert len(detect_excursions(record)) == crossings + open_at_end

    def test_empty_record_rejected(self):
        with pytest.raises(ValueError):
            detect_excursions(record_from_p([]))


class TestPeakSensitivity:
    def test_direct_arithmetic(self):
        exc = Excursion(t_start=0.0, t_end=1.0, p_max=1.6)
        assert peak_sensitivity(exc) == pytest.approx(0.6)

    def test_shallow_slow_peaks_score_low(self):
        exc = Excursion(t_start=0.0, t_end=100.0, p_max=1.0 + 1e-6)
        assert peak_sensitivity(exc) < 1e-7

    def test_ratio_invariance(self):
        a = Excursion(t_start=0.0, t_end=1.0, p_max=1.3)
        b = Excursion(t_start=0.0, t_end=2.0, p_max=1.6)  # h and b both doubled
        assert peak_sensitivity(a) == pytest.approx(peak_sensitivity(b))

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            Excursion(t_start=1.0, t_end=1.0, p_max=1.5)
        with pytest.raises(ValueError):
            Excursion(t_start=0.0, t_end=1.0, p_max=0.9)


class TestControlExpenditure:
    def test_all_zero(self):
        record = record_from_p([0.5] * 10, dt=1 / 30)
        assert control_expenditure(record) == (0.0, 0.0, 0.0)

    def test_yaw_only_arithmetic(self):
        dt = 1 / 30
        record = record_from_p([2.0] * 10, dt=dt, yaw=[0.3] * 10, pitch=[0.0] * 10)
        yaw_s, pitch_s, overlap_s = control_expenditure(record)
        assert yaw_s == pytest.approx(10 * dt)
        assert yaw_s == pytest.approx(0.3333, abs=1e-4)
        assert (pitch_s, overlap_s) == (0.0, 0.0)

    def test_overlap_measured(self):
        # hand-built record violating exclusivity still gets measured honestly
        record = record_from_p([2.0, 2.0], dt=0.5, yaw=[0.3, 0.0], pitch=[0.3, 0.3])
        yaw_s, pitch_s, overlap_s = control_expenditure(record)
        assert (yaw_s, pitch_s, overlap_s) == (0.5, 1.0, 0.5)

    def test_simulated_record_has_zero_overlap(self):
        record = run_trial(TrialConfig.baseline(1, seed=3))
        assert control_expenditure(record)[2] == 0.0


class TestSummarize:
    def test_reported_fixture_arithmetic(self):
        # pure arithmetic check on the normalization path
        arena1 = normalized_sensitivity(mean_s=0.6045, n=18)
        arena2 = normalized_sensitivity(mean_s=0.4536, n=13)
        assert arena1 == pytest.approx(0.0336, abs=5e-5)
        assert arena2 == pytest.approx(0.0349, abs=5e-5)
        assert cross_arena_normalized([arena1, arena2]) == pytest.approx(0.034, abs=1e-3)

    def test_no_excursions_reports_absent_not_zero(self):
        report = summarize([record_from_p([0.5, 0.6, 0.7])])
        assert report.n == 0
        assert report.mean_s is None
        assert report.normalized_s is None
        assert report.success

    def test_duplicate_records_keep_mean(self):
        record = record_from_p([0.5, 1.5, 0.5], dt=1.0)
        one = summarize([record])
        two = summarize([record, record])
        assert two.n == 2 * one.n
        assert two.mean_s == pytest.approx(one.mean_s)

    def test_normalized_is_mean_over_n(self):
        record = record_from_p([0.5, 1.5, 0.5, 1.8, 0.5], dt=1.0)
        report = summarize([record])
        assert report.n == 2
        assert report.normalized_s == pytest.approx(report.mean_s / report.n)

    def test_permutation_invariance_is_exact(self):
        records = [run_trial(TrialConfig.baseline(1, seed=s, duration=6.0)) for s in (1, 2, 3)]
        forward = summarize(records)
        backward = summarize(records[::-1])
        assert forward == backward

    def test_success_false_when_any_sample_invisible(self):
        bad = record_from_p([0.5, 0.5], visible=[True, False])
        assert not summarize([bad]).success

    def test_needs_at_least_one_record(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_cross_arena_requires_values(self):
        with pytest.raises(ValueError):
            cross_arena_normalized([])

    def test_excursion_interiors_have_active_commands(self):
        # pipeline wiring: inside every excursion the controller is acting
        record = run_trial(TrialConfig.baseline(1, seed=4))
        for exc in detect_excursions(record):
            interior = [
                s for s in record.samples if exc.t_start <= s.t < exc.t_end and s.p > 1.0
            ]
            assert interior
            assert all(s.yaw_cmd != 0.0 or s.pitch_cmd != 0.0 for s in interior)


def fed(record) -> RecordTally:
    """A tally fed the record's samples one at a time, as a stream would be."""
    acc = RecordTally(record.dt)
    for sample in record.samples:
        acc.add(sample.t, sample.p, sample.yaw_cmd, sample.pitch_cmd, sample.visible)
    return acc.finish()


class TestRecordTally:
    def test_run_open_at_the_end_closes_at_the_last_sample(self):
        record = record_from_p([0.5, 1.2, 0.5, 1.3, 1.9, 1.4], dt=0.5)
        assert fed(record).excursions == [
            Excursion(t_start=0.5, t_end=1.0, p_max=1.2),
            Excursion(t_start=1.5, t_end=2.5, p_max=1.9, closed=False),
        ]

    def test_run_starting_on_the_last_sample_gets_one_dt_of_breadth(self):
        record = record_from_p([0.5, 0.5, 3.0], dt=0.25, t0=10.0)
        assert fed(record).excursions == [Excursion(t_start=10.5, t_end=10.75, p_max=3.0, closed=False)]

    def test_empty_record_rejected(self):
        with pytest.raises(ValueError, match="record has no samples"):
            RecordTally(0.1).finish()
        for on_record in (tally, detect_excursions, control_expenditure):
            with pytest.raises(ValueError, match="record has no samples"):
                on_record(record_from_p([]))
        with pytest.raises(ValueError, match="record has no samples"):
            summarize([record_from_p([0.5]), record_from_p([])])

    def test_peak_after_the_first_sample_of_a_run(self):
        record = record_from_p([0.5, 1.1, 1.7, 1.3, 0.9, 1.2, 1.2, 2.2, 0.4], dt=1.0)
        assert fed(record).excursions == [
            Excursion(t_start=1.0, t_end=4.0, p_max=1.7),
            Excursion(t_start=5.0, t_end=8.0, p_max=2.2),
        ]

    def test_counts_commands_and_visibility(self):
        record = record_from_p(
            [2.0, 2.0, 2.0, 0.5],
            dt=0.5,
            yaw=[0.3, 0.0, -0.3, 0.0],
            pitch=[0.3, 0.2, 0.0, 0.0],
            visible=[True, True, False, True],
        )
        acc = fed(record)
        assert (acc.yaw_n, acc.pitch_n, acc.overlap_n, acc.success) == (2, 2, 1, False)
        assert control_expenditure(record) == (1.0, 1.0, 0.5)

    def test_tally_of_a_record_equals_the_fed_stream(self):
        record = run_trial(TrialConfig.baseline(2, seed=5, duration=4.0))
        a, b = tally(record), fed(record)
        assert (a.excursions, a.yaw_n, a.pitch_n, a.overlap_n, a.success) == (
            b.excursions, b.yaw_n, b.pitch_n, b.overlap_n, b.success)
        assert summarize([record]) == summarize_tallies([b])

    def test_summarize_is_the_same_for_every_order_of_records(self):
        records = [
            record_from_p([0.5, 1.5, 0.5, 1.2], dt=0.1, yaw=[0.0, 0.3, 0.0, 0.3]),
            record_from_p([1.8, 0.9, 2.5], dt=0.1, t0=0.3, pitch=[0.2, 0.0, -0.2]),
            record_from_p([0.5, 1.5, 0.5], dt=0.1, t0=1.0, yaw=[0.0, 0.3, 0.0]),
            record_from_p([0.7, 0.7], dt=0.1, visible=[True, False]),
        ]
        first = summarize(records)
        assert first.n == 5
        assert not first.success
        rng = random.Random(3)
        for _ in range(12):
            shuffled = records[:]
            rng.shuffle(shuffled)
            assert summarize(shuffled) == first

    def test_tallies_of_two_loop_periods_are_refused(self):
        # Expenditure is one dt times a sample count; past float range, the
        # two periods' seconds could not be summed at all.
        tallies = [fed(record_from_p([0.5], dt=dt, yaw=[0.3])) for dt in (1e308, 1.5e308)]
        with pytest.raises(ValueError, match=r"one loop period, got dt = 1e\+308 and 1\.5e\+308"):
            summarize_tallies(tallies)
