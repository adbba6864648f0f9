import math
import time

import pytest

from akgbench import harness


def test_normalise_divides_by_the_mean_tick():
    # 2 s raw on a host running at half the nominal speed (ticks take 2x).
    slow = 2 * harness.TICK_NOMINAL_S
    assert harness.normalise(2.0, [slow, slow, slow]) == pytest.approx(1.0)
    # A speed change mid-sample: the ticks are averaged.
    assert harness.normalise(
        3.0, [harness.TICK_NOMINAL_S, 2 * harness.TICK_NOMINAL_S]
    ) == pytest.approx(2.0)


def test_measure_subtracts_the_tickers_own_cpu_and_always_ticks():
    with harness.Measure() as m:
        total = sum(range(200000))
    assert total and len(m.ticks) >= 1 and all(t > 0 for t in m.ticks)
    assert 0 < m.cpu_s <= m.wall_s + 0.05
    assert m.cal_s == pytest.approx(harness.normalise(m.cpu_s, m.ticks))
    with harness.Measure() as idle:
        pass
    # An empty block costs (almost) nothing once the first tick is taken out.
    assert idle.cpu_s < 0.01 and len(idle.ticks) >= 1


def test_sampler_reports_per_operation():
    sampler = harness.Sampler()
    sampler.sample("row", lambda: sum(range(200000)), ops=4)
    sampler.sample("row", lambda: sum(range(200000)), ops=4)
    assert len(sampler.rows["row"]) == 2
    s = sampler.rows["row"][0]
    assert 0 < s.raw_ms <= s.wall_ms + 15
    assert s.cal_ms > 0 and sampler.median("row") > 0
    assert sampler.calib_cv() >= 0.0
    assert sampler.geomean_of_medians(["row"]) == pytest.approx(sampler.median("row"))


def test_geomean():
    assert harness.geomean([2, 8]) == pytest.approx(4.0)
    assert harness.geomean([5]) == pytest.approx(5.0)
    assert harness.geomean([1, 10, 100]) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        harness.geomean([1.0, 0.0])
    with pytest.raises(ValueError):
        harness.geomean([])


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert harness.percentile(values, 50) == 50
    assert harness.percentile(values, 99) == 99
    assert harness.percentile(values, 100) == 100
    assert harness.percentile([7.0], 99) == 7.0


@pytest.mark.parametrize(
    "n, expected_q",
    [
        (3000, 99.0),  # 30 samples beyond p99, only 3 beyond p99.9
        (10001, 99.9),  # 10 beyond p99.9
        (10000, 99.0),  # exactly 10 *at or* beyond p99.9 -> 9 beyond: not enough
        (500, 95.0),  # 5 beyond p99, 25 beyond p95
        (120, 90.0),
        (15, 50.0),  # too few for any tail
    ],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected_q):
    values = [float(i) for i in range(n)]
    q, value = harness.tail_percentile(values)
    assert q == expected_q
    rank = max(1, math.ceil(q / 100.0 * n))
    assert value == values[rank - 1]
    if q != 50.0:
        assert n - rank >= 10


def test_count_calls_is_exact_and_repeatable():
    def work():
        return [abs(-i) for i in map(int, "123")] and helper() + helper()

    def helper():
        return 1

    first = harness.count_calls(work)
    second = harness.count_calls(work)
    assert first == second
    assert first[0] == 2
    # work, its list comprehension frame (3.11) and two helpers; builtins
    # (abs, int, map) are not counted.
    assert first[1] in (3, 4)


def _burn(seconds: float) -> None:
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def test_budget_is_cpu_seconds_with_a_wall_cap():
    budget = harness.Budget(0.05)
    assert not budget.spent() and 0 < budget.left() <= 0.05
    time.sleep(0.03)  # sleeping spends wall only, at 1 / WALL_CAP
    assert budget.left() == pytest.approx(0.05 - 0.03 / harness.WALL_CAP, abs=0.015)
    _burn(0.05)
    assert budget.spent()
    idle = harness.Budget(0.02)
    time.sleep(0.02 * harness.WALL_CAP + 0.01)
    assert idle.spent()  # the wall cap ends a budget no CPU was spent on


def test_rounds_until_runs_whole_rounds_and_at_least_one():
    calls = []
    done = harness.rounds_until(harness.Budget(0.0), lambda: calls.append(1))
    assert done == 1 and len(calls) == 1
    done = harness.rounds_until(
        harness.Budget(0.05), lambda: (calls.append(1), _burn(0.01))
    )
    assert 2 <= done <= 6


def test_a_dear_row_sits_out_every_other_thin_round(monkeypatch):
    from akgbench import compile_rows

    class Ctx:
        def row(self, name):
            pass

    rows = [
        compile_rows.Row("cheap", "build", None),
        compile_rows.Row("dear", "network", None, dear=True),
    ]
    state = compile_rows.State(rows)
    monkeypatch.setattr(compile_rows, "compile_once", lambda row: row.name)
    monkeypatch.setattr(compile_rows, "Compiled", lambda row, product: product)
    sampler = harness.Sampler()
    for _ in range(5):
        compile_rows.one_round(Ctx(), state, sampler, thin=True)
    # The first round takes every row, so each has a compiled product.
    assert len(sampler.rows["cheap"]) == 5 and len(sampler.rows["dear"]) == 3
    compile_rows.one_round(Ctx(), state, sampler)  # a full round takes all
    assert len(sampler.rows["dear"]) == 4
