"""Smoke tests for the experiment runner (tiny scales).

These pin down the harness contract: every experiment runs end to end,
returns structured rows, and reproduces the paper's qualitative
orderings even at smoke-test sizes.
"""

import pytest

from repro import obs
from repro.bench import runner
from repro.bench.ablations import ABLATIONS


class TestMaintenanceMeasurement:
    def test_steady_state_window(self):
        row = runner.measure_maintenance("smi", "twitter", 40)
        assert row.corpus_size == 40
        assert row.measured_objects == 20
        assert row.avg_gas > 0

    def test_cold_start_includes_everything(self):
        cold = runner.measure_maintenance(
            "smi", "twitter", 40, warmup_fraction=0.0
        )
        assert cold.measured_objects == 40

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError):
            runner.measure_maintenance("smi", "imdb", 10)

    def test_breakdown_sums_to_total(self):
        row = runner.measure_maintenance("mi", "twitter", 30)
        split = row.breakdown_usd()
        assert split["total"] == pytest.approx(
            split["write"] + split["read"] + split["others"], rel=1e-6
        )

    def test_gem2_measurable(self):
        row = runner.measure_maintenance("gem2", "dblp", 30)
        assert row.scheme == "gem2"
        assert row.avg_gas > 0


class TestExperimentSmoke:
    def test_fig6_ordering(self, capsys):
        rows = runner.experiment_fig6(size=60)
        gas = {r.scheme: r.avg_gas for r in rows}
        assert gas["mi"] > gas["smi"]
        assert "Fig. 6" in capsys.readouterr().out

    def test_tab3_ordering(self, capsys):
        rows = runner.experiment_tab3(size=60)
        totals = {r.scheme: r.breakdown_usd()["total"] for r in rows}
        assert totals["ci"] < totals["mi"]
        assert "Table III" in capsys.readouterr().out

    def test_fig13_rows(self, capsys):
        rows = runner.experiment_fig13(
            size=50, capacities=(20, 40), num_queries=2
        )
        assert [r.scheme for r in rows] == ["b=20", "b=40"]
        capsys.readouterr()

    def test_query_measurement(self):
        dataset = runner._dataset("twitter", 50)
        system = runner.build_system("smi", dataset)
        row = runner.measure_queries(system, dataset, 2, 3)
        assert row.num_queries == 3
        assert row.vo_kb > 0

    def test_measurements_read_deltas_under_an_outer_collector(self):
        dataset = runner._dataset("twitter", 50)
        system = runner.build_system("smi", dataset)
        alone = runner.measure_maintenance("smi", "twitter", 40)
        with obs.collect() as outer:
            inside = runner.measure_maintenance("smi", "twitter", 40)
            rows = [runner.measure_queries(system, dataset, 2, 3) for _ in range(2)]
        assert inside.meter.total == alone.meter.total
        assert inside.meter.by_operation == alone.meter.by_operation
        # Each row averages its own three queries, not the collector's six.
        hist = outer.metrics.snapshot()["query.sp_seconds"]
        assert hist["count"] == 6
        assert 3 * sum(row.sp_ms for row in rows) == pytest.approx(1e3 * hist["sum"])
        assert any(span.name == "query" for span in outer.spans)

    def test_experiment_registry_complete(self):
        assert set(runner.EXPERIMENTS) == {
            "fig6",
            "fig10",
            "tab3",
            "fig11",
            "fig12",
            "fig13",
            "tab2",
            "disj",
            "query",
        }
        assert set(ABLATIONS) == {
            "abl-fanout",
            "abl-arity",
            "abl-join-order",
            "abl-plan",
            "abl-batch",
        }


class TestAblationSmoke:
    def test_fanout_ablation(self, capsys):
        from repro.bench.ablations import ablation_fanout

        rows = ablation_fanout(size=40, fanouts=(3, 4))
        assert [r.value for r in rows] == [3, 4]
        assert all(r.metrics["avg_gas"] > 0 for r in rows)
        capsys.readouterr()

    def test_join_order_ablation(self, capsys):
        from repro.bench.ablations import ablation_join_order

        rows = ablation_join_order(size=40, num_queries=2, num_keywords=2)
        assert {r.value for r in rows} == {"size", "given"}
        capsys.readouterr()

    def test_batch_ablation(self, capsys):
        from repro.bench.ablations import ablation_batch_size

        rows = ablation_batch_size(size=24, batch_sizes=(1, 8))
        gas = {r.value: r.metrics["avg_gas"] for r in rows}
        assert gas[8] < gas[1]
        capsys.readouterr()
