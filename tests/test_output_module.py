"""Tests for the Output Module: profiles, queries, traces and report rendering."""

import pytest

from repro.compiler.spmd import NodeDo
from repro.interpreter import Metrics, interpret
from repro.output import (
    QueryInterface,
    aau_profile,
    generate_trace,
    line_profile,
    phase_profile,
    program_profile,
    render_bar_chart,
    render_comparison,
    render_profile,
    render_series_chart,
    render_table,
)
from repro.output.report import format_us
from repro.output.trace import EVENT_RECV, EVENT_SEND, merge_traces
from repro.simulator import simulate
from repro.system.ipsc860 import PROGRAM_STARTUP_US


@pytest.fixture(scope="module")
def laplace_results(laplace_compiled, machine4):
    est = interpret(laplace_compiled, machine4)
    sim = simulate(laplace_compiled, machine4)
    return est, sim


class TestProfiles:
    def test_program_profile_covers_total(self, laplace_results):
        est, _ = laplace_results
        profile = program_profile(est)
        assert profile.nprocs == 4
        entry_total = sum(e.total for e in profile.entries)
        # top-level entries cover the program body; the remainder is the
        # program-startup overhead charged at the root AAU
        assert entry_total == pytest.approx(est.predicted_time_us - PROGRAM_STARTUP_US,
                                            rel=0.05)

    def test_profile_sorted_and_fraction(self, laplace_results):
        est, _ = laplace_results
        profile = program_profile(est)
        ordered = profile.sorted_entries()
        assert ordered[0].total >= ordered[-1].total
        assert 0 < profile.fraction(ordered[0]) <= 1.0
        assert 0 <= profile.communication_fraction() < 1.0

    def test_line_profile_labels_use_source_text(self, laplace_results):
        est, _ = laplace_results
        profile = line_profile(est)
        assert any("forall" in e.label for e in profile.entries)

    def test_aau_profile_of_subtree(self, laplace_results):
        est, _ = laplace_results
        loop_aau = next(a for a in est.saag.walk() if isinstance(a.spmd_node, NodeDo))
        profile = aau_profile(est, loop_aau)
        assert profile.overall.total > 0
        assert profile.entries

    def test_phase_profile_partitions_lines(self, laplace_results):
        est, _ = laplace_results
        n_lines = est.compiled.source.num_physical_lines
        mid = n_lines // 2
        profile = phase_profile(est, {"first half": (1, mid),
                                      "second half": (mid + 1, n_lines)})
        assert len(profile.entries) == 2
        total = sum(e.total for e in profile.entries)
        line_total = sum(m.total for m in est.line_breakdown().values())
        assert total == pytest.approx(line_total, rel=0.01)


class TestQueries:
    def test_line_query(self, laplace_results, laplace_compiled):
        est, sim = laplace_results
        queries = QueryInterface(est, sim)
        hottest = queries.hottest_lines(3)
        assert hottest and hottest[0].metrics.total >= hottest[-1].metrics.total
        assert hottest[0].aaus

    def test_line_range_query(self, laplace_results):
        est, _ = laplace_results
        queries = QueryInterface(est)
        results = queries.lines(1, est.compiled.source.num_physical_lines)
        assert results

    def test_compare_line_includes_measured(self, laplace_results):
        est, sim = laplace_results
        queries = QueryInterface(est, sim)
        hottest = queries.hottest_lines(1)[0]
        comparison = queries.compare_line(hottest.line)
        assert comparison["estimated_us"] > 0
        assert comparison["measured_us"] > 0

    def test_bottleneck_type(self, laplace_results):
        est, _ = laplace_results
        queries = QueryInterface(est)
        assert queries.bottleneck_type() in ("computation", "communication", "overhead")

    def test_communication_operations_and_critical_vars(self, laplace_results):
        est, _ = laplace_results
        queries = QueryInterface(est)
        assert queries.communication_operations()
        assert "n" in queries.critical_variables()

    def test_aau_and_subgraph_queries(self, laplace_results):
        est, _ = laplace_results
        queries = QueryInterface(est)
        some_aau = next(a for a in est.saag.walk() if a.id > 0)
        aau, metrics = queries.aau(some_aau.id)
        assert aau is some_aau
        assert queries.subgraph(some_aau.id).total >= metrics.total


class TestTrace:
    def test_trace_has_events_for_every_processor(self, laplace_results):
        est, _ = laplace_results
        trace = generate_trace(est)
        assert trace.nprocs == 4
        processors = {e.processor for e in trace.events}
        assert processors == {0, 1, 2, 3}

    def test_trace_contains_send_recv_pairs(self, laplace_results):
        est, _ = laplace_results
        trace = generate_trace(est)
        sends = [e for e in trace.events if e.event == EVENT_SEND]
        recvs = [e for e in trace.events if e.event == EVENT_RECV]
        assert sends and len(sends) == len(recvs)

    def test_trace_time_monotone_in_record_order(self, laplace_results):
        est, _ = laplace_results
        trace = generate_trace(est)
        times = [e.time_us for e in trace.sorted_events()]
        assert times == sorted(times)

    def test_trace_text_and_timeline(self, laplace_results, tmp_path):
        est, _ = laplace_results
        trace = generate_trace(est)
        text = trace.to_text()
        assert text.startswith("#")
        path = tmp_path / "trace.txt"
        trace.write(str(path))
        assert path.read_text().count("\n") > 4
        timeline = trace.timeline(width=40)
        assert "P0" in timeline and "#" in timeline

    def test_merge_traces(self, laplace_results):
        est, _ = laplace_results
        trace = generate_trace(est)
        merged = merge_traces([trace, trace])
        assert len(merged.events) == 2 * len(trace.events)
        assert max(e.time_us for e in merged.events) > max(e.time_us for e in trace.events)


class TestReportRendering:
    def test_format_us_units(self):
        assert format_us(5.0).endswith("us")
        assert format_us(5_000.0).endswith("ms")
        assert format_us(5_000_000.0).endswith("s")

    def test_render_table_alignment(self):
        table = render_table(["a", "bb"], [[1, 22], [333, 4]], title="demo")
        lines = table.splitlines()
        assert lines[0] == "demo"
        assert len(lines) == 5
        assert all(len(line) == len(lines[1]) for line in lines[2:])

    def test_render_profile_mentions_totals(self, laplace_results):
        est, _ = laplace_results
        text = render_profile(program_profile(est))
        assert "overall" in text
        assert "comp" in text and "comm" in text

    def test_render_bar_chart(self):
        chart = render_bar_chart({"alpha": 10.0, "beta": 5.0}, width=20, title="t")
        assert "alpha" in chart and "#" in chart
        assert chart.splitlines()[0] == "t"

    def test_render_series_chart(self):
        chart = render_series_chart({"m": {1.0: 0.5, 2.0: 0.7}, "e": {1.0: 0.55}},
                                    x_label="size")
        assert "size" in chart and "0.700000" in chart and "-" in chart

    def test_render_comparison_error(self):
        text = render_comparison(Metrics(computation=90.0), 100.0, label="case")
        assert "case" in text and "10.00%" in text
