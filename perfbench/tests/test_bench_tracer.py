"""Self-time arithmetic, alias rebinding and loud failure of the tracer."""

import numpy as np
import pytest

import tracer


def span(name, start, end, parent):
    return (name, start, end, parent, 0)


class TestSelfTimes:
    def test_nested_spans(self):
        spans = [
            span("root", 0.0, 10.0, -1),
            span("a", 1.0, 4.0, 0),
            span("a.child", 2.0, 3.0, 1),
            span("b", 5.0, 9.0, 0),
        ]
        assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
        assert sum(tracer.self_times(spans)) == pytest.approx(10.0)

    def test_overlapping_children_are_merged(self):
        spans = [span("root", 0.0, 10.0, -1), span("a", 1.0, 5.0, 0), span("b", 3.0, 7.0, 0)]
        assert tracer.self_times(spans)[0] == pytest.approx(4.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span("root", 2.0, 6.0, -1), span("a", 0.0, 3.0, 0), span("b", 5.0, 8.0, 0)]
        assert tracer.self_times(spans)[0] == pytest.approx(2.0)

    def test_leaf_self_time_is_its_duration(self):
        assert tracer.self_times([span("x", 1.5, 2.0, -1)]) == pytest.approx([0.5])

    def test_summarize_merges_invocations_and_keeps_ratio_bases(self):
        first = [span("cli.main", 0.0, 4.0, -1), span("empirical.build_ranks", 1.0, 2.0, 0)]
        second = [span("cli.main", 0.0, 1.0, -1)]
        counters = {"empirical.rows_ranked": 300, "empirical.tail_rows_used": 3,
                    "gridscan.grid_bytes_max": 80}
        out = tracer.summarize([(first, counters),
                                (second, {"gridscan.grid_bytes_max": 16})])
        assert out["cli.main.self_s"] == pytest.approx(4.0)
        assert out["cli.main.calls"] == 2
        assert out["empirical.build_ranks.self_s"] == pytest.approx(1.0)
        assert out["empirical.rows_ranked"] == 300
        assert out["empirical.tail_rows_used"] == 3
        assert out["empirical.rank_waste_ratio"] == pytest.approx(100.0)
        assert out["gridscan.grid_bytes_max"] == 80  # a maximum, not a sum
        assert out["classify.norm_evals_per_sample"] == 0.0  # base is zero


@pytest.fixture
def installed():
    t = tracer.Tracer(run_id=7)
    rebound = t.install()
    try:
        yield t, rebound
    finally:
        t.restore()


class TestInstall:
    def test_every_alias_is_rebound(self, installed):
        import tailvc
        import tailvc.cli
        import tailvc.empirical
        import tailvc.harness

        t, rebound = installed
        wrapper = tailvc.empirical.build_ranks
        assert wrapper.__wrapped__.__module__ == "tailvc.empirical"
        for module in (tailvc, tailvc.harness, tailvc.cli):
            assert module.build_ranks is wrapper
        assert set(rebound["empirical.build_ranks"]) >= {
            "tailvc.empirical.build_ranks", "tailvc.harness.build_ranks",
            "tailvc.cli.build_ranks", "tailvc.build_ranks",
        }

    def test_calls_through_an_alias_are_recorded(self, installed):
        import tailvc.harness
        from tailvc.models import parse_model

        t, _ = installed
        x = np.random.default_rng(0).random((200, 2))
        tailvc.harness.sup_stdf_deviation(x, 10, parse_model("independence", 2), 2.0)
        names = [s[0] for s in t.spans]
        assert names[0] == "harness.sup_stdf_deviation"
        assert "empirical.build_ranks" in names
        assert "empirical.stdf_lattice_counts" in names
        by_name = {s[0]: s for s in t.spans}
        assert by_name["empirical.stdf_lattice_counts"][3] == names.index(
            "empirical.empirical_stdf_lattice")
        assert all(s[4] == 7 for s in t.spans)
        assert t.counters["empirical.rows_ranked"] == 400
        assert t.counters["empirical.tail_rows_used"] == 2 * 21

    def test_method_is_wrapped(self, installed):
        import tailvc.classify

        assert hasattr(tailvc.classify.LabeledGenerator.sample, "__wrapped__")

    def test_restore_puts_originals_back(self):
        import tailvc.cli
        import tailvc.empirical

        original = tailvc.empirical.build_ranks
        t = tracer.Tracer()
        t.install()
        assert tailvc.cli.build_ranks is not original
        t.restore()
        assert tailvc.cli.build_ranks is original
        assert tailvc.empirical.build_ranks is original


class TestFailsLoudly:
    def test_missing_function(self):
        t = tracer.Tracer(layers={"empirical": ["build_ranks", "no_such_function"]})
        with pytest.raises(tracer.TracerError, match="no_such_function"):
            t.install()
        import tailvc.empirical

        assert not hasattr(tailvc.empirical.build_ranks, "__wrapped__")

    def test_missing_module(self):
        with pytest.raises(tracer.TracerError, match="no_such_module"):
            tracer.Tracer(layers={"no_such_module": ["f"]}).install()

    def test_missing_class(self):
        with pytest.raises(tracer.TracerError, match="NoSuchClass"):
            tracer.Tracer(layers={"classify": ["NoSuchClass.sample"]}).install()

    def test_hidden_alias(self):
        import tailvc.empirical

        hidden = {"ranker": tailvc.empirical.build_ranks}
        try:
            with pytest.raises(tracer.TracerError, match="alias"):
                tracer.Tracer(layers={"empirical": ["build_ranks"]}).install()
            assert not hasattr(tailvc.empirical.build_ranks, "__wrapped__")
        finally:
            hidden.clear()

    def test_second_install_refused(self, installed):
        t, _ = installed
        with pytest.raises(tracer.TracerError, match="already"):
            t.install()

