"""Tests for the opt-in extension dimensions (urlparam, time).

The headline test executes the paper's own false-negative remedy
(Section V-A2): enabling the parameter-pattern dimension recovers the
Cycbot/Fake-AV-style campaigns that the stock three dimensions miss.
"""

import pytest

from repro.config import DimensionConfig, SmashConfig
from repro.core.dimensions.timedim import active_windows_by_server, build_time_graph
from repro.core.dimensions.urlparam import (
    build_urlparam_graph,
    parameter_patterns_by_server,
)
from repro.core.pipeline import SmashPipeline
from repro.httplog.records import HttpRequest
from repro.httplog.trace import HttpTrace

LOOSE = DimensionConfig(
    min_edge_weight=1e-9,
    client_min_edge_weight=1e-9,
    max_file_server_fraction=1.0,
)


def request(client, host, uri="/x.html", ts=0.0, ip="1.1.1.1"):
    return HttpRequest(
        timestamp=ts,
        client=client,
        host=host,
        server_ip=ip,
        uri=uri,
    )


@pytest.mark.usefixtures("pair_path")
class TestUrlparamGraph:
    def test_patterns_extracted(self):
        trace = HttpTrace([
            request("c1", "a.com", uri="/x.php?p=1&id=2&e=3"),
            request("c1", "a.com", uri="/y.php?q=1"),
            request("c1", "b.com", uri="/plain.html"),
        ])
        patterns = parameter_patterns_by_server(trace)
        assert patterns["a.com"] == frozenset({("e", "id", "p"), ("q",)})
        assert "b.com" not in patterns

    def test_shared_pattern_connects(self):
        trace = HttpTrace([
            request("c1", "a.com", uri="/u1.php?said=1&tid=2"),
            request("c2", "b.com", uri="/u2.php?said=9&tid=8"),
        ])
        graph = build_urlparam_graph(trace, LOOSE)
        assert graph.edge_weight("a.com", "b.com") == pytest.approx(1.0)

    def test_different_patterns_disconnect(self):
        trace = HttpTrace([
            request("c1", "a.com", uri="/u1.php?x=1"),
            request("c2", "b.com", uri="/u2.php?y=1"),
        ])
        graph = build_urlparam_graph(trace, LOOSE)
        assert not graph.has_edge("a.com", "b.com")

    def test_ubiquitous_pattern_ignored(self):
        requests = [
            request(f"c{i}", f"s{i}.com", uri=f"/p{i}.php?id={i}")
            for i in range(10)
        ]
        graph = build_urlparam_graph(
            HttpTrace(requests),
            DimensionConfig(max_file_server_fraction=0.5, min_edge_weight=1e-9),
        )
        assert graph.num_edges() == 0


@pytest.mark.usefixtures("pair_path")
class TestTimeGraph:
    def test_windows_extracted(self):
        trace = HttpTrace([
            request("c1", "a.com", ts=30.0),
            request("c1", "a.com", ts=650.0),
        ])
        windows = active_windows_by_server(trace, window_seconds=600.0)
        assert windows["a.com"] == frozenset({0, 1})

    def test_cooccurring_servers_connect(self):
        trace = HttpTrace([
            request("b1", "cnc1.com", ts=100.0),
            request("b1", "cnc2.com", ts=130.0),
            request("b1", "cnc1.com", ts=7300.0),
            request("b1", "cnc2.com", ts=7350.0),
            request("c9", "benign.com", ts=40000.0),
        ])
        graph = build_time_graph(trace, LOOSE)
        assert graph.edge_weight("cnc1.com", "cnc2.com") == pytest.approx(1.0)
        assert not graph.has_edge("cnc1.com", "benign.com")

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            active_windows_by_server(HttpTrace([]), window_seconds=0.0)


class TestFalseNegativeRecovery:
    """The Section V-A2 remedy, end to end."""

    @pytest.fixture(scope="class")
    def stock_and_extended(self, small_dataset):
        stock = SmashPipeline().run(
            small_dataset.trace,
            whois=small_dataset.whois,
            redirects=small_dataset.redirects,
        )
        extended_config = SmashConfig(
            enabled_secondary_dimensions=("urifile", "ipset", "whois", "urlparam"),
        )
        extended = SmashPipeline(extended_config).run(
            small_dataset.trace,
            whois=small_dataset.whois,
            redirects=small_dataset.redirects,
        )
        return stock, extended

    def test_stock_system_misses_fn_campaign(self, small_dataset, stock_and_extended):
        stock, _ = stock_and_extended
        fn = next(c for c in small_dataset.truth.campaigns if c.name == "small-fn")
        assert not (fn.servers & stock.detected_servers)

    def test_parameter_dimension_recovers_fn_campaign(
        self, small_dataset, stock_and_extended
    ):
        """'If we extend our URI file dimension to consider the parameter
        pattern, we could detect these threats.'"""
        _, extended = stock_and_extended
        fn = next(c for c in small_dataset.truth.campaigns if c.name == "small-fn")
        assert fn.servers & extended.detected_servers

    def test_extension_does_not_lose_stock_detections(
        self, small_dataset, stock_and_extended
    ):
        stock, extended = stock_and_extended
        truth = small_dataset.truth
        stock_tp = stock.detected_servers & truth.malicious_servers
        extended_tp = extended.detected_servers & truth.malicious_servers
        assert stock_tp <= extended_tp

    def test_extension_adds_no_pure_benign_fp(
        self, small_dataset, stock_and_extended
    ):
        _, extended = stock_and_extended
        truth = small_dataset.truth
        for server in extended.detected_servers:
            if truth.campaign_of(server) is None:
                replaced = any(
                    server in c.replaced_servers.values()
                    for c in extended.campaigns
                )
                assert server in truth.noise_category or replaced, server
