"""Unit tests for the four similarity dimensions (Section III-B)."""

import pytest

from repro.config import DimensionConfig
from repro.core.dimensions.client import build_client_graph, client_similarity
from repro.core.dimensions.ipset import build_ipset_graph
from repro.core.dimensions.urifile import (
    build_urifile_graph,
    file_similarity,
    filename_similarity,
)
from repro.core.dimensions.whoisdim import (
    build_whois_graph,
    comparable_fields,
    whois_similarity,
)
from repro.httplog.records import HttpRequest
from repro.httplog.trace import HttpTrace
from repro.whois.record import WhoisRecord
from repro.whois.registry import WhoisRegistry


def request(client, host, uri="/x.html", ip="1.1.1.1"):
    return HttpRequest(
        timestamp=0.0,
        client=client,
        host=host,
        server_ip=ip,
        uri=uri,
    )


# Tiny test universes: disable the floors and the ubiquity filter (with
# two servers, any shared file is "ubiquitous" by fraction).
LOOSE = DimensionConfig(
    min_edge_weight=1e-9,
    client_min_edge_weight=1e-9,
    max_file_server_fraction=1.0,
)


@pytest.mark.usefixtures("pair_path")
class TestClientSimilarity:
    def test_equation_one(self):
        # |C1∩C2|=2, |C1|=2, |C2|=4 -> (2/2)(2/4) = 0.5.
        assert client_similarity(
            frozenset({"a", "b"}), frozenset({"a", "b", "c", "d"})
        ) == pytest.approx(0.5)

    def test_identical_sets(self):
        assert client_similarity(frozenset({"a"}), frozenset({"a"})) == 1.0

    def test_disjoint(self):
        assert client_similarity(frozenset({"a"}), frozenset({"b"})) == 0.0

    def test_graph_edges(self):
        trace = HttpTrace([
            request("c1", "s1.com"),
            request("c2", "s1.com"),
            request("c1", "s2.com"),
            request("c2", "s2.com"),
            request("c3", "s3.com"),
        ])
        graph = build_client_graph(trace, LOOSE)
        assert graph.edge_weight("s1.com", "s2.com") == pytest.approx(1.0)
        assert not graph.has_edge("s1.com", "s3.com")
        assert "s3.com" in graph  # still a node

    def test_floor_filters_weak_pairs(self):
        trace = HttpTrace(
            [request("c0", "a.com"), request("c0", "b.com")]
            + [request(f"x{i}", "a.com") for i in range(9)]
            + [request(f"y{i}", "b.com") for i in range(9)]
        )
        # weight = (1/10)(1/10) = 0.01 < default floor 0.1.
        graph = build_client_graph(trace)
        assert not graph.has_edge("a.com", "b.com")


class TestFilenameSimilarity:
    def test_short_exact_match(self):
        assert filename_similarity("login.php", "login.php") == 1.0

    def test_short_no_partial_credit(self):
        assert filename_similarity("login.php", "logon.php") == 0.0

    def test_long_obfuscated_match(self):
        base = "abcdefghijklmnopqrstuvwxyz0123456789XYZT.php"
        shuffled = base[::-1]
        assert len(base) > 25
        assert filename_similarity(base, shuffled) == 1.0

    def test_long_unrelated_no_match(self):
        a = "a" * 30 + ".php"
        b = "b" * 30 + ".php"
        assert filename_similarity(a, b) == 0.0

    def test_mixed_length_uses_exact(self):
        short = "a.php"
        long_name = "a" * 40 + ".php"
        assert filename_similarity(short, long_name) == 0.0


class TestFileSimilarity:
    def test_equation_seven_short_files(self):
        # F1={x,y}, F2={x,z}: each direction 1/2 -> product 1/4.
        assert file_similarity({"x.php", "y.php"}, {"x.php", "z.php"}) == pytest.approx(0.25)

    def test_identical(self):
        assert file_similarity({"a.php"}, {"a.php"}) == 1.0

    def test_empty(self):
        assert file_similarity(set(), {"a.php"}) == 0.0

    def test_asymmetric_inventories(self):
        # Shared file is important to the small server, less to the big one.
        small = {"shared.php"}
        big = {"shared.php", "b.php", "c.php", "d.php"}
        assert file_similarity(small, big) == pytest.approx(1.0 * (1 / 4))

    def test_obfuscated_family_counts(self):
        fam1 = "qwertyuiopasdfghjklzxcvbnm123456.php"
        fam2 = fam1[::-1]
        assert file_similarity({fam1}, {fam2}) == 1.0


@pytest.mark.usefixtures("pair_path")
class TestUrifileGraph:
    def test_shared_file_connects(self):
        trace = HttpTrace([
            request("c1", "a.com", uri="/p/setup.php"),
            request("c2", "b.com", uri="/q/setup.php"),
        ])
        graph = build_urifile_graph(trace, LOOSE)
        assert graph.edge_weight("a.com", "b.com") == pytest.approx(1.0)

    def test_ubiquitous_file_ignored(self):
        requests = [
            request(f"c{i}", f"s{i}.com", uri="/index.html") for i in range(10)
        ]
        requests += [
            request("c1", "s0.com", uri="/rare.php"),
            request("c2", "s1.com", uri="/rare.php"),
        ]
        graph = build_urifile_graph(
            trace := HttpTrace(requests),
            DimensionConfig(max_file_server_fraction=0.5, min_edge_weight=1e-9),
        )
        # index.html is on 100% of servers -> ignored; rare.php links s0/s1.
        assert graph.has_edge("s0.com", "s1.com")
        assert graph.num_edges() == 1
        del trace

    def test_obfuscated_family_links_servers(self):
        fam = "qwertyuiopasdfghjklzxcvbnm123456"
        trace = HttpTrace([
            request("c1", "a.com", uri=f"/x/{fam}.php"),
            request("c2", "b.com", uri=f"/y/{fam[::-1]}.php"),
        ])
        graph = build_urifile_graph(trace, LOOSE)
        assert graph.has_edge("a.com", "b.com")


@pytest.mark.usefixtures("pair_path")
class TestIpsetGraph:
    def test_shared_ip(self):
        trace = HttpTrace([
            request("c1", "a.com", ip="9.9.9.9"),
            request("c2", "b.com", ip="9.9.9.9"),
            request("c3", "c.com", ip="8.8.8.8"),
        ])
        graph = build_ipset_graph(trace, LOOSE)
        assert graph.edge_weight("a.com", "b.com") == 1.0
        assert not graph.has_edge("a.com", "c.com")

    def test_equation_eight_partial_overlap(self):
        trace = HttpTrace([
            request("c1", "a.com", ip="9.9.9.9"),
            request("c1", "a.com", ip="8.8.8.8"),
            request("c2", "b.com", ip="9.9.9.9"),
        ])
        graph = build_ipset_graph(trace, LOOSE)
        # |Ia∩Ib|=1, |Ia|=2, |Ib|=1 -> 0.5.
        assert graph.edge_weight("a.com", "b.com") == pytest.approx(0.5)


def whois_record(domain, **overrides):
    defaults = dict(
        registrant="Evil Corp",
        address="1 Dark Alley",
        email="x@evil.example",
        phone="+7.123",
        name_servers=("ns1.evil.su", "ns2.evil.su"),
    )
    defaults.update(overrides)
    return WhoisRecord(domain=domain, **defaults)


class TestWhoisSimilarity:
    def test_all_shared(self):
        assert whois_similarity(whois_record("a.com"), whois_record("b.com")) == 1.0

    def test_two_field_minimum(self):
        a = whois_record("a.com")
        b = whois_record(
            "b.com",
            registrant="Other",
            address="2 Other St",
            email="y@o.com",
            phone="+1.9",
        )
        # Only name_servers shared -> below minimum -> 0.
        assert whois_similarity(a, b) == 0.0

    def test_ratio(self):
        a = whois_record("a.com")
        b = whois_record("b.com", registrant="Different Person")
        # 4 of 5 fields shared, union 5.
        assert whois_similarity(a, b) == pytest.approx(4 / 5)

    def test_proxy_fields_masked(self):
        proxy_kwargs = dict(
            registrant="WhoisGuard",
            address="PO Box",
            email="p@x",
            phone="+0",
            is_proxy=True,
        )
        a = whois_record("a.com", **proxy_kwargs)
        b = whois_record("b.com", **proxy_kwargs)
        # Both proxied: only name servers comparable -> below two-field rule.
        assert whois_similarity(a, b) == 0.0
        assert set(comparable_fields(a)) == {"name_servers"}


@pytest.mark.usefixtures("pair_path")
class TestWhoisGraph:
    def test_registered_herd_connects(self):
        trace = HttpTrace([request("c1", "a.com"), request("c2", "b.com"),
                           request("c3", "c.com")])
        registry = WhoisRegistry([
            whois_record("a.com"),
            whois_record("b.com"),
            whois_record("c.com", registrant="Someone Else", address="9 Elm",
                         email="z@c.com", phone="+44.1",
                         name_servers=("ns1.other.com",)),
        ])
        graph = build_whois_graph(trace, registry, LOOSE)
        assert graph.has_edge("a.com", "b.com")
        assert not graph.has_edge("a.com", "c.com")

    def test_unregistered_servers_isolated(self):
        trace = HttpTrace([request("c1", "a.com"), request("c2", "10.0.0.1")])
        graph = build_whois_graph(trace, WhoisRegistry([whois_record("a.com")]), LOOSE)
        assert "10.0.0.1" in graph
        assert graph.num_edges() == 0
