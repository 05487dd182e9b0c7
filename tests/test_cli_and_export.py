"""Tests for the CLI round trip and the export module."""

import json

import pytest

from repro.cli import main
from repro.eval.export import herds_to_dot, result_to_dict, write_result_json


class TestExport:
    def test_result_to_dict_shape(self, small_result):
        data = result_to_dict(small_result)
        assert data["campaigns"]
        first = data["campaigns"][0]
        assert set(first) >= {"id", "servers", "clients", "scores", "dimensions"}
        assert data["detected_servers"] == sorted(data["detected_servers"])
        assert "client" in data["herd_counts"]

    def test_json_round_trip(self, small_result, tmp_path):
        path = tmp_path / "out" / "campaigns.json"
        write_result_json(small_result, path)
        data = json.loads(path.read_text())
        assert len(data["campaigns"]) == len(small_result.campaigns)

    def test_dot_output(self, small_result):
        dot = herds_to_dot(small_result, "client")
        assert dot.startswith('graph "client_herds"')
        assert dot.rstrip().endswith("}")
        assert "tomato" in dot  # detected servers highlighted

    def test_dot_unknown_dimension_empty(self, small_result):
        dot = herds_to_dot(small_result, "nope")
        assert "subgraph" not in dot


class TestCliRoundTrip:
    @pytest.fixture(scope="class")
    def generated(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("cli") / "day0"
        code = main([
            "generate",
            "--scenario",
            "small",
            "--seed",
            "7",
            "--out",
            str(out),
        ])
        assert code == 0
        return out

    def test_generate_artifacts(self, generated):
        for name in ("trace.jsonl", "whois.json", "redirects.json", "truth.json"):
            assert (generated / name).exists(), name

    def test_run_produces_campaigns(self, generated, tmp_path):
        out = tmp_path / "campaigns.json"
        code = main([
            "run",
            "--trace",
            str(generated / "trace.jsonl"),
            "--whois",
            str(generated / "whois.json"),
            "--redirects",
            str(generated / "redirects.json"),
            "--out",
            str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["campaigns"]
        # The CLI path must find the planted zeus herd like the API path.
        truth = json.loads((generated / "truth.json").read_text())
        zeus = next(c for c in truth["campaigns"] if c["name"] == "small-zeus")
        assert set(zeus["servers"]) <= set(data["detected_servers"])

    def test_run_with_dimension_subset(self, generated, tmp_path):
        out = tmp_path / "campaigns_urifile.json"
        code = main([
            "run",
            "--trace",
            str(generated / "trace.jsonl"),
            "--dimensions",
            "urifile",
            "--out",
            str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        for campaign in data["campaigns"]:
            for dims in campaign["dimensions"].values():
                assert set(dims) <= {"urifile"}

    def test_report_prints_summary(self, generated, tmp_path, capsys):
        out = tmp_path / "campaigns.json"
        main([
            "run",
            "--trace",
            str(generated / "trace.jsonl"),
            "--whois",
            str(generated / "whois.json"),
            "--out",
            str(out),
        ])
        code = main(["report", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "inferred campaigns" in captured
        assert "campaign #" in captured

    def test_bad_dimension_rejected(self, generated, tmp_path, capsys):
        from repro.cli import EXIT_CODES
        from repro.errors import ConfigError

        code = main([
            "run",
            "--trace",
            str(generated / "trace.jsonl"),
            "--dimensions",
            "telepathy",
            "--out",
            str(tmp_path / "x.json"),
        ])
        assert code == EXIT_CODES[ConfigError]
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("smash: error: ") and "telepathy" in last

    def test_each_error_family_has_its_own_exit_code(self):
        import repro.errors
        from repro.cli import EXIT_CODES

        families = {
            kind
            for kind in vars(repro.errors).values()
            if isinstance(kind, type) and issubclass(kind, repro.errors.ReproError)
        }
        # Worker failures are pipeline errors; every other class is a family.
        assert set(EXIT_CODES) == families - {
            repro.errors.WorkerError,
            repro.errors.ShardTimeoutError,
        }
        codes = list(EXIT_CODES.values())
        assert len(set(codes)) == len(codes) and min(codes) > 2
