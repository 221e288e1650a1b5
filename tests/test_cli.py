"""CLI surface: ``info`` and the three tools."""

import pathlib
import re

import pytest

from repro.cli import build_parser, main

ROOT = pathlib.Path(__file__).resolve().parents[1]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_exactly_the_tools(self):
        parser = build_parser()
        assert "{info,simtest,trace,byzantine}" in parser.format_help()
        for command in ("info", "simtest", "trace", "byzantine"):
            assert callable(parser.parse_args([command]).func)


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "ACCEPT_BID" in out
        assert "EDBT 2025" in out
        named = re.findall(r"[\w/.-]+\.(?:md|json|py)\b", out)
        assert named and all((ROOT / name).exists() for name in named), named
        examples = {f"examples/{path.name}" for path in (ROOT / "examples").glob("*.py")}
        assert examples and examples <= set(named), examples - set(named)
        for tool in ("simtest", "trace", "byzantine"):
            assert f"  {tool} " in out

    def test_trace_renders_route_and_span_tree(self, capsys):
        assert main(["trace"]) == 0
        out = capsys.readouterr().out
        assert "routed cross-shard (2PC): home=shard-1 inputs on ['shard-0']" in out
        assert "outcome: committed" in out
        tree = [line for line in out.splitlines() if line.startswith(("trace ", "├─", "└─"))]
        assert tree[0].startswith("trace ") and len(tree) > 10, out
        for stage in ("submit", "2pc_prepared", "consensus_propose", "wal_group_commit"):
            assert any(f"  {stage}  " in line for line in tree), stage
        assert "commit latency: mean_ms=" in out

    def test_byzantine(self, capsys):
        assert main(["byzantine", "--steps", "40"]) == 0
        out = capsys.readouterr().out
        assert "forged-signature txs admitted to a block: 0" in out
        assert "all invariants held across" in out

    def test_simtest(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["simtest", "--seed", "3", "--steps", "25", "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "all invariants held" in out
        assert (tmp_path / "SIMTEST_schedule.json").exists()
        assert (tmp_path / "SIMTEST_invariants.log").exists()
        assert not (tmp_path / "SIMTEST_repro.json").exists()

    def test_simtest_prints_rejections_by_cause(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["simtest", "--seed", "3", "--steps", "30", "--shards", "2", "--adversarial-rate", "0.3"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "rejected=7 " in out
        assert (
            "rejected by cause: 4 [signatures] input signature verification failed, "
            "1 presumed abort, 1 output <ref> already spent by shard-lock:<ref>, 1 <ref> already spent\n"
        ) in out
