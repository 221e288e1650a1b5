"""CLI surface."""

import pathlib
import re

import pytest

from repro.cli import build_parser, main

ROOT = pathlib.Path(__file__).resolve().parents[1]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in (
            "info", "demo", "compare", "workload", "shard", "simtest", "reshard"
        ):
            args = parser.parse_args([command])
            assert callable(args.func)


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "ACCEPT_BID" in out
        assert "EDBT 2025" in out
        named = re.findall(r"[\w/.-]+\.(?:md|json|py)\b", out)
        assert named and all((ROOT / name).exists() for name in named), named

    def test_workload(self, capsys):
        assert main(["workload", "--total", "220"]) == 0
        out = capsys.readouterr().out
        assert "REQUEST" in out
        assert "110k" in out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "RETURN" in out
        assert "eventual commit holds: True" in out

    def test_crypto_narrates_per_key_state_in_counts(self, capsys, monkeypatch):
        from repro.crypto import ed25519

        monkeypatch.setattr(ed25519, "_PUBKEY_CACHE", {})
        monkeypatch.setattr(ed25519, "_EXPANDED_KEY_CACHE", {})
        assert main(["crypto", "--batch", "4"]) == 0
        out = capsys.readouterr().out
        assert "4 expanded seeds memoised" in out
        assert "first sight of each key" in out and "(4 keys memoised, 0 tables)" in out
        assert "second sight of each key" in out and "third sight of each key" in out
        assert out.count("(4 keys memoised, 4 tables)") == 2
        assert "'hits': 4, 'misses': 4" in out

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

    def test_reshard(self, capsys):
        assert main(["reshard"]) == 0
        out = capsys.readouterr().out
        assert "policy tripped" in out
        assert "rolls FORWARD" in out
        assert "all 21 invariants held" in out
