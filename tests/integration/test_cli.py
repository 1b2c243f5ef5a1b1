"""CLI integration tests (direct invocation, no subprocess)."""

import json

import pytest

from repro.cli import main


class TestPaperExamples:
    def test_reports_paper_stop_positions(self, capsys):
        assert main(["paper-examples"]) == 0
        out = capsys.readouterr().out
        assert "fa: stops at position 8" in out
        assert "ta: stops at position 6" in out
        assert "bpa: stops at position 3" in out
        assert "total accesses=63" in out
        assert "total accesses=36" in out


class TestQuery:
    def test_runs_requested_algorithms(self, capsys):
        code = main([
            "query", "--n", "300", "--m", "3", "--k", "5",
            "--algorithms", "ta", "bpa2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "ta" in out
        assert "bpa2" in out
        assert "cost" in out

    def test_unknown_algorithm_fails(self, capsys):
        code = main([
            "query", "--n", "100", "--m", "2", "--k", "2",
            "--algorithms", "grover",
        ])
        assert code == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_correlated_generator(self, capsys):
        code = main([
            "query", "--generator", "correlated", "--alpha", "0.05",
            "--n", "200", "--m", "3", "--k", "4",
        ])
        assert code == 0


class TestAdversarial:
    def test_reports_ratios(self, capsys):
        assert main(["adversarial", "--m", "4", "--u", "3"]) == 0
        out = capsys.readouterr().out
        assert "Lemma 3" in out
        assert "Theorem 8" in out
        assert "m-1 = 3" in out


class TestFigure:
    def test_runs_figure_at_tiny_scale(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert main(["figure", "fig13"]) == 0
        out = capsys.readouterr().out
        assert "fig13" in out
        assert "bpa2" in out

    def test_csv_output(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert main(["figure", "fig13", "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("sweep_name,")

    def test_out_dir_writes_three_formats(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert main(["figure", "fig13", "--out", str(tmp_path / "results")]) == 0
        base = tmp_path / "results"
        assert (base / "fig13.txt").exists()
        assert (base / "fig13.csv").exists()
        assert (base / "fig13.json").exists()

    def test_unknown_figure_raises(self):
        with pytest.raises(KeyError):
            main(["figure", "fig99"])


class TestDistributed:
    def test_reports_message_counts(self, capsys):
        assert main(["distributed", "--n", "200", "--m", "3", "--k", "3"]) == 0
        out = capsys.readouterr().out
        for name in ("dist-ta", "dist-bpa", "dist-bpa2", "tput"):
            assert name in out


class TestTrace:
    def test_figure1_trace(self, capsys):
        assert main(["trace", "--figure1"]) == 0
        out = capsys.readouterr().out
        assert "delta=63" in out
        assert "lambda=43" in out
        assert "bp=[9, 9, 6]" in out
        assert out.count("<-- stops") == 2

    def test_random_trace(self, capsys):
        assert main(["trace", "--n", "40", "--m", "3", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "TA trace" in out and "BPA trace" in out


class TestServeWorkloadAsyncMode:
    def test_smoke_async_replay(self, capsys, tmp_path):
        out = tmp_path / "smoke_async.json"
        assert main(["serve-workload", "--smoke", "--async-mode",
                     "--concurrency", "4", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["mode"] == "async"
        assert report["service"]["concurrency"] == 4
        assert report["results_identical_to_baseline"]
        assert "mode=async" in capsys.readouterr().out

    def test_auto_shards_accepted(self, capsys, tmp_path):
        out = tmp_path / "auto.json"
        assert main(["serve-workload", "--smoke", "--shards", "auto",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["shards"] == "auto"

    def test_garbage_shards_rejected(self, capsys):
        assert main(["serve-workload", "--smoke", "--shards", "many"]) == 2


class TestSnapshotCli:
    """``--snapshot-out``/``--snapshot-in`` and ``verify-snapshot``."""

    def _serve(self, extra, out):
        return main(["serve-workload", "--smoke", "--mutation-rate", "1.0",
                     "--verify", "--queries", "25", "--out", str(out),
                     *extra])

    def test_mutation_replay_round_trips_a_restart(self, capsys, tmp_path):
        state = tmp_path / "state.bpsn"
        assert self._serve(["--snapshot-out", str(state)],
                           tmp_path / "r1.json") == 0
        first = capsys.readouterr().out
        assert "snapshot saved to" in first
        report = json.loads((tmp_path / "r1.json").read_text())
        saved = report["snapshot_saved"]
        assert saved["path"] == str(state)
        assert saved["epoch"] > 0

        # "Restart": warm-start from the file, keep mutating, re-verify
        # every served answer against the brute-force oracle.
        assert self._serve(["--snapshot-in", str(state),
                            "--snapshot-out", str(state)],
                           tmp_path / "r2.json") == 0
        second = capsys.readouterr().out
        assert f"restored snapshot {state}" in second
        report2 = json.loads((tmp_path / "r2.json").read_text())
        assert report2["snapshot_restored_epoch"] == saved["epoch"]
        assert report2["snapshot_saved"]["epoch"] > saved["epoch"]
        assert report2["service"]["verified_identical"]

    def test_snapshot_out_creates_missing_directories(self, capsys, tmp_path):
        # A fresh checkout has no reports/ directory: the snapshot writer
        # creates it rather than failing after the whole replay.
        state = tmp_path / "missing" / "nested" / "warm.bpsn"
        assert self._serve(["--snapshot-out", str(state)],
                           tmp_path / "r.json") == 0
        assert "snapshot saved to" in capsys.readouterr().out
        assert main(["verify-snapshot", str(state)]) == 0
        assert "snapshot OK" in capsys.readouterr().out

    def test_static_replay_accepts_snapshot_in(self, capsys, tmp_path):
        state = tmp_path / "state.bpsn"
        assert main(["serve-workload", "--smoke",
                     "--snapshot-out", str(state),
                     "--out", str(tmp_path / "r1.json")]) == 0
        capsys.readouterr()
        assert main(["serve-workload", "--smoke",
                     "--snapshot-in", str(state),
                     "--out", str(tmp_path / "r2.json")]) == 0
        out = capsys.readouterr().out
        assert "warm start" in out
        assert "results identical: True" in out

    def test_verify_snapshot_ok_and_repair(self, capsys, tmp_path):
        from repro.datagen.base import make_generator
        from repro.storage import write_snapshot
        from repro.storage.disk import _rank_section_offset
        from repro.storage.snapshot import (
            _CRC_PAIR,
            _SNAP_HEADER,
            _index_section_offset,
        )

        database = make_generator("uniform").generate(20, 2, seed=6)
        state = tmp_path / "state.bpsn"
        write_snapshot(database, state, epoch=9, compress=False)
        assert main(["verify-snapshot", str(state)]) == 0
        out = capsys.readouterr().out
        assert "epoch 9" in out and "snapshot OK" in out

        # Corrupt one index byte: detected, then repaired in place.
        base = _SNAP_HEADER.size + 2 * _CRC_PAIR.size
        raw = bytearray(state.read_bytes())
        raw[base + _index_section_offset(20, 1)] ^= 0xFF
        state.write_bytes(bytes(raw))
        assert main(["verify-snapshot", str(state)]) == 1
        captured = capsys.readouterr()
        assert "ISSUE" in captured.out
        assert "--repair" in captured.err
        assert main(["verify-snapshot", str(state), "--repair"]) == 0
        out = capsys.readouterr().out
        assert "repaired" in out
        assert main(["verify-snapshot", str(state)]) == 0
        capsys.readouterr()

        # Rank-section damage is honestly unrecoverable.
        raw = bytearray(state.read_bytes())
        raw[base + _rank_section_offset(20, 0) + 3] ^= 0xFF
        state.write_bytes(bytes(raw))
        assert main(["verify-snapshot", str(state), "--repair"]) == 1
        assert "not repairable" in capsys.readouterr().err

    def test_verify_snapshot_missing_file(self, capsys, tmp_path):
        assert main(["verify-snapshot", str(tmp_path / "absent.bpsn")]) == 1
        assert "unrecoverable" in capsys.readouterr().err


class TestReverseCli:
    """``repro reverse`` (the oracle-checked demo) and serve-workload's
    ``--reverse-rate`` path, every answer oracle-checked."""

    DEMO = ["reverse", "--n", "150", "--m", "3", "--users", "8",
            "--k", "5", "--seed", "3"]

    def test_demo_verifies_against_the_oracle(self, capsys):
        assert main([*self.DEMO, "--queries", "4"]) == 0
        out = capsys.readouterr().out
        assert "reverse top-5" in out
        assert "8 registered users" in out
        assert "MISMATCH" not in out

    def test_single_item_mode_lists_matching_weights(self, capsys):
        assert main([*self.DEMO, "--item", "0"]) == 0
        out = capsys.readouterr().out
        assert "item 0:" in out

    def test_unknown_item_is_a_usage_error(self, capsys):
        assert main([*self.DEMO, "--item", "999999"]) == 2
        assert "not in the database" in capsys.readouterr().err

    def test_serve_workload_reverse_rate_verifies(self, capsys, tmp_path):
        out_file = tmp_path / "replay.json"
        assert main(["serve-workload", "--smoke", "--queries", "30",
                     "--mutation-rate", "0.5", "--reverse-rate", "0.5",
                     "--reverse-users", "6", "--reverse-k", "5",
                     "--verify", "--out", str(out_file)]) == 0
        report = json.loads(out_file.read_text())
        reverse = report["service"]["reverse"]
        assert reverse["queries"] > 0
        assert reverse["users"] == 6
        assert reverse["verified_identical"] is True
        out = capsys.readouterr().out
        assert "reverse top-k:" in out
        assert "boundary maintenance:" in out

    def test_reverse_rate_without_mutations_is_legal(self, capsys, tmp_path):
        out_file = tmp_path / "static.json"
        assert main(["serve-workload", "--smoke", "--queries", "20",
                     "--reverse-rate", "1.0", "--reverse-users", "4",
                     "--verify", "--out", str(out_file)]) == 0
        report = json.loads(out_file.read_text())
        assert report["service"]["reverse"]["queries"] > 0
