"""Tests for the ddoscovery command-line interface."""

import hashlib

import pytest

from repro.cli import main


class TestSensitivity:
    def test_prints_floors(self, capsys):
        assert main(["sensitivity", "--prefix-length", "20"]) == 0
        output = capsys.readouterr().out
        assert "/20" in output
        assert "Mbps" in output

    def test_rejects_bad_length(self):
        with pytest.raises(SystemExit):
            main(["sensitivity", "--prefix-length", "40"])


class TestSurvey:
    def test_prints_tables(self, capsys):
        assert main(["survey"]) == 0
        output = capsys.readouterr().out
        assert "industry report survey" in output
        assert "Netscout" in output
        assert "Table 3" in output


class TestLandscape:
    def test_prints_statistics(self, capsys):
        assert main(["landscape", "--weeks", "16", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "ground truth over 16 weeks" in output
        assert "direct-path" in output
        assert "SYN-flood" in output
        # The whole report is pinned: any change to how the command builds
        # its plan, landscape, campaigns or generator moves these bytes.
        assert hashlib.sha256(output.encode()).hexdigest() == (
            "bb8f172ae50fb396d0ceb532c7e3e8d54debfc4d50b25d0508305a594c7c2ca5"
        )


class TestRun:
    def test_single_artefact_to_stdout(self, capsys):
        assert main(["run", "--weeks", "20", "--artefact", "T3"]) == 0
        output = capsys.readouterr().out
        assert "Table 3" in output

    def test_artefacts_to_directory(self, tmp_path, capsys):
        assert (
            main(
                [
                    "run",
                    "--weeks",
                    "20",
                    "--artefact",
                    "T2",
                    "S3",
                    "--out",
                    str(tmp_path),
                ]
            )
            == 0
        )
        assert (tmp_path / "T2.txt").exists()
        assert (tmp_path / "S3.txt").exists()
        assert "observatories" in (tmp_path / "T2.txt").read_text()

    def test_unknown_artefact_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--weeks", "20", "--artefact", "F99"])

    def test_too_short_window_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--weeks", "4"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestArtifactCommand:
    def test_list_enumerates_registry(self, capsys):
        from repro.core.artifacts import artifact_names

        assert main(["artifact", "list"]) == 0
        output = capsys.readouterr().out
        for name in artifact_names():
            assert name in output

    def test_get_writes_canonical_bytes(self, small_study, tmp_path, capsys):
        from repro.core.artifacts import artifact_json_bytes

        assert (
            main(
                [
                    "artifact",
                    "get",
                    "table2",
                    "--preset",
                    "seed0-small",
                    "--out",
                    str(tmp_path),
                ]
            )
            == 0
        )
        written = (tmp_path / "table2.json").read_bytes()
        assert written == artifact_json_bytes(small_study.artifact("table2"))

    def test_get_prints_to_stdout(self, small_study, capsys):
        assert main(["artifact", "get", "headline", "--preset", "seed0-small"]) == 0
        document = __import__("json").loads(capsys.readouterr().out)
        assert document["artifact"] == "headline"
        assert document["schema_version"] >= 1

    def test_get_rejects_unknown_name(self, small_study):
        with pytest.raises(SystemExit, match="unknown artifact"):
            main(["artifact", "get", "nope", "--preset", "seed0-small"])

    def test_get_rejects_unknown_preset(self):
        with pytest.raises(SystemExit, match="unknown pinned config"):
            main(["artifact", "get", "table1", "--preset", "nope"])


class TestServeCommand:
    def test_rejects_bad_worker_count(self):
        with pytest.raises(SystemExit, match="--workers"):
            main(["serve", "--workers", "0"])

    def test_rejects_bad_queue_size(self):
        with pytest.raises(SystemExit, match="--queue-size"):
            main(["serve", "--queue-size", "0"])
