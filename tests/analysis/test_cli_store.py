"""CLI store wiring: --store/--no-store flags, summary fields, store subcommands."""

import io
import json
import os
import sqlite3

import pytest

from repro.cli import main


def run_cli(argv):
    stream = io.StringIO()
    code = main(argv, stream=stream)
    return code, stream.getvalue()


def summary_line(text, prefix):
    lines = [l for l in text.splitlines() if l.startswith(prefix + " ")]
    assert len(lines) == 1, f"expected one {prefix} line, got {len(lines)}"
    return json.loads(lines[0][len(prefix) + 1 :])


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "specs.json"
    path.write_text(
        json.dumps(
            [
                {
                    "graph": "random-grounded-tree",
                    "graph_params": {"num_internal": 8},
                    "protocol": "tree-broadcast",
                    "seed": seed,
                }
                for seed in range(3)
            ]
        )
    )
    return str(path)


class TestBatchStoreFlags:
    def test_cold_then_warm(self, tmp_path, spec_file):
        store = str(tmp_path / "store")
        code, text = run_cli(["batch", spec_file, "--serial", "--store", store])
        assert code == 0
        cold = summary_line(text, "BATCH_SUMMARY")
        assert cold["store"] == os.path.abspath(store)
        assert cold["store_hits"] == 0 and cold["store_misses"] == 3
        assert cold["store_hit_rate"] == 0.0

        code, text = run_cli(["batch", spec_file, "--serial", "--store", store])
        warm = summary_line(text, "BATCH_SUMMARY")
        assert warm["executed"] == 0
        assert warm["store_hits"] == 3 and warm["store_hit_rate"] == 1.0

    def test_no_store_escape_hatch(self, tmp_path, spec_file, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        code, text = run_cli(["batch", spec_file, "--serial", "--no-store"])
        summary = summary_line(text, "BATCH_SUMMARY")
        assert summary["store"] is None
        assert summary["store_hit_rate"] is None
        assert not (tmp_path / "store").exists()

    def test_env_var_attaches_store(self, tmp_path, spec_file, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        code, text = run_cli(["batch", spec_file, "--serial"])
        summary = summary_line(text, "BATCH_SUMMARY")
        assert summary["store"] == str(tmp_path / "store")
        assert summary["store_misses"] == 3


class TestExperimentStoreFlags:
    def test_warm_experiment_all_hits(self, tmp_path):
        store = str(tmp_path / "store")
        args = ["experiment", "e01", "--quick", "--serial", "--store", store]
        code, text = run_cli(args + ["--out", str(tmp_path / "a")])
        cold = summary_line(text, "EXPERIMENT_SUMMARY")
        assert cold["store_misses"] == cold["total_specs"] > 0

        # fresh artifact dir: only the store can serve it
        code, text = run_cli(args + ["--out", str(tmp_path / "b")])
        warm = summary_line(text, "EXPERIMENT_SUMMARY")
        assert warm["executed"] == 0
        assert warm["store_hit_rate"] == 1.0
        assert warm["store_hits"] == warm["total_specs"]
        assert cold["rows_cached"] == 0 and warm["rows_cached"] == 1
        assert cold["store_write_errors"] == warm["store_write_errors"] == 0

    def test_code_version_override_misses_row_cache(self, tmp_path, monkeypatch):
        store = str(tmp_path / "store")
        args = ["experiment", "e01", "--quick", "--serial", "--store", store]
        run_cli(args)
        monkeypatch.setenv("REPRO_STORE_CODE_VERSION", "other")
        code, text = run_cli(args)
        summary = summary_line(text, "EXPERIMENT_SUMMARY")
        assert summary["rows_cached"] == 0
        assert summary["executed"] == summary["total_specs"] > 0


class TestRunSpecStore:
    def test_single_spec_served_from_store(self, tmp_path):
        spec_path = tmp_path / "one.json"
        spec_path.write_text(
            json.dumps(
                {
                    "graph": "random-grounded-tree",
                    "graph_params": {"num_internal": 8},
                    "protocol": "tree-broadcast",
                    "seed": 5,
                }
            )
        )
        store = str(tmp_path / "store")
        code, text_cold = run_cli(["run", "--spec", str(spec_path), "--store", store])
        assert code == 0 and "served from store" not in text_cold
        code, text_warm = run_cli(["run", "--spec", str(spec_path), "--store", store])
        assert code == 0 and "(served from store)" in text_warm

        def record_json(text):
            start = text.index("{")
            return json.loads(text[start:])

        assert record_json(text_warm) == record_json(text_cold)


class TestStoreSubcommands:
    @pytest.fixture()
    def populated(self, tmp_path, spec_file):
        store = str(tmp_path / "store")
        run_cli(["batch", spec_file, "--serial", "--store", store])
        return store

    def test_stats(self, populated):
        code, text = run_cli(["store", "stats", "--store", populated])
        assert code == 0
        stats = json.loads(text[: text.rindex("}") + 1])
        assert stats["records"] == 3

    def test_ls(self, populated):
        code, text = run_cli(["store", "ls", "--store", populated])
        assert code == 0
        assert "3 record(s)" in text
        code, text = run_cli(["store", "ls", "--store", populated, "--limit", "1"])
        assert "2 more" in text

    def test_ls_negative_limit_is_rejected(self, populated):
        with pytest.raises(SystemExit) as exc:
            run_cli(["store", "ls", "--store", populated, "--limit", "-1"])
        assert exc.value.code != 0
        assert "--limit must be >= 0" in str(exc.value.code)
        assert "\n" not in str(exc.value.code)

    @pytest.mark.parametrize("days", ["-1", "nan", "inf", "-inf"])
    def test_gc_rejects_bad_keep_days(self, populated, days):
        with pytest.raises(SystemExit) as exc:
            run_cli(["store", "gc", "--store", populated, f"--keep-days={days}"])
        assert exc.value.code != 0
        assert "keep_days must be a finite number >= 0" in str(exc.value.code)
        assert "\n" not in str(exc.value.code)
        code, text = run_cli(["store", "stats", "--store", populated])
        assert json.loads(text[: text.rindex("}") + 1])["records"] == 3

    def test_stats_counts_row_entries_by_code_version(self, tmp_path):
        from repro.store import ResultStore

        store = str(tmp_path / "store")
        run_cli(["experiment", "e01", "--quick", "--serial", "--store", store])
        code, text = run_cli(["store", "stats", "--store", store])
        stats = json.loads(text[: text.rindex("}") + 1])
        version = ResultStore(store).code_version
        assert stats["row_entries"] == 1
        assert stats["row_entries_by_code_version"] == {version: 1}

    def test_verify_clean(self, populated):
        code, text = run_cli(["store", "verify", "--store", populated])
        assert code == 0
        assert "is clean" in text

    def test_verify_detects_corruption(self, populated):
        conn = sqlite3.connect(os.path.join(populated, "index.sqlite"))
        with conn:
            conn.execute(
                "UPDATE records SET payload = replace(payload, '\"seed\":0', '\"seed\":9')"
            )
        conn.close()
        code, text = run_cli(["store", "verify", "--store", populated])
        assert code == 1
        assert "corruption detected" in text
        run_cli(["store", "gc", "--store", populated])
        code, text = run_cli(["store", "verify", "--store", populated])
        assert code == 0 and "is clean (2 records)" in text

    def test_gc(self, populated):
        code, text = run_cli(["store", "gc", "--store", populated])
        assert code == 0
        assert "removed 0 record(s)" in text
        code, text = run_cli(
            ["store", "gc", "--store", populated, "--keep-days", "0"]
        )
        assert code == 0
        assert "removed 3 record(s)" in text


class TestStoreErrors:
    def test_store_command_without_root(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        with pytest.raises(SystemExit) as excinfo:
            main(["store", "stats"], stream=io.StringIO())
        message = excinfo.value.code
        assert isinstance(message, str) and "no result store" in message
        assert "\n" not in message

    def test_ls_rejects_non_hex_prefix(self, tmp_path):
        store = str(tmp_path / "store")
        run_cli(["store", "stats", "--store", store])  # creates the store
        with pytest.raises(SystemExit) as excinfo:
            main(["store", "ls", "zz!", "--store", store], stream=io.StringIO())
        assert isinstance(excinfo.value.code, str)


class TestGarbageIndex:
    """An ``index.sqlite`` that is not a database is the whole store gone
    bad: every command that opens it is a one-line exit, no traceback."""

    @pytest.fixture()
    def garbage(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        (root / "index.sqlite").write_text("garbage\n")
        return str(root)

    @pytest.mark.parametrize(
        "argv",
        [
            ["store", "stats"],
            ["store", "verify"],
            ["experiment", "e01", "--quick", "--serial"],
            ["serve", "--port", "0", "--serial"],
        ],
        ids=["stats", "verify", "experiment", "serve"],
    )
    def test_one_line_exit(self, garbage, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--store", garbage], stream=io.StringIO())
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith("cannot open result store:")
        assert "file is not a database" in message
