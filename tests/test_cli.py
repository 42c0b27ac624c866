"""Tests for the cats command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core.persistence import save_cats


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory, trained_cats):
    path = tmp_path_factory.mktemp("cli_model")
    save_cats(trained_cats, path)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_args(self):
        args = build_parser().parse_args(
            ["train", "/tmp/m", "--scale", "0.01"]
        )
        assert args.scale == 0.01
        assert args.cv_workers is None

    def test_unknown_platform_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["crawl", "/tmp/d", "--platform", "amazon"]
            )


class TestCrawlCommand:
    def test_crawl_writes_dataset(self, tmp_path, capsys):
        out = tmp_path / "crawl"
        rc = main(
            [
                "crawl",
                str(out),
                "--scale",
                "0.0002",
                "--seed",
                "3",
            ]
        )
        assert rc == 0
        assert (out / "comments.jsonl").exists()
        payload = json.loads(capsys.readouterr().out)
        assert payload["collected"]["items"] > 0


class TestDetectCommand:
    def test_detect_on_crawled_data(self, tmp_path, model_dir, capsys):
        crawl_dir = tmp_path / "crawl"
        main(["crawl", str(crawl_dir), "--scale", "0.0002", "--seed", "4"])
        capsys.readouterr()
        rc = main(["detect", str(model_dir), str(crawl_dir)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert "n_reported" in payload
        assert payload["n_items"] > 0

    def test_detect_output_file(self, tmp_path, model_dir, capsys):
        crawl_dir = tmp_path / "crawl"
        main(["crawl", str(crawl_dir), "--scale", "0.0002", "--seed", "5"])
        out_file = tmp_path / "report.json"
        main(
            [
                "detect",
                str(model_dir),
                str(crawl_dir),
                "--output",
                str(out_file),
            ]
        )
        payload = json.loads(out_file.read_text())
        assert "reported" in payload

    def test_detect_missing_data(self, tmp_path, model_dir):
        with pytest.raises(SystemExit):
            main(["detect", str(model_dir), str(tmp_path / "empty")])


class TestAnalyzeCommand:
    def test_analyze_then_detect_matches_live_detect(
        self, tmp_path, model_dir, capsys
    ):
        crawl_dir = tmp_path / "crawl"
        main(["crawl", str(crawl_dir), "--scale", "0.0002", "--seed", "6"])
        capsys.readouterr()
        store_dir = tmp_path / "columnar"
        rc = main(
            ["analyze", str(model_dir), str(crawl_dir), str(store_dir)]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["analyzed"] > 0
        assert payload["generation"] == 1
        assert (store_dir / "store.json").exists()
        # Detection from the store must match live detection exactly.
        main(["detect", str(model_dir), str(crawl_dir)])
        live = json.loads(capsys.readouterr().out)
        rc = main(
            [
                "detect",
                str(model_dir),
                str(crawl_dir),
                "--store",
                str(store_dir),
            ]
        )
        assert rc == 0
        stored = json.loads(capsys.readouterr().out)
        assert stored == live

    def test_analyze_workers_store_identical_to_serial(
        self, tmp_path, model_dir, capsys
    ):
        import numpy as np

        from repro import parallel
        from repro.core.columnar import ColumnarCommentStore

        crawl_dir = tmp_path / "crawl"
        main(["crawl", str(crawl_dir), "--scale", "0.0002", "--seed", "9"])
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        main(
            [
                "analyze", str(model_dir), str(crawl_dir),
                str(serial_dir), "--workers", "1",
            ]
        )
        rc = main(
            [
                "analyze", str(model_dir), str(crawl_dir),
                str(parallel_dir), "--workers", "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        summary = json.loads(out[-1])
        # The summary reports what ran: 2 chunks on at most 2 CPUs.
        assert summary["workers"] == min(2, parallel.usable_cpus())
        assert summary["fallbacks"] == 0
        serial = ColumnarCommentStore.load(serial_dir)
        parallel = ColumnarCommentStore.load(parallel_dir)
        assert np.array_equal(
            np.asarray(serial.tokens()), np.asarray(parallel.tokens())
        )
        assert np.array_equal(
            np.asarray(serial.offsets()), np.asarray(parallel.offsets())
        )
        assert (
            serial.interner.export_state()["words"]
            == parallel.interner.export_state()["words"]
        )

    def test_detect_rejects_stale_store(self, tmp_path, model_dir, capsys):
        first = tmp_path / "first"
        second = tmp_path / "second"
        main(["crawl", str(first), "--scale", "0.0002", "--seed", "7"])
        main(["crawl", str(second), "--scale", "0.0005", "--seed", "8"])
        store_dir = tmp_path / "columnar"
        main(["analyze", str(model_dir), str(first), str(store_dir)])
        capsys.readouterr()
        with pytest.raises(SystemExit, match="re-run `cats analyze`"):
            main(
                [
                    "detect",
                    str(model_dir),
                    str(second),
                    "--store",
                    str(store_dir),
                ]
            )

    def test_analyze_missing_comments(self, tmp_path, model_dir):
        with pytest.raises(SystemExit):
            main(
                [
                    "analyze",
                    str(model_dir),
                    str(tmp_path / "nowhere"),
                    str(tmp_path / "columnar"),
                ]
            )

    def test_cluster_serve_rejects_columnar_store(self, model_dir, tmp_path):
        with pytest.raises(SystemExit, match="per-process"):
            main(
                [
                    "serve",
                    str(model_dir),
                    "--shards",
                    "2",
                    "--columnar-store",
                    str(tmp_path / "columnar"),
                ]
            )


class TestEvaluateCommand:
    def test_evaluate_prints_table(self, model_dir, capsys):
        rc = main(
            ["evaluate", str(model_dir), "--scale", "0.0005", "--seed", "9"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Precision" in out
        assert "overall fraud items" in out


@pytest.fixture(scope="module")
def registry_dir(tmp_path_factory, model_dir):
    """A registry with the CLI model registered twice; v1 promoted."""
    root = tmp_path_factory.mktemp("cli_registry")
    main(["models", "register", str(root), str(model_dir), "--note", "v1"])
    main(["models", "register", str(root), str(model_dir), "--parent", "1"])
    main(["models", "promote", str(root), "1"])
    return root


class TestModelsCommand:
    def test_list(self, registry_dir, capsys):
        rc = main(["models", "list", str(registry_dir)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["champion"] == 1
        assert [v["version"] for v in payload["versions"]] == [1, 2]
        assert payload["versions"][0]["status"] == "champion"

    def test_show(self, registry_dir, capsys):
        rc = main(["models", "show", str(registry_dir), "2"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 2
        assert payload["parent"] == 1
        assert len(payload["content_hash"]) == 64
        assert payload["feature_schema"]

    def test_show_unknown_version_exits(self, registry_dir):
        with pytest.raises(SystemExit):
            main(["models", "show", str(registry_dir), "42"])

    def test_promote_swaps(self, registry_dir, capsys):
        main(["models", "promote", str(registry_dir), "2"])
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"promoted": 2, "previous": 1}
        main(["models", "promote", str(registry_dir), "1"])
        capsys.readouterr()

    def test_register_non_archive_exits(self, registry_dir, tmp_path):
        with pytest.raises(SystemExit):
            main(["models", "register", str(registry_dir), str(tmp_path)])


class TestReplayCommand:
    @pytest.fixture(scope="class")
    def recording(self, tmp_path_factory, trained_cats, taobao_platform):
        from repro.mlops import TrafficRecorder
        from tests.serving.conftest import interleaved_feed

        path = tmp_path_factory.mktemp("cli_rec") / "traffic.jsonl"
        recorder = TrafficRecorder(path)
        recorder.record(interleaved_feed(taobao_platform, n_items=10))
        recorder.close()
        return path

    def test_single_model_replay(self, model_dir, recording, capsys):
        rc = main(["replay", str(model_dir), str(recording)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_items"] > 0
        assert "flagged" in payload

    def test_registry_champion_replay(self, registry_dir, recording, capsys):
        rc = main(["replay", str(registry_dir), str(recording)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"]["version"] == 1

    def test_challenger_comparison(self, registry_dir, recording, capsys):
        rc = main(
            [
                "replay", str(registry_dir), str(recording),
                "--challenger-version", "2", "--top", "3",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        # v1 and v2 are byte-identical archives: zero disagreement.
        assert payload["comparison"]["flipped_verdicts"] == 0
        assert payload["comparison"]["max_abs_delta"] == 0.0
        assert payload["challenger"]["model"]["version"] == 2

    def test_missing_recording_exits(self, model_dir, tmp_path):
        with pytest.raises(SystemExit):
            main(["replay", str(model_dir), str(tmp_path / "no.jsonl")])

    def test_version_on_plain_dir_exits(self, model_dir, recording):
        with pytest.raises(SystemExit):
            main(
                ["replay", str(model_dir), str(recording), "--version", "1"]
            )
