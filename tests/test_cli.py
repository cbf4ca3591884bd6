"""Tests for the repro-er command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.experiments.datasets import load_dataset
from repro.graph.io import write_edge_list


@pytest.fixture()
def edge_list_file(tmp_path):
    graph = load_dataset("facebook-tiny")
    path = tmp_path / "graph.txt"
    write_edge_list(graph, path)
    return str(path)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_query_defaults(self):
        args = build_parser().parse_args(["query", "--dataset", "facebook-tiny", "0,1"])
        assert args.method == "geer"
        assert args.epsilon == 0.1


class TestDatasetsCommand:
    def test_lists_registry(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        assert "facebook-syn" in output
        assert "dblp-syn" in output


class TestQueryCommand:
    def test_query_on_registry_dataset(self, capsys):
        exit_code = main(
            ["query", "--dataset", "facebook-tiny", "--epsilon", "0.3", "--exact", "0,5", "3,17"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "effective resistance queries" in output
        assert "abs error" in output

    def test_query_on_edge_list(self, edge_list_file, capsys):
        exit_code = main(
            ["query", "--edge-list", edge_list_file, "--method", "smm", "1,2"]
        )
        assert exit_code == 0
        assert "smm" in capsys.readouterr().out

    def test_malformed_pair(self):
        with pytest.raises(SystemExit):
            main(["query", "--dataset", "facebook-tiny", "notapair"])

    def test_requires_exactly_one_graph_source(self, edge_list_file):
        with pytest.raises(SystemExit):
            main(["query", "0,1"])
        with pytest.raises(SystemExit):
            main(
                [
                    "query",
                    "--dataset",
                    "facebook-tiny",
                    "--edge-list",
                    edge_list_file,
                    "0,1",
                ]
            )


class TestMethodsCommand:
    def test_lists_full_registry(self, capsys):
        from repro.core.registry import available_methods

        assert main(["methods"]) == 0
        output = capsys.readouterr().out
        for name in available_methods():
            assert name in output

    def test_query_method_list_prints_registry(self, capsys):
        assert main(["query", "--method", "list"]) == 0
        output = capsys.readouterr().out
        assert "registered query methods" in output
        assert "geer" in output and "hay" in output

    def test_query_with_registered_baseline(self, capsys):
        exit_code = main(
            [
                "query",
                "--dataset",
                "facebook-tiny",
                "--method",
                "smm-peng",
                "--epsilon",
                "0.4",
                "1,2",
            ]
        )
        assert exit_code == 0
        assert "smm-peng" in capsys.readouterr().out

    def test_query_batch_flag(self, capsys):
        exit_code = main(
            [
                "query",
                "--dataset",
                "facebook-tiny",
                "--method",
                "geer",
                "--epsilon",
                "0.4",
                "--batch",
                "0,5",
                "3,17",
                "9,4",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "degree buckets" in output

    def test_query_batch_prints_session_stats(self, capsys):
        exit_code = main(
            [
                "query",
                "--dataset",
                "facebook-tiny",
                "--epsilon",
                "0.4",
                "--batch",
                "0,5",
                "3,17",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "session stats" in output
        assert "walk_steps" in output and "spmv_operations" in output

    def test_query_batch_workers_flag(self, capsys):
        exit_code = main(
            [
                "query",
                "--dataset",
                "facebook-tiny",
                "--method",
                "geer",
                "--epsilon",
                "0.4",
                "--batch",
                "--workers",
                "2",
                "0,5",
                "3,17",
                "9,4",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "workers=2" in output

    def test_query_without_pairs_errors(self):
        with pytest.raises(SystemExit):
            main(["query", "--dataset", "facebook-tiny"])

    def test_edge_method_on_non_edge_exits_cleanly(self):
        # (0, 1) is unlikely to matter: pick a pair that is certainly not an
        # edge by construction of the error path — SystemExit either way.
        from repro.experiments.datasets import load_dataset

        graph = load_dataset("facebook-tiny")
        non_edge = None
        for u in range(graph.num_nodes):
            for v in range(u + 1, graph.num_nodes):
                if not graph.has_edge(u, v):
                    non_edge = f"{u},{v}"
                    break
            if non_edge:
                break
        with pytest.raises(SystemExit):
            main(
                [
                    "query",
                    "--dataset",
                    "facebook-tiny",
                    "--method",
                    "mc2",
                    "--batch",
                    non_edge,
                ]
            )


class TestWarmCommand:
    def test_warm_writes_artifacts(self, tmp_path, capsys):
        artifacts = tmp_path / "artifacts"
        exit_code = main(
            [
                "warm",
                "--dataset",
                "facebook-tiny",
                "--artifacts",
                str(artifacts),
                "--landmarks",
                "4",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "lambda=" in output
        assert "4 landmarks" in output
        assert (artifacts / "manifest.json").is_file()
        assert (artifacts / "sketch.npz").is_file()

    def test_warm_no_sketch(self, tmp_path, capsys):
        artifacts = tmp_path / "artifacts"
        exit_code = main(
            [
                "warm",
                "--dataset",
                "facebook-tiny",
                "--artifacts",
                str(artifacts),
                "--no-sketch",
            ]
        )
        assert exit_code == 0
        assert (artifacts / "manifest.json").is_file()
        assert not (artifacts / "sketch.npz").exists()


class TestServeCommand:
    def test_serve_repeats_hit_the_cache(self, capsys):
        exit_code = main(
            [
                "serve",
                "--dataset",
                "facebook-tiny",
                "--epsilon",
                "0.3",
                "--repeat",
                "2",
                "0,5",
                "3,17",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "cold start" in output
        assert "cache" in output
        assert "service stats" in output and "session stats" in output

    def test_serve_warm_start_from_artifacts(self, tmp_path, capsys):
        artifacts = tmp_path / "artifacts"
        assert main(["warm", "--dataset", "facebook-tiny", "--artifacts", str(artifacts)]) == 0
        capsys.readouterr()
        exit_code = main(
            [
                "serve",
                "--dataset",
                "facebook-tiny",
                "--artifacts",
                str(artifacts),
                "0,5",
            ]
        )
        assert exit_code == 0
        assert "warm (artifacts) start" in capsys.readouterr().out

    def test_serve_cold_run_saves_artifacts(self, tmp_path, capsys):
        artifacts = tmp_path / "artifacts"
        exit_code = main(
            [
                "serve",
                "--dataset",
                "facebook-tiny",
                "--artifacts",
                str(artifacts),
                "0,5",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "next start will be warm" in output
        assert (artifacts / "manifest.json").is_file()

    def test_serve_without_pairs_errors(self):
        with pytest.raises(SystemExit):
            main(["serve", "--dataset", "facebook-tiny"])

    def test_serve_stale_artifacts_exit_cleanly(self, tmp_path, edge_list_file):
        # Artifacts built for facebook-tiny must be rejected for another graph
        # with a CLI error, not a traceback.
        artifacts = tmp_path / "artifacts"
        assert main(["warm", "--dataset", "facebook-tiny", "--artifacts", str(artifacts)]) == 0
        from repro.experiments.datasets import load_dataset
        from repro.graph.io import write_edge_list

        graph = load_dataset("facebook-tiny")
        other = tmp_path / "other.txt"
        write_edge_list(graph.remove_edges([next(graph.edges())]), other)
        with pytest.raises(SystemExit, match="different graph"):
            main(["serve", "--edge-list", str(other), "--artifacts", str(artifacts), "0,5"])

    def test_serve_truncated_sketch_exits_cleanly(self, tmp_path):
        # A torn sketch.npz is an artifact error naming the file, not a traceback.
        artifacts = tmp_path / "artifacts"
        assert main(["warm", "--dataset", "facebook-tiny", "--artifacts", str(artifacts)]) == 0
        sketch = artifacts / "sketch.npz"
        data = sketch.read_bytes()
        sketch.write_bytes(data[: len(data) // 2])
        with pytest.raises(SystemExit, match="sketch.npz"):
            main(["serve", "--dataset", "facebook-tiny", "--artifacts", str(artifacts), "0,40"])


class TestSweepCommand:
    def test_small_sweep(self, capsys):
        exit_code = main(
            [
                "sweep",
                "--dataset",
                "facebook-tiny",
                "--epsilons",
                "0.5",
                "--num-queries",
                "3",
                "--methods",
                "geer",
                "smm",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "geer" in output and "smm" in output


class TestDescribeGraphHelper:
    """The shared loader/summary helper behind query / warm / serve / update."""

    def test_describe_unweighted(self):
        from repro.cli import describe_graph
        from repro.graph import barabasi_albert_graph

        graph = barabasi_albert_graph(50, 2, rng=1)
        line = describe_graph(graph, "ba-50")
        assert line.startswith("graph ba-50: n=50, m=")
        assert "weighted" not in line

    def test_describe_weighted(self):
        from repro.cli import describe_graph
        from repro.graph import barabasi_albert_graph, with_random_weights

        graph = with_random_weights(barabasi_albert_graph(50, 2, rng=1), rng=2)
        line = describe_graph(graph, "ba-50w")
        assert f"weighted (W={graph.total_weight:.2f})" in line

    def test_load_graph_announce_prints_once(self, edge_list_file, capsys):
        import argparse

        from repro.cli import _load_graph, describe_graph

        args = argparse.Namespace(dataset=None, edge_list=edge_list_file)
        graph, label = _load_graph(args, announce=True)
        out = capsys.readouterr().out
        assert out.strip() == describe_graph(graph, label)
        _load_graph(args)  # announce defaults off: silent
        assert capsys.readouterr().out == ""

    def test_every_graph_subcommand_prints_the_shared_banner(self, tmp_path, capsys):
        artifacts = tmp_path / "art"
        for argv in (
            ["query", "--dataset", "facebook-tiny", "--method", "smm", "0,1"],
            ["warm", "--dataset", "facebook-tiny", "--artifacts", str(artifacts)],
            ["serve", "--dataset", "facebook-tiny", "--artifacts", str(artifacts), "0,1"],
        ):
            assert main(argv) == 0
            assert "graph facebook-tiny: n=" in capsys.readouterr().out


class TestParseDeltaFile:
    def test_parses_all_op_kinds(self):
        from repro.cli import parse_delta_file

        delta = parse_delta_file(
            """
            # comment line
            add 1 2
            add 3 4 2.5
            remove 5 6
            reweight 7 8 0.5   # trailing comment
            """
        )
        assert delta.inserts == ((1, 2, None), (3, 4, 2.5))
        assert delta.removals == ((5, 6),)
        assert delta.reweights == ((7, 8, 0.5),)

    def test_rejects_malformed_lines(self):
        from repro.cli import parse_delta_file

        with pytest.raises(SystemExit, match="line 1"):
            parse_delta_file("frobnicate 1 2")
        with pytest.raises(SystemExit, match="line 1"):
            parse_delta_file("add 1")


class TestUpdateCommand:
    def test_update_warm_artifacts(self, tmp_path, capsys):
        artifacts = tmp_path / "art"
        assert main(
            ["warm", "--dataset", "facebook-tiny", "--artifacts", str(artifacts)]
        ) == 0
        capsys.readouterr()
        exit_code = main(
            [
                "update",
                "--dataset",
                "facebook-tiny",
                "--artifacts",
                str(artifacts),
                "--add",
                "0,37",
                "--remove",
                "0,1",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "warm (artifacts) start" in output
        assert "applied update" in output
        assert "epoch 1" in output
        # the delta log was persisted for replay loading
        from repro.service.artifacts import load_delta_log

        log = load_delta_log(artifacts)
        assert len(log) == 1
        assert log[0].inserts == ((0, 37, None),)
        assert log[0].removals == ((0, 1),)
        # serving from the BASE graph now replays the log and starts warm
        assert main(
            ["serve", "--dataset", "facebook-tiny", "--artifacts", str(artifacts), "2,9"]
        ) == 0
        assert "warm (artifacts) start" in capsys.readouterr().out

    def test_update_delta_file(self, tmp_path, capsys):
        artifacts = tmp_path / "art"
        delta_file = tmp_path / "ops.txt"
        delta_file.write_text("add 0 37\nremove 0 1\n")
        exit_code = main(
            [
                "update",
                "--dataset",
                "facebook-tiny",
                "--artifacts",
                str(artifacts),
                "--delta-file",
                str(delta_file),
            ]
        )
        assert exit_code == 0
        assert "applied update" in capsys.readouterr().out

    def test_update_without_operations_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="edge operation"):
            main(
                [
                    "update",
                    "--dataset",
                    "facebook-tiny",
                    "--artifacts",
                    str(tmp_path / "art"),
                ]
            )

    def test_update_conflicting_delta_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="non-existent"):
            main(
                [
                    "update",
                    "--dataset",
                    "facebook-tiny",
                    "--artifacts",
                    str(tmp_path / "art"),
                    "--remove",
                    "0,37",  # not an edge of facebook-tiny
                ]
            )
