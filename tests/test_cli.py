"""Tests for the repro-partition command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "ok.bin"
    code = main(
        ["generate", "--dataset", "OK", "--scale", "0.02", "--out", str(path)]
    )
    assert code == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["generate", "--dataset", "XX", "--out", "f"]
            )

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["partition", "--input", "f", "--algorithm", "XX", "--k", "4"]
            )

    def test_rejects_backend_numpy(self, capsys):
        """The numpy backend is gone: its vectorized ops run in the
        ``python`` reference."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["partition", "--input", "f", "--k", "4", "--backend=numpy"]
            )
        assert "invalid choice" in capsys.readouterr().err

    def test_rejects_a_non_integer_chunk_size(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["partition", "--input", "f", "--k", "4", "--chunk-size=auto"]
            )
        assert "invalid int value" in capsys.readouterr().err


class TestGenerate:
    def test_writes_binary_file(self, graph_file):
        assert graph_file.exists()
        assert graph_file.stat().st_size % 8 == 0

    def test_output_message(self, graph_file, capsys):
        pass  # covered by fixture's exit-code assertion


class TestPartition:
    def test_basic_run(self, graph_file, capsys):
        code = main(
            ["partition", "--input", str(graph_file), "--k", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "replication factor" in out
        assert "2PS-L" in out

    def test_alternative_algorithm(self, graph_file, capsys):
        code = main(
            [
                "partition",
                "--input",
                str(graph_file),
                "--algorithm",
                "DBH",
                "--k",
                "8",
            ]
        )
        assert code == 0
        assert "DBH" in capsys.readouterr().out

    def test_writes_assignments(self, graph_file, tmp_path, capsys):
        out = tmp_path / "assign.bin"
        code = main(
            [
                "partition",
                "--input",
                str(graph_file),
                "--k",
                "4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assignments = np.fromfile(out, dtype="<i4")
        assert assignments.shape[0] == graph_file.stat().st_size // 8
        assert assignments.min() >= 0
        assert assignments.max() < 4

    def test_device_reported(self, graph_file, capsys):
        code = main(
            [
                "partition",
                "--input",
                str(graph_file),
                "--k",
                "4",
                "--device",
                "hdd",
            ]
        )
        assert code == 0
        assert "hdd" in capsys.readouterr().out

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_non_positive_chunk_size_is_clean_error(self, graph_file, size, capsys):
        code = main(
            [
                "partition",
                "--input",
                str(graph_file),
                "--k",
                "4",
                f"--chunk-size={size}",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"chunk_size must be a positive int, got {size}" in err

    def test_missing_file_is_clean_error(self, tmp_path, capsys):
        code = main(
            ["partition", "--input", str(tmp_path / "nope.bin"), "--k", "4"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_simulated_runner_flag(self, graph_file, capsys):
        code = main(
            [
                "partition",
                "--input",
                str(graph_file),
                "--k",
                "4",
                "--runner",
                "simulated",
                "--n-workers",
                "3",
                "--sync-interval",
                "64",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2PS-L-parallel" in out
        assert "runner            : simulated" in out
        assert "modeled" in out

    def test_process_runner_flag(self, graph_file, capsys):
        code = main(
            [
                "partition",
                "--input",
                str(graph_file),
                "--k",
                "4",
                "--runner",
                "process",
                "--n-workers",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "runner            : process" in out
        assert "measured" in out

    def test_sync_interval_alone_activates_parallel_path(
        self, graph_file, capsys
    ):
        """--sync-interval must never be silently ignored."""
        code = main(
            [
                "partition",
                "--input",
                str(graph_file),
                "--k",
                "4",
                "--sync-interval",
                "128",
            ]
        )
        assert code == 0
        assert "2PS-L-parallel" in capsys.readouterr().out

    def test_parallel_phase1_flag(self, graph_file, capsys):
        """--parallel-phase1 alone activates the parallel path and runs
        the sharded Phase 1 (the phase-1 sync line proves it)."""
        code = main(
            [
                "partition",
                "--input",
                str(graph_file),
                "--k",
                "4",
                "--parallel-phase1",
                "--n-workers",
                "2",
                "--sync-interval",
                "64",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2PS-L-parallel" in out
        assert "phase-1 syncs" in out

    def test_parallel_phase1_requires_parallel_algorithm(
        self, graph_file, capsys
    ):
        code = main(
            [
                "partition",
                "--input",
                str(graph_file),
                "--k",
                "4",
                "--algorithm",
                "DBH",
                "--parallel-phase1",
            ]
        )
        assert code == 1
        assert "--parallel-phase1" in capsys.readouterr().err

    def test_runner_requires_parallel_algorithm(self, graph_file, capsys):
        code = main(
            [
                "partition",
                "--input",
                str(graph_file),
                "--k",
                "4",
                "--algorithm",
                "DBH",
                "--runner",
                "process",
            ]
        )
        assert code == 1
        assert "--runner" in capsys.readouterr().err


class TestDistributedCli:
    def test_distributed_runner_name_is_rejected(self, graph_file, capsys):
        """The process runner serves both local and ``host:port`` workers:
        there is no ``distributed`` runner to choose."""
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "partition",
                    "--input",
                    str(graph_file),
                    "--k",
                    "4",
                    "--runner",
                    "distributed",
                    "--n-workers",
                    "2",
                ]
            )
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'distributed'" in err
        assert "'process', 'serial', 'simulated'" in err

    def test_worker_subcommand_pairs_with_workers_flag(
        self, graph_file, capsys
    ):
        import re
        import threading

        from repro.cli import _cmd_worker

        addrs = []

        def serve():
            _cmd_worker(
                type(
                    "Args",
                    (),
                    {"host": "127.0.0.1", "port": 0, "max_sessions": 1},
                )
            )

        threads = [threading.Thread(target=serve) for _ in range(2)]
        for thread in threads:
            thread.start()
        deadline = 40
        while len(addrs) < 2 and deadline > 0:
            addrs = re.findall(
                r"worker listening on (\S+)", capsys.readouterr().out
            ) + addrs
            deadline -= 1
            if len(addrs) < 2:
                import time

                time.sleep(0.1)
        assert len(addrs) == 2, "workers never announced their ports"
        code = main(
            [
                "partition",
                "--input",
                str(graph_file),
                "--k",
                "4",
                "--workers",
                ",".join(addrs),
            ]
        )
        for thread in threads:
            thread.join(timeout=10)
        assert code == 0
        out = capsys.readouterr().out
        assert "runner            : process" in out
        assert not any(thread.is_alive() for thread in threads)

    @pytest.mark.parametrize("runner", ["serial", "simulated"])
    def test_workers_flag_rejects_other_runner(self, graph_file, capsys, runner):
        code = main(
            [
                "partition",
                "--input",
                str(graph_file),
                "--k",
                "4",
                "--runner",
                runner,
                "--workers",
                "127.0.0.1:9001",
            ]
        )
        assert code == 1
        assert (
            f"--workers applies to --runner process, not {runner!r}"
            in capsys.readouterr().err
        )

    def test_workers_flag_rejects_contradicting_count(
        self, graph_file, capsys
    ):
        """With or without ``--runner process``, which ``--workers``
        implies: the check runs before any connection is made."""
        for runner in ([], ["--runner", "process"]):
            code = main(
                [
                    "partition",
                    "--input",
                    str(graph_file),
                    "--k",
                    "4",
                    *runner,
                    "--n-workers",
                    "3",
                    "--workers",
                    "127.0.0.1:9001,127.0.0.1:9002",
                ]
            )
            assert code == 1
            assert "contradicts" in capsys.readouterr().err


class TestPartitionedOutput:
    def test_out_dir_and_process(self, graph_file, tmp_path, capsys):
        out_dir = tmp_path / "parts"
        code = main(
            [
                "partition",
                "--input",
                str(graph_file),
                "--k",
                "4",
                "--out-dir",
                str(out_dir),
            ]
        )
        assert code == 0
        assert (out_dir / "manifest.json").exists()
        assert len(list(out_dir.glob("partition_*.bin"))) == 4
        capsys.readouterr()

        code = main(
            [
                "process",
                "--dir",
                str(out_dir),
                "--workload",
                "pagerank",
                "--supersteps",
                "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "replication factor" in out
        assert "supersteps        : 5" in out

    def test_process_components(self, graph_file, tmp_path, capsys):
        out_dir = tmp_path / "parts"
        main(
            [
                "partition",
                "--input",
                str(graph_file),
                "--k",
                "2",
                "--out-dir",
                str(out_dir),
            ]
        )
        capsys.readouterr()
        code = main(
            ["process", "--dir", str(out_dir), "--workload", "components"]
        )
        assert code == 0
        assert "converged" in capsys.readouterr().out

    def test_process_missing_dir(self, tmp_path, capsys):
        code = main(["process", "--dir", str(tmp_path / "nope")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestServing:
    def test_pipeline_partition_export_lookup(
        self, graph_file, tmp_path, capsys
    ):
        """The full hand-off: partition --out -> serve-export -> lookup."""
        assign = tmp_path / "assign.bin"
        store = tmp_path / "store"
        code = main(
            [
                "partition", "--input", str(graph_file),
                "--k", "4", "--out", str(assign),
            ]
        )
        assert code == 0
        capsys.readouterr()
        code = main(
            [
                "serve-export", "--input", str(graph_file), "--k", "4",
                "--assignments", str(assign), "--store", str(store),
            ]
        )
        assert code == 0
        assert "store bytes" in capsys.readouterr().out
        code = main(
            [
                "lookup", "--store", str(store), "--vertex", "0", "3",
                "--hint", "2", "--edge", "0", "1", "--verify",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "checksums         : OK" in out
        assert "vertex 0 -> partition" in out
        assert "vertex 3 -> partition" in out
        assert "edge (0, 1) -> partition" in out

    def test_serve_export_partitions_inline(
        self, graph_file, tmp_path, capsys
    ):
        store = tmp_path / "store"
        code = main(
            [
                "serve-export", "--input", str(graph_file),
                "--k", "4", "--store", str(store),
            ]
        )
        assert code == 0
        assert (store / "manifest.json").exists()
        capsys.readouterr()
        code = main(["lookup", "--store", str(store), "--vertex", "1"])
        assert code == 0
        assert "vertex 1 -> partition" in capsys.readouterr().out

    def test_lookup_missing_store_is_clean_error(self, tmp_path, capsys):
        code = main(
            ["lookup", "--store", str(tmp_path / "nope"), "--vertex", "0"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestExperimentSubcommand:
    def test_delegates_to_dispatcher(self, capsys):
        code = main(["experiment", "figure3"])
        assert code == 0
        assert "Figure 3" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        code = main(["experiment", "figure99"])
        assert code == 2


class TestInfoAndList:
    def test_info(self, graph_file, capsys):
        code = main(["info", "--input", str(graph_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "edges" in out

    def test_list(self, capsys):
        code = main(["list"])
        assert code == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "2PS-L" in out
