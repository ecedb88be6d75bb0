"""Tests for the ``repro`` command-line interface."""

import json

import pytest

from repro.cli import EXAMPLES, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for argv in (
            ["demo"],
            ["check", "triangle"],
            ["info"],
            ["batch", "--count", "3"],
            ["store", "stats", "--store", "x.sqlite"],
            ["bench", "--smoke"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.handler)


class TestDemo:
    def test_demo_prints_both_examples(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "Example 1 (all databases): nonempty" in out
        assert "Example 2 (HOM template): empty" in out
        assert "witness database" in out


class TestCheck:
    def test_check_triangle(self, capsys):
        assert main(["check", "triangle"]) == 0
        out = capsys.readouterr().out
        assert "triangle: nonempty" in out
        assert "configurations_explored" in out

    def test_check_json_statistics(self, capsys):
        assert main(["check", "self-loop", "--json", "--strategy", "dfs"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out.split("\n", 1)[1])
        assert payload["strategy"] == "dfs"
        assert payload["configurations_explored"] >= 1

    def test_check_unknown_example_rejected(self):
        with pytest.raises(SystemExit):
            main(["check", "not-an-example"])

    def test_examples_registry_is_consistent(self):
        for name, (system_builder, theory_builder) in EXAMPLES.items():
            system = system_builder()
            theory = theory_builder()
            assert system.schema.is_subschema_of(theory.schema), name


class TestInfo:
    def test_info_text(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert "search strategies: bfs, dfs, priority" in out

    def test_info_json(self, capsys):
        assert main(["info", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["strategies"] == ["bfs", "dfs", "priority"]
        assert "cache_stats" in payload


class TestBatch:
    def test_batch_without_store(self, capsys):
        assert main(["batch", "--count", "5", "--seed", "9"]) == 0
        out = capsys.readouterr().out
        assert "batch: 5 jobs" in out
        assert "cache hits: 0, executed: 5" in out

    def test_batch_json_report(self, capsys):
        assert (
            main(["batch", "--count", "4", "--seed", "9", "--json"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["jobs"] == 4
        assert payload["seed"] == 9
        assert len(payload["results"]) == 4

    def test_batch_store_warm_rerun(self, tmp_path, capsys):
        db = str(tmp_path / "store.sqlite")
        argv = ["batch", "--count", "6", "--seed", "3", "--store", db]
        assert main(argv) == 0
        assert "cache hits: 0, executed: 6" in capsys.readouterr().out
        assert main(argv) == 0
        assert "cache hits: 6, executed: 0" in capsys.readouterr().out

    def test_batch_unknown_family(self, capsys):
        assert main(["batch", "--count", "2", "--families", "bogus"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_batch_bad_worker_count_is_a_clean_error(self, capsys):
        assert main(["batch", "--count", "2", "--workers", "0"]) == 2
        assert "workers" in capsys.readouterr().err


class TestStore:
    def _populate(self, db):
        assert main(["batch", "--count", "4", "--seed", "1", "--store", db]) == 0

    def test_stats(self, tmp_path, capsys):
        db = str(tmp_path / "s.sqlite")
        self._populate(db)
        capsys.readouterr()
        assert main(["store", "stats", "--store", db]) == 0
        out = capsys.readouterr().out
        assert "4 results" in out

    def test_export_stdout_and_file(self, tmp_path, capsys):
        db = str(tmp_path / "s.sqlite")
        self._populate(db)
        capsys.readouterr()
        assert main(["store", "export", "--store", db]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 4
        out_file = tmp_path / "dump.json"
        assert main(["store", "export", "--store", db, "--output", str(out_file)]) == 0
        assert json.loads(out_file.read_text())["count"] == 4

    def test_clear(self, tmp_path, capsys):
        db = str(tmp_path / "s.sqlite")
        self._populate(db)
        capsys.readouterr()
        assert main(["store", "clear", "--store", db]) == 0
        assert "removed 4 results" in capsys.readouterr().out
        assert main(["store", "stats", "--store", db]) == 0
        assert "0 results" in capsys.readouterr().out

    def test_missing_db_is_a_clear_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.sqlite"
        for action in ("stats", "export", "clear"):
            assert main(["store", action, "--store", str(missing)]) == 2
            assert "no result store" in capsys.readouterr().err
            # In particular `clear` must not have created an empty database.
            assert not missing.exists()


class TestBenchProfile:
    def test_profile_prints_hot_functions(self, capsys):
        assert main(["bench", "--smoke", "--profile", "stress_hom_deep"]) == 0
        out = capsys.readouterr().out
        assert "stress_hom_deep" in out
        assert "cumulative" in out  # pstats header

    def test_profile_unknown_workload_rejected(self, capsys):
        assert main(["bench", "--profile", "not-a-workload"]) == 2
        assert "not-a-workload" in capsys.readouterr().err


class TestTrace:
    def _traced_store(self, tmp_path, capsys):
        db = str(tmp_path / "traced.sqlite")
        assert main(["batch", "--count", "2", "--seed", "7", "--trace", "--store", db]) == 0
        out = capsys.readouterr().out
        assert "traces recorded" in out and "repro trace" in out
        from repro.service import ResultStore

        with ResultStore(db) as store:
            fingerprints = [entry["fingerprint"] for entry in store.export()["results"]]
        return db, fingerprints

    def test_batch_trace_then_export_chrome_json(self, tmp_path, capsys):
        db, fingerprints = self._traced_store(tmp_path, capsys)
        assert main(["trace", fingerprints[0], "--store", db]) == 0
        exported = json.loads(capsys.readouterr().out)
        assert exported["displayTimeUnit"] == "ms"
        events = exported["traceEvents"]
        assert events[0]["ph"] == "M"
        assert any(event["ph"] == "X" for event in events)

    def test_trace_output_file_and_raw(self, tmp_path, capsys):
        db, fingerprints = self._traced_store(tmp_path, capsys)
        out_file = tmp_path / "trace.json"
        assert main(["trace", fingerprints[0], "--store", db, "--output", str(out_file)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert json.loads(out_file.read_text())["traceEvents"]
        assert main(["trace", fingerprints[0], "--store", db, "--raw"]) == 0
        raw = json.loads(capsys.readouterr().out)
        assert raw["unit"] == "seconds" and raw["spans"]

    def test_trace_error_paths(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.sqlite")
        assert main(["trace", "0" * 64, "--store", missing]) == 2
        assert "no result store" in capsys.readouterr().err
        # A store with verdicts but no traces: clear remediation hint.
        db = str(tmp_path / "plain.sqlite")
        assert main(["batch", "--count", "1", "--seed", "7", "--store", db]) == 0
        capsys.readouterr()
        from repro.service import ResultStore

        with ResultStore(db) as store:
            fingerprint = store.export()["results"][0]["fingerprint"]
        assert main(["trace", "0" * 64, "--store", db]) == 2
        assert "no stored verdict" in capsys.readouterr().err
        assert main(["trace", fingerprint, "--store", db]) == 2
        assert "--trace" in capsys.readouterr().err


class TestStoreUrls:
    """URL-style `--store` addressing, shared by batch / serve / store / trace."""

    def test_batch_accepts_sqlite_url(self, tmp_path, capsys):
        db = tmp_path / "url.sqlite"
        assert main(["batch", "--count", "2", "--seed", "1", "--store", f"sqlite:{db}"]) == 0
        assert db.is_file()
        capsys.readouterr()
        assert main(["store", "stats", "--store", f"sqlite:{db}"]) == 0
        assert "2 results" in capsys.readouterr().out

    def test_db_flag_is_refused(self, tmp_path, capsys):
        # --db was removed in 2.0; argparse refuses it on every command.
        db = str(tmp_path / "alias.sqlite")
        for argv in (["store", "stats", "--db", db], ["trace", "0" * 64, "--db", db]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "unrecognized arguments: --db" in capsys.readouterr().err

    def test_store_and_trace_against_remote_keyspace(self, capsys):
        from repro.service import KeyspaceService, ServerThread

        with ServerThread(service=KeyspaceService("memory:")) as keyspace:
            assert (
                main(
                    [
                        "batch", "--count", "2", "--seed", "1",
                        "--trace", "--store", keyspace.base_url,
                    ]
                )
                == 0
            )
            capsys.readouterr()
            assert main(["store", "stats", "--store", keyspace.base_url]) == 0
            assert "2 results" in capsys.readouterr().out
            from repro.service.client import HTTPBackend

            backend = HTTPBackend(keyspace.base_url)
            fingerprint = backend.keys()[0]
            backend.close()
            assert main(["trace", fingerprint, "--store", keyspace.base_url]) == 0
            assert "traceEvents" in capsys.readouterr().out

    def test_store_actions_require_a_spec(self, capsys):
        assert main(["store", "stats"]) == 2
        assert "--store" in capsys.readouterr().err

    def test_store_serve_rejects_bad_policy(self, capsys):
        assert main(["store", "serve", "--ttl", "-1", "--port", "0"]) == 2
        assert "ttl" in capsys.readouterr().err.lower()


class TestServeRoles:
    def test_coordinator_requires_runners(self, capsys):
        assert main(["serve", "--role", "coordinator", "--port", "0"]) == 2
        assert "--runner" in capsys.readouterr().err

    def test_runner_flag_requires_coordinator_role(self, capsys):
        assert (
            main(["serve", "--runner", "http://127.0.0.1:1", "--port", "0"]) == 2
        )
        assert "coordinator" in capsys.readouterr().err

    def test_role_choices_are_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--role", "supervisor"])
