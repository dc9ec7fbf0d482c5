"""Golden tests for the ``python -m repro`` workbench CLI.

Every subcommand runs in-process (``repro.cli.main``) against the
``barbell``/``atp`` suite graphs in a tmpdir; manifests are schema-
checked; and the headline reproducibility guarantee is pinned: ``ncp``
output is byte-identical for ``--workers 2`` vs ``--workers 1``, and a
replay from the manifest's recorded ``replay_argv`` reproduces
``candidates.csv`` byte for byte — including through an exported
external edge-list file instead of the suite name.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.cli.manifest import (
    MANIFEST_NAME,
    MANIFEST_SCHEMA,
    check_manifest,
    load_manifest,
)
from repro.cli.specs import (
    parse_dynamics_list,
    parse_dynamics_spec,
    parse_executor_spec,
)
from repro.datasets import UnknownGraphError, load_any_graph, load_graph
from repro.dynamics import HeatKernel, LazyWalk, PPR, UnknownDynamicsError
from repro.exceptions import InvalidParameterError
from repro.graph.io import write_edge_list
from repro.ncp.runner import graph_fingerprint

# Small-but-real workloads: barbell is instant, atp is the Figure 1
# reference (kept tiny via the seed count).
NCP_ARGS = ["--dynamics", "ppr:alpha=0.1,eps=1e-3", "--num-seeds", "4",
            "--seed", "0"]


def run_cli(*argv):
    return main(list(argv))


class TestDatasets:
    def test_listing_covers_every_suite_graph(self, capsys):
        assert run_cli("datasets") == 0
        out = capsys.readouterr().out
        for name in ("atp", "barbell", "whiskered", "roach"):
            assert name in out

    def test_markdown_listing_is_a_table(self, capsys):
        assert run_cli("datasets", "--markdown") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("| name |")
        assert set(lines[1].replace(" ", "")) <= set("|-:")
        assert all(line.startswith("|") for line in lines)

    def test_describe(self, capsys):
        assert run_cli("datasets", "--describe", "barbell") == 0
        out = capsys.readouterr().out
        assert "planted cut" in out

    def test_export_roundtrips_and_writes_manifest(self, tmp_path, capsys):
        out = tmp_path / "barbell.tsv"
        assert run_cli("datasets", "--export", "barbell",
                       "--out", str(out)) == 0
        exported = load_any_graph(out)
        reference = load_graph("barbell")
        assert graph_fingerprint(exported) == graph_fingerprint(reference)
        # Named after the exported file, so it can never clobber another
        # run's manifest.json in a shared directory.
        manifest = load_manifest(tmp_path / "barbell.tsv.manifest.json")
        assert manifest["command"] == "datasets"
        assert manifest["graph"]["kind"] == "suite"
        assert not (tmp_path / "manifest.json").exists()


class TestManifestSchema:
    def test_every_manifest_writing_subcommand(self, tmp_path, capsys):
        jobs = {
            "ncp": ["ncp", "--graph", "barbell", *NCP_ARGS],
            "cluster": ["cluster", "--graph", "barbell", "--seeds", "0",
                        "--dynamics", "ppr:alpha=0.1,eps=1e-3"],
        }
        for name, argv in jobs.items():
            out = tmp_path / name
            assert run_cli(*argv, "--out", str(out)) == 0, name
            manifest = load_manifest(out)  # check_manifest inside
            assert manifest["schema"] == MANIFEST_SCHEMA
            assert manifest["command"] == name
            assert manifest["graph"]["fingerprint"] == graph_fingerprint(
                load_graph("barbell")
            )
            assert manifest["wall_seconds"] >= 0
            assert manifest["replay_argv"][0] == name
            for output in manifest["outputs"]:
                assert (out / output).is_file(), (name, output)

    def test_check_manifest_rejects_foreign_documents(self):
        with pytest.raises(InvalidParameterError):
            check_manifest({"schema": MANIFEST_SCHEMA})
        with pytest.raises(InvalidParameterError):
            check_manifest([1, 2, 3])


class TestNCPReproducibility:
    @pytest.mark.parametrize("graph", ["barbell", "atp"])
    def test_workers_2_is_byte_identical_to_workers_1(self, graph,
                                                      tmp_path, capsys):
        for workers, name in (("1", "w1"), ("2", "w2")):
            assert run_cli("ncp", "--graph", graph, *NCP_ARGS,
                           "--workers", workers,
                           "--out", str(tmp_path / name)) == 0
        one = (tmp_path / "w1" / "candidates.csv").read_bytes()
        two = (tmp_path / "w2" / "candidates.csv").read_bytes()
        assert one == two
        assert len(one) > 0

    def test_manifest_replay_reproduces_candidates(self, tmp_path, capsys):
        first = tmp_path / "first"
        assert run_cli("ncp", "--graph", "barbell", *NCP_ARGS,
                       "--out", str(first)) == 0
        manifest = load_manifest(first)
        replay = tmp_path / "replay"
        assert run_cli(*manifest["replay_argv"], "--workers", "2",
                       "--out", str(replay)) == 0
        assert (first / "candidates.csv").read_bytes() == \
            (replay / "candidates.csv").read_bytes()

    def test_external_edge_list_end_to_end(self, tmp_path, capsys):
        # A non-suite graph file goes through the whole pipeline and
        # produces the same ensemble as the suite graph it was dumped
        # from (identical CSR bytes -> identical fingerprint).
        edges = tmp_path / "external.tsv"
        write_edge_list(load_graph("barbell"), edges)
        by_file = tmp_path / "by_file"
        by_name = tmp_path / "by_name"
        assert run_cli("ncp", "--graph", str(edges), *NCP_ARGS,
                       "--out", str(by_file)) == 0
        assert run_cli("ncp", "--graph", "barbell", *NCP_ARGS,
                       "--out", str(by_name)) == 0
        assert (by_file / "candidates.csv").read_bytes() == \
            (by_name / "candidates.csv").read_bytes()
        manifest = load_manifest(by_file)
        assert manifest["graph"]["kind"] == "file"
        assert manifest["graph"]["fingerprint"] == graph_fingerprint(
            load_graph("barbell")
        )

    def test_csv_has_expected_shape(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("ncp", "--graph", "barbell", *NCP_ARGS,
                       "--out", str(out)) == 0
        lines = (out / "candidates.csv").read_text().splitlines()
        assert lines[0] == "dynamics,method,size,conductance,nodes"
        dynamics, method, size, phi, nodes = lines[1].split(",")
        assert dynamics == "ppr" and method == "spectral"
        assert int(size) == len(nodes.split())
        assert 0.0 <= float(phi) <= 1.0
        manifest = load_manifest(out)
        run_record = manifest["runs"][0]
        assert run_record["dynamics"] == "ppr"
        assert run_record["grid"]["params"]["alphas"] == [0.1]
        assert run_record["grid"]["epsilons"] == [1e-3]
        assert len(run_record["seed_nodes"]) == 4
        assert run_record["num_candidates"] == len(lines) - 1


class TestExecutorAndResume:
    """The ``--executor`` flag and crash-then-resume via ``--resume``."""

    def test_every_builtin_executor_is_byte_identical(self, tmp_path,
                                                      capsys):
        outputs = {}
        for token, name in (
            ("serial", "serial"),
            ("process", "process"),
            ("chaos:seed=3,kills=2,delay_seconds=0", "chaos"),
        ):
            assert run_cli("ncp", "--graph", "barbell", *NCP_ARGS,
                           "--executor", token, "--workers", "2",
                           "--out", str(tmp_path / name)) == 0
            outputs[name] = (
                tmp_path / name / "candidates.csv"
            ).read_bytes()
        assert outputs["serial"] == outputs["process"] == outputs["chaos"]
        assert len(outputs["serial"]) > 0

    def test_manifest_records_executor_and_status(self, tmp_path, capsys):
        assert run_cli("ncp", "--graph", "barbell", *NCP_ARGS,
                       "--executor", "serial",
                       "--out", str(tmp_path)) == 0
        manifest = load_manifest(tmp_path)
        assert manifest["status"] == "complete"
        assert manifest["arguments"]["executor"] == "serial"
        assert manifest["runs"][0]["executor"]["name"] == "serial"
        assert {
            record["completed"] for record in manifest["runs"][0]["chunks"]
        } == {True}
        # A replayable executor is pinned in replay_argv ...
        argv = manifest["replay_argv"]
        assert argv[argv.index("--executor") + 1] == "serial"

    def test_chaos_executor_is_never_in_replay_argv(self, tmp_path,
                                                    capsys):
        assert run_cli("ncp", "--graph", "barbell", *NCP_ARGS,
                       "--executor", "chaos:seed=1,delay_seconds=0",
                       "--out", str(tmp_path)) == 0
        manifest = load_manifest(tmp_path)
        assert "--executor" not in manifest["replay_argv"]
        assert manifest["arguments"]["executor"].startswith("chaos:")

    @pytest.mark.parametrize("resume_workers", ["0", "2"])
    def test_crash_then_resume_is_byte_identical(self, tmp_path, capsys,
                                                 resume_workers):
        clean = tmp_path / "clean"
        assert run_cli("ncp", "--graph", "barbell", *NCP_ARGS,
                       "--out", str(clean)) == 0
        crashed = tmp_path / "crashed"
        cache = tmp_path / "cache"
        assert run_cli(
            "ncp", "--graph", "barbell", *NCP_ARGS,
            "--executor", "chaos:seed=5,kills=1,abort_after=1,"
                          "delay_seconds=0",
            "--cache-dir", str(cache), "--out", str(crashed),
        ) == 2
        manifest = load_manifest(crashed)
        assert manifest["status"] == "started"
        assert list(cache.glob("*.npz"))
        assert not (crashed / "candidates.csv").exists()
        assert run_cli("ncp", "--resume", str(crashed),
                       "--workers", resume_workers,
                       "--out", str(crashed)) == 0
        assert (crashed / "candidates.csv").read_bytes() == \
            (clean / "candidates.csv").read_bytes()
        resumed = load_manifest(crashed)
        assert resumed["status"] == "complete"
        assert resumed["runs"][0]["cache_hits"] >= 1

    def test_resume_replays_workload_not_execution_flags(self, tmp_path,
                                                         capsys):
        first = tmp_path / "first"
        assert run_cli("ncp", "--graph", "barbell", *NCP_ARGS,
                       "--cache-dir", str(tmp_path / "cache"),
                       "--out", str(first)) == 0
        second = tmp_path / "second"
        assert run_cli("ncp", "--resume", str(first),
                       "--out", str(second)) == 0
        assert (first / "candidates.csv").read_bytes() == \
            (second / "candidates.csv").read_bytes()
        # The workload arguments round-tripped through the manifest; the
        # resumed run found every chunk in the original cache.
        resumed = load_manifest(second)
        assert resumed["arguments"]["dynamics"] == \
            load_manifest(first)["arguments"]["dynamics"]
        assert resumed["runs"][0]["cache_hits"] == \
            resumed["runs"][0]["num_chunks"]

    @staticmethod
    def _record_backend(out, backend):
        """Rewrite a manifest as an older run recording ``backend``."""
        path = out / MANIFEST_NAME
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest["arguments"].pop("backend", None)
        if backend is not None:
            manifest["arguments"]["backend"] = backend
        path.write_text(json.dumps(manifest), encoding="utf-8")

    @pytest.mark.parametrize("backend", [None, "numpy"])
    def test_resume_accepts_a_numpy_or_absent_backend(self, tmp_path,
                                                      capsys, backend):
        first = tmp_path / "first"
        assert run_cli("ncp", "--graph", "barbell", *NCP_ARGS,
                       "--cache-dir", str(tmp_path / "cache"),
                       "--out", str(first)) == 0
        self._record_backend(first, backend)
        second = tmp_path / "second"
        assert run_cli("ncp", "--resume", str(first),
                       "--out", str(second)) == 0
        assert (first / "candidates.csv").read_bytes() == \
            (second / "candidates.csv").read_bytes()
        assert "backend" not in load_manifest(second)["arguments"]

    def test_resume_rejects_a_removed_backend(self, tmp_path, capsys):
        from repro.cli.ncp_cmd import _apply_resume_arguments

        first = tmp_path / "first"
        assert run_cli("ncp", "--graph", "barbell", *NCP_ARGS,
                       "--out", str(first)) == 0
        self._record_backend(first, "scalar")
        capsys.readouterr()
        assert run_cli("ncp", "--resume", str(first),
                       "--out", str(tmp_path / "second")) == 2
        assert "'scalar'" in capsys.readouterr().err
        assert not (tmp_path / "second").exists()
        arguments = load_manifest(first)["arguments"]
        args = build_parser().parse_args(["ncp", "--out", "x"])
        with pytest.raises(InvalidParameterError, match="'scalar'"):
            _apply_resume_arguments(args, arguments)

    def test_resume_and_graph_are_mutually_exclusive(self, tmp_path,
                                                     capsys):
        assert run_cli("ncp", "--graph", "barbell", "--resume", "x",
                       "--out", str(tmp_path)) == 2
        assert "not both" in capsys.readouterr().err

    def test_graph_or_resume_is_required(self, tmp_path, capsys):
        assert run_cli("ncp", "--out", str(tmp_path)) == 2
        assert "--graph or --resume" in capsys.readouterr().err

    def test_unknown_executor_is_a_usage_error(self, tmp_path, capsys):
        assert run_cli("ncp", "--graph", "barbell", *NCP_ARGS,
                       "--executor", "serail",
                       "--out", str(tmp_path)) == 2
        assert "did you mean 'serial'" in capsys.readouterr().err


class TestCluster:
    @pytest.mark.parametrize("spec", ["ppr:alpha=0.1,eps=1e-3", "hk",
                                      "nibble"])
    def test_cluster_runs_on_atp(self, spec, tmp_path, capsys):
        out = tmp_path / "cluster"
        assert run_cli("cluster", "--graph", "atp", "--seeds", "5",
                       "--dynamics", spec, "--out", str(out)) == 0
        record = json.loads((out / "cluster.json").read_text())
        assert record["size"] == len(record["nodes"])
        assert 0.0 <= record["conductance"] <= 1.0
        assert record["seed_nodes"] == [5]
        manifest = load_manifest(out)
        assert manifest["result"]["conductance"] == record["conductance"]

    def test_grid_valued_spec_is_rejected(self, capsys):
        # ppr with the default (three-point) alpha axis cannot drive a
        # local cluster when the axis comes from explicit params.
        assert run_cli("cluster", "--graph", "barbell", "--seeds", "0",
                       "--dynamics", "ppr:alpha=0.05/0.1/0.15") == 2
        assert "error:" in capsys.readouterr().err


class TestGraphErrors:
    def test_unknown_graph_error_type_and_suggestion(self):
        with pytest.raises(UnknownGraphError) as excinfo:
            load_graph("barbel")
        assert isinstance(excinfo.value, KeyError)
        assert isinstance(excinfo.value, ValueError)
        assert "did you mean 'barbell'" in str(excinfo.value)

    def test_missing_file_is_distinguished(self, tmp_path):
        with pytest.raises(UnknownGraphError) as excinfo:
            load_any_graph(tmp_path / "missing.tsv")
        assert "does not exist" in str(excinfo.value)

    def test_cli_routes_graph_errors(self, capsys):
        assert run_cli("ncp", "--graph", "barbel", "--dynamics", "ppr",
                       "--out", "unused") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "did you mean" in err

    def test_cli_routes_dynamics_errors(self, capsys):
        assert run_cli("ncp", "--graph", "barbell", "--dynamics", "nope",
                       "--out", "unused") == 2
        assert "unknown dynamics" in capsys.readouterr().err

    def test_disconnected_external_graph_warns_about_relabeling(
            self, tmp_path):
        edges = tmp_path / "shards.tsv"
        edges.write_text("0\t1\n2\t3\n3\t4\n", encoding="utf-8")
        with pytest.warns(UserWarning, match="relabeled"):
            graph = load_any_graph(edges)
        assert graph.num_nodes == 3  # the {2, 3, 4} component, compacted

    def test_datasets_mode_flags_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["datasets", "--describe", "atp", "--export", "barbell"])
        assert excinfo.value.code == 2

    def test_datasets_out_requires_export(self, capsys):
        assert run_cli("datasets", "--markdown", "--out", "table.md") == 2
        assert "--out only applies to --export" in capsys.readouterr().err


class TestSpecStrings:
    def test_bare_names_and_aliases(self):
        requests = parse_dynamics_list("ppr,heat_kernel,nibble")
        assert [r.key for r in requests] == ["ppr", "hk", "walk"]
        assert all(not r.params for r in requests)

    def test_params_and_epsilons(self):
        request = parse_dynamics_spec("ppr:alpha=0.1,eps=1e-4")
        assert request.spec() == PPR(alpha=0.1)
        assert request.epsilons == (1e-4,)
        grid = request.grid(num_seeds=3, seed=0)
        assert grid.resolved_epsilons() == (1e-4,)

    def test_axis_values_and_ints(self):
        request = parse_dynamics_spec("walk:steps=4/16,walk_alpha=0.7")
        assert request.spec() == LazyWalk(steps=(4, 16), walk_alpha=0.7)
        hk = parse_dynamics_spec("hk:t=5")
        assert hk.spec() == HeatKernel(t=5.0)

    def test_mixed_list_binds_params_to_preceding_spec(self):
        requests = parse_dynamics_list("ppr:alpha=0.1,eps=1e-4,hk:t=5,walk")
        assert [r.key for r in requests] == ["ppr", "hk", "walk"]
        assert requests[0].epsilons == (1e-4,)
        assert requests[1].spec() == HeatKernel(t=5.0)
        assert requests[2].epsilons is None

    def test_executor_specs(self):
        from repro.execution import Chaos, ProcessPool, Serial

        assert parse_executor_spec("serial") == Serial()
        assert parse_executor_spec("pool") == ProcessPool()
        chaos = parse_executor_spec(
            "chaos:seed=3,kills=2,abort_after=4"
        )
        assert chaos == Chaos(seed=3, kills=2, abort_after=4)
        # token() round-trips through the parser.
        assert parse_executor_spec(chaos.token()) == chaos

    def test_executor_spec_errors(self):
        with pytest.raises(InvalidParameterError,
                           match="exactly one executor"):
            parse_executor_spec("serial,process")
        with pytest.raises(InvalidParameterError,
                           match="unknown parameter"):
            parse_executor_spec("chaos:frobnicate=3")
        with pytest.raises(InvalidParameterError,
                           match="did you mean"):
            parse_executor_spec("serail")

    def test_errors(self):
        with pytest.raises(UnknownDynamicsError):
            parse_dynamics_list("frobnicate")
        with pytest.raises(InvalidParameterError):
            parse_dynamics_list("ppr:frob=1")
        with pytest.raises(InvalidParameterError):
            parse_dynamics_list("alpha=0.1")  # param before any name
        with pytest.raises(InvalidParameterError):
            parse_dynamics_list("")
        with pytest.raises(InvalidParameterError):
            parse_dynamics_spec("ppr,hk")  # cluster needs exactly one

    def test_local_spec_uses_registered_default_for_bare_name(self):
        graph = load_graph("barbell")
        request = parse_dynamics_spec("walk")
        local = request.local_spec(graph)
        assert len(local.steps) == 1  # a usable single point


class TestParserHygiene:
    def test_manifest_name_constant(self):
        assert MANIFEST_NAME == "manifest.json"

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", [
        ["ncp", "--graph", "barbell"],
        ["cluster", "--graph", "barbell", "--seeds", "0"],
    ])
    def test_backend_option_is_gone(self, command, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(command + ["--backend", "numpy", "--out", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_subparser_registry_is_complete(self):
        parser = build_parser()
        assert set(parser.repro_subparsers) == {
            "datasets", "ncp", "cluster", "lint"
        }
