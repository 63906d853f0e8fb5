"""Tests for the command-line front end: flag handling, config layering,
exit codes, and output routing."""

import json

import pytest

from qnnbench.cli import build_parser, config_from_args, main


def parse(argv):
    return build_parser().parse_args(argv)


class TestConfigResolution:
    def test_defaults(self):
        config = config_from_args(parse(["gates"]))
        assert config.experiment == "gates"
        assert config.nets == ("rvnn", "cvnn", "qnn")
        assert config.seeds == (0,)
        assert config.output_format == "csv"

    def test_flags_select_nets_and_seeds(self):
        config = config_from_args(
            parse(["iris", "--nets", "qnn,cvnn", "--seeds", "3,1,4"])
        )
        assert config.nets == ("qnn", "cvnn")
        assert config.seeds == (3, 1, 4)

    def test_train_size_flag_reaches_the_config(self):
        assert config_from_args(parse(["iris"])).train_size is None
        assert config_from_args(parse(["iris", "--train-size", "30"])).train_size == 30
        config = config_from_args(parse(["entanglement", "--train-size", "12"]))
        assert config.train_size == 12

    def test_flag_values_reach_net_params(self):
        config = config_from_args(
            parse(
                [
                    "entanglement",
                    "--nets", "rvnn,qnn",
                    "--epochs", "77",
                    "--lr", "0.5",
                    "--slices", "3",
                    "--tf", "2.0",
                ]
            )
        )
        assert config.net_params["rvnn"] == {"max_epochs": 77, "learning_rate": 0.5}
        assert config.net_params["qnn"] == {
            "max_epochs": 77,
            "learning_rate": 0.5,
            "slices": 3,
            "t_f": 2.0,
        }

    @pytest.mark.parametrize(
        "flag,value,key,accepting",
        [
            ("--epochs", 7, "max_epochs", ("rvnn", "cvnn", "qnn")),
            ("--lr", 0.5, "learning_rate", ("rvnn", "qnn")),
            ("--hidden", 3, "hidden", ("rvnn", "cvnn")),
            ("--slices", 2, "slices", ("qnn",)),
            ("--tf", 2.0, "t_f", ("qnn",)),
        ],
        ids=["epochs", "lr", "hidden", "slices", "tf"],
    )
    def test_per_net_flag_reaches_only_the_nets_that_accept_it(
        self, flag, value, key, accepting
    ):
        from qnnbench.errors import ValidationError

        config = config_from_args(parse(["gates", flag, str(value)]))
        assert config.net_params == {net: {key: value} for net in accepting}
        others = [n for n in ("rvnn", "cvnn", "qnn") if n not in accepting]
        if others:
            argv = ["gates", "--nets", ",".join(others), flag, str(value)]
            with pytest.raises(ValidationError, match=" and ".join(accepting)):
                config_from_args(parse(argv))

    def test_unknown_net_is_reported_before_a_per_net_flag(self):
        from qnnbench.errors import ValidationError

        with pytest.raises(ValidationError, match="unknown net 'foo'"):
            config_from_args(parse(["gates", "--nets", "foo", "--lr", "2"]))

    def test_config_file_is_used_and_flags_override_it(self, tmp_path):
        payload = {
            "experiment": "iris",
            "nets": ["qnn"],
            "seeds": [5],
            "train_size": 30,
            "output_format": "markdown",
            "net_params": {"qnn": {"max_epochs": 10}},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        config = config_from_args(
            parse(["iris", "--config", str(path), "--seeds", "7"])
        )
        assert config.nets == ("qnn",)
        assert config.seeds == (7,)
        assert config.train_size == 30
        assert config.output_format == "markdown"
        assert config.net_params["qnn"]["max_epochs"] == 10

    def test_config_for_a_different_experiment_is_rejected(self, tmp_path):
        from qnnbench.errors import ValidationError

        path = tmp_path / "config.json"
        path.write_text('{"experiment": "gates"}', encoding="utf-8")
        with pytest.raises(ValidationError):
            config_from_args(parse(["iris", "--config", str(path)]))

    def test_unknown_config_key_is_named(self, tmp_path):
        from qnnbench.errors import ValidationError

        path = tmp_path / "config.json"
        path.write_text('{"seed": [3]}', encoding="utf-8")
        with pytest.raises(ValidationError, match="'seed'"):
            config_from_args(parse(["iris", "--config", str(path)]))


    def test_config_file_backtracking_must_be_a_bool(self, tmp_path):
        from qnnbench.errors import ValidationError

        path = tmp_path / "config.json"
        path.write_text(
            '{"net_params": {"qnn": {"backtracking": "yes"}}}', encoding="utf-8"
        )
        with pytest.raises(ValidationError):
            config_from_args(parse(["entanglement", "--config", str(path)]))
        path.write_text(
            '{"net_params": {"qnn": {"backtracking": false}}}', encoding="utf-8"
        )
        config = config_from_args(parse(["entanglement", "--config", str(path)]))
        assert config.resolved("qnn")["backtracking"] is False


class TestMain:
    def test_fast_run_prints_csv_and_exits_zero(self, capsys):
        code = main(
            ["entanglement", "--nets", "qnn", "--seeds", "1", "--epochs", "300"]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("experiment,net,seed")
        assert lines[1].startswith("entanglement:4,qnn,1")

    def test_non_convergence_still_exits_zero(self, capsys):
        code = main(
            ["entanglement", "--nets", "qnn", "--seeds", "1", "--epochs", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert ",false," in out

    def test_output_file_holds_the_report(self, tmp_path, capsys):
        target = tmp_path / "report.csv"
        code = main(
            [
                "entanglement",
                "--nets", "qnn",
                "--seeds", "1",
                "--epochs", "50",
                "--out", str(target),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert target.read_text(encoding="utf-8").startswith("experiment,net")

    def test_markdown_format(self, capsys):
        code = main(
            [
                "entanglement",
                "--nets", "qnn",
                "--seeds", "1",
                "--epochs", "50",
                "--format", "markdown",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("## entanglement:4")

    def test_parity_rvnn_rows_report_the_default_million_epochs(self, capsys):
        # The single-layer real net cycles on XOR and XNOR well before its
        # 1,000,000-epoch default budget; the rows still report all of it.
        code = main(["gates", "--nets", "rvnn", "--seeds", "0"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        columns = lines[0].split(",")
        rows = {}
        for line in lines[1:]:
            row = dict(zip(columns, line.split(",")))
            rows[row["experiment"]] = row
        for gate in ("gates:XOR", "gates:XNOR"):
            assert rows[gate]["epochs_used"] == "1000000"
            assert rows[gate]["converged"] == "false"

    def test_identical_invocations_emit_identical_bytes(self, capsys):
        argv = ["entanglement", "--nets", "qnn", "--seeds", "0,1", "--epochs", "40"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_bad_seed_list_exits_one(self, capsys):
        code = main(["gates", "--seeds", "1,x"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_repeated_seed_exits_one(self, capsys):
        code = main(
            ["entanglement", "--nets", "qnn", "--seeds", "1,1", "--epochs", "2"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_config_file_exits_one(self, capsys):
        code = main(["gates", "--config", "/nonexistent/config.json"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_broken_json_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code = main(["gates", "--config", str(path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [
            {"train_size": 4.5},
            {"train_size": True},
            {"net_params": {"qnn": {"max_epochs": "3"}}},
            {"seeds": 3},
            {"nets": 5},
            {"net_params": {"qnn": 3}},
            {"net_params": [1]},
            {"timing": "false"},
            {"iris_path": 2.5},
            {"iris_path": 0},
            {"nets": ["foo"]},
            {"net_params": {"qnn": {"learning_rate": 10**400}}},
            {"net_params": {"qnn": {"t_f": 10**400}}},
            ["entanglement"],
        ],
        ids=[
            "fractional-train-size",
            "bool-train-size",
            "string-max-epochs",
            "int-seeds",
            "int-nets",
            "int-net-params-entry",
            "list-net-params",
            "timing-is-an-unknown-key",
            "float-iris-path",
            "int-iris-path",
            "bad-value-overridden-by-a-flag",
            "learning-rate-too-large-for-a-float",
            "t-f-too-large-for-a-float",
            "json-array",
        ],
    )
    def test_mistyped_config_file_exits_one(self, tmp_path, capsys, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code = main(["entanglement", "--nets", "qnn", "--config", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err
        if isinstance(payload, list):
            assert "config file must hold a JSON object" in err

    def test_iris_path_outside_iris_exits_one(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"iris_path": "/nonexistent.csv"}), encoding="utf-8")
        code = main(["entanglement", "--nets", "qnn", "--config", str(path)])
        assert code == 1
        assert "error: iris_path applies to iris only" in capsys.readouterr().err

    def test_bad_iris_csv_exits_one(self, tmp_path, capsys):
        path = tmp_path / "iris.csv"
        path.write_text("5.1,3.5,1.4,0.2,unicorn\n", encoding="utf-8")
        code = main(
            ["iris", "--nets", "qnn", "--seeds", "0", "--iris-csv", str(path)]
        )
        assert code == 1
        assert "species" in capsys.readouterr().err

    @pytest.mark.parametrize("net", ["rvnn", "cvnn", "qnn"])
    def test_iris_csv_with_a_constant_feature_exits_one(self, tmp_path, capsys, net):
        # Every net stops at the same check, before any scaling divides by 0.
        from qnnbench.tasks import bundled_iris_path

        with open(bundled_iris_path(), encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        flat = [lines[0]] + ["5.0," + row.split(",", 1)[1] for row in lines[1:]]
        path = tmp_path / "iris.csv"
        path.write_text("\n".join(flat) + "\n", encoding="utf-8")
        code = main(["iris", "--nets", net, "--seeds", "0", "--iris-csv", str(path)])
        assert code == 1
        assert "feature sepal_length is 5 on every record" in capsys.readouterr().err

    def test_non_utf8_iris_csv_exits_one(self, tmp_path, capsys):
        path = tmp_path / "iris.csv"
        path.write_bytes(b"\xff5.1,3.5,1.4,0.2,setosa\n")
        code = main(
            ["iris", "--nets", "qnn", "--seeds", "0", "--iris-csv", str(path)]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err

    def test_non_utf8_config_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"seeds": [0], "nets": ["qnn\xff"]}')
        code = main(["entanglement", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["gates", "--definitely-not-a-flag"])
        assert err.value.code == 2

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2
