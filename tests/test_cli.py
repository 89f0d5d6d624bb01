import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from bellrecycle import ConstraintViolation, audit, cli, optimizer
from bellrecycle.cli import build_parser, main

from oracles import AUDITS

ROOT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def schema():
    text = resources.files("bellrecycle").joinpath("results.schema.json").read_text()
    loaded = json.loads(text)
    jsonschema.Draft202012Validator.check_schema(loaded)
    return loaded


def validate(document, schema):
    jsonschema.Draft202012Validator(schema).validate(document)


def assert_fails(argv, code, capsys):
    """main(argv) returns `code` and prints exactly one `error:` line to stderr."""
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


class TestCurveCommand:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main([
            "curve", "--grid", "0.8,1.6", "--mode", "unbiased-singlet",
            "--budget", "12000", "--seed", "7", "--format", "csv", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "target_s,achieved_s,s_star,seed,evaluations,region1_closed,region3_curve"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 0.8
        assert abs(float(first[1]) - 0.8) <= 1e-4
        # s_star non-increasing along the grid
        assert float(lines[1].split(",")[2]) >= float(lines[2].split(",")[2]) - 1e-3

    def test_region_columns(self, tmp_path):
        out = tmp_path / "curve.csv"
        main([
            "curve", "--grid", "2.4", "--budget", "10000", "--seed", "1",
            "--format", "csv", "--out", str(out),
        ])
        row = out.read_text().splitlines()[1].split(",")
        assert row[5] == ""  # region1_closed undefined above 2
        assert float(row[6]) > 0

    def test_evaluations_within_budget(self, tmp_path):
        out = tmp_path / "curve.json"
        assert main([
            "curve", "--grid", "2.4", "--budget", "10000", "--format", "json",
            "--out", str(out),
        ]) == 0
        assert json.loads(out.read_text())["points"][0]["evaluations"] <= 10_000

    def test_json_output_validates(self, tmp_path, schema):
        out = tmp_path / "curve.json"
        code = main([
            "curve", "--grid", "1.2", "--budget", "10000", "--seed", "3",
            "--format", "json", "--out", str(out),
        ])
        assert code == 0
        document = json.loads(out.read_text())
        validate(document, schema)
        assert document["points"][0]["region1_closed"] is not None

    def test_grid_range_syntax_inclusive(self):
        from bellrecycle.cli import _parse_grid

        assert _parse_grid("0:2.8:0.7") == pytest.approx([0.0, 0.7, 1.4, 2.1, 2.8])
        assert _parse_grid("0.5,1.0,1.5") == pytest.approx([0.5, 1.0, 1.5])
        assert _parse_grid("2.0:2.8:0.4") == pytest.approx([2.0, 2.4, 2.8])

    def test_range_grid_points_are_their_decimal_values(self):
        assert cli._parse_grid("0:2.8:0.4") == [0.0, 0.4, 0.8, 1.2, 1.6, 2.0, 2.4, 2.8]
        assert cli._parse_grid("0:1:0.3") == [0.0, 0.3, 0.6, 0.9]
        assert cli._parse_grid("1:0:0.1") == []

    @pytest.mark.parametrize("spec", ["a:1:0.1", "0:inf:0.1", "0:1:nan", "0:1e40:1e-40"])
    def test_bad_range_grid_is_a_value_error(self, spec):
        with pytest.raises(ValueError):
            cli._parse_grid(spec)

    def test_printed_range_target_reruns_its_row(self, tmp_path):
        # 2.2 + 0.1 in floats is 2.3000000000000003, which prints as 2.3 but
        # optimised another target than a rerun at the printed 2.3
        argv = ["curve", "--budget", "10000", "--seed", "3", "--format", "csv"]
        out = tmp_path / "range.csv"
        assert main(argv + ["--grid", "2.2:2.3:0.1", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 2
        for row in rows:
            assert main(argv + ["--grid", row.split(",")[0], "--out", str(out)]) == 0
            assert out.read_text().splitlines()[1:] == [row]

    def test_rerun_is_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            main([
                "curve", "--grid", "1.0", "--budget", "10000", "--seed", "5",
                "--format", "csv", "--out", str(path),
            ])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["curve", "--grid", "", "--budget", "10000"],
            ["curve", "--grid", "1.0", "--budget", "100"],
            ["curve", "--grid", "3.5", "--budget", "10000"],
            ["curve", "--grid", "0:1:0", "--budget", "10000"],
            ["curve", "--grid", "1.0", "--budget", "10000", "--threads", "0"],
        ],
    )
    def test_invalid_configs_exit_2(self, argv):
        assert main(argv) == 2

    def test_negative_seed_named_exit_2(self, capsys):
        line = assert_fails(["curve", "--grid", "1.0", "--budget", "10000", "--seed", "-1"], 2,
                            capsys)
        assert line == "error: seed must be non-negative, got -1"

    def test_two_part_range_grid_named_exit_2(self, capsys):
        line = assert_fails(["curve", "--grid", "0:1", "--budget", "10000"], 2, capsys)
        assert line == "error: range grid must be start:stop:step, got '0:1'"

    def test_thread_count_preserves_output(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        argv = ["curve", "--grid", "0.6,1.1", "--budget", "10000", "--seed", "2",
                "--format", "csv"]
        assert main(argv + ["--threads", "1", "--out", str(a)]) == 0
        assert main(argv + ["--threads", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_mode_choices_match_library_and_schema(self, schema):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        choices = next(a.choices for a in sub.choices["curve"]._actions if a.dest == "mode")
        enum = schema["$defs"]["boundaryCurve"]["properties"]["mode"]["enum"]
        assert set(choices) == set(optimizer._MODES) == set(enum)


class TestAuditCommand:
    def test_small_audit_passes(self, tmp_path, schema):
        out = tmp_path / "audit.json"
        code = main(["audit", "--samples", "3000", "--seed", "1", "--out", str(out)])
        assert code == 0
        document = json.loads(out.read_text())
        validate(document, schema)
        names = {entry["name"] for entry in document["audits"]}
        assert names == {"orthogonal-monogamy", "equal-strength-monogamy", "tradeoff-chain", "conjecture"}
        for entry in document["audits"]:
            assert entry["violations"] == 0
            assert entry["worst_margin"] >= -1e-9
            assert entry["worst_margin"] < 1e-6  # saturating configs included

    def test_names_match_schema(self, schema):
        enum = schema["$defs"]["auditEntry"]["properties"]["name"]["enum"]
        names = [r.name for r in audit.run_all_audits(samples=1, seed=0)]
        assert sorted(names) == sorted(enum) == sorted(d.name for d in AUDITS)

    def test_zero_samples_exit_2(self):
        assert main(["audit", "--samples", "0"]) == 2

    @pytest.mark.parametrize("seed", ["-1", "-500"])
    def test_negative_seed_named_exit_2(self, seed, capsys):
        line = assert_fails(["audit", "--samples", "2000", "--seed", seed], 2, capsys)
        assert line == f"error: seed must be non-negative, got {seed}"

    def test_violation_exit_4(self, tmp_path, monkeypatch, capsys, schema):
        # the report is still written whole, and each violated audit gets one
        # stderr line
        reports = audit.run_all_audits(samples=1, seed=0)
        bad = dataclasses.replace(reports[0], worst_margin=-0.25, violations=3)
        monkeypatch.setattr(cli, "run_all_audits", lambda samples, seed: [bad, *reports[1:]])
        out = tmp_path / "audit.json"
        capsys.readouterr()
        assert main(["audit", "--samples", "1", "--out", str(out)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"violation in {bad.name}: worst margin -0.25 at {{")
        document = json.loads(out.read_text())
        validate(document, schema)
        assert [entry["violations"] for entry in document["audits"]] == [3, 0, 0, 0]

    def test_non_finite_output_exit_2(self, monkeypatch, capsys):
        # NaN and Infinity are not JSON, so no document is printed
        reports = audit.run_all_audits(samples=1, seed=0)
        nan = dataclasses.replace(reports[0], worst_margin=math.nan)
        monkeypatch.setattr(cli, "run_all_audits", lambda samples, seed: [nan, *reports[1:]])
        capsys.readouterr()
        assert main(["audit", "--samples", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            main(["audit", "--samples", "2000", "--seed", "9", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()


class TestMultibobCommand:
    def test_single_bob(self, tmp_path, schema):
        out = tmp_path / "mb.json"
        code = main(["multibob", "--n", "1", "--margin", "0.05", "--out", str(out)])
        assert code == 0
        document = json.loads(out.read_text())
        validate(document, schema)
        assert document["chsh_values"][0] == pytest.approx(2 * ROOT2, abs=1e-9)
        assert document["p_min"] == pytest.approx(1 / ROOT2, abs=1e-9)
        assert document["verification"]["all_above_2"] is True

    def test_two_bobs_csv(self, tmp_path):
        out = tmp_path / "mb.csv"
        code = main(["multibob", "--n", "2", "--margin", "0.05",
                     "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,strength,chsh_value,p_min"
        assert len(lines) == 3

    def test_three_bobs_exit_3(self, capsys):
        line = assert_fails(["multibob", "--n", "3", "--margin", "0.05"], 3, capsys)
        assert line.startswith("error: observer B3 cannot exceed the CHSH bound")

    def test_weak_diag_state_exit_3(self):
        code = main(["multibob", "--n", "2", "--margin", "0.05",
                     "--state", '{"T": "diag(0.5,0.5,0.5)"}'])
        assert code == 3

    def test_bad_params_exit_2(self):
        assert main(["multibob", "--n", "0"]) == 2
        assert main(["multibob", "--n", "1", "--margin", "-1"]) == 2
        assert main(["multibob", "--n", "1", "--state", '{"T": "oops"}']) == 2

    @pytest.mark.parametrize("margin", ["nan", "inf"])
    def test_non_finite_margin_exit_2(self, margin, capsys):
        capsys.readouterr()
        assert main(["multibob", "--n", "1", "--margin", margin]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: margin must be finite and positive, got {float(margin)}"]

    def test_non_finite_state_exit_2(self, capsys):
        state = '{"T": [[-1, 0, 0], [0, NaN, 0], [0, 0, -1]]}'
        line = assert_fails(["multibob", "--n", "2", "--state", state], 2, capsys)
        assert line == "error: T = [[-1.0, 0.0, 0.0], [0.0, nan, 0.0], [0.0, 0.0, -1.0]] has a non-finite entry"

    def test_non_contraction_state_exit_2(self, capsys):
        state = '{"T": [[2, 0, 0], [0, 2, 0], [0, 0, 2]]}'
        line = assert_fails(["multibob", "--n", "2", "--state", state], 2, capsys)
        assert line == "error: largest singular value of T = 2.0 exceeds 1"

    @pytest.mark.parametrize("state", ["[1]", "null", '{"T": {"x": 1}}'])
    def test_state_not_an_object_exit_2(self, state):
        assert main(["multibob", "--n", "2", "--state", state]) == 2


class TestScenarioCommand:
    CONFIG = {
        "state": "singlet",
        "alice": [
            {"strength": 1.0, "direction": [1, 0, 0]},
            {"strength": 1.0, "direction": [0, 1, 0]},
        ],
        "bob": [
            {"strength": 1.0, "direction": [-0.7071067811865475, -0.7071067811865475, 0]},
            {"strength": 1.0, "direction": [-0.7071067811865475, 0.7071067811865475, 0]},
        ],
        "kind": "square-root",
    }

    def test_inline_config(self, tmp_path, schema):
        out = tmp_path / "scenario.json"
        code = main(["scenario", "--config", json.dumps(self.CONFIG), "--out", str(out)])
        assert code == 0
        document = json.loads(out.read_text())
        validate(document, schema)
        assert document["s_first"] == pytest.approx(2 * ROOT2, abs=1e-9)
        assert document["s_star_second"] == pytest.approx(1 / ROOT2, abs=1e-9)

    def test_alice_within_tolerance_of_constraint(self):
        # strength + |bias| = 1 + 9e-13, inside make_observable's tolerance
        alice = [{"bias": 0.3, "strength": 0.7 + 9e-13, "direction": [0, 0, 1]},
                 self.CONFIG["alice"][1]]
        assert main(["scenario", "--config", json.dumps(dict(self.CONFIG, alice=alice))]) == 0

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(self.CONFIG))
        assert main(["scenario", "--config", str(cfg), "--out", str(tmp_path / "o.json")]) == 0

    def test_explicit_state_payload(self, tmp_path):
        config = dict(self.CONFIG)
        config["state"] = {
            "a": [0, 0, 0],
            "b": [0, 0, 0],
            "T": [[-1, 0, 0], [0, -1, 0], [0, 0, -1]],
        }
        out = tmp_path / "o.json"
        assert main(["scenario", "--config", json.dumps(config), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["s_first"] == pytest.approx(2 * ROOT2, abs=1e-9)

    def test_bad_config_exit_2(self):
        assert main(["scenario", "--config", '{"alice": []}']) == 2

    @pytest.mark.parametrize("change, message", [
        ({"alice": None}, "config has no 'alice' field"),
        ({"bob": None}, "config has no 'bob' field"),
        ({"state": {"a": [0, 0, 0], "b": [0, 0, 0]}}, "state has no 'T' field"),
        ({"alice": [{"direction": [1, 0, 0]}, CONFIG["alice"][1]]},
         "an observable of alice has no 'strength' field"),
        ({"bob": [CONFIG["bob"][0], {"strength": 1.0}]},
         "an observable of bob has no 'direction' field"),
        ({"alice": CONFIG["alice"][:1]}, "alice must list exactly two observables"),
        ({"bob": CONFIG["bob"] * 2}, "bob must list exactly two observables"),
        ({"alice": {"first": CONFIG["alice"][0]}}, "alice must list exactly two observables"),
    ], ids=["no-alice", "no-bob", "no-T", "no-strength", "no-direction", "one-observable",
            "four-observables", "not-a-list"])
    def test_missing_field_named_exit_2(self, change, message, capsys):
        config = {k: v for k, v in dict(self.CONFIG, **change).items() if v is not None}
        assert assert_fails(["scenario", "--config", json.dumps(config)], 2, capsys) == f"error: {message}"

    @pytest.mark.parametrize("change, message", [
        ({"strength": "x"}, "the strength of an observable of alice must be a number, got 'x'"),
        ({"strength": [1]}, "the strength of an observable of alice must be a number, got [1]"),
        ({"strength": "0.5"}, "the strength of an observable of alice must be a number, got '0.5'"),
        ({"bias": None}, "the bias of an observable of alice must be a number, got None"),
        ({"direction": [1, 0]},
         "the direction of an observable of alice must be three numbers, got [1, 0]"),
        ({"direction": [1, "0", 0]},
         "the direction of an observable of alice must be three numbers, got [1, '0', 0]"),
    ], ids=["strength-text", "strength-list", "strength-numeral", "bias-null", "direction-short",
            "direction-numeral"])
    def test_malformed_observable_field_named_exit_2(self, change, message, capsys):
        alice = [dict(self.CONFIG["alice"][0], **change), self.CONFIG["alice"][1]]
        config = json.dumps(dict(self.CONFIG, alice=alice))
        assert assert_fails(["scenario", "--config", config], 2, capsys) == f"error: {message}"

    @pytest.mark.parametrize("quality", ["0.5", [0.5], {"q": 0.5}], ids=["numeral", "list", "object"])
    def test_malformed_quality_named_exit_2(self, quality, capsys):
        settings = [{"strength": 0.6, "direction": [1, 0, 0]},
                    {"strength": 0.6, "direction": [0, 1, 0]}]
        config = json.dumps(dict(self.CONFIG, alice=settings, bob=settings, kind="weak-pointer",
                                 quality=quality))
        assert (assert_fails(["scenario", "--config", config], 2, capsys)
                == f"error: quality must be a number, got {quality!r}")

    @pytest.mark.parametrize("config, message", [
        ({"state": [1], "alice": [], "bob": []}, "state must be a JSON object"),
        (dict(CONFIG, alice=[1, 2]), "an observable of alice must be a JSON object"),
        ([1], "config must be a JSON object"),
    ], ids=["state", "observable", "config"])
    def test_part_not_an_object_is_a_constraint_violation(self, tmp_path, config, message):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        with pytest.raises(ConstraintViolation, match=f"^{message}$"):
            cli.cmd_scenario(argparse.Namespace(config=str(cfg), out=None))

    @pytest.mark.parametrize("config", [
        {"state": [1], "alice": [], "bob": []},
        dict(CONFIG, alice=[1, 2]),
    ], ids=["state", "observable"])
    def test_part_not_an_object_exit_2(self, config):
        assert main(["scenario", "--config", json.dumps(config)]) == 2

    @pytest.mark.parametrize("content", [None, "[1]"], ids=["missing", "array"])
    def test_bad_config_file_exit_2(self, tmp_path, content):
        cfg = tmp_path / "config.json"
        if content is not None:
            cfg.write_text(content)
        assert main(["scenario", "--config", str(cfg)]) == 2

    def test_measurement_kind_variants(self, tmp_path):
        weak = dict(self.CONFIG)
        weak["alice"] = [
            {"strength": 0.6, "direction": [1, 0, 0]},
            {"strength": 0.6, "direction": [0, 1, 0]},
        ]
        weak["bob"] = weak["alice"]
        out = tmp_path / "o.json"

        weak["kind"] = "simple-model"
        assert main(["scenario", "--config", json.dumps(weak), "--out", str(out)]) == 0
        simple = json.loads(out.read_text())["s_star_second"]

        weak["kind"] = "weak-pointer"
        weak["quality"] = 0.8  # the maximum reversibility of strength 0.6
        assert main(["scenario", "--config", json.dumps(weak), "--out", str(out)]) == 0
        pointer = json.loads(out.read_text())["s_star_second"]

        weak["kind"] = "square-root"
        del weak["quality"]
        assert main(["scenario", "--config", json.dumps(weak), "--out", str(out)]) == 0
        sqrt_val = json.loads(out.read_text())["s_star_second"]

        # less reversible models leave less downstream nonlocality
        assert simple < pointer
        assert pointer == pytest.approx(sqrt_val, abs=1e-9)

    @pytest.mark.parametrize("direction", [[math.nan, 0, 1], [math.inf, 0, 0]], ids=["nan", "inf"])
    def test_non_finite_direction_exit_2(self, direction, capsys):
        alice = [{"strength": 0.5, "direction": direction}, self.CONFIG["alice"][1]]
        config = json.dumps(dict(self.CONFIG, alice=alice))
        assert "finite" in assert_fails(["scenario", "--config", config], 2, capsys)

    @pytest.mark.parametrize("direction", [[1, 2], "abc", [math.nan, 0, 0]],
                             ids=["short", "text", "nan"])
    def test_bad_direction_at_zero_strength_exit_2(self, direction, capsys):
        alice = [{"strength": 0, "direction": direction}, self.CONFIG["alice"][1]]
        config = json.dumps(dict(self.CONFIG, alice=alice))
        assert_fails(["scenario", "--config", config], 2, capsys)

    def test_non_finite_state_exit_2(self, capsys):
        # Python's json reads NaN; the state's check names the entry
        state = {"a": [math.nan, 0, 0], "b": [0, 0, 0], "T": [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]}
        config = json.dumps(dict(self.CONFIG, state=state))
        line = assert_fails(["scenario", "--config", config], 2, capsys)
        assert line == "error: a = [nan, 0.0, 0.0] has a non-finite entry"

    def test_unknown_measurement_kind_named_exit_2(self, capsys):
        config = json.dumps(dict(self.CONFIG, kind="foo"))
        line = assert_fails(["scenario", "--config", config], 2, capsys)
        assert line == "error: unknown measurement kind 'foo'"

    def test_weak_pointer_requires_quality(self):
        config = dict(self.CONFIG)
        config["kind"] = "weak-pointer"
        assert main(["scenario", "--config", json.dumps(config)]) == 2

    @pytest.mark.parametrize("kind, quality, alice_bias, message", [
        # strength 0.6 has reversibility R = 0.8
        ("weak-pointer", 0.9, 0.0, "exceeds reversibility"),
        ("weak-pointer", 0.5, 0.2, "unbiased observables only"),
        ("square-root", 0.5, 0.0, "quality is set iff"),
    ], ids=["quality-above-reversibility", "biased-weak-pointer", "quality-without-weak-pointer"])
    def test_rejected_measurement_kind_exit_2(self, kind, quality, alice_bias, message, capsys):
        settings = [{"strength": 0.6, "direction": [1, 0, 0]},
                    {"strength": 0.6, "direction": [0, 1, 0]}]
        config = dict(self.CONFIG, alice=[dict(settings[0], bias=alice_bias), settings[1]],
                      bob=settings, kind=kind, quality=quality)
        assert message in assert_fails(["scenario", "--config", json.dumps(config)], 2, capsys)


class TestStateDocuments:
    """multibob --state and scenario's state read one document alike."""

    @pytest.mark.parametrize("state, message", [
        ('{"T": [[1, 2], [3, 4]]}', "T must be a 3x3 matrix of numbers, got [[1, 2], [3, 4]]"),
        ('{"T": "diag(1,1,1)", "a": null}', "a must be three numbers, got None"),
        ('{"T": {"x": 1}}', "T must be a 3x3 matrix of numbers, got {'x': 1}"),
        ('{"T": "diag(1,x,1)"}', "unsupported T shorthand 'diag(1,x,1)'"),
        ('{"T": "diag(1,1,1)", "a": [2, 0, 0]}', "|a| = 2.0 exceeds 1"),
        ('{"T": "diag(1,1,1)", "a": [NaN, 0, 0]}', "a = [nan, 0.0, 0.0] has a non-finite entry"),
        ('{"T": "diag(1,1,1)", "b": [0, Infinity, 0]}',
         "b = [0.0, inf, 0.0] has a non-finite entry"),
        ('{"T": "diag(1,1,1)", "a": [0, 0, -Infinity]}',
         "a = [0.0, 0.0, -inf] has a non-finite entry"),
        ('{"T": "diag(1,1,1)", "b": [NaN, 0, 0]}', "b = [nan, 0.0, 0.0] has a non-finite entry"),
    ], ids=["T-2x2", "a-null", "T-object", "diag-word", "long-a", "nan-a", "inf-b", "minus-inf-a",
            "nan-b"])
    def test_both_commands_name_a_malformed_state(self, state, message, capsys):
        config = json.dumps(dict(TestScenarioCommand.CONFIG, state=json.loads(state)))
        lines = [assert_fails(["multibob", "--n", "2", "--state", state], 2, capsys),
                 assert_fails(["scenario", "--config", config], 2, capsys)]
        assert lines == [f"error: {message}"] * 2


class TestFailureBoundary:
    ARGV = {
        "curve": ["curve", "--grid", "1.0", "--budget", "10000"],
        "audit": ["audit", "--samples", "10"],
        "multibob": ["multibob", "--n", "2"],
        "scenario": ["scenario", "--config", json.dumps(TestScenarioCommand.CONFIG)],
    }

    @pytest.mark.parametrize("command", list(ARGV))
    def test_out_in_missing_directory_exit_2(self, command, tmp_path, capsys):
        out = tmp_path / "missing" / "result"
        line = assert_fails(self.ARGV[command] + ["--out", str(out)], 2, capsys)
        assert "does not exist" in line
        assert not out.parent.exists()

    def test_out_directory_checked_before_the_optimizer(self, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise AssertionError("boundary_curve ran before --out was checked")

        monkeypatch.setattr(cli, "boundary_curve", boom)
        argv = self.ARGV["curve"] + ["--out", str(tmp_path / "missing" / "c.csv")]
        assert_fails(argv, 2, capsys)

    def test_out_in_current_directory_accepted(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(self.ARGV["multibob"] + ["--out", "mb.json"]) == 0
        assert json.loads((tmp_path / "mb.json").read_text())["n_bobs"] == 2

    def test_process_exit_status_and_stderr(self):
        # through the real process boundary, as a shell user runs it
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        setting = {"strength": 0.6, "direction": [1, 0, 0]}
        config = dict(TestScenarioCommand.CONFIG, alice=[setting] * 2, bob=[setting] * 2,
                      kind="weak-pointer", quality=0.9)
        proc = subprocess.run(
            [sys.executable, "-m", "bellrecycle.cli", "scenario", "--config", json.dumps(config)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
