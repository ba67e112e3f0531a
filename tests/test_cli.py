import json
import random
from fractions import Fraction as F

import pytest

from windowcoupling import jsonio, streams
from windowcoupling.cli import main
from windowcoupling.engine import CouplingSampler, joint_support_size
from windowcoupling.skorohod import MetricSpaceModel


@pytest.fixture
def sequence_file(tmp_path, constant_sequence):
    path = tmp_path / "sequence.json"
    path.write_text(jsonio.canonical_dumps(jsonio.sequence_to_doc(constant_sequence)))
    return path


@pytest.fixture
def skewed_file(tmp_path, skewed_sequence):
    path = tmp_path / "skewed.json"
    path.write_text(jsonio.canonical_dumps(jsonio.sequence_to_doc(skewed_sequence)))
    return path


@pytest.fixture
def two_member_file(tmp_path, two_member_sequence):
    path = tmp_path / "pair.json"
    path.write_text(jsonio.canonical_dumps(jsonio.sequence_to_doc(two_member_sequence)))
    return path


@pytest.fixture
def skorohod_file(tmp_path, line_laws):
    path = tmp_path / "line.json"
    path.write_text(jsonio.canonical_dumps(jsonio.law_sequence_to_doc(line_laws)))
    return path


class TestBuild:
    def test_constant_sequence_plan(self, tmp_path, sequence_file):
        out = tmp_path / "plan.json"
        assert main(["build", "--spec", str(sequence_file), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"format", "sequence", "schedule"}
        assert doc["schedule"] == [1, 1]

    def test_missing_input_is_exit_2(self, tmp_path):
        out = tmp_path / "plan.json"
        assert main(["build", "--spec", str(tmp_path / "nope.json"), "--out", str(out)]) == 2

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"space": [,]}')
        out = tmp_path / "plan.json"
        assert main(["build", "--spec", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "column" in err

    def test_invalid_sequence_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "space": [["a", "b"]],
                    "members": [{"a": "1/3"}],
                    "limit": {"a": "1/2", "b": "1/2"},
                    "tail": {"eventually_equal": 1},
                }
            )
        )
        out = tmp_path / "plan.json"
        assert main(["build", "--spec", str(bad), "--out", str(out)]) == 2
        assert "total mass" in capsys.readouterr().err


class TestVerify:
    def test_clean_plan_passes(self, tmp_path, skewed_file, capsys):
        plan_path = tmp_path / "plan.json"
        main(["build", "--spec", str(skewed_file), "--out", str(plan_path)])
        report_path = tmp_path / "report.json"
        code = main(
            [
                "verify",
                "--plan",
                str(plan_path),
                "--out",
                str(report_path),
                "--samples",
                "200",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "overall: PASS" in text
        assert "  PASS joint-law-marginals\ndeficit trace:" in text
        doc = json.loads(report_path.read_text())
        assert doc["all_passed"] is True
        assert doc["provenance"]["seed"] == 1
        assert doc["exact_checks"][-1] == {
            "name": "joint-law-marginals", "passed": True, "witness": None
        }

    def test_corrupted_plan_fails_naming_the_check(self, tmp_path, two_member_file, capsys):
        # member 2 moved onto a is still a law, but window 1 no longer meets index 1's bound
        plan_path = tmp_path / "plan.json"
        main(["build", "--spec", str(two_member_file), "--out", str(plan_path)])
        doc = json.loads(plan_path.read_text())
        doc["sequence"]["members"][1] = {"a": "1/1"}
        plan_path.write_text(json.dumps(doc))
        code = main(["verify", "--plan", str(plan_path), "--samples", "50"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL window-deficit-certificates: n=1: deficit 3/4 > 1/2" in out


def corrupt_index_law(doc):
    # window 1 is wider than k_M = 0, so no envelope, hence no index law, derives
    doc["schedule"] = [1, 0, 1]


class TestUnsampleablePlans:
    """Plans that load but cannot be sampled fail cleanly with exit 1.

    ``verify`` reports the sampler's failure; ``sample`` refuses them
    before drawing, because they fail the exact audit too.
    """

    @pytest.fixture(params=[corrupt_index_law])
    def bad_plan(self, request, tmp_path, two_member_file, capsys):
        plan_path = tmp_path / "plan.json"
        main(["build", "--spec", str(two_member_file), "--out", str(plan_path)])
        doc = json.loads(plan_path.read_text())
        request.param(doc)
        plan_path.write_text(json.dumps(doc))
        capsys.readouterr()
        return plan_path

    def test_verify_reports_the_sampler_failure(self, tmp_path, bad_plan, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            ["verify", "--plan", str(bad_plan), "--samples", "50", "--out", str(report_path)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL sampler-runs" in out
        assert "overall: FAIL" in out
        mc = json.loads(report_path.read_text())["mc_checks"]
        assert [c["name"] for c in mc] == ["sampler-runs"]
        assert "sampling failed after 0 draws" in mc[0]["note"]

    def test_sample_exits_1_with_one_error_line(self, tmp_path, bad_plan, capsys):
        out = tmp_path / "samples.jsonl"
        code = main(["sample", "--plan", str(bad_plan), "--samples", "5", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
        assert "plan fails the exact audit, no samples drawn: " in err
        assert not out.exists()


def test_sample_refuses_a_plan_that_fails_the_audit(tmp_path, skewed_file, capsys):
    # with the final window lowered to 0 every draw succeeds, but the
    # components no longer agree with the limit on the full window
    plan_path = tmp_path / "plan.json"
    main(["build", "--spec", str(skewed_file), "--out", str(plan_path)])
    doc = json.loads(plan_path.read_text())
    doc["schedule"] = [1, 0]
    plan_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--plan", str(plan_path), "--samples", "20"]) == 1
    out = capsys.readouterr().out
    assert "FAIL schedule-monotone: window drops from 1 to 0" in out
    assert "FAIL schedule-reaches-full-window: final window 0 != width 1" in out
    assert "FAIL sampler-runs" not in out
    out = tmp_path / "samples.jsonl"
    assert main(["sample", "--plan", str(plan_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert (
        "no samples drawn: schedule-monotone: window drops from 1 to 0"
        " (and 1 more failing checks)" in err
    )
    assert not out.exists()


def as_format_1(doc):
    doc["format"] = 1


def as_format_2(doc):
    doc["format"] = 2


def as_format_3(doc):
    doc["format"] = 3


def as_format_4(doc):
    doc["format"] = 4


def as_format_5(doc):
    doc["format"] = 5


def without_format(doc):
    del doc["format"]


class TestPlanFormat:
    @pytest.mark.parametrize(
        "edit", [as_format_1, as_format_2, as_format_3, as_format_4, as_format_5, without_format]
    )
    @pytest.mark.parametrize("command", ["verify", "sample"])
    def test_other_formats_are_exit_2(self, tmp_path, skewed_file, capsys, edit, command):
        plan_path = tmp_path / "plan.json"
        main(["build", "--spec", str(skewed_file), "--out", str(plan_path)])
        doc = json.loads(plan_path.read_text())
        assert doc["format"] == 6
        edit(doc)
        found = doc.get("format", "(missing)")
        plan_path.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "out.json"
        assert main([command, "--plan", str(plan_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
        assert f"unsupported plan format {found};" in err
        assert "rebuild the plan from its spec" in err
        assert not out.exists()


def schedule_one_index_longer(doc):
    doc["schedule"].append(doc["schedule"][-1])


# plan edit -> what its one error line must say
PLAN_EDITS = {
    schedule_one_index_longer: "'schedule' must hold one window per index 1..2, found 3",
}


class TestMalformedPlan:
    @pytest.mark.parametrize("edit", list(PLAN_EDITS))
    @pytest.mark.parametrize("command", ["verify", "sample"])
    def test_exit_2_naming_the_field(self, tmp_path, skewed_file, capsys, edit, command):
        plan_path = tmp_path / "plan.json"
        main(["build", "--spec", str(skewed_file), "--out", str(plan_path)])
        doc = json.loads(plan_path.read_text())
        edit(doc)
        plan_path.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "out.json"
        assert main([command, "--plan", str(plan_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
        assert PLAN_EDITS[edit] in err
        assert not out.exists()


def spec_members_not_a_list(doc):
    doc["members"] = 5


def spec_space_not_a_list(doc):
    doc["space"] = 3


def spec_member_not_a_map(doc):
    doc["members"] = [5]


def spec_coords_not_a_list(doc):
    doc["model"]["coords"] = 7


def tail_zero(doc):
    doc["tail"]["eventually_equal"] = 0


def tail_count(doc):
    doc["tail"]["eventually_equal"] += 1


# the tail index of a one-member spec, edited -> the spec's one error line
TAIL_EDITS = {
    tail_zero: "tail index must be at least 1",
    tail_count: "1 members but tail index 2",
}


class TestMalformedSpec:
    @pytest.mark.parametrize(
        "command, edit, field",
        [
            ("build", spec_members_not_a_list, "members"),
            ("build", spec_space_not_a_list, "space"),
            ("build", spec_member_not_a_map, "members"),
            ("skorohod", spec_coords_not_a_list, "model"),
        ],
    )
    def test_exit_2_naming_the_field(
        self, tmp_path, skewed_file, skorohod_file, capsys, command, edit, field
    ):
        spec = skewed_file if command == "build" else skorohod_file
        doc = json.loads(spec.read_text())
        edit(doc)
        spec.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main([command, "--spec", str(spec), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
        assert f"malformed spec field {field!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["build", "skorohod"])
    def test_missing_field_is_named(self, tmp_path, skewed_file, skorohod_file, capsys, command):
        spec = skewed_file if command == "build" else skorohod_file
        doc = json.loads(spec.read_text())
        del doc["tail"]
        spec.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main([command, "--spec", str(spec), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {spec}: missing field 'tail'\n"
        assert not out.exists()

    @pytest.mark.parametrize("edit", list(TAIL_EDITS), ids=lambda edit: edit.__name__)
    @pytest.mark.parametrize("command", ["build", "skorohod"])
    def test_bad_tail_index_exits_2(
        self, tmp_path, skewed_file, skorohod_file, capsys, command, edit
    ):
        spec = skewed_file if command == "build" else skorohod_file
        doc = json.loads(spec.read_text())
        assert doc["tail"] == {"eventually_equal": 1}
        edit(doc)
        spec.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main([command, "--spec", str(spec), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {spec}: {TAIL_EDITS[edit]}\n"
        assert not out.exists()


def alphabet_as_string(doc):
    doc["space"] = ["".join(symbols) for symbols in doc["space"]]


def boolean_mass(doc):
    doc["members"][0] = {"a": True, "b": "0/1"}


def tail_with_fraction(doc):
    doc["tail"]["eventually_equal"] += 0.9


def boolean_tail(doc):
    doc["tail"]["eventually_equal"] = True


def coords_rows_as_strings(doc):
    doc["model"]["coords"] = ["0", "1", "2"]


def dist_rows_as_strings(doc):
    model = doc["model"]
    del model["coords"], model["metric"]
    model["dist"] = ["012", "101", "210"]


def points_as_string(doc):
    doc["model"]["points"] = "xyz"


def points_empty(doc):
    doc["model"]["points"] = []


def points_null(doc):
    # the labels a missing ``points`` falls back to, so only the null is wrong
    doc["model"]["points"] = None
    for law in (*doc["members"], doc["limit"]):
        for label in list(law):
            law["p" + label[1:]] = law.pop(label)


def coords_and_dist(doc):
    doc["model"]["dist"] = [["0/1", "1/1", "2/1"], ["1/1", "0/1", "1/1"], ["2/1", "1/1", "0/1"]]


# spec edit -> the command it goes to and what its one error line must say;
# read as Python iterables and numbers, each edited spec would be a valid one
SPEC_TYPE_EDITS = {
    alphabet_as_string: ("build", "malformed spec field 'space': alphabet 'ab' is not an array"),
    boolean_mass: ("build", "expected a rational string, got True"),
    tail_with_fraction: ("build", "malformed spec field 'tail': tail index 1.9 is not an integer"),
    boolean_tail: ("build", "malformed spec field 'tail': tail index True is not an integer"),
    coords_rows_as_strings: ("skorohod", "malformed spec field 'model': coords row '0' is not an array"),
    dist_rows_as_strings: ("skorohod", "malformed spec field 'model': dist row '012' is not an array"),
    points_as_string: ("skorohod", "malformed spec field 'model': points 'xyz' is not an array"),
    points_empty: ("skorohod", "malformed spec field 'model': points [] names no point"),
    points_null: ("skorohod", "malformed spec field 'model': points None is not an array"),
    coords_and_dist: ("skorohod", "malformed spec field 'model': a model gives coords or dist, not both"),
}


def window_with_fraction(doc):
    doc["schedule"][0] += 0.5


def boolean_window(doc):
    doc["schedule"][0] = True


def windows_as_string(doc):
    doc["schedule"] = "11"


PLAN_TYPE_EDITS = {
    window_with_fraction: "malformed plan field 'schedule': window 1.5 is not an integer",
    boolean_window: "malformed plan field 'schedule': window True is not an integer",
    windows_as_string: "malformed plan field 'schedule': windows '11' is not an array",
}


class TestJsonValueTypes:
    """A string is not an array, a boolean not a number and 2.9 not an index."""

    @pytest.mark.parametrize("edit", list(SPEC_TYPE_EDITS), ids=lambda edit: edit.__name__)
    def test_spec_exits_2(self, tmp_path, skewed_file, skorohod_file, capsys, edit):
        command, message = SPEC_TYPE_EDITS[edit]
        spec = skewed_file if command == "build" else skorohod_file
        doc = json.loads(spec.read_text())
        edit(doc)
        spec.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main([command, "--spec", str(spec), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {spec}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("edit", list(PLAN_TYPE_EDITS), ids=lambda edit: edit.__name__)
    @pytest.mark.parametrize("command", ["verify", "sample"])
    def test_plan_exits_2(self, tmp_path, skewed_file, capsys, edit, command):
        plan_path = tmp_path / "plan.json"
        main(["build", "--spec", str(skewed_file), "--out", str(plan_path)])
        doc = json.loads(plan_path.read_text())
        edit(doc)
        plan_path.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "out.json"
        assert main([command, "--plan", str(plan_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {plan_path}: {PLAN_TYPE_EDITS[edit]}\n"
        assert not out.exists()


class TestEmbeddedSequence:
    """A plan's sequence is input and is checked as input, so a broken member exits 2, not 1."""

    @pytest.mark.parametrize("command", ["verify", "sample"])
    def test_member_mass_off_one_exits_2(self, tmp_path, skewed_file, capsys, command):
        plan_path = tmp_path / "plan.json"
        main(["build", "--spec", str(skewed_file), "--out", str(plan_path)])
        doc = json.loads(plan_path.read_text())
        assert doc["sequence"]["members"][0] == {"a": "1/4", "b": "3/4"}
        doc["sequence"]["members"][0]["a"] = "1/8"
        plan_path.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "out.json"
        assert main([command, "--plan", str(plan_path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {plan_path}: law 0 has total mass 7/8, not 1\n"
        assert not out.exists()


def one_error_line(err: str) -> bool:
    return "Traceback" not in err and len([line for line in err.splitlines() if "error:" in line]) == 1


def zero_denominator_member(doc):
    doc["members"][0]["a"] = "1/0"


def zero_denominator_coordinate(doc):
    doc["model"]["coords"][1][0] = "1/0"


def zero_denominator_plan_mass(doc):
    doc["sequence"]["members"][0]["a"] = "1/0"


def zero_denominator_deficit(doc):
    doc["deficit_trace"][0]["deficit"] = "1/0"


class TestZeroDenominator:
    """A "1/0" mass anywhere exits 2 with one error line, not a ZeroDivisionError."""

    @pytest.fixture
    def artifacts(self, tmp_path, skewed_file, skorohod_file, capsys):
        plan = tmp_path / "plan.json"
        report = tmp_path / "report.json"
        main(["build", "--spec", str(skewed_file), "--out", str(plan)])
        main(["verify", "--plan", str(plan), "--samples", "20", "--out", str(report)])
        capsys.readouterr()
        return {"spec": skewed_file, "line": skorohod_file, "plan": plan, "report": report}

    @pytest.mark.parametrize(
        "argv, target, edit",
        [
            (["build", "--spec", "{spec}"], "spec", zero_denominator_member),
            (["skorohod", "--spec", "{line}"], "line", zero_denominator_coordinate),
            (["verify", "--plan", "{plan}"], "plan", zero_denominator_plan_mass),
            (["sample", "--plan", "{plan}"], "plan", zero_denominator_plan_mass),
            (["report", "{report}"], "report", zero_denominator_deficit),
        ],
        ids=["build", "skorohod", "verify", "sample", "report"],
    )
    def test_exit_2_with_one_error_line(self, tmp_path, artifacts, capsys, argv, target, edit):
        doc = json.loads(artifacts[target].read_text())
        edit(doc)
        artifacts[target].write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = [arg.format(**artifacts) for arg in argv] + ["--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert one_error_line(err)
        assert "zero denominator" in err
        assert not out.exists()


# a placeholder written out as a 5,000-digit JSON integer, longer than the
# interpreter's default limit on the digits ``int`` parses (4,300)
OVERLONG = "overlong-integer"


def overlong_tail(doc):
    doc["tail"]["eventually_equal"] = OVERLONG


def overlong_window(doc):
    doc["schedule"][0] = OVERLONG


class TestOverlongInteger:
    """An integer past the interpreter's digit limit is bad input, not a traceback."""

    @pytest.mark.parametrize(
        "argv, target, edit",
        [
            (["build", "--spec", "{spec}"], "spec", overlong_tail),
            (["skorohod", "--spec", "{line}"], "line", overlong_tail),
            (["verify", "--plan", "{plan}"], "plan", overlong_window),
            (["sample", "--plan", "{plan}"], "plan", overlong_window),
        ],
        ids=["build", "skorohod", "verify", "sample"],
    )
    def test_exit_2_with_one_error_line(self, tmp_path, skewed_file, skorohod_file, capsys,
                                        argv, target, edit):
        plan = tmp_path / "plan.json"
        main(["build", "--spec", str(skewed_file), "--out", str(plan)])
        capsys.readouterr()
        files = {"spec": skewed_file, "line": skorohod_file, "plan": plan}
        doc = json.loads(files[target].read_text())
        edit(doc)
        files[target].write_text(json.dumps(doc).replace(f'"{OVERLONG}"', "1" * 5000))
        out = tmp_path / "out"
        argv = [arg.format(**files) for arg in argv] + ["--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert one_error_line(err)
        assert f"{files[target]}: invalid JSON" in err
        assert not out.exists()


class TestDeeplyNested:
    """A document nested past the parser's recursion limit is bad input, not a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["build", "--spec"],
            ["skorohod", "--spec"],
            ["verify", "--plan"],
            ["sample", "--plan"],
            ["report"],
        ],
        ids=["build", "skorohod", "verify", "sample", "report"],
    )
    def test_exit_2_with_one_error_line(self, tmp_path, capsys, argv):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        out = tmp_path / "out"
        assert main([*argv, str(deep), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert one_error_line(err)
        assert f"{deep}: invalid JSON: maximum recursion depth exceeded" in err
        assert not out.exists()


class TestHugeExponent:
    @pytest.mark.parametrize("command", ["build", "skorohod"])
    def test_exit_2_without_expanding(self, tmp_path, skewed_file, skorohod_file, capsys,
                                      command):
        spec = skewed_file if command == "build" else skorohod_file
        doc = json.loads(spec.read_text())
        law = doc["members"][0]
        law[next(iter(law))] = "1e-20000000"
        spec.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main([command, "--spec", str(spec), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert one_error_line(err)
        assert "exponent" in err
        assert not out.exists()


def unknown_member_label(doc):
    doc["members"][0]["x9"] = "0/1"


def negative_member_mass(doc):
    doc["members"][0] = {"x0": "3/2", "x1": "-1/2"}


def limit_short_of_one(doc):
    doc["limit"] = {"x0": "1/3", "x1": "1/3"}


def duplicated_model_label(doc):
    doc["model"]["points"][2] = "x1"


def unknown_metric(doc):
    doc["model"]["metric"] = "l2"


def linf_without_coords(doc):
    model = doc["model"]
    del model["coords"]
    model["dist"] = [["0/1", "1/2", "1/1"], ["1/2", "0/1", "1/2"], ["1/1", "1/2", "0/1"]]


def ragged_coords(doc):
    doc["model"]["coords"] = [["0/1", "0/1"], ["1/1"], ["2/1", "1/1"]]


def string_support_flag(doc):
    doc["model"]["separable_support"] = [True, "no", True]


class TestMalformedMetricSpec:
    @pytest.mark.parametrize(
        "edit, message",
        [
            (unknown_member_label, "symbol 'x9' not in alphabet of 3 symbols"),
            (negative_member_mass, "negative mass"),
            (limit_short_of_one, "total mass 2/3, not 1"),
            (duplicated_model_label, "'x1'"),
            (unknown_metric, "unknown metric 'l2', the only metric is 'linf'"),
            (linf_without_coords, "the linf metric requires a coords field"),
            (ragged_coords, "point x1 has 1 coordinates, not 2"),
            (string_support_flag, "support flag 'no' of x1 is not a boolean"),
        ],
        ids=[
            "unknown-label",
            "negative-mass",
            "limit-total",
            "duplicate-label",
            "unknown-metric",
            "linf-without-coords",
            "ragged-coords",
            "string-support-flag",
        ],
    )
    def test_exit_2_with_one_error_line(self, tmp_path, skorohod_file, capsys, edit, message):
        doc = json.loads(skorohod_file.read_text())
        edit(doc)
        skorohod_file.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["skorohod", "--spec", str(skorohod_file), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert one_error_line(err)
        error_line = next(line for line in err.splitlines() if "error:" in line)
        assert message in error_line
        assert not (out / "tree.json").exists()

    def test_unknown_label_line_is_unquoted(self, tmp_path, skorohod_file, capsys):
        doc = json.loads(skorohod_file.read_text())
        unknown_member_label(doc)
        skorohod_file.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["skorohod", "--spec", str(skorohod_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {skorohod_file}: symbol 'x9' not in alphabet of 3 symbols\n"
        )

    def test_fewer_labels_than_coordinate_rows_names_the_field(
        self, tmp_path, skorohod_file, capsys
    ):
        doc = json.loads(skorohod_file.read_text())
        doc["model"]["points"] = doc["model"]["points"][:2]
        skorohod_file.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["skorohod", "--spec", str(skorohod_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {skorohod_file}: malformed spec field 'model':"
            " points holds 2 labels for 3 coordinate rows\n"
        )
        assert not (out / "tree.json").exists()

    # a string would read as its characters and null as "every point"
    @pytest.mark.parametrize(
        "support, shown", [("ab", "'ab'"), (None, "None")], ids=["string", "null"]
    )
    def test_support_that_is_not_an_array_names_the_field(
        self, tmp_path, skorohod_file, capsys, support, shown
    ):
        doc = json.loads(skorohod_file.read_text())
        doc["model"]["separable_support"] = support
        skorohod_file.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["skorohod", "--spec", str(skorohod_file), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == (
            f"error: {skorohod_file}: malformed spec field 'model':"
            f" separable_support {shown} is not an array\n"
        )
        assert not (out / "tree.json").exists()


class TestMalformedReport:
    @pytest.mark.parametrize(
        "edit",
        [lambda doc: {**doc, "exact_checks": 5}, lambda doc: [doc]],
        ids=["exact-checks-not-a-list", "top-level-list"],
    )
    def test_exit_2_with_one_error_line(self, tmp_path, skewed_file, capsys, edit):
        plan = tmp_path / "plan.json"
        report = tmp_path / "report.json"
        main(["build", "--spec", str(skewed_file), "--out", str(plan)])
        main(["verify", "--plan", str(plan), "--samples", "20", "--out", str(report)])
        report.write_text(json.dumps(edit(json.loads(report.read_text()))))
        capsys.readouterr()
        out = tmp_path / "report.txt"
        assert main(["report", str(report), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert one_error_line(err)
        assert "malformed report field 'exact_checks'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, key, value, message",
        [
            ("exact_checks", "passed", "no", "passed 'no' is not a boolean"),
            ("exact_checks", "passed", 1, "passed 1 is not a boolean"),
            ("mc_checks", "samples", True, "samples True is not an integer"),
            ("mc_checks", "failures", "0", "failures '0' is not an integer"),
            ("deficit_trace", "index", 1.0, "index 1.0 is not an integer"),
            ("deficit_trace", "window", False, "window False is not an integer"),
        ],
        ids=[
            "passed-string",
            "passed-number",
            "samples-boolean",
            "failures-string",
            "index-float",
            "window-boolean",
        ],
    )
    def test_badly_typed_check_field(
        self, tmp_path, skewed_file, capsys, field, key, value, message
    ):
        plan = tmp_path / "plan.json"
        report = tmp_path / "report.json"
        main(["build", "--spec", str(skewed_file), "--out", str(plan)])
        main(["verify", "--plan", str(plan), "--samples", "20", "--out", str(report)])
        doc = json.loads(report.read_text())
        doc[field][0][key] = value
        report.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["report", str(report)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {report}: malformed report field '{field}': {message}\n"


    @pytest.mark.parametrize(
        "provenance",
        [[[1, "x"], ["a", "y"]], [["seed", 5]], "seed", None],
        ids=["mixed-pairs", "pairs", "string", "null"],
    )
    def test_provenance_must_be_an_object(self, tmp_path, skewed_file, capsys, provenance):
        # an array of pairs is not read as an object, nor sorted as one
        plan = tmp_path / "plan.json"
        report = tmp_path / "report.json"
        main(["build", "--spec", str(skewed_file), "--out", str(plan)])
        main(["verify", "--plan", str(plan), "--samples", "20", "--out", str(report)])
        doc = json.loads(report.read_text())
        doc["provenance"] = provenance
        report.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["report", str(report)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {report}: malformed report field 'provenance':"
            f" provenance {provenance!r} is not an object\n"
        )


class TestSample:
    def test_schema_and_determinism(self, tmp_path, skewed_file, capsys):
        plan_path = tmp_path / "plan.json"
        main(["build", "--spec", str(skewed_file), "--out", str(plan_path)])
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        for out in (out_a, out_b):
            assert (
                main(
                    [
                        "sample",
                        "--plan",
                        str(plan_path),
                        "--samples",
                        "25",
                        "--seed",
                        "9",
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
        assert out_a.read_bytes() == out_b.read_bytes()
        records = [json.loads(line) for line in out_a.read_text().splitlines()]
        assert len(records) == 25
        for record in records:
            assert set(record) == {"seed", "N", "Z_hat", "Z_hat_n"}
            assert len(record["Z_hat_n"]) == 2

    def test_records_replay_from_the_labelled_stream(self, tmp_path, skewed_file, capsys):
        plan_path = tmp_path / "plan.json"
        main(["build", "--spec", str(skewed_file), "--out", str(plan_path)])
        capsys.readouterr()
        assert main(["sample", "--plan", str(plan_path), "--samples", "20", "--seed", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        plan = jsonio.plan_from_doc(json.loads(plan_path.read_text()))
        sampler = CouplingSampler(plan)
        for i, line in enumerate(lines):
            draw = sampler.sample(streams.stream(3, "sample", i))
            record = jsonio.sample_record(plan, draw, streams.derive_seed(3, "sample", i))
            assert line == jsonio.compact_dumps(record)

    def test_stdout_stream(self, tmp_path, skewed_file, capsys):
        plan_path = tmp_path / "plan.json"
        main(["build", "--spec", str(skewed_file), "--out", str(plan_path)])
        capsys.readouterr()
        assert main(["sample", "--plan", str(plan_path), "--samples", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3


class TestSkorohod:
    def test_end_to_end_artifacts(self, tmp_path, skorohod_file, capsys):
        out_dir = tmp_path / "run"
        code = main(
            [
                "skorohod",
                "--spec",
                str(skorohod_file),
                "--depth",
                "2",
                "--samples",
                "300",
                "--seed",
                "2",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        for name in ("tree.json", "plan.json", "report.json"):
            assert (out_dir / name).exists()
        report = json.loads((out_dir / "report.json").read_text())
        assert report["all_passed"] is True
        mc_names = {c["name"] for c in report["mc_checks"]}
        assert "distance-guarantee-violations" in mc_names
        violations = next(
            c for c in report["mc_checks"] if c["name"] == "distance-guarantee-violations"
        )
        assert violations["failures"] == 0
        exact_names = {c["name"] for c in report["exact_checks"]}
        assert "joint-law-marginals" in exact_names
        assert "partition-disjoint-cover" in exact_names

    def test_exact_marginals_above_the_enumeration_size(self, tmp_path, capsys):
        # 60 points on the line, three full-support members, depth 3: the
        # joint law has 2,166,875 points, so only the factored check runs
        rng = random.Random(0)
        labels = [f"x{i}" for i in range(60)]

        def law():
            weights = [rng.randint(1, 8) for _ in labels]
            return {x: f"{w}/{sum(weights)}" for x, w in zip(labels, weights)}

        doc = {
            "model": {"points": labels, "coords": [[f"{i}/60"] for i in range(60)]},
            "members": [law(), law(), law()],
            "limit": law(),
            "tail": {"eventually_equal": 3},
        }
        spec = tmp_path / "line60.json"
        spec.write_text(json.dumps(doc))
        out_dir = tmp_path / "run"
        argv = ["skorohod", "--spec", str(spec), "--depth", "3", "--samples", "50"]
        assert main(argv + ["--out", str(out_dir)]) == 0
        text = capsys.readouterr().out
        assert "  PASS joint-law-marginals\n" in text
        assert "3sigma" not in text
        plan = jsonio.plan_from_doc(json.loads((out_dir / "plan.json").read_text()))
        assert joint_support_size(plan) == 2_166_875

    def test_byte_identical_reruns(self, tmp_path, skorohod_file):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            main(
                [
                    "skorohod",
                    "--spec",
                    str(skorohod_file),
                    "--samples",
                    "100",
                    "--seed",
                    "4",
                    "--out",
                    str(out),
                ]
            )
        for name in ("tree.json", "plan.json", "report.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_coordinates_and_their_distance_table_couple_alike(
        self, tmp_path, skorohod_file, line_model, capsys
    ):
        doc = json.loads(skorohod_file.read_text())
        table = MetricSpaceModel.from_table(line_model.labels, line_model.dist)
        twin = tmp_path / "twin.json"
        twin.write_text(json.dumps({**doc, "model": jsonio.model_to_doc(table)}))
        runs = {}
        for name, spec in (("coords", skorohod_file), ("dist", twin)):
            out = tmp_path / name
            argv = ["skorohod", "--spec", str(spec), "--depth", "3", "--samples", "100"]
            assert main(argv + ["--seed", "5", "--out", str(out)]) == 0
            argv = ["sample", "--plan", str(out / "plan.json"), "--samples", "50", "--seed", "6"]
            assert main(argv + ["--out", str(out / "samples.jsonl")]) == 0
            runs[name] = out
        coords, dist = runs["coords"], runs["dist"]
        for name in ("plan.json", "samples.jsonl"):
            assert (coords / name).read_bytes() == (dist / name).read_bytes()
        tree, twin_tree = (json.loads((out / "tree.json").read_text()) for out in (coords, dist))
        assert (tree.pop("backend"), twin_tree.pop("backend")) == ("linf", "table")
        assert tree == twin_tree

    def test_backend_option_is_gone(self, tmp_path, skorohod_file, capsys):
        argv = ["skorohod", "--spec", str(skorohod_file), "--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--backend", "table"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: windowcoupling")
        assert err.endswith("error: unrecognized arguments: --backend table\n")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestBadCounts:
    @pytest.mark.parametrize(
        "command",
        [
            ["verify", "--plan", "{plan}", "--samples", "0"],
            ["sample", "--plan", "{plan}", "--samples", "-3", "--out", "{out}"],
            ["sample", "--plan", "{plan}", "--samples", "three"],
            ["skorohod", "--spec", "{line}", "--out", "{out}", "--samples", "0"],
            ["skorohod", "--spec", "{line}", "--out", "{out}", "--depth", "0"],
        ],
    )
    def test_exit_2_with_one_error_line(
        self, tmp_path, skewed_file, skorohod_file, capsys, command
    ):
        plan_path = tmp_path / "plan.json"
        main(["build", "--spec", str(skewed_file), "--out", str(plan_path)])
        capsys.readouterr()
        out = tmp_path / "out"
        argv = [
            arg.format(plan=plan_path, line=skorohod_file, out=out) for arg in command
        ]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
        assert not out.exists()


class TestUnwritableOut:
    @pytest.mark.parametrize(
        "command",
        [
            ["build", "--spec", "{skewed}", "--out", "{file}/plan.json"],
            ["verify", "--plan", "{plan}", "--samples", "20", "--out", "{file}/report.json"],
            ["sample", "--plan", "{plan}", "--samples", "5", "--out", "{file}/samples.jsonl"],
            ["skorohod", "--spec", "{line}", "--samples", "20", "--out", "{file}"],
        ],
    )
    def test_exit_2_with_one_error_line(
        self, tmp_path, skewed_file, skorohod_file, capsys, command
    ):
        plan_path = tmp_path / "plan.json"
        main(["build", "--spec", str(skewed_file), "--out", str(plan_path)])
        regular = tmp_path / "afile"
        regular.write_text("")
        capsys.readouterr()
        argv = [
            arg.format(skewed=skewed_file, plan=plan_path, line=skorohod_file, file=regular)
            for arg in command
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("error:") == 1
        assert err.startswith(f"error: cannot write {regular}")
        assert regular.read_text() == ""


class TestReportCommand:
    def test_renders_text(self, tmp_path, skewed_file, capsys):
        plan_path = tmp_path / "plan.json"
        main(["build", "--spec", str(skewed_file), "--out", str(plan_path)])
        report_path = tmp_path / "report.json"
        main(
            [
                "verify",
                "--plan",
                str(plan_path),
                "--out",
                str(report_path),
                "--samples",
                "50",
            ]
        )
        capsys.readouterr()
        text_path = tmp_path / "report.txt"
        assert main(["report", str(report_path), "--out", str(text_path)]) == 0
        out = capsys.readouterr().out
        assert "verification report" in out
        assert text_path.read_text() == out
