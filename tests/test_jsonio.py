import json
import math
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from windowcoupling import (
    LawSequence,
    MassFunction,
    MetricSpaceModel,
    SpaceMismatchError,
    audit_plan,
    build_plan,
    build_partition_tree,
    build_skorohod_coupling,
    mc_agreement,
    sample,
)
from windowcoupling import jsonio, streams, window_marginal
from windowcoupling.engine import plan_exact_checks
from windowcoupling.measures import weighted_sum
from windowcoupling.verify import random_law_sequence, random_metric_model, random_process_spec
from conftest import widening_sequence


# rational-looking strings that are not in the canonical "[-]digits/digits"
# form: whitespace, signs, underscores, decimals, exponents, spaced or
# doubled slashes, signed denominators and non-ASCII digits
MESSY_RATIONALS = st.builds(
    "".join,
    st.tuples(
        st.sampled_from(["", " ", "\t", "\u00a0"]),
        st.sampled_from(["", "-", "+", "--"]),
        st.sampled_from(["", "0", "007", "12", "1_000", "1__0", "_1", "1.5", ".5", "1e3",
                         "2E-2", "\u0663", "\uff11\uff12", "\u00b2", "nan"]),
        st.sampled_from(["", "/", " / ", "/ ", "//"]),
        st.sampled_from(["", "-", "+"]),
        st.sampled_from(["", "0", "00", "4", "1_0", "3.0", "\u0664", "x"]),
        st.sampled_from(["", " ", "\n"]),
    ),
)

# the canonical shape, with digits that are not all ASCII or not all
# decimal (superscripts pass str.isdigit but not int)
DIGIT_LIKE = st.text("0123456789_\u00b2\u0663\uff11", max_size=4)
NEAR_CANONICAL = st.builds(
    "{}{}{}{}".format, st.sampled_from(["", "-"]), DIGIT_LIKE, st.sampled_from(["", "/"]), DIGIT_LIKE
)


class TestFractions:
    def test_round_trip(self):
        for value in (F(1, 2), F(0), F(7), F(22, 7)):
            assert jsonio.parse_fraction(jsonio.fraction_to_str(value)) == value

    def test_accepts_integers(self):
        assert jsonio.parse_fraction(3) == F(3)

    def test_rejects_floats(self):
        with pytest.raises(ValueError):
            jsonio.parse_fraction(0.5)

    def test_zero_denominator_is_a_value_error(self):
        with pytest.raises(ValueError, match="zero denominator"):
            jsonio.parse_fraction("1/0")

    @pytest.mark.parametrize("text", ["1e-100000000", "1E+99999999"])
    def test_refuses_an_exponent_past_the_digit_limit(self, text):
        with pytest.raises(ValueError, match="exponent beyond the"):
            jsonio.parse_ratio(text)

    def test_small_exponents_still_parse(self):
        assert jsonio.parse_ratio("2E-2") == (1, 50)
        assert jsonio.parse_ratio("1e3") == (1000, 1)

    @given(
        text=st.one_of(
            st.integers().map(str),
            st.builds("{}/{}".format, st.integers(), st.integers(0, 10**40)),
            MESSY_RATIONALS,
            NEAR_CANONICAL,
            st.text(max_size=12),
        )
    )
    @example("1/0")
    @example("-0/05")
    @example("1 / 2")
    @example("3/-4")
    @example("+1/2")
    @example("\u00b2/4")
    @example("\u0663/\u0664")
    def test_agrees_with_fraction(self, text):
        """The split fast path and Fraction(text) accept, reject and report alike."""
        try:
            expected = F(text)
        except ZeroDivisionError:
            with pytest.raises(ValueError) as info:
                jsonio.parse_fraction(text)
            assert str(info.value) == f"rational {text!r} has a zero denominator"
            return
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                jsonio.parse_fraction(text)
            assert str(info.value) == str(exc)
            return
        got = jsonio.parse_fraction(text)
        assert type(got) is F
        assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)


class TestSequenceDocs:
    def test_matches_documented_shape(self, two_member_sequence):
        doc = jsonio.sequence_to_doc(two_member_sequence)
        assert set(doc) == {"space", "members", "limit", "tail"}
        assert doc["space"] == [["a", "b"]]
        assert doc["tail"] == {"eventually_equal": 2}
        assert doc["members"][0] == {"a": "1/4", "b": "3/4"}

    def test_round_trip(self, two_member_sequence):
        doc = jsonio.sequence_to_doc(two_member_sequence)
        again = json.loads(json.dumps(doc))
        assert jsonio.sequence_from_doc(again) == two_member_sequence


class TestPlanDocs:
    def test_format_6_stores_the_sequence_and_the_windows(self, two_member_sequence):
        plan = build_plan(two_member_sequence)
        doc = jsonio.plan_to_doc(plan)
        assert doc == {
            "format": 6,
            "sequence": jsonio.sequence_to_doc(two_member_sequence),
            "schedule": [1, 1, 1],
        }
        # E_1|k_2 and E_2|k_2, derived on load; envelope 3 is the limit itself
        space = two_member_sequence.space
        assert jsonio.plan_from_doc(doc).envelopes == (
            MassFunction.from_masses(space, {0: F(1, 4), 1: F(1, 2)}),
            MassFunction.from_masses(space, {0: F(1, 3), 1: F(1, 2)}),
            two_member_sequence.limit,
        )

    def test_round_trip_preserves_everything(self, two_member_sequence):
        plan = build_plan(two_member_sequence)
        doc = json.loads(jsonio.canonical_dumps(jsonio.plan_to_doc(plan)))
        loaded = jsonio.plan_from_doc(doc)
        assert loaded == plan
        assert all(c.passed for c in plan_exact_checks(loaded))

    def test_loading_skips_validation(self, two_member_sequence):
        plan = build_plan(two_member_sequence)
        doc = jsonio.plan_to_doc(plan)
        doc["schedule"] = [1, 0, 1]
        loaded = jsonio.plan_from_doc(doc)  # must not raise
        assert not audit_plan(loaded).all_exact_passed

    def test_law_count_must_match_the_components(self, two_member_sequence):
        doc = jsonio.plan_to_doc(build_plan(two_member_sequence))
        doc["schedule"].pop()
        with pytest.raises(ValueError, match="'schedule' must hold one window per index 1..3, found 2"):
            jsonio.plan_from_doc(doc)

    def test_sampling_a_loaded_plan_reproduces_draws(self, two_member_sequence):
        plan = build_plan(two_member_sequence)
        loaded = jsonio.plan_from_doc(jsonio.plan_to_doc(plan))
        a = [sample(plan, streams.stream(0, "sample", i)) for i in range(20)]
        b = [sample(loaded, streams.stream(0, "sample", i)) for i in range(20)]
        assert a == b


def reference_law(space, doc):
    """The law of a document read one value at a time by ``parse_ratio``."""
    parse = space.parse_point
    entries = [(parse(key), *jsonio.parse_ratio(value)) for key, value in doc.items()]
    common = math.lcm(*(den for _, _, den in entries))
    return MassFunction(space, common, {z: num * (common // den) for z, num, den in entries})


def outcome(parse, *args):
    """What a parser returns, or the type and message of what it raises."""
    try:
        return parse(*args)
    except Exception as exc:
        return type(exc), str(exc)


# values that law_to_doc never writes: the batch parse must hand each of
# them to parse_ratio, with the law it sits in
UNWRITTEN_MASSES = [
    0, 1, 2, -1, True, None, 0.5, "2/4", "01/2", "+1/2", " 1/2", "0/3", "1/0", "1e3",
    "\u00b2/4", "1/2\n1/3", "1/2/3", "1/2\n", "", "-1/2", "1", "1/" + "1" * 5000,
]


def law_docs(seq):
    doc = jsonio.sequence_to_doc(seq)
    return doc, [*doc["members"], doc["limit"]]


class TestBatchParse:
    @pytest.mark.parametrize("value", UNWRITTEN_MASSES, ids=repr)
    def test_each_unwritten_mass_reads_as_parse_ratio_reads_it(self, two_member_sequence, value):
        space = two_member_sequence.space
        for label in ("a", "b"):
            law = {"a": "1/4", "b": "3/4", label: value}
            assert outcome(jsonio.law_from_doc, space, law) == outcome(reference_law, space, law)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**9), data=st.data())
    def test_agrees_with_parse_ratio_on_written_and_perturbed_laws(self, seed, data):
        seq = random_process_spec(random.Random(seed))
        space = seq.space
        _, laws = law_docs(seq)
        labels = [space.format_point(z) for z in space.points()]
        edits = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, len(laws) - 1),
                    st.sampled_from(labels),
                    st.one_of(st.sampled_from(UNWRITTEN_MASSES), st.integers(-2, 2)),
                ),
                max_size=3,
            )
        )
        for i, label, value in edits:
            laws[i][label] = value
        for law in laws:
            assert outcome(jsonio.law_from_doc, space, law) == outcome(reference_law, space, law)
        if not edits:
            assert [jsonio.law_from_doc(space, law) for law in laws] == [*seq.members, seq.limit]


# edits of a written sequence document that keep its sequence; the first
# three keep its laws as written, so each law keeps its object as read,
# and each later one leaves the law it edits without that record
KEEPING_EDITS = [
    "none", "sequence field", "tail field",
    "unreduced", "plus sign", "space", "leading zero", "zero mass", "integer zero",
]


def unrecorded(law):
    """``law`` rebuilt by the checking constructor, which keeps no document as read."""
    return MassFunction(law.space, law.denominator, dict(law.weights))


def written_bytes(seq):
    """The plan bytes of ``seq`` and the hash of its sequence document."""
    plan = build_plan(seq)
    return jsonio.canonical_dumps(jsonio.plan_to_doc(plan)), plan.spec_sha256


class TestHashAsRead:
    @staticmethod
    def edited(seq_doc, edit, draw):
        """Apply ``edit`` to a sequence document: the index of the law it leaves unwritten.

        None when the edit leaves every law as written.
        """
        laws = [*seq_doc["members"], seq_doc["limit"]]
        index = draw(st.integers(0, len(laws) - 1))
        law = laws[index]
        label = draw(st.sampled_from(sorted(law)))
        num, den = map(int, law[label].split("/"))
        if edit == "none":
            return None
        if edit == "sequence field":
            seq_doc["note"] = "kept out of the hash"
            return None
        if edit == "tail field":
            seq_doc["tail"]["note"] = 1
            return None
        if edit == "unreduced":
            factor = draw(st.integers(2, 5))
            law[label] = f"{factor * num}/{factor * den}"
        elif edit == "plus sign":
            law[label] = f"+{num}/{den}"
        elif edit == "space":
            law[label] = f" {num}/{den}"
        elif edit == "leading zero":
            law[label] = f"0{num}/{den}"
        elif edit in ("zero mass", "integer zero"):
            space = jsonio.space_from_doc(seq_doc["space"])
            missing = [z for z in space.points() if space.format_point(z) not in law]
            assume(missing)
            law[space.format_point(draw(st.sampled_from(missing)))] = (
                "0/3" if edit == "zero mass" else 0
            )
        return index

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 10**9),
        edit=st.sampled_from(KEEPING_EDITS),
        loader=st.sampled_from(["spec", "plan"]),
        data=st.data(),
    )
    def test_loaded_hash_is_the_hash_of_the_written_sequence(self, seed, edit, loader, data):
        seq = random_process_spec(random.Random(seed))
        text, digest = written_bytes(seq)
        if loader == "spec":
            doc = json.loads(json.dumps(jsonio.sequence_to_doc(seq)))
            unwritten = self.edited(doc, edit, data.draw)
            loaded = jsonio.sequence_from_doc(doc)
        else:
            doc = json.loads(text)
            unwritten = self.edited(doc["sequence"], edit, data.draw)
            loaded_plan = jsonio.plan_from_doc(doc)
            loaded = loaded_plan.sequence
            assert jsonio.canonical_dumps(jsonio.plan_to_doc(loaded_plan)) == text
            assert loaded_plan.spec_sha256 == digest
        assert loaded == seq
        laws = [*loaded.members, loaded.limit]
        assert [law.as_read is None for law in laws] == [i == unwritten for i in range(len(laws))]
        bare = replace(
            loaded, members=tuple(map(unrecorded, loaded.members)), limit=unrecorded(loaded.limit)
        )
        assert not [law for law in (*bare.members, bare.limit) if law.as_read is not None]
        assert written_bytes(loaded) == written_bytes(bare) == (text, digest)

    def test_the_hash_is_taken_on_first_read(self, monkeypatch, two_member_sequence):
        doc = jsonio.plan_to_doc(build_plan(two_member_sequence))
        hashed = []
        original = jsonio.document_sha256
        monkeypatch.setattr(jsonio, "document_sha256", lambda d: hashed.append(d) or original(d))
        loaded = jsonio.plan_from_doc(doc)
        assert not hashed
        assert loaded.spec_sha256 == original(doc["sequence"])
        assert hashed == [doc["sequence"]]
        # the hash is kept
        assert loaded.spec_sha256 == original(doc["sequence"]) and len(hashed) == 1

    def test_changing_the_document_after_loading_keeps_the_hash(self, two_member_sequence):
        plan = build_plan(two_member_sequence)
        doc = json.loads(json.dumps(jsonio.plan_to_doc(plan)))
        loaded = jsonio.plan_from_doc(doc)
        self.change(doc["sequence"])
        assert loaded.spec_sha256 == plan.spec_sha256
        assert loaded.sequence == two_member_sequence
        assert jsonio.plan_to_doc(loaded) == jsonio.plan_to_doc(plan)

    @staticmethod
    def change(seq_doc):
        """Change every law and field of the two-member sequence document ``seq_doc``."""
        seq_doc["limit"]["a"] = "1/3"
        seq_doc["members"][0]["b"] = "1/5"
        seq_doc["members"][1].clear()
        seq_doc["members"].append({"a": "1/1"})
        seq_doc["space"][0].append("c")
        seq_doc["tail"]["eventually_equal"] = 3

    def test_changing_the_spec_after_reading_keeps_the_bytes(self, two_member_sequence):
        text, digest = written_bytes(two_member_sequence)
        doc = json.loads(json.dumps(jsonio.sequence_to_doc(two_member_sequence)))
        seq = jsonio.sequence_from_doc(doc)
        self.change(doc)
        assert written_bytes(seq) == (text, digest)

    def test_changing_a_written_document_keeps_the_bytes(self, two_member_sequence):
        text, digest = written_bytes(two_member_sequence)
        doc = json.loads(json.dumps(jsonio.sequence_to_doc(two_member_sequence)))
        plan = build_plan(jsonio.sequence_from_doc(doc))
        for law in (*plan.sequence.members, plan.sequence.limit):
            jsonio.law_to_doc(law)["a"] = "1/7"
        self.change(jsonio.plan_to_doc(plan)["sequence"])
        assert jsonio.canonical_dumps(jsonio.plan_to_doc(plan)) == text
        assert plan.spec_sha256 == digest

    def test_derived_laws_keep_no_document(self):
        doc = jsonio.sequence_to_doc(widening_sequence(random.Random(3), 3))
        seq = jsonio.sequence_from_doc(doc)
        law = seq.limit
        assert law.as_read == doc["limit"] and law.as_read is not doc["limit"]
        derived = [
            window_marginal(law, law.space.width - 1),
            weighted_sum(law.space, [(1, law)]),
            weighted_sum(law.space, [(F(1, 2), law), (F(1, 2), seq.members[0])]),
            MassFunction._derived(law.space, law.denominator, law.weights),
            replace(law),
            unrecorded(law),
        ]
        assert [d.as_read for d in derived] == [None] * len(derived)
        assert [derived[1], *derived[3:]] == [law] * 4

    def test_a_replaced_plan_hashes_its_own_sequence(self, two_member_sequence, skewed_sequence):
        loaded = jsonio.plan_from_doc(jsonio.plan_to_doc(build_plan(two_member_sequence)))
        assert loaded.sequence.limit.as_read is not None
        other = replace(loaded, sequence=skewed_sequence)
        assert other.spec_sha256 == build_plan(skewed_sequence).spec_sha256 != loaded.spec_sha256
        # a replaced law keeps no record of the document its original was read from
        limit = loaded.sequence.limit
        skewed = replace(limit, weights={0: 1, 1: 3}, denominator=4)
        assert skewed.as_read is None
        member = replace(loaded, sequence=replace(loaded.sequence, limit=skewed))
        expected = jsonio.document_sha256(
            {**jsonio.sequence_to_doc(loaded.sequence), "limit": {"a": "1/4", "b": "3/4"}}
        )
        assert member.spec_sha256 == expected != loaded.spec_sha256


class TestSampleRecords:
    def test_documented_schema(self, two_member_sequence):
        plan = build_plan(two_member_sequence)
        draw = sample(plan, streams.stream(7, "sample", 0))
        record = jsonio.sample_record(plan, draw, streams.derive_seed(7, "sample", 0))
        assert set(record) == {"seed", "N", "Z_hat", "Z_hat_n"}
        assert record["N"] == draw.index
        assert isinstance(record["Z_hat"], str)
        assert len(record["Z_hat_n"]) == plan.count


class TestModelDocs:
    def test_linf_round_trip(self):
        model = MetricSpaceModel.from_coords(
            ("p0", "p1"), ((F(0), F(0)), (F(1, 2), F(1, 4))), support=(True, False)
        )
        doc = jsonio.model_to_doc(model)
        assert doc["metric"] == "linf"
        assert doc["separable_support"] == [True, False]
        assert jsonio.model_from_doc(doc) == model

    def test_table_round_trip(self):
        model = MetricSpaceModel.from_table(
            ("a", "b"), ((F(0), F(1)), (F(1), F(0)))
        )
        doc = jsonio.model_to_doc(model)
        assert "dist" in doc and "coords" not in doc
        assert jsonio.model_from_doc(doc) == model

    def test_coords_doc_and_its_dist_twin_give_the_same_distances(self):
        coords = {"coords": [["0/1"], ["1/2"]], "metric": "linf"}
        twin = {"points": ["p0", "p1"], "dist": [["0/1", "1/2"], ["1/2", "0/1"]]}
        model, table = jsonio.model_from_doc(coords), jsonio.model_from_doc(twin)
        assert model.labels == table.labels == ("p0", "p1")
        assert model.distance(0, 1) == table.distance(0, 1) == F(1, 2)
        assert (model.rows, model.scale) == (table.rows, table.scale)
        assert table.coords is None and jsonio.model_to_doc(table) == twin

    def test_coords_doc_builds_and_checks_its_model_once(self, monkeypatch):
        coords = [["0/1", "1/3"], ["1/2", "-1/4"], ["5/6", "2/7"], ["3/1", "1/3"]]
        doc = {"coords": coords, "metric": "linf", "separable_support": [True, True, False, True]}
        validated = []
        check = MetricSpaceModel.__post_init__

        def counting(model):
            validated.append(model.coords is not None)
            check(model)

        def scan(model):
            raise AssertionError("a coordinate model runs no metric scan")

        monkeypatch.setattr(MetricSpaceModel, "__post_init__", counting)
        monkeypatch.setattr(MetricSpaceModel, "_check_metric", scan)
        model = jsonio.model_from_doc(doc)
        assert validated == [True]
        points = [[F(c) for c in row] for row in coords]
        assert model.dist == tuple(
            tuple(max(abs(a - b) for a, b in zip(p, q)) for q in points) for p in points
        )
        assert model.separable_support == (True, True, False, True)

    def test_table_doc_writes_each_distance_in_lowest_terms(self):
        rng = random.Random(23)
        for trial in range(30):
            points = random_metric_model(rng, max_points=8).coords
            table = [[max(abs(a - b) for a, b in zip(p, q)) for q in points] for p in points]
            model = MetricSpaceModel.from_table([f"p{i}" for i in range(len(points))], table)
            # most rows hold entries that share a factor with the scale
            doc = jsonio.model_to_doc(model)
            assert doc["dist"] == [[jsonio.fraction_to_str(d) for d in row] for row in table], trial
            assert jsonio.model_from_doc(doc) == model

    def test_table_doc_cannot_load_as_linf(self):
        doc = {"points": ["a"], "dist": [["0/1"]], "metric": "linf"}
        with pytest.raises(ValueError, match="^the linf metric requires a coords field$"):
            jsonio.model_from_doc(doc)


class TestLawSequenceDocs:
    def test_round_trip(self, line_laws):
        doc = jsonio.law_sequence_to_doc(line_laws)
        assert jsonio.law_sequence_from_doc(json.loads(json.dumps(doc))) == line_laws

    def test_random_round_trips_are_byte_identical(self):
        rng = random.Random(17)
        for trial in range(30):
            model = random_metric_model(rng, partial_support=trial % 2 == 1)
            seq = random_law_sequence(rng, model)
            text = jsonio.canonical_dumps(jsonio.law_sequence_to_doc(seq))
            again = jsonio.law_sequence_from_doc(json.loads(text))
            assert again == seq, trial
            assert jsonio.canonical_dumps(jsonio.law_sequence_to_doc(again)) == text, trial

    def test_sequence_on_another_space_is_refused(self, line_model, two_member_sequence):
        with pytest.raises(SpaceMismatchError):
            LawSequence(line_model, two_member_sequence)


class TestTreeDocs:
    def test_membership_and_certificates_present(self, line_model, line_laws):
        tree = build_partition_tree(line_model, line_laws.sequence.limit, 2)
        doc = jsonio.tree_to_doc(tree)
        assert doc["depth"] == 2
        assert doc["point_paths"]["x0"] == [2, 2]
        cells = [cell for level in doc["levels"] for cell in level]
        assert any(cell["members"] for cell in cells)
        assert any(cell["certificate"] for cell in cells)
        masses = [F(cell["limit_mass"]) for cell in doc["levels"][0]]
        assert sum(masses) == 1


class TestReports:
    def test_round_trip(self, two_member_sequence):
        plan = build_plan(two_member_sequence)
        report = mc_agreement(plan, 100, seed=1)
        doc = json.loads(jsonio.canonical_dumps(jsonio.report_to_doc(report)))
        again = jsonio.report_from_doc(doc)
        assert again.mc_checks == report.mc_checks
        assert again.provenance == report.provenance

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda doc: doc.update(exact_checks=5), "exact_checks"),
            (lambda doc: doc["mc_checks"].append(7), "mc_checks"),
            (lambda doc: doc.update(deficit_trace=[[1]]), "deficit_trace"),
            (lambda doc: doc.update(provenance=3), "provenance"),
        ],
        ids=["exact_checks", "mc_checks", "deficit_trace", "provenance"],
    )
    def test_malformed_field_is_a_value_error(self, constant_sequence, edit, field):
        doc = jsonio.report_to_doc(mc_agreement(build_plan(constant_sequence), 10, seed=1))
        edit(doc)
        with pytest.raises(ValueError, match=f"malformed report field {field!r}"):
            jsonio.report_from_doc(doc)

    def test_doc_carries_overall_verdict(self, constant_sequence):
        report = audit_plan(build_plan(constant_sequence))
        doc = jsonio.report_to_doc(report)
        assert doc["all_passed"] is True


# strings with non-ASCII letters, astral characters, quotes, backslashes
# and control characters, which the encoder escapes
JSON_TEXT = st.text(st.sampled_from(["a", "b", "é", "ß", "☃", "\U0001f600", '"', "\\",
                                     "\n", "\t", "\x00", "\x1f", "\x7f", "/", " "]))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | JSON_TEXT,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(JSON_TEXT, inner, max_size=4)
        # a flat object, whose keys and values are all strings
        | st.dictionaries(JSON_TEXT, JSON_TEXT, max_size=4)
    ),
    max_leaves=30,
)


class TestDeterminism:
    @given(JSON_VALUES)
    @example({})
    @example([[], {}, ()])
    @example({"a": {"b": [{}]}, "c": {"d": "e", "é": "\x00"}})
    def test_canonical_dumps_is_the_indented_sorted_dump(self, value):
        assert jsonio.canonical_dumps(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"

    def test_canonical_dumps_stable(self, two_member_sequence):
        plan = build_plan(two_member_sequence)
        a = jsonio.canonical_dumps(jsonio.plan_to_doc(plan))
        b = jsonio.canonical_dumps(jsonio.plan_to_doc(build_plan(two_member_sequence)))
        assert a == b

    def test_document_hash_stable(self, two_member_sequence):
        doc = jsonio.sequence_to_doc(two_member_sequence)
        assert jsonio.document_sha256(doc) == jsonio.document_sha256(
            json.loads(json.dumps(doc))
        )
