"""One mutation of a valid format-6 plan document, run through the CLI.

A format-6 plan is its sequence and its window list.  Each case changes
one thing in a plan document: scales one mass of the sequence (to zero,
a half, double, a negative value or "2/1"), drops a member or a window
from a list, lowers or raises one schedule window, or writes a "1/0"
value.  Then it runs ``verify`` and ``sample`` on the result:

- ``verify`` exits 1 with a FAIL line that names a witness, or exits 2
  with exactly one ``error:`` line.  It may exit 0 only when the mutated
  plan still is a coupling of its sequence, which the brute-force joint
  law then confirms.  Whenever the plan loads, the report holds the
  factored ``joint-law-marginals`` check, which may pass only when the
  brute-force marginals are the input laws.
- ``sample`` first audits the exact checks of ``verify``, which imply
  the marginal check.  It may exit 0 only when they all pass.  A plan
  that fails one gives exit 1 with exactly one ``error:`` line, naming
  the first failing check and its witness; a plan that does not load
  gives exit 2 with exactly one ``error:`` line.
- A shifted window that leaves every window inside the space but makes
  the schedule decrease makes both commands exit 1 naming
  ``schedule-monotone``: the document is well shaped and breaks an
  invariant.  Where the drop leaves a window wider than k_M, the
  envelopes cannot be derived, and the checks that read them report
  that as their witness.

No case may end in an exception.
"""
import contextlib
import io
import json
import random
import re
import tempfile
from fractions import Fraction as F
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from windowcoupling import audit_plan, exact_joint_law, jsonio
from windowcoupling.cli import main
from windowcoupling.verify import random_enumerable_plan

# small plans, all but the first with two to four values of N and joint
# supports of at most 159 points; all but the last have windows that
# widen, and the last (three values of N, windows (3, 3, 3)) has two
# 3-prefixes that its limit law does not charge, so its envelopes do
# not charge them either
BASE_DOCS = [
    jsonio.plan_to_doc(random_enumerable_plan(random.Random(seed))[1])
    for seed in (0, 12, 24, 35, 50, 107, 133, 193, 252)
]

FACTORS = (F(0), F(1, 2), F(2), F(-1))
FAIL_LINE = re.compile(r"^  FAIL [\w-]+: \S", re.MULTILINE)
MARGINALS_LINE = re.compile(r"^  (PASS|FAIL) joint-law-marginals", re.MULTILINE)


def value_locations(doc: dict) -> list[tuple[dict, str]]:
    """Every (map, key) pair of a mass of the plan's sequence."""
    seq = doc["sequence"]
    maps = [*seq["members"], seq["limit"]]
    return [(values, key) for values in maps for key in values]


def scale_value(doc: dict, draw) -> None:
    values, key = draw(st.sampled_from(value_locations(doc)))
    factor = draw(st.sampled_from(FACTORS + (None,)))
    values[key] = "2/1" if factor is None else jsonio.fraction_to_str(F(values[key]) * factor)


def zero_denominator(doc: dict, draw) -> None:
    values, key = draw(st.sampled_from(value_locations(doc)))
    values[key] = "1/0"


def drop_entry(doc: dict, draw) -> None:
    lists = [doc["sequence"]["members"], doc["schedule"]]
    entries = draw(st.sampled_from([entries for entries in lists if entries]))
    del entries[draw(st.integers(0, len(entries) - 1))]


def shift_window(doc: dict, draw) -> None:
    windows = doc["schedule"]
    n = draw(st.integers(0, len(windows) - 1))
    windows[n] += draw(st.sampled_from((-1, 1)))


def drops_inside_the_space(doc: dict) -> bool:
    """Whether every window lies inside the space and some window is narrower than the last."""
    windows = doc["schedule"]
    width = len(doc["sequence"]["space"])
    inside = all(0 <= k <= width for k in windows)
    return inside and any(b < a for a, b in zip(windows, windows[1:]))


MUTATIONS = (scale_value, zero_denominator, drop_entry, shift_window)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def error_lines(err: str) -> int:
    return len([line for line in err.splitlines() if "error:" in line])


def has_input_marginals(doc: dict) -> bool:
    """Whether the plan's exact joint law has every input law as its marginal."""
    plan = jsonio.plan_from_doc(doc)
    joint = exact_joint_law(plan)
    seq = plan.sequence
    return joint.marginal_limit() == seq.limit and all(
        joint.marginal_member(n) == seq.member(n) for n in range(1, plan.count + 1)
    )


def is_coupling(doc: dict) -> bool:
    """Whether the plan's exact joint law is a coupling of its sequence."""
    plan = jsonio.plan_from_doc(doc)
    joint = exact_joint_law(plan)
    return (
        joint.total_mass == 1
        and has_input_marginals(doc)
        and joint.index_marginal() == plan.index_law
        and joint.agreement_mass() == 1
    )


def exact_failures(doc: dict):
    """The plan's failing exact checks, as ``verify`` runs them; None if it does not load."""
    try:
        plan = jsonio.plan_from_doc(doc)
    except (KeyError, ValueError):
        return None
    return [c for c in audit_plan(plan).exact_checks if not c.passed]


@settings(max_examples=150, deadline=None)
@given(
    base=st.sampled_from(BASE_DOCS),
    mutation=st.sampled_from(MUTATIONS),
    data=st.data(),
)
def test_mutated_plan_fails_cleanly(base, mutation, data):
    doc = json.loads(json.dumps(base))
    mutation(doc, data.draw)
    with tempfile.TemporaryDirectory() as tmp:
        plan = Path(tmp) / "plan.json"
        plan.write_text(json.dumps(doc))

        decreasing = mutation is shift_window and drops_inside_the_space(doc)
        code, out, err = run_cli(["verify", "--plan", str(plan), "--samples", "30"])
        assert "Traceback" not in err
        if decreasing:
            assert code == 1 and "  FAIL schedule-monotone: window drops from " in out, (code, out)
        if code == 0:
            assert is_coupling(doc), "verify passed a plan that is not a coupling"
        elif code == 1:
            assert FAIL_LINE.search(out), out
            assert "overall: FAIL" in out
        else:
            assert code == 2 and error_lines(err) == 1, (code, err)
        if code in (0, 1):
            verdict = MARGINALS_LINE.search(out)
            assert verdict, out
            if verdict.group(1) == "PASS":
                assert has_input_marginals(doc), "factored marginals disagree with the joint law"

        code, out, err = run_cli(["sample", "--plan", str(plan), "--samples", "5"])
        assert "Traceback" not in err
        assert code in (0, 1, 2)
        if code:
            assert error_lines(err) == 1, (code, err)
        if decreasing:
            assert code == 1 and "no samples drawn: schedule-monotone: window drops from " in err, err
        failed = exact_failures(doc)
        if failed is None:
            assert code == 2, (code, err)
        elif failed:
            assert code == 1, "sample drew from a plan that fails the exact audit"
            assert f"{failed[0].name}: {failed[0].witness}" in err, err
