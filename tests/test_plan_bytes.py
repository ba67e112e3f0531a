"""Pinned plan and report bytes for fixed-seed instances.

The hashes were computed from the plain reference construction, before
the build path became table-driven; any change to them is a change of
the wire format and must be deliberate.
"""
import hashlib
import random
from fractions import Fraction as F

import pytest

from windowcoupling import (
    AtomicLaw,
    LawSequence,
    MetricSpaceModel,
    TailRule,
    audit_plan,
    audit_skorohod,
    build_skorohod_coupling,
    jsonio,
)
from windowcoupling.verify import random_enumerable_plan


def sha256(doc) -> str:
    return hashlib.sha256(jsonio.canonical_dumps(doc).encode("utf-8")).hexdigest()


# seed -> (schedule, plan sha256, audit report sha256)
ENUMERABLE = {
    0: (
        (0, 0, 0, 2),
        "243bd61a07bb4209a2844dbefacde3366ed22a4f99db9136547bb4af2a3e536c",
        "9bc55182b414861764057b4ae23f4937d78d66befd852833002e00fddc2d780a",
    ),
    3: (
        (0, 0, 1),
        "e490890fa4a19f6f23411820281ecd198cc432c6d9090b34209da39c4f52a69d",
        "901a12b8a8481062a6c126b60da99fe92e5990cc4b678fcec0393617b41d3d01",
    ),
    12: (
        (1, 1, 1, 2),
        "dbed64a051141d2c6644b0c1dea5a03dbef9a81ac5a88492c18c5e97dc23cd2d",
        "0fd64af93b35fb68f3c02366b6a0058bc26512a7f850e91610af5cf7b9de4658",
    ),
    26: (
        (1, 1, 1, 1, 3),
        "96e9d082e2ff58d5f89f50ecc5610c4510a8493ae237a9a72ef498f89719d29d",
        "5928d48686c13ac3a1d34ee15b84ec3f9c8f29ab83e6789492757bfbffe5a225",
    ),
    35: (
        (2, 2, 2, 3),
        "7ba01a77f6fac83630c2f8c1b578897f25570b0e47ef9a25257bc97aac2eaef8",
        "a9cdd61b8b3665b3d6808413ba70f906ab2a0a0c966a2c13653aa7dc02608f99",
    ),
}


@pytest.mark.parametrize("seed", sorted(ENUMERABLE))
def test_enumerable_plan_bytes(seed):
    windows, plan_sha, report_sha = ENUMERABLE[seed]
    _, plan = random_enumerable_plan(random.Random(seed))
    assert plan.schedule.windows == windows
    assert sha256(jsonio.plan_to_doc(plan)) == plan_sha
    assert sha256(jsonio.report_to_doc(audit_plan(plan))) == report_sha


def test_skorohod_plan_bytes():
    model = MetricSpaceModel.from_coords(
        ("x0", "x1", "x2"), ((F(0),), (F(1, 2),), (F(1),))
    )
    laws = LawSequence(
        model,
        (AtomicLaw({0: F(1)}), AtomicLaw({0: F(1, 2), 2: F(1, 2)})),
        AtomicLaw({0: F(1, 3), 1: F(1, 3), 2: F(1, 3)}),
        TailRule(2),
    )
    coupling = build_skorohod_coupling(model, laws, 2)
    assert coupling.plan.schedule.windows == (0, 0, 3)
    assert (
        sha256(jsonio.plan_to_doc(coupling.plan))
        == "3727ad317d24055a4e1ba6103f5b358db1f9d4328730892a33d7410c31de9817"
    )
    assert (
        sha256(jsonio.report_to_doc(audit_skorohod(coupling)))
        == "6c5a46738a17d21cff3bbb689fca2b47ed56f365d8869a103afc95559931398e"
    )
