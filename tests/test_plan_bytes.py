"""Pinned plan, tree, report and sample bytes for fixed-seed instances.

Any change to these hashes is a change of a wire format and must be
deliberate.  The format-1 plan hashes were computed from the plain
reference construction, before the build path became table-driven.
Format 2 drops only data that format 1 derived or that the sampler
never reads, format 3 drops the ladder and the kernel rows, which
format 2 stored but which follow from the rest, format 4 writes the
empty law in place of every mixture law the sampler never draws, and
format 5 stores the envelope densities in place of the mixture laws,
which are derived from them, and format 6 stores only the sequence and
the window list, from which the envelopes are derived.  ``v5_doc``
writes the densities of the derived envelopes against the limit law
and the schedule's horizon, ``v4_doc``
writes the derived mixture laws in place of the densities, ``v3_doc``
puts the format-3 fillers back into that, ``v2_doc`` adds the derived
ladder and kernel rows, and ``v1_doc`` builds on it; they must reproduce
the format-5, format-4, format-3, format-2 and format-1 bytes exactly.
Sample bytes are the same in every format.
"""
import hashlib
import random
from fractions import Fraction as F

import pytest

from windowcoupling import (
    CouplingSampler,
    LawSequence,
    MassFunction,
    MetricSpaceModel,
    ProcessSequenceSpec,
    audit_plan,
    audit_skorohod,
    build_skorohod_coupling,
    conditional_given_prefix,
    jsonio,
    mc_agreement,
    streams,
    window_marginal,
)
from windowcoupling.verify import random_enumerable_plan


def sha256(doc) -> str:
    return hashlib.sha256(jsonio.canonical_dumps(doc).encode("utf-8")).hexdigest()


def samples_sha256(plan, seed: int = 0, count: int = 200) -> str:
    """Hash of the first ``count`` sample records, as ``sample`` writes them."""
    sampler = CouplingSampler(plan)
    lines = []
    for i in range(count):
        draw = sampler.sample(streams.stream(seed, "sample", i))
        record = jsonio.sample_record(plan, draw, streams.derive_seed(seed, "sample", i))
        lines.append(jsonio.compact_dumps(record) + "\n")
    return hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()


def uniform_on_cylinder(space, prefix, k) -> MassFunction:
    extensions = [z for z in space.points() if space.prefix(z, k) == prefix]
    return MassFunction.from_masses(space, {z: F(1, len(extensions)) for z in extensions})


def v5_doc(plan) -> dict:
    """The format-5 document of a plan: its densities, and a schedule object with its horizon."""
    doc = jsonio.plan_to_doc(plan)
    doc["format"] = 5
    doc["schedule"] = {"windows": list(plan.schedule.windows), "horizon": plan.sequence.horizon}
    # r_n(p) = E_n|k_M(p) / L|k_M(p) at each k_M-prefix p that envelope n charges
    *envelopes, limit = plan.envelopes
    label = limit.space.format_point
    doc["densities"] = [
        {label(p): jsonio.fraction_to_str(env[p] / limit[p]) for p in env.weights}
        for env in envelopes
    ]
    return doc


def v4_doc(plan) -> dict:
    """The format-4 document of a plan: its mixture laws in place of its densities."""
    doc = v5_doc(plan)
    del doc["densities"]
    doc["format"] = 4
    doc["index_law"] = jsonio.law_to_doc(plan.index_law)
    doc["increment_laws"] = [jsonio.law_to_doc(v) for v in plan.increment_laws]
    doc["residual_laws"] = [jsonio.law_to_doc(w) for w in plan.residual_laws]
    return doc


def v3_doc(plan) -> dict:
    """The format-3 document of a plan.

    Format 3 stored the limit law as increment n where P(N = n) = 0 and
    member n's window law as residual n where P(N > n) = 0, where format
    4 stores the empty law.
    """
    doc = v4_doc(plan)
    doc["format"] = 3
    seq = plan.sequence
    for n in range(1, plan.count + 1):
        if plan.index_probability(n) == 0:
            assert doc["increment_laws"][n - 1] == {}
            doc["increment_laws"][n - 1] = jsonio.law_to_doc(seq.limit)
        if plan.index_tail_probability(n) == 0:
            assert doc["residual_laws"][n - 1] == {}
            member_window = window_marginal(seq.member(n), plan.schedule.window(n))
            doc["residual_laws"][n - 1] = jsonio.law_to_doc(member_window)
    return doc


def v2_doc(plan) -> dict:
    """The format-2 document of a plan: format 3 plus the ladder and the kernel rows."""
    doc = v3_doc(plan)
    doc["format"] = 2
    doc["ladder"] = {
        "floors": [jsonio.law_to_doc(f) for f in plan.ladder.floors],
        "envelopes": [jsonio.law_to_doc(e) for e in plan.ladder.envelopes],
    }
    space = plan.sequence.space
    doc["kernels"] = [
        {
            space.window(plan.schedule.window(n)).format_point(prefix): jsonio.law_to_doc(row.law)
            for prefix, row in rows.items()
        }
        for n, rows in enumerate(plan.kernels, start=1)
    ]
    return doc


def v1_doc(plan) -> dict:
    """The format-1 document of a plan.

    Format 1 also stored the floor ratios (each floor over the limit law
    on the limit's support), tagged every row with its source, and gave
    every prefix of each window a row: the member conditional where the
    member has mass, else the limit conditional where the limit has
    mass, else the uniform law on the prefix's cylinder.
    """
    doc = v2_doc(plan)
    del doc["format"]
    space = plan.sequence.space
    limit = plan.sequence.limit
    doc["ladder"]["floor_ratios"] = [
        {
            space.format_point(z): jsonio.fraction_to_str(floor[z] / q)
            for z, q in limit.mass.items()
        }
        for floor in plan.ladder.floors
    ]
    kernels = []
    for n, rows in enumerate(plan.kernels, start=1):
        k = plan.schedule.window(n)
        window = space.window(k)
        limit_window = window_marginal(limit, k)
        entries = {}
        for prefix in window.points():
            if prefix in rows:
                source, law = "member", rows[prefix].law
            elif limit_window[prefix] > 0:
                source, law = "limit", conditional_given_prefix(limit, prefix, k)
            else:
                source, law = "uniform", uniform_on_cylinder(space, prefix, k)
            entries[window.format_point(prefix)] = {
                "source": source,
                "mass": jsonio.law_to_doc(law),
            }
        kernels.append(entries)
    doc["kernels"] = kernels
    return doc


# seed -> (schedule, format-1 to format-6 plan sha256, audit report sha256)
ENUMERABLE = {
    0: (
        (0, 0, 0, 2),
        "243bd61a07bb4209a2844dbefacde3366ed22a4f99db9136547bb4af2a3e536c",
        "974ac6696e64fa40badb4b013d1b9c7a9c9fe5f122e97381c11fab2c8030b7c8",
        "a2418eee23df1c8536e833271858fae579639e1002da5288fd9437043202cb5a",
        "6dd10129eb047eeb8c5c5150f458e01e4ab20eb7c1019a22ee34deb13e79383f",
        "860084d77541f593e56c0c30956d85388bbdc50f9dfb239a14e3202a47c6391e",
        "b8be70e13b7b6bc43c2d5f7ce9d5d147af97c52ced53bff4078e70cd37fcd308",
        "a3f4c5750485e36dd595d1532ed0b48886ce3dedc1710fb7590f1445b5027629",
    ),
    3: (
        (0, 0, 1),
        "e490890fa4a19f6f23411820281ecd198cc432c6d9090b34209da39c4f52a69d",
        "17b2eccd52396aa755a6b5768706e775d882f14dbdd840be58b7b5a85bc03a8d",
        "af5841eb812a9f27e5c4a9e5a1955e8a1b2b6e7fdc362d1df7a47ae94fb013f4",
        "7e4d18cf484a7082f96ec061b9fa8850f032ca680dfda47f37792698d7176b0c",
        "9ae54b75fe00dd61d0b3afa8029379dcba74e095abd58cce2b8790c30516a0bb",
        "735f70adefb5df96a649b14bf1db5ec1ee9d9dc288a15a1189da01813176d863",
        "fb0f78075dc8ab2194f0f81da0e47727f61428528846219887f8d2860efb9e23",
    ),
    12: (
        (1, 1, 1, 2),
        "dbed64a051141d2c6644b0c1dea5a03dbef9a81ac5a88492c18c5e97dc23cd2d",
        "64a77f6d5702ced8c305b6af98a74cc02d3b2aad6c7f2751a78ba7f2d0cd33c1",
        "aaa7dadf5c350e6336bf07fb8a8815b2c8e5b578b445e6a2c416b4f08e4a27d4",
        "587b296e9b557438d699e0ec1982b1c54c80b82c75a57c9e16fb2419b55208e2",
        "0b77ce2ed94add99fd67b639828387a1e321ff0dc7d02666fccea72d3d143f5d",
        "cf9ffe5070dbb58572123cf8ff2202943256c1ae95b4e58c84de8a861e6848eb",
        "eefd745cc266b4a9d8b73f25df0ab0d7d3f635ab87d5cf973e48cd1bde37eb0a",
    ),
    26: (
        (1, 1, 1, 1, 3),
        "96e9d082e2ff58d5f89f50ecc5610c4510a8493ae237a9a72ef498f89719d29d",
        "b73e911fb8fcf3c98316b4360024a4c0259686a20bd1f40c6bd2e2d9845470aa",
        "97161f9e9da129e5df06d3f3d13c1982a1759d36131de875655b1aad382898d7",
        "2220dd318f3a3030c5801c1d432d5d1bf71d16f21d3775c1960527cb68dc89b8",
        "b14ec6847d3f201784d3fc89a1da0ba1f211c480599579cbd4a92ffac3343791",
        "a10aee872ee6901965366c3615b921ae8b97efecf1e67a4e64613abb0dff0f4c",
        "85ee9a6aa1dbc5a87281aea01a05aef3b4f0dc0b1f0b166cbd63c87df57b2706",
    ),
    35: (
        (2, 2, 2, 3),
        "7ba01a77f6fac83630c2f8c1b578897f25570b0e47ef9a25257bc97aac2eaef8",
        "5b8467234ac09d541b096b2cea0944c41412555e89accc328aa659574a24da29",
        "3404011b9e9dad1ab7d79fdf15391d8ebe5b1da07d3e9af44ee1cb0ed139c706",
        "93fe1328500c269db382dc66a436aaf3bba43101944bc7e3392c4fbe7192019c",
        "d50c80c03335fb05d4390f197e535ade1f1e3d1765e1ce031152eb17c57c32a1",
        "a84ed36e9bad8c9bdaaedf96046260de194b8cbee4265b8212390a8ffb0e2144",
        "2eb99eed5ef30446ed32a7cdec15147d516edebc37436c6bb0a411afc6f6018e",
    ),
}

# first 200 sample records at seed 0, unchanged by the format-2 plan
ENUMERABLE_SEED_0_SAMPLES = "9548c8b6abc8529bef1ca7a4aafaf29d61e72c0be805bb5a184c57e237e28c5c"
ENUMERABLE_SEED_0_MC_REPORT = "6a491ca5a8504b87c047b6cb82765f5f4853a384bb79f991efcc7bc504dc75c3"
# first 200 sample records at seed 0 of two plans whose windows widen
# through intermediate values and whose draws reach N > 1, so residual
# draws and cached kernel-row tables are exercised
WIDENING_SAMPLES = {
    133: ((0, 1, 1, 2), "75c99e1b8b1c77e05cdce3712e70830e46be5962d20becb8e5948e0b00aae569"),
    193: ((2, 3, 3, 3), "3ed21a56c22007c1ee934e52eca55ba17aa1a891f5dcfc981b0c11f5f4cd4840"),
}
SKOROHOD_SAMPLES = "e414cbc753bd94b42496a2b50c67d66ab3ed44832dd39060473f915bac7d8940"


@pytest.mark.parametrize("seed", sorted(ENUMERABLE))
def test_enumerable_plan_bytes(seed):
    windows, v1_sha, v2_sha, v3_sha, v4_sha, v5_sha, v6_sha, report_sha = ENUMERABLE[seed]
    _, plan = random_enumerable_plan(random.Random(seed))
    assert plan.schedule.windows == windows
    assert sha256(jsonio.plan_to_doc(plan)) == v6_sha
    assert sha256(v5_doc(plan)) == v5_sha
    assert sha256(v4_doc(plan)) == v4_sha
    assert sha256(v3_doc(plan)) == v3_sha
    assert sha256(v2_doc(plan)) == v2_sha
    assert sha256(v1_doc(plan)) == v1_sha
    assert sha256(jsonio.report_to_doc(audit_plan(plan))) == report_sha


def test_format_2_documents_are_refused():
    _, plan = random_enumerable_plan(random.Random(0))
    with pytest.raises(ValueError, match="unsupported plan format 2"):
        jsonio.plan_from_doc(v2_doc(plan))


@pytest.mark.parametrize("seed", sorted(ENUMERABLE) + sorted(WIDENING_SAMPLES))
def test_sampler_tables_only_drawable_laws(seed):
    _, plan = random_enumerable_plan(random.Random(seed))
    sampler = CouplingSampler(plan)
    for n, (law, table) in enumerate(zip(plan.increment_laws, sampler._increment_tables), 1):
        never = plan.index_probability(n) == 0
        assert (table is None) == never == (not law.weights)
    residual_tables = [residual for _, residual, *_ in sampler._components]
    for n, (law, table) in enumerate(zip(plan.residual_laws, residual_tables), 1):
        never = plan.index_tail_probability(n) == 0
        assert (table is None) == never == (not law.weights)
    assert residual_tables[-1] is None


def test_enumerable_sample_bytes():
    _, plan = random_enumerable_plan(random.Random(0))
    assert samples_sha256(plan) == ENUMERABLE_SEED_0_SAMPLES
    report = mc_agreement(plan, 200, seed=0)
    assert sha256(jsonio.report_to_doc(report)) == ENUMERABLE_SEED_0_MC_REPORT


@pytest.mark.parametrize("seed", sorted(WIDENING_SAMPLES))
def test_widening_sample_bytes(seed):
    windows, samples_sha = WIDENING_SAMPLES[seed]
    _, plan = random_enumerable_plan(random.Random(seed))
    assert plan.schedule.windows == windows
    sampler = CouplingSampler(plan)
    assert max(sampler.sample(streams.stream(0, "sample", i)).index for i in range(200)) > 1
    assert samples_sha256(plan) == samples_sha


def skorohod_instance():
    model = MetricSpaceModel.from_coords(
        ("x0", "x1", "x2"), ((F(0),), (F(1, 2),), (F(1),))
    )
    space = model.space
    laws = LawSequence(
        model,
        ProcessSequenceSpec(
            (
                MassFunction.from_masses(space, {(0,): F(1)}),
                MassFunction.from_masses(space, {(0,): F(1, 2), (2,): F(1, 2)}),
            ),
            MassFunction.from_masses(space, {(0,): F(1, 3), (1,): F(1, 3), (2,): F(1, 3)}),
        ),
    )
    return build_skorohod_coupling(model, laws, 2)


def test_skorohod_plan_bytes():
    coupling = skorohod_instance()
    assert coupling.plan.schedule.windows == (0, 0, 3)
    assert (
        sha256(jsonio.plan_to_doc(coupling.plan))
        == "ba4a6bd2cc97dbd910eabc44bd6644f8469b03672c3dd0f760602f5410ad97d6"
    )
    assert (
        sha256(v5_doc(coupling.plan))
        == "1b200398710687d24cadceea32273f83feac59eebfe0980f2a27078c73b00c17"
    )
    assert (
        sha256(v4_doc(coupling.plan))
        == "d8255a38199117884a5b564a87ea5df65202f602478675ad0be2e83e82e02b29"
    )
    assert (
        sha256(v3_doc(coupling.plan))
        == "e6872e0de6dd9496c8063af9ae97135c707592b9fa6b50daffd06830a76e7d1f"
    )
    assert (
        sha256(v2_doc(coupling.plan))
        == "968904489ca2d62d4624ea309c7bb87a721e266ebe5432b38bbbf710f6fcd0dc"
    )
    assert (
        sha256(v1_doc(coupling.plan))
        == "3727ad317d24055a4e1ba6103f5b358db1f9d4328730892a33d7410c31de9817"
    )
    assert (
        sha256(jsonio.report_to_doc(audit_skorohod(coupling)))
        == "8308731272c74bdd6e750824c94c1cfa3caec1aec68e44371bfb9e0491dd3fda"
    )


def test_skorohod_sample_bytes():
    assert samples_sha256(skorohod_instance().plan) == SKOROHOD_SAMPLES


def jittered_lattice(seed: int) -> dict:
    """80-point metric law sequence on a jittered 10x8 lattice, as a spec document.

    Lattice spacing 3/10 with jitter below 1/100 keeps every distance
    away from the depth-3 ball radii; laws are random with some zero masses.
    """
    rng = random.Random(seed)
    coords = [
        (i * 300 + rng.randint(-9, 9), j * 300 + rng.randint(-9, 9))
        for i in range(10)
        for j in range(8)
    ]
    labels = [f"p{i}" for i in range(len(coords))]

    def law() -> dict:
        while True:
            raw = [rng.randint(0, 8) for _ in labels]
            if sum(raw):
                return {
                    label: jsonio.fraction_to_str(F(w, sum(raw)))
                    for label, w in zip(labels, raw)
                    if w
                }

    return {
        "model": {
            "points": labels,
            "coords": [[jsonio.fraction_to_str(F(c, 1000)) for c in xy] for xy in coords],
            "metric": "linf",
        },
        "members": [law() for _ in range(3)],
        "limit": law(),
        "tail": {"eventually_equal": 3},
    }


def test_jittered_lattice_tree_and_report_bytes():
    laws = jsonio.law_sequence_from_doc(jittered_lattice(1))
    coupling = build_skorohod_coupling(laws.model, laws, 3)
    assert sha256(jsonio.tree_to_doc(coupling.tree)) == (
        "89164df424e1f13a0779aba61cd1038bac22c1bbf7029773b0f1b46cdaf4b17a"
    )
    assert sha256(jsonio.report_to_doc(audit_skorohod(coupling))) == (
        "852a7622519403d54b5b55f51722d8d99f769408f0785160e79d6946fc3e1c33"
    )


def distance_table_twin(doc: dict) -> dict:
    """The spec with its coordinate model written as its max-metric distance table."""
    model = doc["model"]
    points = [[F(c) for c in row] for row in model["coords"]]
    dist = [
        [jsonio.fraction_to_str(max(abs(a - b) for a, b in zip(p, q))) for q in points]
        for p in points
    ]
    return {**doc, "model": {"points": model["points"], "dist": dist}}


def test_jittered_lattice_table_twin_bytes():
    laws = jsonio.law_sequence_from_doc(distance_table_twin(jittered_lattice(1)))
    assert laws.model.coords is None
    coupling = build_skorohod_coupling(laws.model, laws, 3)
    assert sha256(jsonio.tree_to_doc(coupling.tree)) == (
        "40079af6fae2cffc5a860aa829a4b17334b4f797c9421059c1ed89ba3728d196"
    )
    assert sha256(jsonio.plan_to_doc(coupling.plan)) == (
        "5d18d76a0eb058cfd9d4490cf414d4de84ab29c286a801d51fb600ae4d89b4d3"
    )
    assert sha256(jsonio.report_to_doc(audit_skorohod(coupling))) == (
        "915e6dfdd46f5893e474cca345173e0d4d0c85248cb6535afcebcee66cf14a86"
    )
