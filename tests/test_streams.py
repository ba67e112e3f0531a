from itertools import islice

from hypothesis import example, given, settings
from hypothesis import strategies as st

from windowcoupling import streams

ROOTS = st.one_of(
    st.just(0),
    st.integers(max_value=-1),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=0, max_value=2**64 - 1),
)
# str(label) is hashed as UTF-8, which lone surrogates cannot be
LABELS = st.lists(
    st.one_of(st.integers(), st.text(st.characters(blacklist_categories=("Cs",)))),
    max_size=4,
)


class TestSeeds:
    @settings(max_examples=60, deadline=None)
    @given(ROOTS, LABELS)
    @example(0, [])
    @example(-7, ["sample"])
    @example(2**64, ["é", "ß✓", "𝔛", 3])
    @example(2**64 + 1, [-12, "\x1f", ""])
    def test_equals_derive_seed_with_the_counter_appended(self, root, labels):
        got = list(islice(streams.seeds(root, *labels), 300))
        assert got == [streams.derive_seed(root, *labels, i) for i in range(300)]

    def test_reseeded_generator_starts_as_a_fresh_one(self):
        # the guard and ``sample`` reseed one generator per draw; each draw
        # must see the state a fresh Random(derived) starts in, whatever
        # the generator drew before
        rng = streams.stream(0, "other")
        for i, derived in enumerate(islice(streams.seeds(9, "sample"), 50)):
            rng.getrandbits(1 + i * 37)
            rng.seed(derived)
            fresh = streams.stream(9, "sample", i)
            assert rng.getstate() == fresh.getstate()
            assert rng.getrandbits(200) == fresh.getrandbits(200)
