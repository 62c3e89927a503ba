import itertools
import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarwd import (
    CosetCache,
    WeightEnumerator,
    brute_force_wef,
    from_bhattacharyya_bec,
    from_rm,
    from_unfrozen_set,
    pac_spec,
    profile,
    wef_direct,
    wef_lta,
)
from polarwd import coset, engine
from polarwd.coset import (
    _choose,
    _node,
    _plan,
    _quarters,
    _rref,
    _split,
    affine_sum,
    calc_a,
)
from polarwd.oracle import brute_force_coset_wef

from conftest import HAMMING16_WEF

# PAC(32,16): RM(2,5) rate profile under the taps 1011011; k = 16 keeps the
# brute-force oracle quick
PAC32 = pac_spec(5, from_rm(2, 5).unfrozen, [1, 0, 1, 1, 0, 1, 1])


class TestEvenOddTransform:
    """``_split`` maps a prefix int (bit i = u_i) to its (even xor odd, odd)
    halves; an odd-length prefix splits as if its next bit were 0."""

    def test_empty(self):
        assert _split(0) == (0, 0)

    def test_pair(self):
        # (0, 1) -> ((1,), (1,))
        assert _split(0b10) == (0b1, 0b1)

    def test_length_four(self):
        # (1, 0, 1, 1) -> ((1, 0), (0, 1))
        assert _split(0b1101) == (0b01, 0b10)

    def test_matches_bitwise_definition(self):
        # every length, across and between the 16-bit chunks of the tables
        rng = random.Random(5)
        for length in range(0, 131):
            pairs = (length + 1) // 2
            for p in (rng.getrandbits(length) if length else 0, (1 << length) - 1):
                bits = [p >> i & 1 for i in range(2 * pairs)]
                xored = sum((bits[2 * j] ^ bits[2 * j + 1]) << j for j in range(pairs))
                odd = sum(bits[2 * j + 1] << j for j in range(pairs))
                assert _split(p) == (xored, odd)


def _span(vectors):
    span = {0}
    for v in vectors:
        span |= {x ^ v for x in span}
    return span


class TestRref:
    def test_random_inputs_keep_their_span(self):
        rng = random.Random(7)
        for _ in range(300):
            width = rng.randrange(1, 12)
            vectors = [rng.getrandbits(width) for _ in range(rng.randrange(9))]
            rows = _rref(vectors)
            pivots = [1 << r.bit_length() - 1 for r in rows]
            assert all(rows) and pivots == sorted(pivots, reverse=True)
            assert len(set(pivots)) == len(pivots)
            for i, pivot in enumerate(pivots):
                assert all(not r & pivot for j, r in enumerate(rows) if j != i)
            assert _span(rows) == _span(vectors)
            # the span has 2^rank elements, so the rows are independent
            assert len(_span(rows)) == 1 << len(rows)


class TestCalcAExamples:
    def test_base_case(self):
        assert calc_a(1, ()) == (WeightEnumerator.one(), WeightEnumerator.x())

    def test_n2_empty_prefix(self):
        w0, w1 = calc_a(2, ())
        assert w0.coeffs == [1, 0, 1]
        assert w1.coeffs == [0, 2]

    def test_n2_singleton_cosets(self):
        assert calc_a(2, (0,)) == (
            WeightEnumerator([1]),
            WeightEnumerator([0, 0, 1]),
        )
        assert calc_a(2, (1,)) == (
            WeightEnumerator([0, 1]),
            WeightEnumerator([0, 1]),
        )

    def test_n4_zero_prefix(self):
        w0, w1 = calc_a(4, (0, 0))
        assert w0.coeffs == [1, 0, 0, 0, 1]
        assert w1.coeffs == [0, 0, 2]

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            calc_a(3, ())

    def test_long_prefix_rejected(self):
        with pytest.raises(ValueError):
            calc_a(2, (0, 1))

    @pytest.mark.parametrize("bad", [2, -1, 3, 0.5, "1"])
    def test_non_bit_entries_rejected(self, bad):
        with pytest.raises(ValueError):
            calc_a(4, (bad,))
        with pytest.raises(ValueError):
            calc_a(8, (0, 1, bad))

    def test_bool_entries_accepted(self):
        assert calc_a(4, (True, False)) == calc_a(4, (1, 0))


class TestOracleEquivalence:
    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_all_short_prefixes(self, n):
        cache = CosetCache()
        for length in range(min(8, n)):
            for prefix in itertools.product((0, 1), repeat=length):
                w0, w1 = calc_a(n, prefix, cache)
                assert w0 == brute_force_coset_wef(n, prefix, 0)
                assert w1 == brute_force_coset_wef(n, prefix, 1)

    def test_zero_prefix_n16(self):
        assert brute_force_coset_wef(16, (0,) * 8, 0) == calc_a(16, (0,) * 8)[0]


class TestInvariants:
    @settings(max_examples=80)
    @given(st.integers(min_value=0, max_value=5), st.data())
    def test_components_sum_to_coset_size(self, m, data):
        n = 1 << m
        length = data.draw(st.integers(0, n - 1))
        prefix = tuple(data.draw(st.lists(st.integers(0, 1), min_size=length, max_size=length)))
        w0, w1 = calc_a(n, prefix)
        assert w0.eval_at_one() == 1 << (n - 1 - length)
        assert w1.eval_at_one() == 1 << (n - 1 - length)

    def test_cache_does_not_change_results(self):
        rng = random.Random(7)
        cache = CosetCache()
        for _ in range(25):
            length = rng.randrange(0, 15)
            prefix = tuple(rng.randrange(2) for _ in range(length))
            assert calc_a(16, prefix, cache) == calc_a(16, prefix, None)

    def test_full_length_pairs_not_cached(self):
        # PAC32's direct set splits into groups of quarter blocks; every
        # node, one block or a group, is keyed (n, length, basis, blocks)
        for spec in (from_rm(2, 5), PAC32):
            cache = CosetCache()
            wef_direct(spec, cache=cache)
            assert len(cache) > 0
            assert all(len(key) == 4 for key in cache.nodes)
            assert len(cache) == sum(len(node.sums) for node in cache.nodes.values())
            assert any(key[0] == spec.n for key in cache.nodes)
            assert all(key[0] < spec.n for key, node in cache.nodes.items() if node.sums)

    def test_cache_is_bounded(self):
        cache = CosetCache(max_entries=2)
        for prefix in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            calc_a(8, prefix, cache)
        assert len(cache) <= 2


def coset_wef(n, length, prefix, cache=None):
    """Enumerator of the one coset whose first ``length`` bits are ``prefix``."""

    if length == 0:
        w0, w1 = calc_a(n, (), cache)
        return w0 + w1
    bits = [prefix >> i & 1 for i in range(length)]
    return calc_a(n, bits[:-1], cache)[bits[-1]]


def halves_to_prefix(a, b):
    """The prefix whose (even xor odd, odd) halves are a and b."""

    bits = max(a.bit_length(), b.bit_length())
    return sum(((a >> j ^ b >> j) & 1) << 2 * j | (b >> j & 1) << 2 * j + 1 for j in range(bits))


def quarters_to_prefix(quarters):
    """The prefix whose quarter blocks (a1, b1, a2, b2) are ``quarters``."""

    a1, b1, a2, b2 = quarters
    return halves_to_prefix(halves_to_prefix(a1, a2), halves_to_prefix(b1, b2))


def nested_set():
    """(offset, basis) of a set of 32-bit prefixes at n = 32 whose top step
    and whose halves' steps all walk several blocks: 5 random vectors in
    each half alone, 5 that mix the halves."""

    rng = random.Random(1)
    basis = [halves_to_prefix(rng.getrandbits(16), 0) for _ in range(5)]
    basis += [halves_to_prefix(0, rng.getrandbits(16)) for _ in range(5)]
    basis += [rng.getrandbits(32) for _ in range(5)]
    return rng.getrandbits(32), basis


class CountedGets(dict):
    """A memo table that counts the hits and misses of its lookups."""

    hits = misses = 0

    def get(self, key, default=None):
        value = super().get(key, default)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value


def count_sets(monkeypatch):
    """The node of every set the recursion evaluates, once per set, whether
    a recursion step or a first row's loop evaluates it."""

    evaluated = []
    step, first_row = coset._step, coset._first_row

    def stepped(node, offset, cache):
        evaluated.append(node)
        return step(node, offset, cache)

    def looped(node, offset, images, cache):
        evaluated.extend([node] * len(images))
        return first_row(node, offset, images, cache)

    monkeypatch.setattr(coset, "_step", stepped)
    monkeypatch.setattr(coset, "_first_row", looped)
    return evaluated


def span(offset, basis):
    points = {offset}
    for v in basis:
        points |= {p ^ v for p in points}
    return points


# every contiguous cut "first c blocks | the rest" of a group of 2, 3 or 4
# blocks, by its c, in the order that ``_choose`` breaks ties in: the most
# even cut first, then the smaller c
TIE_ORDER = {2: [1], 3: [1, 2], 4: [2, 1, 3]}


def sides(c, count):
    """The block indices (S, T) of the cut after the first c of ``count``."""

    return tuple(range(c)), tuple(range(c, count))


def random_block_sets(count):
    """Seeded (vectors, width) pairs spanning sets of ``count``-block tuples;
    every other set couples only some of its blocks per vector, so that its
    splits price apart."""

    rng = random.Random(count)
    for trial in range(40):
        width = rng.randrange(1, 5)
        dim = rng.randrange(count * width + 1)
        if trial % 2:
            vectors = [
                sum(
                    rng.getrandbits(width) << i * width
                    for i in rng.sample(range(count), rng.randrange(1, count + 1))
                )
                for _ in range(dim)
            ]
        else:
            vectors = [rng.getrandbits(count * width) for _ in range(dim)]
        yield vectors, width


def mixed_dims(vectors, width, split):
    """rank(proj_S) + rank(proj_T) - dim of the set spanned by ``vectors``."""

    one = (1 << width) - 1
    ranks = [len(_rref(v & sum(one << i * width for i in side) for v in vectors)) for side in split]
    return sum(ranks) - len(_rref(vectors))


def split_plan(vectors, width, split, cut):
    return _plan([cut(v) for v in vectors], len(split[0]) * width, len(split[1]) * width)


def gathers_its_sides(cut, vectors, width, split):
    """Whether ``cut`` maps each vector to the tuples of its blocks on each
    side of ``split``, in the side's order."""

    one = (1 << width) - 1
    return all(
        cut(v)
        == tuple(
            sum((v >> i * width & one) << j * width for j, i in enumerate(side)) for side in split
        )
        for v in vectors
    )


class TestChoose:
    @pytest.mark.parametrize("count", [2, 3, 4])
    def test_rank_price_counts_the_plans_mixed_generators(self, count):
        for vectors, width in random_block_sets(count):
            for c in TIE_ORDER[count]:
                split = sides(c, count)
                cut = lambda x, c=c: (x & (1 << c * width) - 1, x >> c * width)
                assert gathers_its_sides(cut, vectors, width, split)
                plan = split_plan(vectors, width, split, cut)
                assert mixed_dims(vectors, width, split) == len(plan[2])

    @pytest.mark.parametrize("count", [2, 3, 4])
    def test_first_minimum_in_tie_order(self, count):
        ties = 0
        for vectors, width in random_block_sets(count):
            prices = [mixed_dims(vectors, width, sides(c, count)) for c in TIE_ORDER[count]]
            c, cut, plan = _choose(vectors, width, count)
            assert c == TIE_ORDER[count][prices.index(min(prices))]
            assert gathers_its_sides(cut, vectors, width, sides(c, count))
            assert plan == split_plan(vectors, width, sides(c, count), cut)
            ties += prices.count(min(prices)) > 1
        assert ties or count == 2

    def test_quarter_tie_keeps_natural_split(self):
        # vector i is unit vector i in each of the four 8-bit quarter blocks:
        # every cut of the quarters mixes all 8 dimensions, as many as the
        # natural split, which is kept
        basis = tuple(_rref(quarters_to_prefix([1 << i] * 4) for i in range(8)))
        c, _, plan = _choose([_quarters(v, 8) for v in basis], 8, 4)
        assert c == TIE_ORDER[4][0] and len(plan[2]) == 8
        node = _node(32, 32, basis, CosetCache())
        assert node.cut is _split
        assert len(node.low[0]) << len(node.high) == 1 << 8


class TestAffineSum:
    def test_matches_per_coset_sum(self):
        # seeded random sets: odd and even lengths, dependent basis vectors
        rng = random.Random(11)
        cache = CosetCache()
        for n in (2, 4, 8, 16, 32):
            for _ in range(12):
                length = rng.randrange(0, n + 1)
                dim = rng.randrange(0, min(length, 6) + 1)
                basis = [rng.getrandbits(length) if length else 0 for _ in range(dim)]
                if len(basis) >= 2:
                    basis.append(basis[0] ^ basis[1])
                offset = rng.getrandbits(length) if length else 0
                expected = WeightEnumerator.zero()
                for p in span(offset, basis):
                    expected = expected + coset_wef(n, length, p, cache)
                assert affine_sum(n, length, offset, basis, cache) == expected
                assert affine_sum(n, length, offset, basis) == expected

    def test_random_multi_block_sets(self):
        # seeded random sets at lengths n - 3 to n (odd and even, with halves
        # of odd and even length) and dims up to 12; half of them are spanned
        # by vectors that couple only some quarter blocks (a1, b1, a2, b2),
        # which the natural split mixes: the pairings (a1, b1) | (a2, b2)
        # and (a1, b2) | (b1, a2), and the peels of a2 and of b2
        rng = random.Random(19)
        shapes = [((0, 1), (2, 3)), ((0, 3), (1, 2)), ((2,), (0, 1, 3)), ((0, 1, 2), (3,))]
        groups = set()
        singles = CosetCache()
        for n in (16, 32, 64):
            q = n // 4
            for trial in range(8):
                length = n - trial % 4
                dim = rng.randrange(7, 13)
                if trial < len(shapes):
                    basis = [
                        quarters_to_prefix(
                            [rng.getrandbits(q) if i in side else 0 for i in range(4)]
                        )
                        for side in shapes[trial]
                        for _ in range(dim // 2)
                    ]
                else:
                    basis = [rng.getrandbits(length) for _ in range(dim)]
                basis = [v & (1 << length) - 1 for v in basis]
                offset = rng.getrandbits(length)
                expected = WeightEnumerator.zero()
                for p in span(offset, basis):
                    expected = expected + coset_wef(n, length, p, singles)
                cache = CosetCache()
                assert affine_sum(n, length, offset, basis, cache) == expected
                groups |= {key[3] for key in cache.nodes if key[3] > 1}
        # both sub-group sizes of a quarter split were taken
        assert groups == {2, 3}

    def test_u30_takes_a_quarter_split(self, polar128_spec):
        # the (128,64) orbit u30 mixes 24 dimensions under the natural split
        # and 8 under the best pairing of its quarter blocks; summed
        # naturally, it fills the 2^20 sum table
        prof = profile(polar128_spec)
        free = next(free for f, free, _ in polar128_spec._orbits if f == 30)
        cache = CosetCache()
        node = _node(128, prof.s + 1, tuple(_rref(1 << i for i in free)), cache)
        assert node.cut is not _split
        assert len(node.low[0]) << len(node.high) == 1 << 8
        assert any(key[3] > 1 for key in cache.nodes)

    def test_plan_sizes_pinned(self, polar128_spec):
        # the plans of every set of a route, built without evaluating one:
        # the node count and the boxes of the split nodes' steps guard the
        # split rule against a change that makes the recursion larger
        def size(spec, sets):
            prof = profile(spec)
            cache = CosetCache()
            for _, basis, _ in sets(spec, prof):
                _node(spec.n, prof.s + 1, tuple(_rref(basis)), cache)
            split = [node for node in cache.nodes.values() if node.left is not None]
            return len(cache.nodes), sum(len(node.low[0]) << len(node.high) for node in split)

        lta = lambda spec, prof: engine._lta_route(spec, prof)[1]
        assert size(polar128_spec, lta) == (79, 6515)
        bec = [from_bhattacharyya_bec(8, k, 0.5) for k in (128, 192)]
        assert [size(spec, engine._direct_sets) for spec in bec] == [(9, 16924), (9, 16935)]

    @pytest.mark.parametrize(
        "code, route, steps",
        [
            ("PAC(32,16)", wef_direct, 215),
            ("PAC(64,32)", wef_direct, 1879),
            ("bec(7,107)", wef_direct, 1119),
            ("bec(7,107)", wef_lta, 4585),
            ("bec(7,48)", wef_lta, 4116),
            # a later orbit's plan shares a node that an earlier one
            # evaluated through one parent side
            ("bec(7,26)", wef_lta, 431),
            ("PAC(128,100)", wef_direct, 11839),
        ],
    )
    def test_step_calls_pinned(self, monkeypatch, code, route, steps):
        # each set the recursion reaches is evaluated once, shared or not: a
        # child that only one side asks keeps no sum table, and that side
        # evaluates one row per coset of its low deltas' span and permutes
        # it for the coset's other rows; a side that evaluated each of its
        # rows, a node shared late that forgot the sets evaluated before,
        # or a first row that left its children's offsets unreduced would
        # evaluate more sets
        taps = [1, 0, 1, 1, 0, 1, 1]
        spec = {
            "PAC(32,16)": lambda: PAC32,
            "PAC(64,32)": lambda: pac_spec(6, from_bhattacharyya_bec(6, 32, 0.5).unfrozen, taps),
            "bec(7,107)": lambda: from_bhattacharyya_bec(7, 107, 0.5),
            "bec(7,48)": lambda: from_bhattacharyya_bec(7, 48, 0.5),
            "bec(7,26)": lambda: from_bhattacharyya_bec(7, 26, 0.7),
            "PAC(128,100)": lambda: pac_spec(
                7, from_bhattacharyya_bec(7, 100, 0.5).unfrozen, taps
            ),
        }[code]()
        lifted = 1 << 128
        expected = route(spec, budget=lifted)
        evaluated = count_sets(monkeypatch)
        cache = CosetCache()
        assert route(spec, budget=lifted, cache=cache) == expected
        assert len(evaluated) == steps
        assert all(node.shared or not node.sums for node in cache.nodes.values())

    @pytest.mark.parametrize("code", ["PAC(32,16)", "bec(6,20)", "n=16"])
    def test_first_row_loop_equals_its_steps(self, monkeypatch, code):
        # every first row that the loop evaluates equals one _step per low
        # delta on a fresh cache: on random subsets of two codes' direct
        # route sets, and on random sets of 8-bit prefixes at n = 16, where
        # some deltas' cuts need the reduction by K_v and K_w
        rng = random.Random(23)
        if code == "n=16":
            n, length, offset, basis = 16, 8, 0, [1 << i for i in range(8)]
        else:
            spec = PAC32 if code == "PAC(32,16)" else from_bhattacharyya_bec(6, 20, 0.4)
            prof = profile(spec)
            n, length = spec.n, prof.s + 1
            offset, basis, _ = next(engine._direct_sets(spec, prof))
        rows = []
        first_row = coset._first_row

        def recorded(node, row_offset, images, cache):
            row = first_row(node, row_offset, images, cache)
            rows.append((node, row_offset, node.cosets[0], [cache.value(h) for h in row]))
            return row

        monkeypatch.setattr(coset, "_first_row", recorded)
        checked = shared = reduced = 0
        for _ in range(30):
            sub = [v for v in basis if rng.random() < 0.5]
            start = offset
            for v in basis:
                start ^= v * rng.getrandbits(1)
            rows.clear()
            cache = CosetCache()
            affine_sum(n, length, start, sub, cache)
            checked += len(rows)
            keys = {id(node): key for key, node in cache.nodes.items()}

            def made(node, cache):
                # the node of ``node``'s key in ``cache``
                *head, blocks = keys[id(node)]
                return _node(*head, cache, blocks)

            # the steps below record rows of their own, on the fresh caches
            for node, row_offset, low, values in list(rows):
                fresh = CosetCache()
                same = made(node, fresh)
                steps = [fresh.value(coset._step(same, row_offset ^ d, fresh)) for d in low]
                assert values == steps
            # each unshared child with one-block steps keeps one image per
            # low delta of its parent side: the delta's cut, reduced
            kept = [node for node in cache.nodes.values() if node.cosets and node.cosets[4]]
            for node in kept:
                low, images = node.cosets[0], node.cosets[4]
                assert not node.shared and len(images) == len(low)
                assert images == tuple(coset._cut(node, d) for d in low)
                for a, b in images:
                    assert all(a ^ r > a for r in node.k_v)
                    assert all(b ^ r > b for r in node.k_w)
                reduced += images != tuple(node.cut(d) for d in low)
            # a second asker shares the node: its images go with its memo
            for node in kept:
                assert made(node, cache) is node
                assert node.shared and node.cosets is None
                shared += 1
        assert checked and shared
        assert reduced or code != "n=16"

    def test_matches_oracle(self):
        for offset, basis in [(0b0110, [0b0011, 0b1000]), (0b101, [0b110]), (1, [])]:
            expected = WeightEnumerator.zero()
            for p in span(offset, basis):
                bits = tuple(p >> i & 1 for i in range(4))
                expected = expected + brute_force_coset_wef(16, bits[:3], bits[3])
            assert affine_sum(16, 4, offset, basis) == expected

    def test_full_prefix_length(self):
        # every bit fixed: u = (1,0,0,0) and (1,1,0,0) encode to 1000 and 0100
        assert affine_sum(4, 4, 0b0001, [0b0010]) == WeightEnumerator([0, 2])
        assert affine_sum(4, 4, 0b1111) == WeightEnumerator([0, 1])

    def test_wide_vectors_rejected(self):
        with pytest.raises(ValueError):
            affine_sum(8, 3, 0b1000)
        with pytest.raises(ValueError):
            affine_sum(8, 3, 0, [0b10000])
        with pytest.raises(ValueError):
            affine_sum(8, 9, 0)
        with pytest.raises(ValueError):
            affine_sum(6, 2, 0)

    def test_shared_cache_across_lengths(self):
        # equal ints at different lengths and block lengths are different sets
        shared = CosetCache()
        cases = [(n, length, offset, basis)
                 for n in (8, 16, 32)
                 for length in (1, 2, 3, 4, 5)
                 for offset, basis in [(1, ()), (1, (2,)), (0, (1, 4)), (3, ())]
                 if length <= n and all(v >> length == 0 for v in (offset, *basis))]
        for n, length, offset, basis in cases:
            assert affine_sum(n, length, offset, basis, shared) == affine_sum(
                n, length, offset, basis, CosetCache()
            )

    def test_shared_cache_across_specs(self):
        specs = [
            from_rm(1, 4),
            from_rm(2, 5),
            from_bhattacharyya_bec(5, 16, 0.5),
            from_bhattacharyya_bec(6, 20, 0.4),
            from_unfrozen_set(4, [3, 5, 6, 7]),
            from_unfrozen_set(3, [3, 5, 6, 7]).with_frozen(3, 1, support=[1, 2]),
        ]
        shared = CosetCache()
        for spec in specs:
            assert wef_direct(spec, cache=shared) == wef_direct(spec, cache=CosetCache())

    def test_tiny_cache_stays_exact_and_bounded(self, hamming16_spec, monkeypatch):
        # every node made, the ones the node table refuses included
        made = {}
        make = coset._node

        def recorded(*args):
            result = make(*args)
            made[id(result)] = result
            return result

        monkeypatch.setattr(coset, "_node", recorded)
        bec = from_bhattacharyya_bec(6, 20, 0.4)
        offset, basis = nested_set()
        for total, expected in [
            (partial(wef_direct, hamming16_spec), HAMMING16_WEF),
            (partial(wef_direct, bec), wef_direct(bec)),
            (partial(wef_direct, PAC32), brute_force_wef(PAC32)),
            # steps of several blocks at the top and below it, so mixes
            # keyed by block handles too
            (partial(affine_sum, 32, 32, offset, basis), affine_sum(32, 32, offset, basis)),
        ]:
            # every table full or not, and values and rows past the cap are
            # carried as enumerators and tuples of handles, not ids
            for cap in (0, 1, 2, 4):
                made.clear()
                cache = CosetCache(max_entries=cap)
                assert total(cache=cache) == expected
                nodes = list(cache.nodes.values())
                # sums and side rows, coset memos included, stay within the
                # cap over every node made, stored or not
                sums = sum(len(node.sums) for node in made.values())
                assert sums == len(cache)
                rows = sum(
                    len(side)
                    for node in made.values()
                    if node.left is not None
                    for side in node.rows
                )
                rows += sum(len(node.cosets[3]) for node in made.values() if node.cosets)
                tables = (nodes, cache.values, cache.rows, cache.mixes, cache.steps)
                assert sums <= cap and rows <= cap
                assert all(len(table) <= cap for table in tables)
                # the row table's ids name its rows, and the rows it refused
                # stand for themselves
                assert len(cache._row_ids) == len(cache.rows)
                assert all(
                    type(row) is tuple or row < len(cache.rows)
                    for key in cache.steps
                    for row in key
                )
                # stored nodes refer to stored nodes only
                stored = {id(node) for node in nodes}
                assert all(
                    id(child) in stored
                    for node in nodes
                    if node.left is not None
                    for child in (node.left, node.right)
                )
                if cap:
                    assert nodes and cache.values

    def test_repeated_side_row_skips_its_lookups(self, monkeypatch):
        # two sets of one node whose left offsets agree and right offsets
        # differ: the second finds its left row stored and evaluates no sum
        # of the left child
        basis = (0b10, 0b1000, 0b10000)  # halves (1, 1), (2, 2) and (4, 0)
        offsets = [halves_to_prefix(0b1001, b) for b in (0, 0b1000)]
        expected = [
            sum((coset_wef(16, 8, p) for p in span(offset, basis)), WeightEnumerator.zero())
            for offset in offsets
        ]
        evaluated = count_sets(monkeypatch)
        cache = CosetCache()
        top = _node(16, 8, tuple(_rref(basis)), cache)
        # (4, 0) spans the left child's basis, and a left row holds 4 boxes
        assert top.left is not top.right and len(top.low[0]) == 4
        steps = []
        for offset, value in zip(offsets, expected):
            evaluated.clear()
            assert affine_sum(16, 8, offset, basis, cache) == value
            steps.append((evaluated.count(top.left), evaluated.count(top.right)))
        (first_v, first_w), (second_v, second_w) = steps
        assert first_v and first_w and second_w
        assert second_v == 0

    def test_step_keys_of_enumerator_handles_stay_exact(self):
        # a value table that is full before the run hands out every sum as an
        # enumerator, so each row a step key names holds enumerators, hashed
        # and compared by value: steps still hit, and the result is still
        # exact
        offset, basis = nested_set()
        for total in (
            partial(wef_direct, PAC32),
            partial(wef_direct, from_bhattacharyya_bec(6, 20, 0.4)),
            partial(affine_sum, 32, 32, offset, basis),
        ):
            cache = CosetCache(max_entries=1 << 12)
            cache.values.extend(WeightEnumerator([7] * (i + 1)) for i in range(cache.max_entries))
            cache.steps = CountedGets()
            assert total(cache=cache) == total()
            assert len(cache.values) == cache.max_entries
            handles = [h for key in cache.steps for row in key for h in cache.row(row)]
            assert handles and all(isinstance(h, WeightEnumerator) for h in handles)
            assert cache.steps.hits > 0
            # mixes keyed by pairs of enumerators, and by blocks' enumerators
            items = [item for key in cache.mixes for item, _ in key]
            assert any(type(item) is tuple for item in items)
            assert any(isinstance(item, WeightEnumerator) for item in items)

    def test_full_row_table_stays_exact(self):
        # a row table that is full before the run hands out every side row
        # as itself, a tuple of handles, so each step key holds two rows,
        # hashed and compared by value: steps still hit, and the result is
        # still exact
        offset, basis = nested_set()
        for total in (
            partial(wef_direct, PAC32),
            partial(wef_direct, from_bhattacharyya_bec(6, 20, 0.4)),
            partial(affine_sum, 32, 32, offset, basis),
        ):
            cache = CosetCache(max_entries=1 << 12)
            cache.rows.extend([()] * cache.max_entries)
            cache.steps = CountedGets()
            assert total(cache=cache) == total()
            assert len(cache.rows) == cache.max_entries and not cache._row_ids
            rows = [row for key in cache.steps for row in key]
            rows += [
                row
                for node in cache.nodes.values()
                if node.left is not None
                for side in node.rows
                for row in side.values()
            ]
            assert rows and all(type(row) is tuple and row for row in rows)
            assert cache.steps.hits > 0

    def test_top_node_found_under_any_basis_of_its_span(self, monkeypatch):
        # a basis given reduced in ascending order (as the direct route
        # builds its unit vectors), reordered or unreduced reaches the one
        # top node of its span with the identical sum; the node is marked
        # shared on its second call, and once it is, a reduced basis skips
        # the reduction and ``_node``: a repeat is one recursion step
        rng = random.Random(28)
        reduced = tuple(_rref(rng.getrandbits(32) for _ in range(8)))
        offset = rng.getrandbits(32)
        expected = WeightEnumerator.zero()
        for p in span(offset, reduced):
            expected = expected + coset_wef(32, 32, p)
        ascending = list(reduced[::-1])
        reordered = list(reduced[3:] + reduced[:3])
        unreduced = [reduced[0] ^ reduced[1], *reduced[1:]]
        cache = CosetCache()
        results = [affine_sum(32, 32, offset, ascending, cache)]
        top = cache.nodes[32, 32, reduced, 1]
        assert not top.shared
        results.append(affine_sum(32, 32, offset, ascending, cache))
        assert top.shared
        results += [affine_sum(32, 32, offset, b, cache) for b in (reordered, unreduced)]
        assert results == [expected] * 4
        assert [key for key in cache.nodes if key[:2] == (32, 32)] == [(32, 32, reduced, 1)]
        assert cache.nodes[32, 32, reduced, 1] is top
        steps = count_sets(monkeypatch)
        for name in ("_rref", "_node"):
            monkeypatch.setattr(coset, name, lambda *_, _n=name: pytest.fail(f"{_n} called"))
        assert affine_sum(32, 32, offset, ascending, cache) == expected
        assert steps == [top]

    def test_plan_shared_across_block_lengths(self):
        # a plan depends on (length, basis) only, so the node of each block
        # length splits the sets alike
        rng = random.Random(13)
        shared = CosetCache()
        for _ in range(12):
            length = rng.randrange(1, 9)
            basis = tuple(_rref(rng.getrandbits(length) for _ in range(rng.randrange(4))))
            offset = rng.getrandbits(length)
            for n in (16, 32, 64):
                assert affine_sum(n, length, offset, basis, shared) == affine_sum(
                    n, length, offset, basis, CosetCache()
                )
            nodes = [shared.nodes[n, length, basis, 1] for n in (16, 32, 64)]
            assert len({(node.k_v, node.k_w, node.low, node.high) for node in nodes}) == 1


class TestEdges:
    """The smallest block lengths, and the largest coefficients at n = 128."""

    def test_full_free_set_at_n128(self):
        full = WeightEnumerator.binomial(128)
        assert affine_sum(128, 0, 0) == full
        assert affine_sum(128, 128, 0, [1 << i for i in range(128)]) == full
        assert affine_sum(128, 1, 0) + affine_sum(128, 1, 1) == full

    def test_n1_base_cases(self):
        one, x = WeightEnumerator.one(), WeightEnumerator.x()
        assert affine_sum(1, 0, 0) == one + x
        assert affine_sum(1, 1, 0) == one
        assert affine_sum(1, 1, 1) == x
        assert affine_sum(1, 1, 0, [1]) == one + x

    def test_n2_base_cases(self):
        # u = (u0, u1) encodes to (u0 ^ u1, u1): 00 -> 00, 10 -> 10, 01 -> 11, 11 -> 01
        cases = {
            (0, 0, ()): [1, 2, 1],
            (1, 0, ()): [1, 0, 1],
            (1, 1, ()): [0, 2],
            (1, 0, (1,)): [1, 2, 1],
            (2, 0, ()): [1],
            (2, 1, ()): [0, 1],
            (2, 2, ()): [0, 0, 1],
            (2, 3, ()): [0, 1],
            (2, 0, (3,)): [1, 1],
            (2, 1, (2,)): [0, 2],
            (2, 2, (1,)): [0, 1, 1],
            (2, 0, (1, 2)): [1, 2, 1],
        }
        for (length, offset, basis), coeffs in cases.items():
            assert affine_sum(2, length, offset, basis) == WeightEnumerator(coeffs)
            assert affine_sum(2, length, offset, basis, CosetCache()).coeffs == coeffs


class TestHashConsing:
    """The cache stores each distinct sum once and does no arithmetic for a
    step whose mix it has seen."""

    def test_equal_sums_share_one_value(self):
        # u = (0, 1, 1, 1) at n = 4 has the halves u = (1, 0) and (1, 1) at
        # n = 2, which both encode to weight-1 words
        cache = CosetCache()
        assert affine_sum(4, 4, 0b1110, (), cache) == WeightEnumerator([0, 0, 1])
        sums = cache.nodes[2, 2, (), 1].sums
        assert sums.keys() == {0b01, 0b11}
        first, second = sums[0b01], sums[0b11]
        assert type(first) is int and first == second
        assert cache.value(first) == WeightEnumerator([0, 1])
        assert cache.values.count(WeightEnumerator([0, 1])) == 1

    def test_id_zero_is_a_hit(self, monkeypatch):
        # u = 0 at n = 4 has the half u = (0, 0) at n = 2 on both sides, and
        # that half has the bit u = 0 at n = 1 on both of its sides; each sum
        # is 1, stored first under id 0, so each second lookup finds id 0
        # and must read it as a hit
        puts = []
        put = CosetCache.put
        monkeypatch.setattr(
            CosetCache, "put", lambda self, *args: puts.append(args) or put(self, *args)
        )
        cache = CosetCache()
        assert affine_sum(4, 4, 0, (), cache) == WeightEnumerator([1])
        base, node = cache.nodes[1, 1, (), 1], cache.nodes[2, 2, (), 1]
        assert base.sums == node.sums == {0: 0}
        assert puts == [(base, 0, 0), (node, 0, 0)]
        assert cache.get(base, 0) == cache.get(node, 0) == 0
        monkeypatch.setattr(CosetCache, "put", lambda *_: pytest.fail("recomputed"))
        assert affine_sum(4, 4, 0, (), cache) == WeightEnumerator([1])

    def test_results_belong_to_the_caller(self):
        # a result that shared the cache's stored value would carry the
        # caller's edit into the next sum of the same set
        cache = CosetCache()
        for total in (
            lambda: wef_direct(from_rm(2, 5), cache=cache),
            lambda: affine_sum(16, 4, 0b0110, [0b0011], cache),
            lambda: calc_a(16, (0, 1), cache)[1],
        ):
            first = total()
            expected = list(first.coeffs)
            first.coeffs[0] = 99
            assert total().coeffs == expected

    def test_values_stored_once(self):
        cache = CosetCache()
        assert wef_direct(PAC32, cache=cache) == brute_force_wef(PAC32)
        assert len(set(map(tuple, (v.coeffs for v in cache.values)))) == len(cache.values)
        assert all(
            type(handle) is int for node in cache.nodes.values() for handle in node.sums.values()
        )
        assert len(cache.values) < len(cache)

    def test_step_keys_are_pairs_of_row_handles(self):
        # a block's step key is the pair of its left and right rows' ids,
        # each distinct row of child handles stored once in the row table,
        # the two rows of one length
        offset, basis = nested_set()
        for total in (partial(wef_direct, PAC32), partial(affine_sum, 32, 32, offset, basis)):
            cache = CosetCache()
            total(cache=cache)
            assert cache.steps and len(set(cache.rows)) == len(cache.rows)
            assert all(cache._row_ids[row] == rid for rid, row in enumerate(cache.rows))
            for key in cache.steps:
                assert type(key) is tuple and len(key) == 2
                assert all(type(rid) is int and 0 <= rid < len(cache.rows) for rid in key)
                left, right = map(cache.row, key)
                assert len(left) == len(right)

    def test_equal_rows_share_one_row_id(self):
        # side rows are hash-consed across nodes and sides: every side row
        # and coset memo names its row by an id, one per distinct row, so
        # nodes whose rows hold the same handles share their ids
        cache = CosetCache()
        assert wef_direct(PAC32, cache=cache) == brute_force_wef(PAC32)
        owners = {}  # row id -> the nodes whose side rows name it
        for key, node in cache.nodes.items():
            if node.left is not None:
                for side in node.rows:
                    for rid in side.values():
                        owners.setdefault(rid, set()).add(key)
        memos = [
            rid
            for node in cache.nodes.values()
            if node.cosets
            for rid, _ in node.cosets[3].values()
        ]
        ids = set(owners) | set(memos)
        assert all(type(rid) is int for rid in ids)
        assert len({cache.row(rid) for rid in ids}) == len(ids)
        assert any(len(nodes) > 1 for nodes in owners.values())

    def test_mix_keys_are_flat_unless_an_enumerator(self):
        # a multiset of ids is keyed by one flat tuple of its items sorted,
        # each followed by its count, after the tag of pairs or of blocks,
        # also once the value table is full; one that holds an enumerator
        # handle, which does not sort, keeps the frozenset of its items
        cache = CosetCache(max_entries=4)
        x, y, z = (WeightEnumerator(c) for c in ([0, 1], [1, 1], [1, 0, 2]))
        a, b = cache.intern(x), cache.intern(y)
        pairs = coset._mix([(b, a), (a, b), (b, a)], cache)
        blocks = coset._mix([b, a, b], cache)
        assert len(cache.values) == cache.max_entries
        c = cache.intern(z)
        assert c is z
        refused = coset._mix([(a, c), (a, c)], cache)
        full = coset._mix([(a, a)], cache)
        assert list(cache.mixes) == [
            (coset._PAIRS, a, b, 1, b, a, 2),
            (coset._BLOCKS, a, 1, b, 2),
            frozenset({((a, c), 2)}),
            (coset._PAIRS, a, a, 1),
        ]
        assert cache.value(pairs) == (x * y).scale(3)
        assert cache.value(blocks) == y.scale(2) + x
        assert cache.value(refused) == (x * z).scale(2)
        assert cache.value(full) == x * x

    def test_multi_block_rows_hit_steps(self, monkeypatch):
        # a set whose top step walks blocks of 16 boxes, summed twice: the
        # second time every block's row of child handles repeats, so no pair
        # is counted again; pairs are counted once per row that missed
        rng = random.Random(5)
        basis = tuple(_rref(rng.getrandbits(16) for _ in range(6)))
        offset = rng.getrandbits(16)
        expected = WeightEnumerator.zero()
        for p in span(offset, basis):
            expected = expected + coset_wef(16, 16, p)
        cache = CosetCache()
        cache.steps = CountedGets()
        blocks = 1 << len(_node(16, 16, basis, cache).high)
        assert blocks > 1
        pairs = []  # per call of the memo helper, whether it got pairs
        mix = coset._mix

        def counted(items, *args):
            items = list(items)
            pairs.append(type(items[0]) is tuple)
            return mix(items, *args)

        monkeypatch.setattr(coset, "_mix", counted)
        assert affine_sum(16, 16, offset, basis, cache) == expected
        assert pairs.count(True) == cache.steps.misses
        hits, misses, calls = cache.steps.hits, cache.steps.misses, len(pairs)
        mixes = len(cache.mixes)
        assert affine_sum(16, 16, offset, basis, cache) == expected
        assert (cache.steps.hits - hits, cache.steps.misses - misses) == (blocks, 0)
        # one call, for the blocks, which hits ``mixes``
        assert pairs[calls:] == [False] and len(cache.mixes) == mixes

    def test_blocks_of_one_step_share_their_products(self, monkeypatch):
        # the blocks of one step pass one product dict: a (left, right) pair
        # that recurs in a later block of the step is not multiplied again
        cache = CosetCache()
        x, y, z = (WeightEnumerator(c) for c in ([0, 1], [1, 1], [1, 0, 2]))
        a, b, c = map(cache.intern, (x, y, z))
        products = []
        mul = WeightEnumerator.__mul__
        monkeypatch.setattr(
            WeightEnumerator, "__mul__", lambda p, q: products.append((p, q)) or mul(p, q)
        )
        shared = {}
        first = coset._mix([(a, b), (a, c)], cache, shared)
        assert cache.value(first) == mul(x, y) + mul(x, z)
        second = coset._mix([(a, b), (b, c), (a, b)], cache, shared)
        assert cache.value(second) == mul(x, y).scale(2) + mul(y, z)
        assert products == [(x, y), (x, z), (y, z)]

    def test_repeated_mix_costs_no_arithmetic(self, monkeypatch):
        # the top-level step of a repeated set counts the same pairs again
        cache = CosetCache()
        first = wef_direct(PAC32, cache=cache)
        calls = []
        for name in ("__mul__", "__add__", "scale"):
            method = getattr(WeightEnumerator, name)
            monkeypatch.setattr(
                WeightEnumerator,
                name,
                lambda *args, _m=method, _n=name: calls.append(_n) or _m(*args),
            )
        assert wef_direct(PAC32, cache=cache) == first
        assert calls == []
