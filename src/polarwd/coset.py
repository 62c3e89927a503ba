"""Recursive weight enumerators of polar cosets and of affine sets of them.

A coset fixes the first L information bits u_0..u_{L-1} (its prefix) and lets
the rest run free.  Prefixes are ints with bit i = u_i, so equal ints of
different lengths are different cosets and every call carries the length.

The recursion sums the enumerators of an affine set of prefixes
offset + span(basis) at once.  Free bits follow one rule: before a set
splits into blocks, each prefix bit it leaves free below the blocks' total
width joins its basis as a unit vector (the next bit of an odd length, and
for quarter blocks the next bit of each odd half).  An even-length prefix
maps linearly onto the half-length prefixes (even xor odd bits, odd bits)
of the two halves of the codeword, whose weights add.  So the image of the
set is an affine set of prefix pairs (a, b).  With K_v = {a : (a, 0) in its
span} and K_w = {b : (0, b) in its span}, the set is a disjoint union of 2^m
boxes (a_t + K_v) x (b_t + K_w), where m = dim - dim K_v - dim K_w counts
the "mixed" dimensions.  The sum at length n is therefore

    sum over t of  sum(a_t + K_v) * sum(b_t + K_w),

2^m terms, each a product of two half-length affine sums.  A single coset is
the dimension-0 case (``calc_a``), and the base case at n = 1 is 1 for
u_0 = 0, X for u_0 = 1, 1 + X when u_0 runs free.

Weights add over blocks however they are grouped, so the same holds for any
split of a group of equal blocks into two sub-groups S | T: the sum over
an affine set of block tuples is the sum over 2^m boxes of the product of
the S-group's and the T-group's sums, where m = rank(proj_S) +
rank(proj_T) - dim.  The natural split is the one-block group cut into its
two halves.
A set whose natural split mixes more than _QUARTER dimensions may instead
cut into its four quarter blocks, laid out in bit-reversed order
(a1, b1, a2, b2), and a group splits only at a contiguous cut "its first c
blocks | the rest": for the quarters the pairing (a1, b1) | (a2, b2) or the
peels a1 | rest and rest | b2, for three blocks the two peels at its ends.
No other split of the quarters was taken on the benchmark and acceptance
codes.
One function (``_choose``) decides and builds every split other than the
natural one: it prices each cut by its mixed dimensions, from the ranks of
the set's projections on its two sides, and builds the cut and plan of the
winner alone.  A quarter split is taken only when it mixes strictly fewer
than the natural one.  Small sets never pay for the pricing, and a set that
mixes alike under every split (the whole direct-route set of the (128,64)
code mixes 16 dimensions under each) stays natural, while the orbit u30 of
that code, 24 dimensions natural, sums through a pairing of 8.

The split of a set depends on (n, length, basis, blocks) only, not on its
offset, with blocks = 1 for a single block.  So the cache holds one node
per such tuple, keyed by it: its split plan (the children's bases K_v, K_w
and the mixed generators), its two child nodes and its memo dicts (below).
A step cuts one offset into its children's offsets (a natural cut takes 16
prefix bits at a time through two 64 KiB tables, a group's cut one mask
and one shift), reduces them, then walks its boxes against the children's
sums, each keyed by one int.

The sums take few distinct values: the automorphisms that let one coset
stand for a whole orbit act at every level too, so many sets share one
enumerator (on a PAC(64) code, the 9,367 sets the recursion evaluates have
57 distinct sums).  So the recursion is hash-consed.  The cache stores each
distinct sum once and hands out a small-int id for it.  A step walks its
boxes in blocks of at most 2^_LOW, the boxes (a ^ da, b ^ db) of one block
offset (a, b).  The block's left handles, at a ^ da for each of its da,
depend on a alone and its right ones on b alone, so each node memoises
each side's row of handles by that side's offset, and a block whose a (or
b) was seen before evaluates no box on that side.  Rows are hash-consed
like sums: the cache stores each distinct row once, whatever node or side
asked for it, and the side memos keep its small-int id.  Every block then
follows one rule: the ids of its two rows fix the multiset of its (left,
right) pairs and so its sum on any node, so that pair of ids is looked up
next and a repeat costs one lookup.  Only a key that misses counts its
distinct pairs; the count (a "mix") is memoised to the id of its sum,
keyed by one flat tuple of the pairs sorted, each with its count, and a
new mix multiplies each distinct pair once and adds count x product.  A
step of one block returns that block's sum; a step of more blocks
multiplies a pair shared by several of its blocks once, and adds its block
sums through the same memo, keyed by how often each block sum occurs.  A
value that finds the value table full stands for itself instead of an id,
and so does a row that finds the row table full, so results stay exact
whatever the caps.  Small keys keep low-symmetry codes in memory: the
direct route of a CRC-6 polar(128,64) code stores 781k step keys over
57k distinct rows and 306k mixes, and peaks at 476 MB, where keys of
whole rows and frozensets of pairs took 1.3 GB.

A row's handles come from one of two memos, by one rule: a node keeps a
sum table, reduced offset -> handle, only once it is shared, that is once
``_node`` returns it a second time (to a second parent, to both sides of
one parent, or as the top of ``affine_sum``).  The base nodes at n = 1
follow the same rule.  A node that a single parent side asks for is
memoised by that side's rows alone, and rows of one side overlap exactly
when their offsets differ by an element of the span D of its low deltas
(da or db, dimension at most _LOW).  So the side evaluates the first row
of each coset of D among its offsets, keeps it in the child's coset memo,
and reads every later row of that coset off it by permuting its boxes.  A
first row is one loop: a node's cut and the reduction of its children's
offsets by K_v and K_w are linear, so the set at offset ^ d has the
reduced cut of the offset xor that of d.  The child keeps the reduced cut
of each of the side's deltas with its coset memo, and each set of the row
costs one xor per side; a child whose steps have several blocks, or an
n = 1 base node, takes one recursion step per set instead.  A node that a
later top's plan shares drops those cuts and moves the sets of its coset
memo into its new sum table, so no set is evaluated twice under either
memo.  On the direct route of that PAC(64) code, 5 of the 8 nodes are
shared, and they keep 3,222 sums.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterable, Optional, Sequence, Union

from .wef import WeightEnumerator

# A sum as the recursion passes it around: the id of its stored value, or
# the enumerator itself when the value table was full.  Id 0 is falsy, so
# test handles with ``is None``.
Handle = Union[int, WeightEnumerator]

# A split's cut, offset -> the offsets of its two children, and its plan:
# the children's bases K_v and K_w and the mixed generators (da, db).
Cut = Callable[[int], tuple[int, int]]
Plan = tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, int], ...]]

# A side row of child handles, and a row as the recursion passes it around:
# the id of its stored copy, or the row itself when the row table was full.
Row = tuple[Handle, ...]
RowHandle = Union[int, Row]

# The coset memo of a node that one parent side asks for (``_row``): that
# side's low deltas, the mask of their pivot bits, the table from an
# offset's pivot bits to (delta, box index), the memo from a coset's
# representative to (its first row's handle, that row's box index), and the
# node's reduced cut of each delta (``_first_row``), None for a node whose
# steps have several blocks or that is an n = 1 base node.
Cosets = tuple[
    tuple[int, ...], int, dict[int, tuple[int, int]], dict[int, tuple[RowHandle, int]],
    Optional[tuple[tuple[int, int], ...]],
]

# the tags of a flat mix key: of (left, right) pairs, or of block handles
_PAIRS, _BLOCKS = 0, 1


class _Node:
    """The affine sets offset + span(basis) of a group of ``blocks`` blocks,
    each a ``length``-bit prefix at block length n, for every offset.  Block
    i holds bits [i * length, (i + 1) * length) of a tuple; the basis is in
    reduced row echelon form and its parents key the node's sets by offsets
    reduced by it.  A one-block node splits the sets with the bits they
    leave free below the split's width added to the basis (``_free``); the
    blocks of a group have none free.

    ``cut`` maps an offset to the offsets of the two children, the
    sub-groups a step splits it into: ``_split`` for the natural halves,
    else the cut that ``_choose`` built with the plan of its split, after
    ``_quarters`` for a one-block node; the left child takes the first c
    blocks and the right one the rest.  ``k_v`` and ``k_w`` are the
    children's bases; ``high`` lists the mixed generators past the first
    _LOW, and ``low`` the boxes those span, box j's (da, db) being
    (low[0][j], low[1][j]).  ``rows[0]`` (``rows[1]``) maps a reduced left
    (right) child offset to the handle of the row of that child's handles
    at it xor each of ``low[0]`` (``low[1]``).  ``shared`` says whether
    ``_node`` has returned the node more than once; only then does ``sums``
    map offsets to the handles of their sums, and until then it stays
    empty.  Until then the first row its one parent side asks for makes
    ``cosets``, the coset memo of that side's rows of this node with the
    node's reduced cut of each of the side's deltas (``_row``).  A node with ``left``
    None is the n = 1 base case, whose sums follow the same rule; ``free``
    says whether its one bit runs free.
    """

    __slots__ = (
        "shared", "sums", "rows", "cosets", "free", "cut", "k_v", "k_w", "low", "high", "left",
        "right",
    )

    def __init__(
        self, n: int, length: int, basis: tuple[int, ...], blocks: int, cache: CosetCache
    ):
        self.shared = False
        self.sums: dict[int, Handle] = {}
        self.cosets: Optional[Cosets] = None
        self.left: Optional[_Node] = None
        self.right: Optional[_Node] = None
        if blocks > 1:
            # a group splits into its first c blocks and the rest
            width = length
            c, self.cut, plan = _choose(basis, width, blocks)
        elif n > 1:
            # the natural split cuts two halves, one block each
            n, width, blocks, c = n // 2, (length + 1) // 2, 2, 1
            self.cut = _split
            plan = _plan([_split(v) for v in _free(basis, length, 2 * width)], width, width)
            if len(plan[2]) > _QUARTER:
                # mixed > _QUARTER needs width > _QUARTER, so n >= 16:
                # quarter blocks are never the n = 1 base case
                quarter = (width + 1) // 2
                vectors = [_quarters(v, quarter) for v in _free(basis, length, 4 * quarter)]
                choice = _choose(vectors, quarter, 4)
                # only a quarter split that mixes strictly fewer dimensions
                # than the natural one is taken
                if len(choice[2][2]) < len(plan[2]):
                    c, cut, plan = choice
                    self.cut = lambda x: cut(_quarters(x, quarter))
                    n, width, blocks = n // 2, quarter, 4
        else:
            self.free = bool(_free(basis, length, 1))
            return
        self.k_v, self.k_w, mixed = plan
        # (da, db) of every box spanned by the first _LOW generators, kept
        # as the two sides' tuples
        low = [(0, 0)]
        for da, db in mixed[:_LOW]:
            low += [(x ^ da, y ^ db) for x, y in low]
        self.low = tuple(zip(*low))
        self.high = mixed[_LOW:]
        self.rows: tuple[dict[int, RowHandle], ...] = ({}, {})
        self.left = _node(n, width, self.k_v, cache, c)
        self.right = _node(n, width, self.k_w, cache, blocks - c)


class CosetCache:
    """Bounded memo tables of the coset recursion, which keeps all its state
    here and none at module level.

    - ``nodes``: (n, length, basis, blocks) -> the node of those sets;
    - the sum table (``get``/``put``): each shared node's ``sums``, the
      n = 1 base nodes' included, reduced offset -> handle of the set's
      sum; a node that one parent side alone asks for has none, and
      ``len`` counts the entries over all nodes;
    - the value table: each distinct sum polynomial once, ``values[id]``;
    - the row table (``put_row``): each distinct row of child handles
      once, ``rows[id]``, shared by every node and side;
    - the side-row table (``put_row``, ``put_coset``): each node's two
      side-row dicts, a reduced child offset -> the handle of that child's
      row at it (its handles at the offset xor each of the side's low
      deltas), and each unshared node's coset memo, a coset representative
      -> the first row its parent side asked for;
    - ``steps``: a block's (left row, right row) handles -> handle of the
      block's sum;
    - ``mixes``: a block's distinct (left, right) pairs with their box
      counts, or a step's distinct block handles with their block counts,
      as one flat sorted tuple (_PAIRS, x0, y0, c0, x1, ...) or (_BLOCKS,
      h0, c0, h1, ...) -> handle of the sum.

    ``max_entries`` caps each of the seven tables; the sum and side-row
    tables are capped as a whole, and a coset memo that moves into a sum
    table keeps its count.  Each table stops growing silently at the cap
    and entries are never mutated after insertion.  A node is stored after
    its children, so a stored node only refers to stored nodes.  A value
    refused by the full value table goes on as its own handle (an
    enumerator, hashed and compared by value, in rows and step keys alike;
    a mix holding one is keyed by the frozenset of its items and counts),
    and a row refused by the full row table goes on as its own handle, the
    row itself.  A refused node, side row, step or mix is recomputed when
    next needed, so a full table costs speed, never exactness.
    """

    def __init__(self, max_entries: int = 1 << 20):
        self.max_entries = max_entries
        self.nodes: dict[tuple, _Node] = {}
        self._sums = 0
        self._side_rows = 0
        self.values: list[WeightEnumerator] = []
        self._ids: dict[WeightEnumerator, int] = {}  # keyed by the stored values
        self.rows: list[Row] = []
        self._row_ids: dict[Row, int] = {}
        self.mixes: dict[Union[tuple[int, ...], frozenset], Handle] = {}
        self.steps: dict[tuple[RowHandle, RowHandle], Handle] = {}

    def get(self, node: _Node, offset: int) -> Optional[Handle]:
        return node.sums.get(offset)

    def put(self, node: _Node, offset: int, value: Handle) -> None:
        """Store the sum of a set that the table does not hold."""

        if self._sums < self.max_entries:
            node.sums[offset] = value
            self._sums += 1

    def put_row(self, node: _Node, side: int, offset: int, row: Row) -> RowHandle:
        """The handle of a side row that ``node.rows[side]`` just missed at
        ``offset``, stored there: the id of the row's copy in the row table,
        or the row itself when it is new and the row table is full."""

        handle = self._row_ids.get(row)
        if handle is None:
            if len(self.rows) < self.max_entries:
                handle = self._row_ids[row] = len(self.rows)
                self.rows.append(row)
            else:
                handle = row
        if self._side_rows < self.max_entries:
            node.rows[side][offset] = handle
            self._side_rows += 1
        return handle

    def put_coset(
        self, memo: dict[int, tuple[RowHandle, int]], rep: int, first: tuple[RowHandle, int]
    ) -> None:
        """Store the first row of a side's coset that its memo just missed."""

        if self._side_rows < self.max_entries:
            memo[rep] = first
            self._side_rows += 1

    def row(self, handle: RowHandle) -> Row:
        return self.rows[handle] if type(handle) is int else handle

    def intern(self, value: WeightEnumerator) -> Handle:
        """The id of ``value``'s stored copy; ``value`` itself when it is
        new and the value table is full."""

        vid = self._ids.get(value)
        if vid is None:
            if len(self.values) >= self.max_entries:
                return value
            vid = self._ids[value] = len(self.values)
            self.values.append(value)
        return vid

    def value(self, handle: Handle) -> WeightEnumerator:
        return self.values[handle] if type(handle) is int else handle

    def __len__(self) -> int:
        return self._sums


def _node(
    n: int, length: int, basis: tuple[int, ...], cache: CosetCache, blocks: int = 1
) -> _Node:
    """The cache's node of (n, length, basis, blocks), made with its subtree
    if new."""

    key = (n, length, basis, blocks)
    node = cache.nodes.get(key)
    if node is None:
        node = _Node(n, length, basis, blocks, cache)
        if len(cache.nodes) < cache.max_entries:
            cache.nodes[key] = node
    elif not node.shared:
        # a second asker: from now on the node's sums go through the sum
        # table, which starts with the sets its one parent side evaluated
        node.shared = True
        if node.cosets is not None:
            low, _, _, memo, _ = node.cosets
            node.cosets = None
            for rep, (row, k) in memo.items():
                for j, handle in enumerate(cache.row(row)):
                    cache.put(node, rep ^ low[j ^ k], handle)
    return node


def _nibble(byte: int, odd: bool) -> int:
    """Bit j is b_{2j+1} (odd) or b_{2j} xor b_{2j+1} of ``byte``, j < 4."""

    return sum(((byte >> 2 * j + 1 ^ (0 if odd else byte >> 2 * j)) & 1) << j for j in range(4))


def _table16(odd: bool) -> bytes:
    """16-bit prefix chunk -> the byte of one half: its low byte's nibble
    below its high byte's."""

    nibbles = bytes(_nibble(b, odd) for b in range(256))
    # row hi is the nibble table with ``nibbles[hi] << 4`` or'ed in
    high = [bytes(x | v << 4 for x in range(256)) for v in range(16)]
    return b"".join(nibbles.translate(high[nibbles[hi]]) for hi in range(256))


# a node lists the boxes spanned by its first _LOW mixed generators, and a
# step walks the rest by Gray code
_LOW = 4

# a one-block set prices its quarter splits only when its natural split has
# more than 2^_QUARTER boxes: below that, the ranks cost more than any
# better split saves (measured on the code-mix benchmark)
_QUARTER = 6

_XOR16 = _table16(False)
_ODD16 = _table16(True)


def _split(prefix: int) -> tuple[int, int]:
    """(even xor odd, odd) halves of an even-length prefix, or of an
    odd-length one with its next bit 0."""

    xored = odds = shift = 0
    while prefix:
        chunk = prefix & 0xFFFF
        xored |= _XOR16[chunk] << shift
        odds |= _ODD16[chunk] << shift
        prefix >>= 16
        shift += 8
    return xored, odds


def _quarters(prefix: int, width: int) -> int:
    """The quarter blocks of a prefix as one tuple of ``width``-bit blocks
    in bit-reversed order (a1, b1, a2, b2), a1 lowest, where (a1, a2) and
    (b1, b2) are the halves of its halves a and b, every odd length's next
    bit 0."""

    a, b = _split(prefix)
    a1, a2 = _split(a)
    b1, b2 = _split(b)
    return a1 | (b1 | (a2 | b2 << width) << width) << width


def _free(basis: Sequence[int], length: int, width: int) -> tuple[int, ...]:
    """Vectors spanning the sets x + span(basis) of ``length``-bit prefixes
    as ``width``-bit ones: ``basis`` and the unit vector of every bit from
    ``length`` up to ``width``, which those sets leave free."""

    return (*basis, *(1 << i for i in range(length, width)))


def _rref(vectors: Iterable[int]) -> list[int]:
    """Reduced row echelon basis of the span of ``vectors``, pivots (the top
    bits) descending; every pivot bit is clear in every other row."""

    rows: dict[int, int] = {}  # pivot bit -> row
    for x in vectors:
        for pivot, r in rows.items():
            if x & pivot:
                x ^= r
        if x:
            pivot = 1 << x.bit_length() - 1
            for p, r in rows.items():
                if r & pivot:
                    rows[p] = r ^ x
            rows[pivot] = x
    return sorted(rows.values(), reverse=True)


def _plan(pairs: Sequence[tuple[int, int]], width_v: int, width_w: int) -> Plan:
    """Split of the sets spanned by (v, w) ``pairs`` of ``width_v``- and
    ``width_w``-bit sides into side kernels and mixed generators:
    (K_v, K_w, mixed)."""

    low = (1 << width_v) - 1
    # reduction on the w-side pivots first leaves the rows with w = 0, which
    # span K_v
    rows = _rref(w << width_v | v for v, w in pairs)
    k_v = tuple(r for r in rows if r <= low)
    # swap the sides of the other rows: their v-parts are reduced by K_v, so
    # rows left with v = 0 span K_w and the rest are the mixed generators
    rows = _rref((r & low) << width_w | r >> width_v for r in rows if r > low)
    low = (1 << width_w) - 1
    k_w = tuple(r for r in rows if r <= low)
    mixed = tuple((r >> width_w, r & low) for r in rows if r > low)
    return k_v, k_w, mixed


def _choose(vectors: Sequence[int], width: int, count: int) -> tuple[int, Cut, Plan]:
    """The cut "first c blocks | the rest" of a group of ``count`` blocks
    that mixes the fewest dimensions, as (c, cut, plan); ``vectors`` span
    the set as tuples of ``width``-bit blocks.  Each cut is priced by
    rank(proj_S) + rank(proj_T) - dim, ties go to the most even cut, then
    to the smaller c, and only the winner's plan is built."""

    def price(c: int) -> tuple[int, int]:
        low = (1 << c * width) - 1
        ranks = len(_rref(v & low for v in vectors)) + len(_rref(v >> c * width for v in vectors))
        return ranks, abs(2 * c - count)

    c = min(range(1, count), key=price)
    mask, shift = (1 << c * width) - 1, c * width
    # the offsets have count * width bits, so the rest needs no mask
    cut: Cut = lambda x: (x & mask, x >> shift)
    return c, cut, _plan([cut(v) for v in vectors], shift, (count - c) * width)


def _cut(node: _Node, offset: int) -> tuple[int, int]:
    """The offsets of ``node``'s two children at one of its offsets, with
    the pivot bits of K_v and K_w cleared: the children's sums are keyed by
    reduced offsets.  The cut and both reductions are linear over GF(2)."""

    a, b = node.cut(offset)
    for r in node.k_v:
        if a ^ r < a:
            a ^= r
    for r in node.k_w:
        if b ^ r < b:
            b ^= r
    return a, b


def _step(node: _Node, offset: int, cache: CosetCache) -> Handle:
    """One recursion step: the sum of one of the node's sets from its
    children's sums."""

    if node.left is None:
        # the one-bit word u_0 weighs u_0
        value = WeightEnumerator([1, 1]) if node.free else WeightEnumerator.monomial(offset)
        return cache.intern(value)
    a, b = _cut(node, offset)
    high = node.high
    rows_v, rows_w = node.rows
    steps, row_of = cache.steps, cache.row
    blocks: list[Handle] = []
    # a (left, right) pair that recurs in several blocks of the step is
    # multiplied once
    products: Optional[dict[tuple[Handle, Handle], WeightEnumerator]] = {} if high else None
    # the boxes in blocks of ``low``, each block moved from the last by one
    # ``high`` generator (Gray code)
    while True:
        # a side's row of child handles depends on that side's offset alone
        row_v = rows_v.get(a)
        if row_v is None:
            row_v = _row(node, 0, a, cache)
        row_w = rows_w.get(b)
        if row_w is None:
            row_w = _row(node, 1, b, cache)
        # the two rows fix the multiset of the block's pairs and so its
        # sum, on any node
        key = row_v, row_w
        block = steps.get(key)
        if block is None:
            block = _mix(zip(row_of(row_v), row_of(row_w)), cache, products)
            if len(steps) < cache.max_entries:
                steps[key] = block
        if not high:
            return block
        blocks.append(block)
        t = len(blocks)
        if t >> len(high):
            return _mix(blocks, cache)
        da, db = high[(t & -t).bit_length() - 1]
        a ^= da
        b ^= db


def _row(node: _Node, side: int, offset: int, cache: CosetCache) -> RowHandle:
    """The handle of the row of ``node``'s child on ``side`` (0: left, 1:
    right) at its reduced ``offset``: the handles of the child's sums at the
    offset xor each of the side's low deltas.  Stored in ``node.rows[side]``
    while there is room.

    A shared child's sums come from the sum table or, on a miss, from a
    recursion step.  A child that only this side asks keeps no sum table:
    two of its rows overlap exactly when their offsets differ by an element
    of the span D of the low deltas, and then they hold the same handles in
    another order.  So the offset is reduced to its coset representative r
    modulo D, the first row of each coset is evaluated, and every later row
    at r ^ low[k] is read off the first, at r ^ low[k0], as j -> j ^ k0 ^ k.
    A child whose steps have one block evaluates a first row in one loop
    over the images of the low deltas (``_first_row``); any other child
    takes one recursion step per delta.
    """

    child = node.right if side else node.left
    low = node.low[side]
    if child.shared:
        get, put = cache.get, cache.put
        row: list[Handle] = []
        for d in low:
            d ^= offset
            x = get(child, d)
            if x is None:
                x = _step(child, d, cache)
                put(child, d, x)
            row.append(x)
        return cache.put_row(node, side, offset, tuple(row))
    cosets = child.cosets
    if cosets is None:
        cosets = child.cosets = _cosets(child, low)
    _, mask, reduce, memo, images = cosets
    delta, k = reduce[offset & mask]
    rep = offset ^ delta
    first = memo.get(rep)
    if first is not None:
        handle, k0 = first
        row_0 = cache.row(handle)
        k ^= k0
        return cache.put_row(node, side, offset, tuple([row_0[j ^ k] for j in range(len(row_0))]))
    if images is None:
        result = tuple([_step(child, d ^ offset, cache) for d in low])
    else:
        result = _first_row(child, offset, images, cache)
    handle = cache.put_row(node, side, offset, result)
    cache.put_coset(memo, rep, (handle, k))
    return handle


def _cosets(node: _Node, low: Sequence[int]) -> Cosets:
    """An empty coset memo of ``node`` for a side whose low deltas are
    ``low``, box j's delta ``low[j]``: they span D, and in its reduced basis
    each element is the xor of the rows whose pivot bits it has, so an
    offset's pivot bits pick the element of D that takes it to its coset
    representative.  A node whose steps have one block also keeps its
    reduced cut of each delta."""

    # low[1 << i] is the side of mixed generator i
    mask = 0
    for r in _rref(low[1 << i] for i in range(len(low).bit_length() - 1)):
        mask |= 1 << r.bit_length() - 1
    images = None if node.left is None or node.high else tuple([_cut(node, d) for d in low])
    return low, mask, {d & mask: (d, j) for j, d in enumerate(low)}, {}, images


def _first_row(
    node: _Node, offset: int, images: Sequence[tuple[int, int]], cache: CosetCache
) -> Row:
    """The sums of ``node``'s sets at ``offset`` xor each low delta of its
    one parent side, for a node whose steps have one block: ``_step`` at
    each, with the children's offsets of the set at offset ^ low[j] read off
    the offset's reduced cut xor ``images[j]``, the reduced cut of low[j]."""

    a0, b0 = _cut(node, offset)
    rows_v, rows_w = node.rows
    steps, row_of = cache.steps, cache.row
    row: list[Handle] = []
    for da, db in images:
        a = a0 ^ da
        row_v = rows_v.get(a)
        if row_v is None:
            row_v = _row(node, 0, a, cache)
        b = b0 ^ db
        row_w = rows_w.get(b)
        if row_w is None:
            row_w = _row(node, 1, b, cache)
        key = row_v, row_w
        block = steps.get(key)
        if block is None:
            block = _mix(zip(row_of(row_v), row_of(row_w)), cache)
            if len(steps) < cache.max_entries:
                steps[key] = block
        row.append(block)
    return tuple(row)


def _mix(
    items: Iterable[Union[Handle, tuple[Handle, Handle]]],
    cache: CosetCache,
    products: Optional[dict[tuple[Handle, Handle], WeightEnumerator]] = None,
) -> Handle:
    """The sum of ``items``, memoised in ``mixes`` by their multiset: an
    item is a (left, right) pair of handles, which stands for their
    product, or a block's handle.  The key is one flat tuple of the items
    sorted, each followed by its count, after a tag: (_PAIRS, x0, y0, c0,
    x1, ...) or (_BLOCKS, h0, c0, h1, ...).  Enumerator handles do not
    sort, so a multiset that holds one is keyed by the frozenset of its
    (item, count)s.  ``products``, when given, keeps the products of pairs
    across the calls that share it."""

    counts: dict[Union[Handle, tuple[Handle, Handle]], int] = {}
    for item in items:
        counts[item] = counts.get(item, 0) + 1
    pairs = type(item) is tuple
    # only a full value table has handed out enumerators
    if len(cache.values) >= cache.max_entries and not all(
        type(h) is int for h in (chain.from_iterable(counts) if pairs else counts)
    ):
        mix: Union[tuple[int, ...], frozenset] = frozenset(counts.items())
    elif pairs:
        flat = [_PAIRS]
        for pair in sorted(counts):
            flat += pair
            flat.append(counts[pair])
        mix = tuple(flat)
    else:
        mix = (_BLOCKS, *chain.from_iterable(sorted(counts.items())))
    result = cache.mixes.get(mix)
    if result is None:
        # one term per distinct item, times the boxes or blocks that have it
        value, acc = cache.value, None
        for item, count in counts.items():
            if type(item) is not tuple:
                term = value(item)
            elif products is None:
                term = value(item[0]) * value(item[1])
            else:
                term = products.get(item)
                if term is None:
                    term = products[item] = value(item[0]) * value(item[1])
            if count > 1:
                term = term.scale(count)
            acc = term if acc is None else acc + term
        result = cache.intern(acc)
        if len(cache.mixes) < cache.max_entries:
            cache.mixes[mix] = result
    return result


def affine_sum(
    n: int,
    length: int,
    offset: int,
    basis: Sequence[int] = (),
    cache: Optional[CosetCache] = None,
) -> WeightEnumerator:
    """Sum of the coset enumerators over the prefix set offset + span(basis).

    Prefixes are ``length``-bit ints with bit i = u_i; the set counts each
    prefix once, so dependent basis vectors are harmless.  Only sets at block
    lengths below n get a sum-table entry in ``cache`` (a private one when
    None): the engine never asks for the same full-length set twice.  The
    result belongs to the caller, never to the cache.

    Every node key holds a reduced basis, pivots descending, so a node
    found under the basis as given, reversed, proves it already reduced:
    a shared node found so is used as it is, with no reduction and no
    ``_node`` call.  Any other basis is reduced and goes through
    ``_node``, which marks a node shared when it returns it a second time.
    """

    if n < 1 or n & (n - 1):
        raise ValueError(f"block length {n} is not a power of two")
    if not 0 <= length <= n:
        raise ValueError(f"prefix length {length} out of range for block length {n}")
    if any(x < 0 or x >> length for x in (offset, *basis)):
        raise ValueError(f"prefix set has vectors wider than {length} bits")
    if cache is None:
        cache = CosetCache()
    node = cache.nodes.get((n, length, tuple(basis[::-1]), 1))
    if node is None or not node.shared:
        node = _node(n, length, tuple(_rref(basis)), cache)
    # the offset goes in unreduced: a step reduces only its children's
    # offsets, and this set gets no sum-table entry
    handle = _step(node, offset, cache)
    return WeightEnumerator(cache.value(handle).coeffs)


def calc_a(
    n: int,
    prefix: Sequence[int],
    cache: Optional[CosetCache] = None,
) -> tuple[WeightEnumerator, WeightEnumerator]:
    """Enumerator pair of the two cosets extending ``prefix`` with 0 and with 1.

    The single-coset case of ``affine_sum``: each returned polynomial sums to
    2^{n-1-len(prefix)}.  Prefix entries must be 0 or 1 (bools included).
    """

    if any(b not in (0, 1) for b in prefix):
        raise ValueError(f"prefix entries must be 0 or 1, got {list(prefix)!r}")
    length = len(prefix)
    p = sum(1 << i for i, b in enumerate(prefix) if b)
    if cache is None:
        cache = CosetCache()
    return (
        affine_sum(n, length + 1, p, (), cache),
        affine_sum(n, length + 1, p | 1 << length, (), cache),
    )
