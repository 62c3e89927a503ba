"""Code specifications: frozen sets, affine dynamic constraints, constructions.

A spec assigns each of the 2^m information positions either "unfrozen" or a
freeze constraint u_i = constant xor (xor of earlier bits).  Plain specs have
empty supports and constant zero; dynamic constraints cover CRC precoding,
convolutional precoding, and arbitrary binary linear codes.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .coset import _rref
from .monomials import Monomial, _generators_present, is_decreasing
from .transform import MATRIX_GUARD_M, encode

# spec_from_json refuses larger m: the statuses alone would take 2^m objects.
MAX_JSON_M = 16


@dataclass(frozen=True)
class FreezeConstraint:
    """u_target = constant xor (xor of u_j for j in support), all j < target."""

    target: int
    support: frozenset[int] = frozenset()
    constant: int = 0

    def __post_init__(self) -> None:
        if self.constant not in (0, 1):
            raise ValueError("constant must be 0 or 1")
        if any(j >= self.target or j < 0 for j in self.support):
            raise ValueError(
                f"constraint on u_{self.target} references a non-earlier index"
            )

    @property
    def is_plain(self) -> bool:
        return not self.support and self.constant == 0

    def value(self, u: Sequence[int]) -> int:
        v = self.constant
        for j in self.support:
            v ^= u[j]
        return v


@functools.cache
def _plain_constraint(target: int) -> FreezeConstraint:
    """The plain constraint u_target = 0 (no support, constant 0), built once
    per process: a constraint is an immutable value that compares by value,
    so every spec that freezes ``target`` to 0 shares this one object.

    Every plain constraint is made here: by ``from_frozen_set`` and
    ``from_unfrozen_set``, for the unlisted indices of a ``"constraints"``
    spec, by ``with_frozen(i, 0)`` with no support and for an empty support
    in ``_row_space_spec``.  The saving needs more than one spec per
    process; a spec and its dual share the constraints where their frozen
    sets overlap.
    """

    return FreezeConstraint(target)


@dataclass(frozen=True)
class Profile:
    """The unfrozen (red) bits before the last frozen bit; gamma counts them."""

    s: Optional[int]
    red: tuple[int, ...]
    gamma: int


@dataclass(frozen=True)
class CodeSpec:
    """An immutable length-2^m code: per-index freeze status plus a label.

    Its frozen and unfrozen indices, its profile, the scan of its
    constraints' constants and supports (whether it is plain), whether its
    unfrozen set is decreasing, its orbit split and its dual are worked out
    once per instance: route selection and the routes themselves all ask.
    ``_dual`` hands this spec's decreasing status to the dual it builds, so
    the check runs once per spec and dual.
    """

    m: int
    statuses: tuple[Optional[FreezeConstraint], ...]
    label: str = ""

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValueError("m must be non-negative")
        n = 1 << self.m
        if len(self.statuses) != n:
            raise ValueError(f"expected {n} statuses, got {len(self.statuses)}")
        for i, st in enumerate(self.statuses):
            if st is not None and st.target != i:
                raise ValueError(f"constraint at index {i} targets {st.target}")

    @property
    def n(self) -> int:
        return 1 << self.m

    @cached_property
    def k(self) -> int:
        return len(self.unfrozen)

    @cached_property
    def unfrozen(self) -> tuple[int, ...]:
        return tuple(i for i, st in enumerate(self.statuses) if st is None)

    @cached_property
    def frozen(self) -> tuple[int, ...]:
        return tuple(i for i, st in enumerate(self.statuses) if st is not None)

    @cached_property
    def _profile(self) -> Profile:
        frozen = self.frozen
        if not frozen:
            return Profile(None, (), 0)
        s = frozen[-1]
        red = tuple(i for i in self.unfrozen if i < s)
        return Profile(s, red, len(red))

    @cached_property
    def _orbits(self) -> tuple[tuple[int, tuple[int, ...], int], ...]:
        """The reduced route's orbit split (``engine._lta_route``): (f, free
        rows, |S|) per peeled red row f.

        Red rows are peeled in index order.  With the rows peeled before f
        frozen to 0 and f frozen to 1, the red rows below f that are
        single-shift related to f form S: one coset with S frozen to 0
        stands for 2^{|S|} of them.  The other rows below f stay free.
        Every peeled row lies below the last frozen index, so that index
        never moves and one pass over the red rows suffices.
        """

        red = self._profile.red
        orbits = []
        for pos, f in enumerate(red):
            below = red[pos + 1 :]
            # row i's monomial (the complement of i) is a single shift of
            # f's exactly when d = i ^ f is one bit that f lacks (a
            # deletion), or one that f lacks above one that f has (a
            # lowering): d's bits below its top one, ``low``, are at most
            # one bit, and f & d == low
            free = []
            for i in below:
                d = i ^ f
                low = d ^ 1 << d.bit_length() - 1
                if low & low - 1 or f & d != low:
                    free.append(i)
            orbits.append((f, tuple(free), len(below) - len(free)))
        return tuple(orbits)

    @cached_property
    def _constants(self) -> tuple[int, bool]:
        """One scan of the freeze constraints: the mask of the frozen bits
        whose constant is 1 (bit i for u_i), and whether any frozen bit has
        a support.  A spec with no support fixes each frozen u_i to its
        constant, whatever the other bits are."""

        mask, supported = 0, False
        for st in self.statuses:
            if st is not None:
                if st.constant:
                    mask |= 1 << st.target
                if st.support:
                    supported = True
        return mask, supported

    @property
    def is_plain(self) -> bool:
        return self._constants == (0, False)

    def unfrozen_monomials(self) -> list[Monomial]:
        return [Monomial.from_row_index(i, self.m) for i in self.unfrozen]

    def is_decreasing_code(self) -> bool:
        return self._decreasing

    @cached_property
    def _decreasing(self) -> bool:
        # deletions and adjacent lowerings generate the order, so the
        # unfrozen monomials' masks decide it; ``is_decreasing`` builds
        # monomials only where a witness is wanted
        full = self.n - 1
        present = {full ^ i for i in self.unfrozen}
        return all(_generators_present(g, present) for g in present)

    @cached_property
    def _dual(self) -> "CodeSpec":
        unfrozen = {self.n - 1 - i for i in self.frozen}
        label = f"dual({self.label})" if self.label else ""
        dual = from_unfrozen_set(self.m, unfrozen, label)
        # complementing monomials reverses the order, so the dual's unfrozen
        # masks (the complements of this spec's frozen ones) are a down-set
        # exactly when this spec's are; stored where ``cached_property``
        # looks first
        dual.__dict__["_decreasing"] = self._decreasing
        return dual

    def with_frozen(
        self, index: int, constant: int, support: Iterable[int] = ()
    ) -> "CodeSpec":
        """Copy of this spec with one additional index frozen."""

        if self.statuses[index] is not None:
            raise ValueError(f"index {index} is already frozen")
        statuses = list(self.statuses)
        support = frozenset(support)
        statuses[index] = (
            FreezeConstraint(index, support, constant)
            if support or constant
            else _plain_constraint(index)
        )
        return CodeSpec(self.m, tuple(statuses), self.label)


def from_frozen_set(m: int, frozen: Iterable[int], label: str = "") -> CodeSpec:
    """Plain spec freezing the given indices to zero."""

    n = 1 << m
    frozen_set = set(frozen)
    if any(i < 0 or i >= n for i in frozen_set):
        raise ValueError("frozen index out of range")
    statuses = tuple(_plain_constraint(i) if i in frozen_set else None for i in range(n))
    return CodeSpec(m, statuses, label)


def from_unfrozen_set(m: int, unfrozen: Iterable[int], label: str = "") -> CodeSpec:
    """Plain spec freezing every index but the given ones to zero."""

    n = 1 << m
    unfrozen_set = set(unfrozen)
    if any(i < 0 or i >= n for i in unfrozen_set):
        raise ValueError("unfrozen index out of range")
    statuses = tuple(None if i in unfrozen_set else _plain_constraint(i) for i in range(n))
    return CodeSpec(m, statuses, label)


def profile(spec: CodeSpec) -> Profile:
    """Last frozen index, the unfrozen bits before it, and gamma."""

    return spec._profile


def from_rm(r: int, m: int) -> CodeSpec:
    """Reed-Muller code of order r: unfreeze rows whose monomial degree <= r."""

    if not 0 <= r <= m:
        raise ValueError(f"order {r} out of range for m={m}")
    unfrozen = [i for i in range(1 << m) if m - int(i).bit_count() <= r]
    return from_unfrozen_set(m, unfrozen, label=f"rm({r},{m})")


def bec_bhattacharyya(m: int, erasure: float) -> list[float]:
    """Per-bit-channel Bhattacharyya parameters over a BEC, by the exact recursion."""

    if not 0.0 < erasure < 1.0:
        raise ValueError("erasure probability must be in (0, 1)")
    zs = [erasure]
    for _ in range(m):
        nxt = []
        for z in zs:
            nxt.append(2.0 * z - z * z)
            nxt.append(z * z)
        zs = nxt
    return zs


def from_bhattacharyya_bec(m: int, k: int, erasure: float) -> CodeSpec:
    """Unfreeze the k most reliable bit channels of a BEC with the given erasure.

    Ties prefer the larger index.  The resulting unfrozen monomial set is
    validated to be decreasing, which makes float rounding harmless or loud.
    """

    n = 1 << m
    if not 0 <= k <= n:
        raise ValueError(f"dimension {k} out of range for n={n}")
    zs = bec_bhattacharyya(m, erasure)
    # the sort is stable: among equal parameters the larger index, listed
    # first, stays first
    ranked = sorted(range(n - 1, -1, -1), key=zs.__getitem__)
    unfrozen = ranked[:k]
    spec = from_unfrozen_set(m, unfrozen, label=f"bec(m={m},k={k})")
    if not spec.is_decreasing_code():
        _, witness = is_decreasing(spec.unfrozen_monomials())
        raise ValueError(
            f"BEC construction produced a non-decreasing set; witness {witness}"
        )
    return spec


def _row_space_spec(m: int, rows: Sequence[int], label: str) -> CodeSpec:
    """The dynamic spec whose information words u span the same space as
    ``rows``, a reduced row echelon basis from ``coset._rref`` whose bit
    n-1-i is position i.

    Each row's lowest set position is its pivot, clear in every other row:
    the pivots are the unfrozen positions, and every other position is the
    xor of the pivots whose rows set it, all earlier.  The supports are read
    off each row's set bits.
    """

    n = 1 << m
    supports: list[Optional[list[int]]] = [[] for _ in range(n)]
    for r in rows:
        pivot, *rest = (hit.start() for hit in re.finditer("1", format(r, f"0{n}b")))
        supports[pivot] = None
        for i in rest:
            supports[i].append(pivot)
    statuses = tuple(
        None if s is None else FreezeConstraint(i, frozenset(s)) if s else _plain_constraint(i)
        for i, s in enumerate(supports)
    )
    return CodeSpec(m, statuses, label)


def _listed(x):
    """``x`` through its ``tolist`` (arrays, array scalars); a tuple as a list."""

    x = x.tolist() if hasattr(x, "tolist") else x
    return list(x) if isinstance(x, tuple) else x


def from_generator_matrix(gen: Sequence[Sequence[int]]) -> CodeSpec:
    """Represent the row space of a full-rank k x n matrix as a dynamic spec.

    The information-domain generators are the rows of G times the transform
    (an involution, so codeword c maps back to u = c G_n); their reduced row
    echelon basis gives the spec (``_row_space_spec``).  Entries must be the
    integers 0 or 1 (bools included).
    """

    g = _listed(gen)
    g = [_listed(r) for r in g] if type(g) is list else []
    g = [[_listed(b) for b in r] if type(r) is list else r for r in g]
    if not g or any(type(r) is not list or len(r) != len(g[0]) or list in map(type, r) for r in g):
        raise ValueError("generator matrix must be two-dimensional")
    k, n = len(g), len(g[0])
    if not n or any(not isinstance(b, int) or b not in (0, 1) for r in g for b in r):
        raise ValueError("generator matrix entries must be the integers 0 or 1")
    if n & (n - 1):
        raise ValueError(f"block length {n} is not a power of two")
    m = n.bit_length() - 1
    # ``encode`` puts position i at bit i, ``_rref`` at bit n-1-i
    u_rows = encode((int("".join(map(str, map(int, reversed(row)))), 2) for row in g), m)
    rows = _rref(int(format(u, f"0{n}b")[::-1], 2) for u in u_rows)
    if len(rows) < k:
        raise ValueError(f"generator matrix has rank {len(rows)}, expected {k}")
    return _row_space_spec(m, rows, f"generator({n},{k})")


def pac_spec(m: int, rate_profile: Iterable[int], conv_taps: Sequence[int]) -> CodeSpec:
    """Convolutionally precoded spec: u = v T with v zero outside the profile.

    T is the unit-diagonal upper-triangular Toeplitz matrix of the taps: row
    p sets u index p + d for each tap d that is 1.  The rows of the profile
    span the code's information words, and their reduced row echelon basis
    gives the spec (``_row_space_spec``): the profile is unfrozen, and each
    support names only unfrozen bits.  A precoder whose span has a plain
    basis yields a plain spec.  Taps must be 0 or 1 (bools included).
    """

    if any(t not in (0, 1) for t in conv_taps):
        raise ValueError(f"convolution taps must be 0 or 1, got {list(conv_taps)!r}")
    taps = [int(t) for t in conv_taps]
    if not taps or taps[0] != 1:
        raise ValueError("convolution taps must start with 1")
    n = 1 << m
    prof = set(rate_profile)
    if any(i < 0 or i >= n for i in prof):
        raise ValueError("rate profile index out of range")
    # tap d at bit len(taps) - 1 - d; row p puts it at bit n - 1 - (p + d)
    # and the shift drops the taps past position n - 1.  The rows go in
    # from the last position back, the cheaper order: each row is reduced
    # as it enters, and no row already in changes.
    tap_bits = int("".join(map(str, taps)), 2)
    rows = _rref((tap_bits << n) >> p + len(taps) for p in sorted(prof, reverse=True))
    return _row_space_spec(m, rows, f"pac(m={m})")


def dual_spec(spec: CodeSpec) -> CodeSpec:
    """Dual of a plain spec: complement the frozen set and reflect indices.

    Built once per spec; later calls return the same object.
    """

    if not spec.is_plain:
        raise ValueError("duals are only defined for plain specs here")
    return spec._dual


def _json_m(obj: dict, limit: int = MAX_JSON_M) -> int:
    m = operator.index(obj["m"])
    if m < 0:
        raise ValueError("m must be non-negative")
    if m > limit:
        raise ValueError(f"m={m} exceeds the limit of {limit}")
    return m


def spec_from_json(obj: dict) -> CodeSpec:
    """Build a spec from the JSON schema accepted by the CLI.

    Integer fields are read with ``operator.index``: a float or a string
    where an integer belongs raises TypeError instead of being truncated
    (bools count as integers), and so does a string erasure.  A spec without
    a construction names ``"frozen"``, ``"unfrozen"`` or ``"constraints"``
    (with an optional ``"unfrozen"``); ``"frozen"`` next to either of the
    others, any of the three next to a construction, or an index listed
    twice in ``"frozen"`` or ``"unfrozen"`` raises ValueError.
    """

    if not isinstance(obj, dict):
        raise ValueError("spec JSON must be an object")
    construction = obj.get("construction")
    if construction is not None:
        for key in ("frozen", "unfrozen", "constraints"):
            if key in obj:
                raise ValueError(f"a spec names 'construction' or {key!r}, not both")
    if construction == "rm":
        return from_rm(operator.index(obj["r"]), _json_m(obj))
    if construction == "bec":
        if isinstance(obj["erasure"], str):
            raise TypeError(f"erasure must be a number, got {obj['erasure']!r}")
        return from_bhattacharyya_bec(_json_m(obj), operator.index(obj["k"]), float(obj["erasure"]))
    if construction == "pac":
        # a PAC spec is row-reduced like a generator matrix: the elimination
        # grows 4x per step of m, so it has the generator matrix's bound
        return pac_spec(
            _json_m(obj, MATRIX_GUARD_M),
            [operator.index(i) for i in obj["profile"]],
            [operator.index(t) for t in obj["taps"]],
        )
    if construction == "generator":
        return from_generator_matrix(obj["matrix"])
    if construction is not None:
        raise ValueError(f"unknown construction {construction!r}")

    if "frozen" in obj:
        for other in ("constraints", "unfrozen"):
            if other in obj:
                raise ValueError(f"a spec names 'frozen' or {other!r}, not both")
    m = _json_m(obj)
    n = 1 << m
    if "constraints" in obj:
        unfrozen = set(_json_indices(obj, "unfrozen"))
        if any(not 0 <= i < n for i in unfrozen):
            raise ValueError("unfrozen index out of range")
        statuses: list[Optional[FreezeConstraint]] = [None] * n
        constrained = set()
        for c in obj["constraints"]:
            target = operator.index(c["target"])
            if not 0 <= target < n:
                raise ValueError(f"constraint target {target} out of range for n={n}")
            if target in constrained:
                raise ValueError(f"constraint target {target} listed twice")
            # the support is an xor, so a repeated index would cancel, not
            # collapse into one
            support = [operator.index(j) for j in c.get("support", [])]
            if len(set(support)) < len(support):
                raise ValueError(f"constraint on u_{target} repeats a support index")
            statuses[target] = FreezeConstraint(
                target, frozenset(support), operator.index(c.get("constant", 0))
            )
            constrained.add(target)
        for i in range(n):
            if i not in unfrozen and i not in constrained:
                statuses[i] = _plain_constraint(i)
        if unfrozen & constrained:
            raise ValueError("an index appears as both unfrozen and constrained")
        return CodeSpec(m, tuple(statuses))
    if "frozen" in obj:
        return from_frozen_set(m, _json_indices(obj, "frozen"))
    if "unfrozen" in obj:
        return from_unfrozen_set(m, _json_indices(obj, "unfrozen"))
    raise ValueError("spec JSON needs 'frozen', 'unfrozen', 'constraints', or 'construction'")


def _json_indices(obj: dict, key: str) -> list[int]:
    """The indices a spec lists under ``key`` (none if absent), each read
    with ``operator.index``; one listed twice raises ValueError, as the set
    it names would drop the repeat silently."""

    indices = [operator.index(i) for i in obj.get(key, [])]
    if len(set(indices)) < len(indices):
        raise ValueError(f"{key!r} lists an index twice")
    return indices


def spec_to_json(spec: CodeSpec) -> dict:
    """Serialize a spec in the same schema spec_from_json accepts."""

    if spec.is_plain:
        return {"m": spec.m, "frozen": [int(i) for i in spec.frozen]}
    return {
        "m": spec.m,
        "unfrozen": [int(i) for i in spec.unfrozen],
        "constraints": [
            {
                "target": st.target,
                "support": sorted(st.support),
                "constant": st.constant,
            }
            for st in spec.statuses
            if st is not None
        ],
    }
