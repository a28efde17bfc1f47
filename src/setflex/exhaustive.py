"""Exhaustive thin and slim checks: one scan over every member selection.

Thin and slim are one Hall-type inequality |L(sel)| - sum(w(s)) >= c
(thin: w = 1, c = r-1; slim: w = |s|-2, c = 2), so the two exhaustive
checks share one scan (`_scan_excess`), which yields the minimizing
witness.  The scan sums subset tables; a reported witness is evaluated
again by the measure itself (`excess_uniform` or `excess_general`), and
a mismatch raises `InternalVerificationError`.  A scan visits all 2^k
selections of k members, so a cap bounds k; the polynomial checks in
`graphopt` are what scales, and these scans are their oracle.

Of the CLI requests only `check thin|slim --method exhaustive` loads
this module, so the min-cut requests do not compile these scans.  The
measures they evaluate (`excess_uniform`, `excess_general`, `sigma`,
`gamma`) are in `excess`, which `graphopt` also imports, because it
re-checks its minimizers with `sigma` and `gamma`.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .errors import CapExceededError, CheckReport, InternalVerificationError, check_limit
from .excess import excess_general, excess_uniform, size_minus_two
from .setsys import SetSystem, require_members, uniform_r

DEFAULT_EXHAUSTIVE_CAP = 16


class ExcessReport(NamedTuple):
    """A measure value together with the selection that achieves it."""

    value: int
    witness: tuple[int, ...]
    leaf_count: int


def _check_cap(system: SetSystem, cap: int, hint: str) -> None:
    if system.member_count > check_limit("cap", cap):
        raise CapExceededError(
            f"{system.member_count} members exceed the exhaustive cap {cap}; "
            f"use {hint} instead"
        )


def _scan_excess(
    system: SetSystem,
    weights: list[int],
    offset: int,
    smallest: int,
    excess: Callable[[tuple[int, ...]], int],
) -> CheckReport:
    """Scan |L(sel)| - sum(w(s)) - offset over all selections of >= smallest members.

    Each selection mask, in increasing order, is one OR and two sums of
    (union, weight sum, size) subset tables of its low k//2 members and
    the rest.  Ties on the minimum go to fewer members, then to the smaller
    sorted index tuple: the mask holding the lowest differing bit.  A
    negative minimum is the "no", once `excess(witness)` reproduces it.
    """
    bits = system.member_bits()
    tables = []
    for part in (slice(0, len(bits) // 2), slice(len(bits) // 2, None)):
        table = [(0, 0, 0)]
        for b, w in zip(bits[part], weights[part]):
            table += [(u | b, s + w, n + 1) for u, s, n in table]
        tables.append(table)
    checked = mask = best_value = best_size = best_mask = best_union = 0
    for high_union, high_weight, high_size in tables[1]:
        for low_union, low_weight, low_size in tables[0]:
            size = high_size + low_size
            if size >= smallest:
                union = high_union | low_union
                value = union.bit_count() - high_weight - low_weight - offset
                if not checked or value < best_value or value == best_value and (
                    size < best_size
                    or size == best_size and mask & (d := mask ^ best_mask) & -d
                ):
                    best_value, best_size, best_mask, best_union = value, size, mask, union
                checked += 1
            mask += 1
    verdict = not checked or best_value >= 0
    certificate = None
    if not verdict:
        witness = tuple(i for i in range(best_mask.bit_length()) if best_mask >> i & 1)
        if excess(witness) != best_value:
            raise InternalVerificationError("exhaustive witness does not reproduce its excess")
        certificate = ExcessReport(best_value, witness, best_union.bit_count())
    stats = {"subsets_checked": checked,
             "min_excess_scanned": best_value if checked else None}
    return CheckReport(verdict, "exhaustive", certificate, stats)


def is_thin_exhaustive(
    system: SetSystem, cap: int = DEFAULT_EXHAUSTIVE_CAP
) -> CheckReport:
    """Scan all non-empty selections for negative uniform excess.

    r is the members' common size (`uniform_r`).  The witness (reported
    only on a false verdict) is the selection of minimal excess, ties
    broken by smallest cardinality and then by sorted index order.  For
    r=3 selections of size <= 2 are skipped: their excess is never
    negative.
    """
    r = uniform_r(system)
    _check_cap(system, cap, "graphopt.is_thin")
    return _scan_excess(
        system, [1] * system.member_count, r - 1, 3 if r == 3 else 1,
        lambda witness: excess_uniform(system, witness, r),
    )


def is_slim_exhaustive(
    system: SetSystem, cap: int = DEFAULT_EXHAUSTIVE_CAP
) -> CheckReport:
    """Scan all non-empty selections for negative general excess."""
    weights = size_minus_two(require_members(system))
    _check_cap(system, cap, "graphopt.is_slim")
    return _scan_excess(
        system, weights, 2, 1, lambda witness: excess_general(system, witness)
    )
