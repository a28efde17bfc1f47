"""Exhaustive thin, slim and patchwork checks, and the submodularity hook.

Thin and slim are one Hall-type inequality |L(sel)| - sum(w(s)) >= c
(thin: w = 1, c = r-1; slim: w = |s|-2, c = 2), so the exhaustive thin,
slim and patchwork checks share one scan (`_scan_excess`), which yields
the minimizing witness and the zero-excess family together.  The scan
sums subset tables; a reported witness is evaluated again by the
measure itself (`excess_uniform` or `excess_general`), and a mismatch
raises `InternalVerificationError`.  A scan visits all 2^k selections
of k members, so a cap bounds k; the polynomial checks in `graphopt`
are what scales, and these scans are their oracle.
`check_submodular_pair` evaluates the submodular inequality of sigma
and gamma on two selections, a property-test hook.

Of the CLI requests only `check thin|slim --method exhaustive` loads
this module, so the min-cut requests do not compile these scans.  The
measures they evaluate (`excess_uniform`, `excess_general`, `sigma`,
`gamma`) are in `excess`, which `graphopt` also imports, because it
re-checks its minimizers with `sigma` and `gamma`.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import (
    CapExceededError,
    CheckReport,
    InputError,
    InternalVerificationError,
    MemberSizeError,
    PreconditionError,
    check_limit,
)
from .excess import (
    excess_general,
    excess_uniform,
    gamma,
    normalize_selection,
    sigma,
    size_minus_two,
)
from .setsys import SetSystem, require_members

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
    system: SetSystem, weights: list[int], offset: int, smallest: int
) -> tuple[CheckReport, list[int]]:
    """Scan |L(sel)| - sum(w(s)) - offset over all selections of >= smallest members.

    Each selection mask, in increasing order, is one OR and two sums of
    (union, weight sum, size) subset tables of its low k//2 members and
    the rest.  Ties on the minimum go to fewer members, then to the smaller
    sorted index tuple: the mask holding the lowest differing bit.
    Returns the report and the masks of excess 0, in increasing order.
    """
    bits = system.member_bits()
    tables = []
    for part in (slice(0, len(bits) // 2), slice(len(bits) // 2, None)):
        table = [(0, 0, 0)]
        for b, w in zip(bits[part], weights[part]):
            table += [(u | b, s + w, n + 1) for u, s, n in table]
        tables.append(table)
    checked = mask = best_value = best_size = best_mask = best_union = 0
    zeros: list[int] = []
    for high_union, high_weight, high_size in tables[1]:
        for low_union, low_weight, low_size in tables[0]:
            size = high_size + low_size
            if size >= smallest:
                union = high_union | low_union
                value = union.bit_count() - high_weight - low_weight - offset
                if value == 0:
                    zeros.append(mask)
                if not checked or value < best_value or value == best_value and (
                    size < best_size
                    or size == best_size and mask & (d := mask ^ best_mask) & -d
                ):
                    best_value, best_size, best_mask, best_union = value, size, mask, union
                checked += 1
            mask += 1
    verdict = not checked or best_value >= 0
    certificate = None if verdict else ExcessReport(
        best_value, _mask_to_sel(best_mask), best_union.bit_count()
    )
    stats = {"subsets_checked": checked,
             "min_excess_scanned": best_value if checked else None}
    return CheckReport(verdict, "exhaustive", certificate, stats), zeros


def _rechecked(report: CheckReport, excess) -> CheckReport:
    """The report, once `excess(witness)` reproduces its certificate's value."""
    certificate = report.certificate
    if certificate is not None and excess(certificate.witness) != certificate.value:
        raise InternalVerificationError("exhaustive witness does not reproduce its excess")
    return report


def is_thin_exhaustive(
    system: SetSystem, r: int, cap: int = DEFAULT_EXHAUSTIVE_CAP
) -> CheckReport:
    """Scan all non-empty selections for negative uniform excess.

    The witness (reported only on a false verdict) is the selection of
    minimal excess, ties broken by smallest cardinality and then by
    sorted index order.  For r=3 selections of size <= 2 are skipped:
    their excess is never negative.
    """
    size = require_members(system).uniform_size()
    if size != r:
        raise MemberSizeError(f"system is not uniformly of size {r}")
    if r < 2:
        raise InputError(f"r must be >= 2, got {r}")
    _check_cap(system, cap, "graphopt.is_thin")
    report, _ = _scan_excess(
        system, [1] * system.member_count, r - 1, 3 if r == 3 else 1
    )
    return _rechecked(report, lambda witness: excess_uniform(system, witness, r))


def _slim_scan(system: SetSystem, cap: int) -> tuple[CheckReport, list[int]]:
    weights = size_minus_two(require_members(system))
    _check_cap(system, cap, "graphopt.is_slim")
    report, zeros = _scan_excess(system, weights, 2, 1)
    return _rechecked(report, lambda witness: excess_general(system, witness)), zeros


def is_slim_exhaustive(
    system: SetSystem, cap: int = DEFAULT_EXHAUSTIVE_CAP
) -> CheckReport:
    """Scan all non-empty selections for negative general excess."""
    return _slim_scan(system, cap)[0]


# -- submodularity and patchwork -------------------------------------------


def check_submodular_pair(
    measure: str,
    system: SetSystem,
    sel1: Iterable[int],
    sel2: Iterable[int],
) -> tuple[bool, tuple[int, int, int, int]]:
    """Evaluate f(A)+f(B) >= f(A|B)+f(A&B) for f in {sigma, gamma}.

    Returns the verdict and the four evaluated values (A, B, union,
    intersection).  Holds for every input; used as a property-test hook.
    """
    if measure == "sigma":
        fn = sigma
    elif measure == "gamma":
        fn = gamma
    else:
        raise InputError(f"measure must be 'sigma' or 'gamma', got {measure!r}")
    a = normalize_selection(system, sel1, allow_empty=True)
    b = normalize_selection(system, sel2, allow_empty=True)
    union = tuple(sorted(set(a) | set(b)))
    inter = tuple(sorted(set(a) & set(b)))
    fa, fb = fn(system, a), fn(system, b)
    fu, fi = fn(system, union), fn(system, inter)
    return fa + fb >= fu + fi, (fa, fb, fu, fi)


def patchwork_check(
    system: SetSystem, cap: int = DEFAULT_EXHAUSTIVE_CAP
) -> CheckReport:
    """Check that the zero-general-excess subset family is a patchwork.

    The system must be slim (verified first).  The family P of non-empty
    selections with general excess 0 is enumerated; the verdict is true
    iff for every intersecting pair A,B in P both the union and the
    intersection are again in P.  For slim inputs a counterexample must
    not occur.
    """
    slim, family = _slim_scan(system, cap)
    if not slim.verdict:
        raise PreconditionError(
            "patchwork_check requires a slim system", certificate=slim.certificate
        )
    in_family = set(family)
    counterexample = next((
        (_mask_to_sel(m1), _mask_to_sel(m2))
        for pos, m1 in enumerate(family) for m2 in family[pos + 1:]
        if m1 & m2 and not {m1 | m2, m1 & m2} <= in_family
    ), None)
    return CheckReport(
        verdict=counterexample is None,
        method="exhaustive",
        certificate=counterexample,
        stats={"family_size": len(family)},
    )


def _mask_to_sel(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
