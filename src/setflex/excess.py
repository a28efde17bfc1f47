"""Excess arithmetic: the surplus-style measures on member selections.

Uniform and general excess, sigma, gamma and the weights |s|-2,
evaluated on a `SetSystem` with exact integer arithmetic.  Thin and slim
are one Hall-type inequality on these measures: |L(sel)| minus the
selection's weight is evaluated only in `sigma` (unit weights) and
`gamma` (weights |s|-2), and the two excesses shift them.  `graphopt`
decides thin and slim in polynomial time and re-checks each minimizer's
witness with `sigma` or `gamma`, and `exhaustive` decides them by
scanning every selection and re-checks its witness with
`excess_uniform` or `excess_general`.  Both import these measures from
here, not from `setsys`: every set-system request runs the parsing and
the `SetSystem` there, the flexibility scan and the representations
included, and those run none of this.
"""

from __future__ import annotations

from typing import Iterable

from .errors import InputError, MemberSizeError
from .setsys import SetSystem


def normalize_selection(
    system: SetSystem, indices: Iterable[int], *, allow_empty: bool
) -> tuple[int, ...]:
    """Validate member indices: in range, no duplicates; returns them sorted."""
    sel = sorted(indices)
    for a, b in zip(sel, sel[1:]):
        if a == b:
            raise InputError(f"selection repeats member index {a}")
    for i in sel:
        if not 0 <= i < system.member_count:
            raise InputError(f"member index {i} out of range")
    if not sel and not allow_empty:
        raise InputError("selection must be non-empty")
    return tuple(sel)


def _union_bits(system: SetSystem, sel: tuple[int, ...]) -> int:
    bits = 0
    for i in sel:
        bits |= system.member_bits()[i]
    return bits


def excess_uniform(system: SetSystem, selection: Iterable[int], r: int) -> int:
    """sigma(sel) - (r-1) for a selection of uniformly size-r members."""
    sel = normalize_selection(system, selection, allow_empty=False)
    if r < 2:
        raise InputError(f"uniform size r must be >= 2, got {r}")
    for i in sel:
        if len(system.members[i]) != r:
            raise MemberSizeError(
                f"member {','.join(system.member_labels(i))} does not have size {r}"
            )
    return sigma(system, sel) - (r - 1)


def excess_general(system: SetSystem, selection: Iterable[int]) -> int:
    """gamma(sel) - 2 for a selection of members of size >= 3."""
    sel = normalize_selection(system, selection, allow_empty=False)
    size_minus_two(system, sel)  # raises on a member of size < 3
    return gamma(system, sel) - 2


def size_minus_two(
    system: SetSystem, indices: Iterable[int] | None = None, least: int = 3
) -> list[int]:
    """The weights |s|-2 of the given members (default all); each needs |s| >= least."""
    weights = []
    for i in range(system.member_count) if indices is None else indices:
        size = len(system.members[i])
        if size < least:
            raise MemberSizeError(
                f"member {','.join(system.member_labels(i))} has size {size} < {least}"
            )
        weights.append(size - 2)
    return weights


def sigma(system: SetSystem, selection: Iterable[int]) -> int:
    """|L(sel)| - |sel|; the empty selection gives 0."""
    sel = normalize_selection(system, selection, allow_empty=True)
    return _union_bits(system, sel).bit_count() - len(sel)


def gamma(system: SetSystem, selection: Iterable[int]) -> int:
    """|L(sel)| - sum(|s|-2); members must have size >= 2; empty gives 0."""
    sel = normalize_selection(system, selection, allow_empty=True)
    return _union_bits(system, sel).bit_count() - sum(size_minus_two(system, sel, 2))
