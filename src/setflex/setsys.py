"""Set systems over an interned taxon universe and their excess measures.

A `SetSystem` is a finite collection of distinct non-empty subsets of a
taxon universe.  This module parses the text and JSON set-system
formats and evaluates the surplus-style measures on member selections:
uniform and general excess, sigma and gamma.  Thin and slim are one
Hall-type inequality on these measures; `graphopt` decides them in
polynomial time and re-checks each minimizer's witness with `sigma` or
`gamma`, and `exhaustive` decides them by scanning every selection.
The measures live here, with the `CheckReport` both return, because
either decision procedure may run without the other being loaded.
Everything here is exact integer combinatorics.

Taxa are interned: the universe is the lexicographically sorted tuple of
labels and a taxon id is its position in that tuple.  Members are stored
as sorted id tuples and iterated in sorted order, which makes every
downstream report deterministic.
"""

from __future__ import annotations

import json
from typing import Iterable, NamedTuple

from .errors import InputError, MemberSizeError, ParseError, check_label


class SetSystem:
    """A collection of distinct non-empty taxon subsets over a shared universe.

    `sets` is an iterable of label iterables; `extra_taxa` adds taxa to the
    universe that appear in no member (representation constructions may
    attach them).  Duplicate members are rejected.
    """

    __slots__ = ("_universe", "_label_to_id", "_members", "_bits")

    def __init__(self, sets: Iterable[Iterable[str]], extra_taxa: Iterable[str] = ()):
        raw_members = [tuple(s) for s in sets]
        labels: set[str] = set()
        for member in raw_members:
            for label in member:
                labels.add(check_label(label))
        for label in extra_taxa:
            labels.add(check_label(label))
        universe = tuple(sorted(labels))
        label_to_id = {lab: i for i, lab in enumerate(universe)}

        members: list[tuple[int, ...]] = []
        for member in raw_members:
            ids = sorted({label_to_id[lab] for lab in member})
            if len(ids) != len(member):
                raise InputError(f"member {member!r} repeats a taxon")
            if not ids:
                raise InputError("empty member sets are not allowed")
            members.append(tuple(ids))
        members.sort()
        for a, b in zip(members, members[1:]):
            if a == b:
                raise InputError(
                    "duplicate member "
                    + "{" + ",".join(universe[i] for i in a) + "}"
                )

        self._universe = universe
        self._label_to_id = label_to_id
        self._members = tuple(members)
        self._bits = tuple(
            sum(1 << i for i in member) for member in self._members
        )

    # -- basic accessors ------------------------------------------------

    @property
    def universe(self) -> tuple[str, ...]:
        return self._universe

    @property
    def members(self) -> tuple[tuple[int, ...], ...]:
        return self._members

    @property
    def member_count(self) -> int:
        return len(self._members)

    def label_of(self, taxon_id: int) -> str:
        try:
            return self._universe[taxon_id]
        except IndexError:
            raise InputError(f"taxon id {taxon_id} out of range") from None

    def id_of(self, label: str) -> int:
        try:
            return self._label_to_id[label]
        except KeyError:
            raise InputError(f"unknown taxon {label!r}") from None

    def member_labels(self, index: int) -> tuple[str, ...]:
        return tuple(self._universe[i] for i in self._members[index])

    def member_label_sets(self) -> list[frozenset[str]]:
        return [frozenset(self.member_labels(i)) for i in range(self.member_count)]

    def member_bits(self) -> tuple[int, ...]:
        return self._bits

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(m) for m in self._members)

    def uniform_size(self) -> int | None:
        """The common member size, or None if members have mixed sizes."""
        sizes = set(self.sizes())
        if len(sizes) == 1:
            return sizes.pop()
        return None

    def leaf_labels(self) -> tuple[str, ...]:
        """Sorted labels of taxa that occur in at least one member."""
        present = set()
        for m in self._members:
            present.update(m)
        return tuple(self._universe[i] for i in sorted(present))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SetSystem)
            and self._universe == other._universe
            and self._members == other._members
        )

    def __hash__(self) -> int:
        return hash((self._universe, self._members))

    def __repr__(self) -> str:
        inner = "; ".join(
            ",".join(self.member_labels(i)) for i in range(self.member_count)
        )
        return f"SetSystem[{inner}]"


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


# -- reports -------------------------------------------------------------


class CheckReport(NamedTuple):
    """Verdict plus certificate for a decision procedure.

    The certificate depends on `method`:

    - `mincut` (`graphopt.is_thin`, `is_slim`): on "no", the
      `MinimizerReport` whose witness selection has sigma (thin) or
      gamma (slim) below the threshold and whose cut has capacity value
      + offset; the minimizer re-checks both before it returns.
    - `exhaustive` (`exhaustive.is_thin_exhaustive`,
      `is_slim_exhaustive`): on "no", the `ExcessReport` of the
      selection of least excess.  For `patchwork_check`, a pair of
      intersecting zero-excess selections whose union or intersection
      has non-zero excess.
    - `bruteforce`: for flexibility, the first assignment of one tree per
      member whose triples BUILD rejects; for total-order flexibility,
      the first failing orientation of the pairs and its directed cycle.
    - `forest` (`represent.is_total_order_flexible`): a cycle of the
      pairs' incidence graph, on "no".

    On "yes" the certificate is None.  A report is immutable: assigning a
    field raises AttributeError.  `stats` has no default (a NamedTuple
    default would be one dict shared by every report), so neither has
    `certificate`.
    """

    verdict: bool
    method: str
    certificate: object | None
    stats: dict


# -- measures -------------------------------------------------------------


def _union_bits(system: SetSystem, sel: tuple[int, ...]) -> int:
    bits = 0
    for i in sel:
        bits |= system.member_bits()[i]
    return bits


def excess_uniform(system: SetSystem, selection: Iterable[int], r: int) -> int:
    """|L(sel)| - |sel| - (r-1) for a selection of uniformly size-r members."""
    sel = normalize_selection(system, selection, allow_empty=False)
    if r < 2:
        raise InputError(f"uniform size r must be >= 2, got {r}")
    for i in sel:
        if len(system.members[i]) != r:
            raise MemberSizeError(
                f"member {','.join(system.member_labels(i))} does not have size {r}"
            )
    return _union_bits(system, sel).bit_count() - len(sel) - (r - 1)


def excess_general(system: SetSystem, selection: Iterable[int]) -> int:
    """|L(sel)| - 2 - sum(|s|-2) over the selection; members must have size >= 3."""
    sel = normalize_selection(system, selection, allow_empty=False)
    return _union_bits(system, sel).bit_count() - 2 - sum(size_minus_two(system, sel))


def size_minus_two(system: SetSystem, indices: Iterable[int] | None = None) -> list[int]:
    """The weights |s|-2 of the given members (default all); each needs |s| >= 3."""
    weights = []
    for i in range(system.member_count) if indices is None else indices:
        size = len(system.members[i])
        if size < 3:
            raise MemberSizeError(
                f"member {','.join(system.member_labels(i))} has size {size} < 3"
            )
        weights.append(size - 2)
    return weights


def sigma(system: SetSystem, selection: Iterable[int]) -> int:
    """|L(sel)| - |sel|; the empty selection gives 0."""
    sel = normalize_selection(system, selection, allow_empty=True)
    if not sel:
        return 0
    return _union_bits(system, sel).bit_count() - len(sel)


def gamma(system: SetSystem, selection: Iterable[int]) -> int:
    """|L(sel)| - sum(|s|-2); members must have size >= 2; empty gives 0."""
    sel = normalize_selection(system, selection, allow_empty=True)
    if not sel:
        return 0
    total = 0
    for i in sel:
        size = len(system.members[i])
        if size < 2:
            raise MemberSizeError(
                f"member {','.join(system.member_labels(i))} has size {size} < 2"
            )
        total += size - 2
    return _union_bits(system, sel).bit_count() - total


def occurrence_count(system: SetSystem, x: int | str) -> int:
    """Number of members containing taxon x (given as id or label)."""
    tid = system.id_of(x) if isinstance(x, str) else x
    if not 0 <= tid < len(system.universe):
        raise InputError(f"taxon id {tid} out of range")
    return sum(1 for m in system.members if tid in m)


def require_members(system: SetSystem) -> SetSystem:
    """Return the system unchanged; one without members is an `InputError`."""
    if not system.member_count:
        raise InputError("the set system has no members")
    return system


# -- text and JSON formats --------------------------------------------------


def parse_sets_text(text: str) -> SetSystem:
    """One member per line as comma-separated labels; # comments, blanks ignored."""
    sets = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        labels = [part.strip() for part in line.split(",")]
        if any(not lab for lab in labels):
            raise ParseError(f"line {lineno}: empty label in {raw!r}")
        sets.append(labels)
    return SetSystem(sets)


def parse_sets_json(text: str) -> SetSystem:
    """JSON form: {"sets": [["a","b","c"], ...], "extra_taxa": [...]}."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    except ValueError:  # an integer literal past int's digit limit
        raise ParseError("invalid JSON: integer literal too long") from None
    if not isinstance(data, dict) or "sets" not in data:
        raise ParseError('JSON set system must be an object with a "sets" key')
    sets, extra = data["sets"], data.get("extra_taxa", [])
    if not isinstance(sets, list) or not all(isinstance(m, list) for m in sets):
        raise ParseError('"sets" must be an array of arrays of labels')
    if not isinstance(extra, list):
        raise ParseError('"extra_taxa" must be an array of labels')
    return SetSystem(sets, extra_taxa=extra)


def parse_sets(text: str) -> SetSystem:
    """Auto-detect between the text and JSON set-system formats."""
    if text.lstrip().startswith("{"):
        return parse_sets_json(text)
    return parse_sets_text(text)
