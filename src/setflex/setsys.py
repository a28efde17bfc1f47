"""Set systems over an interned taxon universe, and their formats.

A `SetSystem` is a finite collection of distinct non-empty subsets of a
taxon universe.  This module parses the text and JSON set-system
formats, which every set-system request runs.  The excess arithmetic on
member selections (uniform and general excess, sigma, gamma and their
helpers) is in `excess`, which `graphopt` and `exhaustive` import, so
the flexibility scan and the representations do not compile it.

Taxa are interned: the universe is the lexicographically sorted tuple of
labels and a taxon id is its position in that tuple.  Members are stored
as sorted id tuples and iterated in sorted order, which makes every
downstream report deterministic.
"""

from __future__ import annotations

from typing import Iterable

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


def require_members(system: SetSystem) -> SetSystem:
    """Return the system unchanged; one without members is an `InputError`."""
    if not system.member_count:
        raise InputError("the set system has no members")
    return system


def uniform_r(system: SetSystem) -> int:
    """r of the thin inequality: the members' common size, at least 2."""
    r = require_members(system).uniform_size()
    if r is None:
        raise MemberSizeError("members have mixed sizes; check 'slim' instead")
    if r < 2:
        raise InputError(f"r must be >= 2, got {r}")
    return r


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
    """JSON form: {"sets": [["a","b","c"], ...], "extra_taxa": [...]}.

    `json` is imported here, so only JSON input pays for importing it.
    """
    import json

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
