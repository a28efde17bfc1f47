"""Exception hierarchy shared across the package.

CLI exit codes map onto this hierarchy: `InputError` and its subclasses
are usage/input problems (exit 2), including negative caps and budgets;
`CapExceededError` and its subclasses are configured-limit overflows
(exit 3); `InternalVerificationError` is a failed self-check (exit 4),
reported as an error message (with `--json`, a `{"error", "kind"}`
object on stdout) rather than a traceback.

The two input checks every layer shares live here too, in the one
module every request loads (`check_limit` for caps and budgets,
`check_label` for taxon labels), and so does `CheckReport`, the record
of every yes/no answer, so a layer returns one without loading `setsys`.
So do the enumeration cap, the assignment budget, `_capped_labels` and
`double_factorial`, which tree counting shares with the flexibility scan.
"""

from math import prod
from typing import NamedTuple


class SetflexError(Exception):
    """Base class for all library errors."""


class InputError(SetflexError):
    """Malformed or out-of-contract input."""


class MemberSizeError(InputError):
    """A member set violates a size precondition."""


class ParseError(InputError):
    """Unparseable text input; carries a character position when known."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class PreconditionError(InputError):
    """A documented precondition failed; carries a certificate when available."""

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class CapExceededError(SetflexError):
    """An exhaustive scan would exceed its configured cap."""


class BudgetExceededError(CapExceededError):
    """A brute-force scan would exceed its assignment budget."""


class InternalVerificationError(SetflexError):
    """A construction failed its mandatory self-check; indicates a bug."""


class CheckReport(NamedTuple):
    """A yes/no answer: its verdict, method, certificate and work counters.

    On "yes" the certificate is the answer where there is one, else
    None: the representatives (`maxflow`, member index -> taxon id), the
    total order (`topological`) or the medians (`median`, member index
    -> vertex).  On "no" it is the refutation: a `MinimizerReport`
    (`mincut`), an `ExcessReport` (`exhaustive`), the first failing
    assignment, or orientation and its cycle (`bruteforce`), an
    incidence-graph cycle of ("member", i) and ("taxon", id) nodes
    (`forest`), the violator's member indices (`maxflow`), a directed
    cycle (`topological`) or the first colliding member pair (`median`).
    `stats` holds work counters and measured values: integers, or None
    (null in JSON) for a minimum over no scanned selection.  A report is
    immutable, and neither `stats` nor `certificate` has a default (a
    NamedTuple default would be one dict shared by all).
    """

    verdict: bool
    method: str
    certificate: object | None
    stats: dict


DEFAULT_ENUM_CAP = 8
DEFAULT_ASSIGNMENT_BUDGET = 10**6


def check_limit(name: str, value: int) -> int:
    """Return a cap or budget unchanged; a negative one is an `InputError`."""
    if value < 0:
        raise InputError(f"{name} must be non-negative, got {value}")
    return value


_FORBIDDEN_LABEL_CHARS = set("(),;:")


def check_label(label: str) -> str:
    """Validate a taxon label that every text format can read back.

    Non-empty, no whitespace, none of ( ) , ; : # | and no leading quote.
    """
    if not isinstance(label, str) or not label:
        raise InputError(f"taxon label must be a non-empty string, got {label!r}")
    # split() drops or splits at exactly the characters isspace() accepts.
    if label.split() != [label] or not _FORBIDDEN_LABEL_CHARS.isdisjoint(label):
        raise InputError(
            f"taxon label {label!r} contains whitespace or one of ( ) , ; :"
        )
    if "#" in label or "|" in label or label[0] in "'\"":
        raise InputError(
            f"taxon label {label!r} contains # or | or starts with a quote"
        )
    return label


def _capped_labels(leaves, cap: int) -> tuple[str, ...]:
    """The sorted distinct leaves: at least one, no more than `cap`, and
    each a label a tree accepts."""
    labels = tuple(sorted(set(leaves)))
    if not labels:
        raise InputError("cannot enumerate trees on an empty leaf set")
    if len(labels) > check_limit("cap", cap):
        raise CapExceededError(
            f"{len(labels)} leaves exceed the enumeration cap {cap}"
        )
    for lab in labels:
        check_label(lab)
    return labels


def double_factorial(k: int) -> int:
    """k!! with the empty product (k <= 0) read as 1."""
    return prod(range(k, 1, -2))
