"""Global-name resolution, made when a declaration is checked.

The parser resolves local names and leaves each declaration a list of
pending checks (see `parser`). `Resolver.resolve` runs them against the
global names in scope at that point, so that a declaration which
mentions a rejected or unknown name is rejected with the first failure
a walk of its terms would meet.
"""

from __future__ import annotations

from .diagnostics import CheckFailure, Diagnostic
from .globals import Globals
from .parser import CONST_TERMS, SElim
from .terms import Linked


class Resolver:
    def __init__(self, glob: Globals):
        self.glob = glob

    def resolve(self, pending: list) -> None:
        """Link each `SVar`'s `Ref` to its `GlobalEntry.ref`, or raise the
        diagnostic of the first of a declaration's pending checks that
        fails: an `SElim`, or an `SVar` whose name is not in scope."""
        entries = self.glob.entries
        link = Linked.target.__set__
        for check in pending:
            if check.__class__ is SElim:
                message = f"{check.what} must be a function of {check.count} argument(s)"
                raise CheckFailure(Diagnostic("resolve", message, check.span))
            ref = check.ref
            entry = entries.get(ref.name)
            if entry is None:
                import difflib  # only a rejected name pays for the import

                close = difflib.get_close_matches(ref.name, [*check.scope, *entries, *CONST_TERMS], n=1)
                hint = f" (did you mean {close[0]!r}?)" if close else ""
                message = f"unbound identifier {ref.name!r}{hint}"
                raise CheckFailure(Diagnostic("resolve", message, check.span))
            link(ref, entry.ref)
