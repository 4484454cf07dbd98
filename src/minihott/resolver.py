"""Global-name resolution, made when a declaration is checked.

The parser resolves local names and leaves each declaration a list of
pending checks (see `parser`). `Resolver.resolve` runs them against the
global names in scope at that point, so that a declaration which
mentions a rejected or unknown name is rejected with the first failure
a walk of its terms would meet.
"""

from __future__ import annotations

import difflib

from .diagnostics import CheckFailure, Diagnostic
from .parser import CONSTS, SElim


class Resolver:
    def __init__(self, global_names: set[str]):
        self.global_names = global_names

    def resolve(self, pending: list) -> None:
        """Raise the diagnostic of the first of a declaration's pending
        checks that fails: an `SElim`, or an `SVar` whose name is not in
        scope."""
        known = self.global_names
        for check in pending:
            if check.__class__ is SElim:
                message = f"{check.what} must be a function of {check.count} argument(s)"
                raise CheckFailure(Diagnostic("error", "resolve", message, check.span))
            name = check.name
            if name not in known:
                close = difflib.get_close_matches(name, [*check.scope, *known, *CONSTS], n=1)
                hint = f" (did you mean {close[0]!r}?)" if close else ""
                message = f"unbound identifier {name!r}{hint}"
                raise CheckFailure(Diagnostic("error", "resolve", message, check.span))
