"""Small cross-version compatibility helpers.

The package supports Python 3.9+, but some performance-relevant features
only exist on newer interpreters. Each helper degrades gracefully: on an
older interpreter the semantics are identical, only the optimisation is
missing.
"""

from __future__ import annotations

import dataclasses
import functools
import sys

#: Keyword arguments adding ``__slots__`` to a ``@dataclass`` where the
#: interpreter supports it (3.10+). Hot value types (batch entries,
#: priorities, version-vector entries) are created in tight loops during
#: trace replay; slots cut their per-instance memory and attribute-lookup
#: cost. On 3.9 the classes simply keep their ``__dict__``.
DATACLASS_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}


def keyword_only_dataclass(cls):
    """Make a dataclass's constructor keyword-only.

    Positional arguments raise :class:`TypeError` (the 3.9 floor rules
    out ``@dataclass(kw_only=True)``). Unknown field names raise
    :class:`TypeError` naming the offending field and listing the valid
    ones, which is the error contract ``repro.api`` documents.
    """
    original_init = cls.__init__
    field_names = [f.name for f in dataclasses.fields(cls) if f.init]
    valid = frozenset(field_names)

    @functools.wraps(original_init)
    def __init__(self, *args, **kwargs):
        if args:
            raise TypeError(
                f"{cls.__name__}() takes no positional arguments; pass "
                "every field by keyword"
            )
        unknown = sorted(set(kwargs) - valid)
        if unknown:
            raise TypeError(
                f"{cls.__name__}() got unexpected field(s) "
                f"{', '.join(repr(name) for name in unknown)}; valid fields: "
                f"{', '.join(field_names)}"
            )
        original_init(self, **kwargs)

    cls.__init__ = __init__
    return cls
