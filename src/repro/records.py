"""Immutable records that check their fields.

A record class is a :class:`typing.NamedTuple` unless something mutates
its instances or reads it through ``dataclasses`` introspection
(DESIGN.md, "Start-up"): building a NamedTuple class costs about a
sixth of a frozen dataclass's, and every job builds the classes it
imports.  A NamedTuple may not define ``__new__`` or ``__post_init__``
in its body, so a record that validates its fields defines ``_check``
and is decorated with :func:`checked`.
"""

from functools import wraps


def checked(cls):
    """Make every new instance of the NamedTuple ``cls`` run its
    ``_check()``, which raises ``ValueError`` on bad fields.

    ``_make`` and ``_replace`` build instances without the check.
    """
    new = cls.__new__

    @wraps(new)
    def __new__(klass, *args, **kwargs):
        self = new(klass, *args, **kwargs)
        self._check()
        return self

    cls.__new__ = __new__
    return cls
