"""Record classes: the part of ``dataclasses`` that orbkit uses, without exec.

Every orbkit command runs in a fresh process, so it pays for its imports
each time.  ``@dataclass`` writes the source of every method it adds and
runs ``exec`` on it, and the ``dataclasses`` module imports ``inspect``.
Measured in one process (CPU time, medians of 20 to 30 runs, Python
3.11.7 on 2 vCPUs, modules compiled from source), building orbkit's 27
record classes that way took 12.6 ms and importing ``dataclasses`` 5.5 ms,
of the 47.8 ms that ``import orbkit.cli`` took; with this module the
import takes 31.7 ms.  Here the methods are closures over the field
names, and nothing is compiled.  The price is paid per call instead: a
generic ``__init__`` or ``__eq__`` takes about 0.1 us more than one
written for its fields, and a command builds about 240 records.

Only what orbkit uses is supported: fields in annotation order, passed by
position or keyword; defaults and ``field(default_factory=...)``;
``__post_init__``; ``frozen=True``; and ``eq=False``.  A frozen record's
``__post_init__`` sets a field with ``object.__setattr__``, as a frozen
dataclass's does.  The methods behave
as the dataclass ones do.  The repr is ``Name(a=1, b=2)``.  Two records
are equal only if they are of the same class and their field tuples are
equal.  A frozen record hashes its field tuple, and a mutable record
that compares by value is unhashable.  ``cached_property`` works on
frozen records, since it writes to the instance ``__dict__``.
"""

from __future__ import annotations

from operator import attrgetter

MISSING = object()  # the default of a field that has none


class FrozenRecordError(AttributeError):
    """A field of a frozen record was assigned or deleted."""


class field:
    """A default made afresh for each instance, as by
    ``field(default_factory=list)``."""

    __slots__ = ("default_factory",)

    def __init__(self, *, default_factory):
        self.default_factory = default_factory


def record(cls=None, /, *, frozen=False, eq=True):
    """Class decorator: add __init__, __repr__, __eq__, __hash__ and, if
    frozen, a __setattr__ and __delattr__ that refuse.  Used bare or as
    ``@record(frozen=True)`` / ``@record(frozen=True, eq=False)``."""
    if cls is None:
        return lambda c: _build(c, frozen, eq)
    return _build(cls, frozen, eq)


def replace(obj, /, **changes):
    """A new record like obj with some fields changed; runs __init__.
    Each field is passed by position, which takes __init__'s fast path;
    a name that is not a field is left a keyword, which __init__ refuses."""
    return obj.__class__(*[changes.pop(name) if name in changes
                           else getattr(obj, name)
                           for name in obj.__record_fields__], **changes)


def _build(cls, frozen, eq):
    defaults = {}
    for name in cls.__dict__.get("__annotations__", {}):
        default = cls.__dict__.get(name, MISSING)
        if isinstance(default, field):
            delattr(cls, name)
        defaults[name] = default
    names = tuple(defaults)
    count = len(names)
    positions = tuple(enumerate(names))
    qualname = cls.__qualname__
    has_post_init = hasattr(cls, "__post_init__")
    # object.__setattr__ passes by a frozen record's __setattr__; setattr
    # is faster.  Either, unlike a write to self.__dict__, keeps the
    # instance's compact attribute storage, where a field read takes
    # about 7 ns against 28 ns from a dict (Python 3.11).
    store = object.__setattr__ if frozen else setattr

    def bind(args, kwargs):
        """Field values in order from a call that is not simply one
        positional argument per field."""
        if len(args) > count:
            raise TypeError(f"{qualname}.__init__() takes {count + 1} "
                            f"positional arguments but {len(args) + 1} "
                            f"were given")
        values = list(args)
        missing = []
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
                continue
            default = defaults[name]
            if default is MISSING:
                missing.append(name)
            elif isinstance(default, field):
                values.append(default.default_factory())
            else:
                values.append(default)
        if kwargs:
            name = next(iter(kwargs))
            why = ("got multiple values for argument" if name in names
                   else "got an unexpected keyword argument")
            raise TypeError(f"{qualname}.__init__() {why} {name!r}")
        if missing:
            raise TypeError(f"{qualname}.__init__() missing required "
                            f"argument(s): {', '.join(map(repr, missing))}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = bind(args, kwargs)
        for i, name in positions:
            store(self, name, args[i])
        if has_post_init:
            # looked up on each call, so a wrapper set on the class later
            # is the one that runs
            self.__post_init__()

    def __repr__(self):
        return f"{self.__class__.__qualname__}(" + ", ".join(
            [f"{name}={getattr(self, name)!r}" for name in names]) + ")"

    methods = {"__init__": __init__, "__repr__": __repr__}
    if eq:
        if count == 1:
            get = attrgetter(names[0])
            key = lambda self: (get(self),)  # noqa: E731
        else:
            key = attrgetter(*names)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        methods["__eq__"] = __eq__
        if frozen:
            methods["__hash__"] = lambda self: hash(key(self))
        else:
            methods["__hash__"] = None
    if frozen:
        def __setattr__(self, name, value):
            raise FrozenRecordError(f"cannot assign to field {name!r}")

        def __delattr__(self, name):
            raise FrozenRecordError(f"cannot delete field {name!r}")

        methods["__setattr__"] = __setattr__
        methods["__delattr__"] = __delattr__
    for attr, method in methods.items():
        if method is not None:
            method.__qualname__ = f"{qualname}.{attr}"
        setattr(cls, attr, method)
    cls.__record_fields__ = defaults
    cls.__record_flags__ = {"frozen": frozen, "eq": eq}
    return cls
