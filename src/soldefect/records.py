"""``@record``: what the program used of ``@dataclass``, without importing
``dataclasses`` (which loads ``inspect``, ``ast`` and ``dis``) or paying for
its slow decorator at every start. See ``record`` for what a class gets."""

from collections import namedtuple
from operator import attrgetter

_REQUIRED, _FACTORY = object(), object()  # no default; use the factory
field = namedtuple("field", "default_factory init repr compare default",
                   defaults=(None, True, True, True, _REQUIRED))


def _refuse(self, name, value=None):
    raise AttributeError(f"cannot assign to or delete field {name!r}")


def _values(names):
    """A function from a record to the tuple of its fields ``names``
    (``attrgetter`` gives a bare value for one name and needs at least one)."""
    if len(names) > 1:
        return attrgetter(*names)
    return lambda self: tuple(getattr(self, name) for name in names)


def record(cls=None, *, slots=False, frozen=False):
    """Make ``cls`` a record of its annotated fields, each with a plain
    default, a ``field`` or neither: an ``__init__`` (that calls any
    ``__post_init__``), ``__repr__`` and ``__eq__``, and ``__slots__`` if
    ``slots``. A ``frozen`` record refuses assignment and hashes by value."""
    if cls is None:
        return lambda cls: record(cls, slots=slots, frozen=frozen)
    body = {k: v for k, v in cls.__dict__.items()
            if k not in ("__dict__", "__weakref__")}
    fields = {}
    for name in body.get("__annotations__", ()):
        spec = body.pop(name, _REQUIRED)
        fields[name] = spec if spec.__class__ is field else field(default=spec)
    # the code reads a default from the global _d_<name>; _f_<name> is a factory
    env, params, sets = {"_set": object.__setattr__, "_F": _FACTORY}, [], []
    for name, spec in fields.items():
        env[f"_d_{name}"], env[f"_f_{name}"] = spec.default, spec.default_factory
        value = name
        if not spec.init:
            value = f"_f_{name}()"
        elif spec.default_factory is not None:
            params.append(f"{name}=_F")
            value = f"_f_{name}() if {name} is _F else {name}"
        else:
            params.append(name if spec.default is _REQUIRED else f"{name}=_d_{name}")
        sets.append(f"_set(self, {name!r}, {value})" if frozen
                    else f"self.{name} = {value}")
    if "__post_init__" in body:
        sets.append("self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):\n " + "\n ".join(sets), env)
    shown = [name for name, spec in fields.items() if spec.repr]
    key = _values([name for name, spec in fields.items() if spec.compare])

    def __repr__(self):
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in shown)
        return f"{self.__class__.__qualname__}({values})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    body.update(__init__=env["__init__"], __repr__=__repr__, __eq__=__eq__)
    if frozen:  # pickled as its fields
        args = _values(list(fields))
        body.update(__hash__=lambda self: hash(key(self)), __setattr__=_refuse,
                    __delattr__=_refuse,
                    __reduce__=lambda self: (self.__class__, args(self)))
    if slots:
        body["__slots__"] = tuple(fields)
    return type(cls)(cls.__name__, cls.__bases__, body)
