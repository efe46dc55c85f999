"""Immutable value classes, built without generating code per class.

A Record subclass declares its fields as annotations, in order; a class
attribute gives a field its default.  Instances take their fields by position
or keyword, run ``__post_init__`` if the class defines one, compare equal only
to instances of the same class with equal fields, hash by their fields and
repr as ``Name(field=value, ...)``.  They are frozen; one whose fields hold
a list or a dict is unhashable.  A class that writes its own ``__init__``
sets its fields with ``_set``.

Fields are set with ``object.__setattr__``, never by writing ``__dict__``:
on CPython 3.11, touching ``__dict__`` moves an instance's attributes out of
their inline slots and every later read of them gets slower.  Equality
compares ``__dict__``s, so it first tests identity, which keeps shared
instances such as ``chow.P3`` inline.
"""

_set = object.__setattr__  # sets a field past a frozen class's __setattr__


def _frozen(self, name, *value):
    raise AttributeError(f"cannot assign to or delete field {name!r}")


class Record:
    _fields = ()  # field names, in order
    _defaults = {}
    __setattr__ = __delattr__ = _frozen

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__annotations__)
        cls._fields = cls._fields + own
        defaults = {name: vars(cls)[name] for name in own if name in vars(cls)}
        cls._defaults = {**cls._defaults, **defaults}

    def __init__(self, *args, **kwargs):
        names = self._fields
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__}() takes {len(names)} fields")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{type(self).__name__}() got a bad field {name!r}")
            values[name] = value
        if len(values) < len(names):
            values = {**self._defaults, **values}
            missing = [name for name in names if name not in values]
            if missing:
                raise TypeError(f"{type(self).__name__}() is missing {missing}")
        for name, value in values.items():
            _set(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple([getattr(self, name) for name in self._fields]))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
