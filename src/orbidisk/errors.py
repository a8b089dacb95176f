"""Error types, the immutable value base and the rational helpers shared by
all modules.

Every error names the module and operation it came from, plus the offending
datum, so a CLI report can be produced mechanically.
"""
from __future__ import annotations

import re
from fractions import Fraction


class OrbidiskError(Exception):
    """Base class; carries (module, operation, message, datum)."""

    exit_code = 1

    def __init__(self, module: str, operation: str, message: str, datum=None):
        self.module = module
        self.operation = operation
        self.datum = datum
        super().__init__(f"[{module}/{operation}] {message}")

    def as_dict(self):
        d = {
            "module": self.module,
            "operation": self.operation,
            "message": str(self.args[0]),
        }
        if self.datum is not None:
            d["datum"] = repr(self.datum)
        return d


class ValidationError(OrbidiskError):
    """Malformed or inconsistent input data."""

    exit_code = 2


class ConsistencyError(OrbidiskError):
    """A mathematical cross-check failed (oracle mismatch, broken identity)."""

    exit_code = 3


def frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def frac_str(x: Fraction) -> str:
    x = frac(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# the one spelling of a rational read from outside the program
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_frac(s) -> Fraction:
    """A rational from an int (not a bool) or an ASCII string -?digits or
    -?digits/digits; anything else, a zero denominator and a part past
    Python's 4300-digit limit are refused with the series engine's parse
    error."""
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if isinstance(s, str) and _RATIONAL.fullmatch(s):
        try:
            return Fraction(s)
        except (ZeroDivisionError, ValueError):
            pass
    raise ValidationError("series-engine", "parse", f"not a rational: {s!r}",
                          s)


def index(text: str) -> int:
    """An index in ASCII digits without a leading zero; else ValueError."""
    if text.isascii() and text.isdigit() and text == str(int(text)):
        return int(text)
    raise ValueError(f"not an index: {text!r}")


class Value:
    """Base of the package's immutable values, in place of frozen dataclasses.

    A subclass's fields are its annotations, in order; a class attribute named
    like a field is its default.  Instances take fields positionally or by
    keyword, refuse assignment and deletion, compare by their field tuple,
    hash when every field does, and repr like a dataclass.  Nothing is
    generated at class creation, and `dataclasses` (with `inspect` behind it)
    stays out of every process's start-up.
    """

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls._fields = tuple(dict.fromkeys((*cls._fields, *own)))
        cls._defaults = {n: getattr(cls, n) for n in cls._fields
                         if hasattr(cls, n)}

    def __init__(self, *args, **kwargs):
        # the instance dict holds exactly the fields, in field order
        cls = type(self)
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments "
                            f"but {len(args)} were given")
        values = self.__dict__
        values.update(zip(names, args))
        for name in names[len(args):]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif name in cls._defaults:
                values[name] = cls._defaults[name]
            else:
                raise TypeError(f"{cls.__name__}() missing required "
                                f"argument {name!r}")
        if kwargs:
            name = next(iter(kwargs))
            problem = "got multiple values for" if name in values else \
                "got an unexpected keyword"
            raise TypeError(f"{cls.__name__}() {problem} argument {name!r}")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"
