"""The `Value` base against a test-only oracle: for every value class, a
frozen dataclass twin made from the same annotations and defaults must agree
on equality, repr, hashing and construction errors."""
import dataclasses
import functools
from fractions import Fraction

import pytest

from orbidisk import fans
from orbidisk.effective import enumerate_effective
from orbidisk.errors import Value
from orbidisk.fan import (CompactifiedData, ToricData, box_elements,
                          kernel_data, validate_compactification)
from orbidisk.hyper import coefficient_slice, z_extract
from orbidisk.invariants import disk_potential, extract_invariants
from orbidisk.mirrormap import toric_mirror_map
from orbidisk.syz import mirror_potential
from test_fan import value_classes


@functools.cache
def samples():
    """{class: (a, b)}: two unequal instances of every value class, taken
    from real runs on kp2, c3z3 and their compactifications."""
    kp2, c3z3 = kernel_data(fans.load("kp2")), kernel_data(fans.load("c3z3"))
    cd_kp2 = validate_compactification(fans.load("kp2"), fans.load("kp2_bar"),
                                       "ray:0")
    cd_c3z3 = validate_compactification(fans.load("c3z3"),
                                        fans.load("c3z3_bar"), "box:3")
    c1, c2 = enumerate_effective(kp2, 2)[:2]
    mm_kp2, mm_c3z3 = toric_mirror_map(kp2, 3), toric_mirror_map(c3z3, 2)
    dp_kp2 = disk_potential(toric_mirror_map(kp2, 3), ("ray", 0))
    dp_c3z3 = disk_potential(toric_mirror_map(c3z3, 2), ("box", 3))
    return {
        type(kp2.fan): (kp2.fan, c3z3.fan),
        type(c1.sector): tuple(box_elements(c3z3.fan)[0]),
        ToricData: (kp2, c3z3),
        CompactifiedData: (cd_kp2, cd_c3z3),
        type(c1): (c1, c2),
        type(z_extract(kp2, c1)): (z_extract(kp2, c1), z_extract(kp2, c2)),
        type(coefficient_slice(kp2, [c1], 2)): (
            coefficient_slice(kp2, [c1], 2), coefficient_slice(kp2, [c2], 2)),
        type(mm_kp2): (mm_kp2, mm_c3z3),
        type(mm_kp2.relations[0]): (mm_kp2.relations[0],
                                    mm_c3z3.relations[0]),
        type(dp_kp2): (dp_kp2, dp_c3z3),
        type(extract_invariants(dp_kp2)): (extract_invariants(dp_kp2),
                                           extract_invariants(dp_c3z3)),
        type(mirror_potential(kp2, 0, 2)): (mirror_potential(kp2, 0, 2),
                                            mirror_potential(kp2, 1, 2)),
    }


def fields(value):
    return {name: getattr(value, name) for name in type(value).__annotations__}


@functools.cache
def twin_class(cls):
    """A frozen dataclass with the fields and defaults `cls` declares."""
    spec = []
    for name in cls.__annotations__:
        if name not in vars(cls):
            spec.append((name, object))
        else:
            spec.append((name, object, dataclasses.field(default=vars(cls)[name])))
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def twin(value):
    return twin_class(type(value))(**fields(value))


def hash_or_error(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


def test_samples_cover_every_value_class():
    assert sorted(c.__name__ for c in samples()) == \
        sorted(c.__name__ for c in value_classes())
    assert len(samples()) >= 10


@pytest.mark.parametrize("name", sorted(c.__name__ for c in value_classes()))
def test_value_matches_dataclass_twin(name):
    cls = next(c for c in samples() if c.__name__ == name)
    a, b = samples()[cls]
    twins = {id(v): twin(v) for v in (a, b)}
    rebuilt = cls(**fields(a))
    twins[id(rebuilt)] = twin(rebuilt)
    assert a != b and rebuilt == a and rebuilt is not a
    for x in (a, b, rebuilt):
        assert repr(x) == repr(twins[id(x)])
        assert hash_or_error(x) == hash_or_error(twins[id(x)])
        for y in (a, b, rebuilt):
            tx, ty = twins[id(x)], twins[id(y)]
            assert (x == y) == (tx == ty)
            assert (x != y) == (tx != ty)
        # another class, even the twin itself, is never equal
        assert x != twins[id(x)] and not (x == 1) and x != ()


@pytest.mark.parametrize("name", sorted(c.__name__ for c in value_classes()))
def test_value_construction_matches_dataclass_twin(name):
    cls = next(c for c in samples() if c.__name__ == name)
    a, _ = samples()[cls]
    values = list(fields(a).values())
    names = list(fields(a))
    required = [v for n, v in zip(names, values) if n not in vars(cls)]
    assert cls(*values) == cls(**fields(a)) == a
    assert repr(cls(*required)) == repr(twin_class(cls)(*required))
    bad_calls = [
        ((), {}),                                  # every field missing
        (values[:len(required) - 1], {}),          # the last required missing
        (values, {"bogus": 1}),                    # unknown keyword
        (values, {names[0]: values[0]}),           # a field given twice
        ([*values, None], {}),                     # one positional too many
    ]
    for args, kwargs in bad_calls:
        for target in (cls, twin_class(cls)):
            with pytest.raises(TypeError):
                target(*args, **kwargs)


def test_equality_needs_the_same_class():
    class First(Value):
        x: int

    class Second(Value):
        x: int

    assert not twin_class(First)(1) == twin_class(Second)(1)
    assert not First(1) == Second(1)
    assert First(1) != Second(1) and First(1) == First(1)
