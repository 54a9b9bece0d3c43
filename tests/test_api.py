"""The public API takes no tolerance arguments: the library reads its one
fixed `intervals.TOL`."""

import dataclasses
import inspect

import cantorifs
from cantorifs.ifs import IFSPair


def _public_callables():
    for name, obj in vars(cantorifs).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def test_no_tol_parameters():
    checked = dict(_public_callables())
    assert {"validate_class_a", "IFSPair.of", "MapSpec.inverse_eval"} <= checked.keys()
    offenders = [name for name, fn in checked.items()
                 if "tol" in inspect.signature(fn).parameters]
    assert offenders == []


def test_tol_is_not_a_pair_field():
    assert "tol" not in {f.name for f in dataclasses.fields(IFSPair)}
