"""Every public entry point refuses a foreign operand with the TypeError of lattice._expect.

The entry points are the public functions, constructors and public methods reachable from
k3tk.__all__; each parameter annotated as one of the package's operand types must refuse a
value of another type with "expected <type>, got <its type>".  _calls holds one valid call per
entry point that has such a parameter, by keyword, so a new entry point without one fails here.
"""

import inspect

import pytest

import k3tk
from k3tk import Dual, EvenLattice, IsometryWord, MukaiVector, Reflect, Splitting, z1_zero

_TYPES = ("EvenLattice", "MukaiVector", "QSeries", "Splitting")
_FOREIGN = {"EvenLattice": ((-2,),), "MukaiVector": (1, (0,), 1), "QSeries": {0: 1},
            "Splitting": None}


def _entry_points():
    """(qualified name, callable) for every public function, class and public method."""
    for name in k3tk.__all__:
        obj = getattr(k3tk, name)
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for attr in dir(obj):
                if not attr.startswith("_") and callable(getattr(obj, attr)):
                    yield f"{name}.{attr}", getattr(obj, attr)


def _operands(fn) -> list[tuple[str, str]]:
    """(parameter, type name) for each parameter annotated as an operand type."""
    try:
        params = inspect.signature(fn).parameters.values()
    except ValueError:      # a builtin without a signature
        return []
    return [(p.name, p.annotation) for p in params if p.annotation in _TYPES]


def _calls():
    lat = EvenLattice(((-2,),))
    v = MukaiVector(1, (0,), 1)         # a (-2)-vector of Gram [-2]
    split = Splitting.identity_positive(lat)
    s = z1_zero(2)
    word = IsometryWord((Dual(),), lat)
    vl = {"v": v, "lat": lat}
    calls = {"IsometryWord": (IsometryWord, {"elems": (Dual(),), "lattice": lat}),
             "IsometryWord.apply": (word.apply, vl),
             "IsometryWord.from_json": (IsometryWord.from_json, {"doc": [], "lat": lat}),
             "Reflect": (Reflect, {"u": v}),
             "Splitting": (Splitting, {"lattice": lat, "pl": [[1]], "pr": [[0]]}),
             "Splitting.spectral": (Splitting.spectral, {"lat": lat}),
             "Splitting.identity_positive": (Splitting.identity_positive, {"lat": lat}),
             "apply_reflect": (k3tk.apply_reflect, {"u": v, **vl}),
             "apply_translate": (k3tk.apply_translate, {"shift": (1,), **vl}),
             "mukai_from_chern": (k3tk.mukai_from_chern, {"r": 1, "c1": (0,), "ch2": 0,
                                                          "lat": lat}),
             "mukai_pairing": (k3tk.mukai_pairing, {"x": v, "y": v, "lat": lat}),
             "qs_add": (k3tk.qs_add, {"a": s, "b": s}),
             "qs_mul": (k3tk.qs_mul, {"a": s, "b": s}),
             "qs_scale": (k3tk.qs_scale, {"a": s, "scalar": 2}),
             "qs_evaluate": (k3tk.qs_evaluate, {"s": s, "tau": 1j}),
             "qs_substitute_power": (k3tk.qs_substitute_power, {"s": s, "m": 2})}
    for name in ("content", "dual", "ell", "primitive"):
        calls[name] = getattr(k3tk, name), {"v": v}
    for name in ("chi_virtual", "classify_case", "classify_non_locally_free",
                 "euler_characteristic", "exists_mu_stable", "exists_semistable",
                 "exists_stable_primitive", "hilb_index", "moduli_dim",
                 "mu_stable_boundary_flag", "square"):
        calls[name] = getattr(k3tk, name), vl
    for name in ("z_psu_direct", "z_psu_hecke", "z_psu_hecke_literal"):
        calls[name] = getattr(k3tk, name), {"r": 1, "alpha": (0,), "order": 2, "lat": lat}
    sums = {"lat": lat, "tau": 1j, "split": split, "radius": 1.0}
    calls["theta_siegel_narain"] = k3tk.theta_siegel_narain, {"alpha": (0,), "r": 1, **sums}
    calls["z_full_direct"] = k3tk.z_full_direct, {"r": 1, "exponent_cutoff": 1, **sums}
    calls["z_full_factorized"] = k3tk.z_full_factorized, {"r": 1, "series_order": 2, **sums}
    return calls


def test_every_operand_of_every_entry_point_refuses_a_foreign_value():
    calls = _calls()
    operands = {name: ops for name, fn in _entry_points() if (ops := _operands(fn))}
    assert {"mukai_from_chern", "IsometryWord.apply", "z_full_direct"} <= set(operands)
    assert sorted(set(operands) - set(calls)) == []         # an entry point without a row
    assert sorted(set(calls) - set(operands)) == []         # a row without an operand
    wrong = []      # (entry point, parameter, what a foreign value there did)
    for name, ops in operands.items():
        fn, kwargs = calls[name]
        fn(**kwargs)        # the row's valid call, so each refusal below is its operand's
        for param, kind in ops:
            foreign = _FOREIGN[kind]
            try:
                fn(**{**kwargs, param: foreign})
                wrong.append((name, param, "accepted"))
            except Exception as exc:
                if not (type(exc) is TypeError
                        and str(exc) == f"expected {kind}, got {type(foreign).__name__}"):
                    wrong.append((name, param, repr(exc)))
    assert wrong == []
