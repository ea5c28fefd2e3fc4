"""Exact-arithmetic toolkit for Mukai vectors on a K3 surface.

Every public name is resolved on first use (PEP 562) and then bound here, so
importing the package loads no submodule, and nothing in it loads numpy.
"""

_HOMES = {
    "constructions": ("AuxConstruction", "FareyCheck", "build_auxiliary", "farey_gap_holds",
                      "sweep_farey", "sweep_triangles", "triangle_interior_count"),
    "errors": ("ConsistencyError", "InputError"),
    "isometry": ("Dual", "IsometryWord", "Negate", "NSAuto", "Reflect", "Translate",
                 "apply_reflect", "apply_translate"),
    "lattice": ("EvenLattice", "MukaiVector", "content", "dual", "ell", "mukai_from_chern",
                "mukai_pairing", "primitive", "square"),
    "moduli": ("CaseInfo", "NonLocallyFree", "classify_case", "classify_non_locally_free",
               "euler_characteristic", "exists_mu_stable", "exists_semistable",
               "exists_stable_primitive", "hilb_index", "moduli_dim", "mu_stable_boundary_flag"),
    "partitions": ("chi_virtual", "z_psu_direct", "z_psu_hecke", "z_psu_hecke_literal"),
    "qseries": ("QSeries", "gottsche_series", "hilb_euler", "qs_add", "qs_evaluate", "qs_mul",
                "qs_scale", "qs_substitute_power", "z1_zero"),
    "theta": ("Splitting", "ThetaSum", "ZFullSum", "theta_siegel_narain", "z_full_direct",
              "z_full_factorized"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in (module, *names)}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f".{module}", __name__)       # binds the submodule here
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value
