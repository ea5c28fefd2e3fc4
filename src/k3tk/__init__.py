"""Exact-arithmetic toolkit for Mukai vectors on a K3 surface.

The theta names, the only ones that need numpy, are resolved on first use
(PEP 562), so importing the package loads neither numpy nor mpmath.
"""

from .constructions import (AuxConstruction, FareyCheck, build_auxiliary,
                            farey_gap_holds, reflected_target, sweep_farey,
                            sweep_triangles, triangle_interior_count)
from .errors import ConsistencyError, InputError
from .isometry import (Dual, IsometryWord, Negate, NSAuto, Reflect, Translate,
                       apply_reflect, apply_translate, apply_word, ns_auto,
                       reflect, reflection_target, translate)
from .lattice import (EvenLattice, MukaiVector, content, dual, ell,
                      mukai_from_chern, mukai_pairing, primitive, square)
from .moduli import (CaseInfo, NonLocallyFree, classify_case,
                     classify_non_locally_free, euler_characteristic,
                     exists_mu_stable, exists_semistable,
                     exists_stable_primitive, hilb_index, moduli_dim,
                     mu_stable_boundary_flag)
from .partitions import (chi_virtual, z_psu_direct, z_psu_hecke,
                         z_psu_hecke_literal)
from .qseries import (QSeries, gottsche_series, hilb_euler, qs_add,
                      qs_evaluate, qs_mul, qs_scale, qs_substitute_power,
                      z1_zero)

_THETA_NAMES = ("Splitting", "ThetaSum", "ZFullSum", "theta_siegel_narain",
                "z_full_direct", "z_full_factorized")

__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + ["theta", *_THETA_NAMES])
__version__ = "0.1.0"


def __getattr__(name):
    if name == "theta" or name in _THETA_NAMES:
        import importlib

        theta = importlib.import_module(".theta", __name__)    # binds k3tk.theta
        globals().update((n, getattr(theta, n)) for n in _THETA_NAMES)
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
