"""Exact laboratory for Sato-Grassmannian points of prime-order cyclic
covers: windowed Laurent arithmetic over cyclotomic scalars, echelon
frames, residue identities, formal Prym flows, and Krichever points."""

from .baker import (
    BAFunction,
    IdentityValue,
    adjoint_baker,
    ba_transform_check,
    baker_akhiezer,
    residue_identity_eval,
)
from .errors import ConfigError, FrameError, PrymlabError, WindowError
from .flows import (
    FlowCoords,
    PiElement,
    jac_coord_map,
    pi_element,
    prop_prym_report,
    prym_complement,
    prym_membership_coords,
)
from .grass import GrassPoint, build_frame, lines_point, module_closure, u_n_point, v_minus
from .jets import JetPoly, JetRing
from .krichever import (
    CurveSpec,
    FunctionRep,
    algebra_point,
    curve_invariants,
    module_point,
    puiseux_expand,
)
from .scalars import Cyclo, Rat
from .vseries import (
    BaseSeries,
    Model,
    VSeries,
    flow_exponential,
    pth_root_series,
    residue_pairing,
    wedge_residue,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
