"""Decay rates of mesoscopic emitters near metal structures.

The package computes normalized spontaneous-emission rates of an
extended (mesoscopic) emitter whose light-matter coupling carries a
first-moment correction on top of the usual dipole term, for two
geometries: a planar metal mirror under a high-index host, and a thin
metal nanowire supporting a single guided plasmon mode.

All rates are dimensionless, normalized to the emission rate of the
same dipole in the unbounded host. Lengths in nm, wavevectors in
rad/nm, velocities in nm/fs.
"""

__version__ = "0.1.0"

from .core import (
    GAAS,
    SILVER,
    EmitterMoments,
    FiguresOfMerit,
    Material,
    figures_of_merit,
    homogeneous_im_gxx,
    paper_moments,
    wavevector,
)
from .errors import (
    ContractViolationError,
    ConvergenceError,
    ExpansionInvalidError,
    MesoqedError,
    NoBoundModeError,
    OutOfDomainError,
    ParameterError,
)
from .halfspace import (
    ChannelDecomposition,
    InterfaceGeometry,
    InterfacePoint,
    interface_point,
    paper_interface,
    spp_pole,
)
from .moments import (
    LENS_SHAPED_TABLE,
    GaussianEnvelopes,
    MomentPattern,
    OmegaCheck,
    ParityTable,
    allowed_moments,
    lambda_zx_estimate,
    lambda_zx_significance,
    omega_negligibility,
)
from .nanowire import (
    AXIAL,
    RADIAL,
    FieldMap,
    FieldWindow,
    GuidedMode,
    WireGeometry,
    field_map,
    paper_wire,
    plasmon_bundle,
    plasmon_rates,
    quasistatic_background,
    solve_dispersion,
)
from .rates import (
    GreenBundle,
    MultipoleSplit,
    RateLadder,
    extract_fields,
    md_eq_split,
    rate_ladder,
)

__all__ = [
    "__version__",
    "AXIAL",
    "ChannelDecomposition",
    "ContractViolationError",
    "ConvergenceError",
    "EmitterMoments",
    "ExpansionInvalidError",
    "FieldMap",
    "FieldWindow",
    "FiguresOfMerit",
    "GAAS",
    "GaussianEnvelopes",
    "GreenBundle",
    "GuidedMode",
    "InterfaceGeometry",
    "InterfacePoint",
    "LENS_SHAPED_TABLE",
    "Material",
    "MesoqedError",
    "MomentPattern",
    "MultipoleSplit",
    "NoBoundModeError",
    "OmegaCheck",
    "OutOfDomainError",
    "ParameterError",
    "ParityTable",
    "RADIAL",
    "RateLadder",
    "SILVER",
    "WireGeometry",
    "allowed_moments",
    "extract_fields",
    "field_map",
    "figures_of_merit",
    "homogeneous_im_gxx",
    "interface_point",
    "lambda_zx_estimate",
    "lambda_zx_significance",
    "md_eq_split",
    "omega_negligibility",
    "paper_interface",
    "paper_moments",
    "paper_wire",
    "plasmon_bundle",
    "plasmon_rates",
    "quasistatic_background",
    "rate_ladder",
    "solve_dispersion",
    "spp_pole",
    "wavevector",
]
