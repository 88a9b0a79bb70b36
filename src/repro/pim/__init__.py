"""Processing-in-memory backend for the HBM model (AiM-style).

Import-light on purpose: :mod:`repro.arch.config` imports
:class:`PimConfig` from here, so this package must not pull in the
kernel/ISA machinery.  The offload kernel registry lives in
:mod:`repro.pim.kernels` and is imported explicitly by its users.
"""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".commands": ["MacAbk", "MicroOp", "PimCommand", "RdMac", "WrBias",
                  "WrCrf", "WrGb", "WrSbk"],
    ".config": ["PimConfig"],
    ".engine": ["PimEngine"],
    ".reference": ["RefPimBank"],
    ".unit": ["PimUnit"],
})
