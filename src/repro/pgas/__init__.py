"""PGAS address spaces, hashing and translation (paper Section IV)."""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".hashing": ["bank_of_line", "ipoly_hash", "modulo_hash",
                 "stride_camping_score"],
    ".spaces": ["DecodedAddress", "Space", "decode", "encode", "global_dram",
                "group_dram", "group_spm", "is_dram", "local_dram",
                "local_spm", "space_of"],
    ".translate": ["Destination", "TargetKind", "Translator"],
})
