"""Energy (Fig 13) and area/density (Table IV) models."""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".area": ["RETICLE_MM2", "TABLE_IV", "TILE_AREA_3NM_UM2", "TILE_BREAKDOWN",
              "ChipRecord", "cores_on_die", "density_ratios", "record",
              "ruche_router_overhead", "tile_area_um2"],
    ".epi": ["HB_COMPONENT_PJ", "INSTRUCTION_CLASSES", "PIM_OP_PJ",
             "PITON_32NM_PJ", "EnergyReport", "cv2_scale", "efficiency_ratios",
             "hb_epi", "hb_epi_breakdown", "kernel_energy", "pim_energy",
             "pim_op_epi", "piton_epi_scaled"],
})
