"""Network-on-chip models: mesh/Ruche topologies, routing, barriers."""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".analysis": None,
    ".barrier": ["HwBarrierGroup", "SwBarrierGroup", "analytic_hw_latency",
                 "analytic_sw_latency", "barrier_hops", "tree_root"],
    ".network": ["DeliveryReport", "Network"],
    ".routing": ["hop_count", "route"],
    ".topology": ["Link", "Topology"],
    ".wormhole": ["WormholeStrip"],
})
