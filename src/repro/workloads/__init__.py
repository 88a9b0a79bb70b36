"""Synthetic workload inputs (graphs, matrices, options, bodies)."""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".bodies": ["Octree", "OctreeNode", "plummer_sphere"],
    ".csr": ["CsrMatrix"],
    ".dense": ["OptionBatch", "aes_blocks", "dna_sequences", "fft_input",
               "jacobi_grid", "option_batch", "random_matrix"],
    ".graphs": ["hollywood_like", "rmat", "offshore_like", "power_law_graph",
                "roadnet_like", "standard_graphs", "uniform_random",
                "wiki_vote_like"],
})
