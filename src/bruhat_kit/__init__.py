"""Chain calculus for Schubert-times-Schur and dual k-Schur-times-Schur.

The package computes interval chain functions in three settings: the
r-Bruhat order on finite permutations, the affine 0-Bruhat multigraph on
0-grassmannian affine permutations, and the weak order with its cyclic
Pieri rule.  It expands the resulting quasisymmetric functions in Schur
functions and embeds finite intervals into the affine graph.
"""

from .affinegraph import (AffineEdge, AffinePath, apply_t, check_relation,
                          dual_pieri, edge_representatives, is_bruhat_cover,
                          k_function_affine, out_edges, path_count, paths)
from .affineperm import (AffinePermutation, CorePartition, from_core,
                         is_grassmannian, length_affine, to_core)
from .combinat import descent_composition, kostka, partitions_of, refines
from .embedding import EmbeddingData, build_embedding, map_chain, verify_embedding
from .errors import BruhatKitError
from .kschur import (KMatrix, invert_k_matrix, is_cyclically_increasing,
                     k_function_weak, k_matrix, kschur_in_h, pieri_kschur,
                     weak_covers)
from .qsym import (QuasiSymFn, SymFn, f_to_m, h_expand_to_schur, is_symmetric,
                   m_to_f, schur_expand)
from .rbruhat import (FinitePermutation, SchubertChain, all_chains, apply_u,
                      first_chain, interval_from_zeta, is_zero_word,
                      k_function_r, rewrite_schubert)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
