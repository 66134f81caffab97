"""Verifiable twin-width toolkit.

Exact contraction semantics for trigraphs, contraction-sequence
certificates with replay verification, desk-scale exact solvers for
twin-width and tree-width, generators for structural families (walls,
cubic meshes, the spiked-path family), vertex-disjoint path machinery,
and an invariant automaton with a certify-or-refute pipeline.
"""

from .connectivity import max_disjoint_paths, min_vertex_cut
from .graphs import (
    Graph,
    Trigraph,
    complete_bipartite,
    complete_graph,
    contract,
    cycle_graph,
    graph_from_edges,
    grid_graph,
    max_red_degree,
    path_graph,
    relabel,
    trigraph_from_graph,
)
from .partitions import (
    PartitionedTrigraph,
    VertexPartition,
    partition_from_blocks,
    quotient,
    split_part,
)
from .pipeline import PipelineResult, WidthBoundMissed, decomposition_sequence, pipeline_certify
from .sequences import (
    ContractionSequence,
    SequenceError,
    Split,
    UncontractionSequence,
    apply_prefix,
    invert,
    partitions_at,
    sequence_from_pairs,
    split_at,
    uncontraction_from_chain,
    uncontraction_from_splits,
    verify_width,
    width_trace,
)
from .solver import (
    DecideResult,
    ExactResult,
    decide_twinwidth_at_most,
    greedy_sequence,
    twinwidth_exact,
    twinwidth_zero,
)
from .structure import (
    FamilyLabeling,
    MeshEmbedding,
    WallLabeling,
    gen_tww3_family,
    gen_wall,
    has_ktt,
    subdivide_wall,
    tww3_family_sequence,
    verify_mesh,
    wall_to_mesh,
)
from .treewidth import (
    BudgetExceeded,
    TreeDecomposition,
    TreewidthResult,
    decomposition_from_order,
    min_fill_order,
    minor_min_width,
    treewidth_exact,
    treewidth_order,
    verify_tree_decomposition,
)
from .witness import (
    AuditResult,
    InvariantReport,
    LayoutReport,
    MeshSearchMiss,
    MeshWitness,
    WitnessState,
    WitnessViolation,
    advance_witness,
    audit_sequence,
    black_edge_violations,
    black_neighborhood_weight,
    check_path_layout,
    check_witness,
    find_mesh_witness,
)

__version__ = "0.1.0"
