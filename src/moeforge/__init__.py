"""moeforge: build sparse mixture-of-experts layers out of dense SwiGLU FFNs.

Pipeline: partition the intermediate neurons into experts (random, balanced
k-means, or importance-based sharing), assemble an MoE layer with a noisy
top-k gate and N/k re-scaling, distill the dense teacher back into it, and
analyze routing specialization across data domains.
"""

from .dense_ffn import DenseFfn, ExpertFfn, ffn_forward
from .importance import (
    DataGroup,
    accumulate_importance,
    group_data_by_clustering,
)
from .moe import (
    GateNetwork,
    MoeLayer,
    TokenRouting,
    assemble_moe,
    balance_loss,
    gate_forward,
    moe_forward,
)
from .partition import (
    ExpertPartition,
    PartitionMethod,
    slice_expert,
    split_independent_clustering,
    split_independent_random,
    split_sharing_inner,
    split_sharing_inter,
)
from .routing import (
    RoutingColumns,
    RoutingRecord,
    RoutingStats,
    collect_routing,
    dead_expert_report,
    routing_l2_matrix,
)
from .sampler import (
    DomainWeights,
    SamplerMode,
    SamplerState,
    dynamic_update,
    next_domain,
    schedule_log,
)
from .tensor import Rng, softmax, swish
from .trainer import TrainConfig, TrainReport, lr_at, train_distill

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
