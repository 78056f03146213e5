"""moeforge: build sparse mixture-of-experts layers out of dense SwiGLU FFNs.

Pipeline: partition the intermediate neurons into experts (random, balanced
k-means, or importance-based sharing), assemble an MoE layer with a noisy
top-k gate and N/k re-scaling, distill the dense teacher back into it, and
analyze routing specialization across data domains.

Every name is imported from its module (`from moeforge.moe import MoeLayer`);
the package root binds only `__version__` and the submodules.
"""

from . import dense_ffn, importance, moe, partition, routing, sampler, tensor, trainer

__version__ = "0.1.0"
