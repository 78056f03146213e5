"""Seeded synthetic inputs for the benchmark workloads.

Everything here draws from ``numpy.random.default_rng(seed)``, never from
moeforge's own ``Rng``, so that set-up time does not measure the package.
The same seed always writes byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np

from moeforge.mft import write_mft


def write_teacher(path: str, d: int, d_h: int, seed: int) -> None:
    """Gaussian SwiGLU teacher scaled 1/sqrt(d) (1/sqrt(d_h) for w_down).

    w_up is drawn once per shape, and the seed applies a signed permutation
    to its d coordinates, which keeps every distance between neurons (the
    columns of w_up). Balanced k-means over those columns then runs the same
    iterations for every seed, so the clustering split time depends on the
    code, not on the seed. The seed draws w_gate and w_down freely.
    """
    rng = np.random.default_rng([seed, 0])
    w_up = np.random.default_rng([d, d_h]).standard_normal((d, d_h))
    w_up = w_up[rng.permutation(d)] * rng.choice([-1.0, 1.0], size=(d, 1))
    write_mft(
        path,
        {
            "w_up": w_up / np.sqrt(d),
            "w_gate": rng.standard_normal((d, d_h)) / np.sqrt(d),
            "w_down": rng.standard_normal((d_h, d)) / np.sqrt(d_h),
        },
    )


def write_json(path: str, doc) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def write_routing_csv(
    path: str,
    seed: int,
    tokens: int,
    layers: int,
    experts: int,
    topk: int,
    domains: tuple[str, ...],
    domain_weights: np.ndarray,
    skew: float = 1.5,
) -> np.ndarray:
    """Routing records with a per-domain expert preference.

    Each (domain, layer) pair gets its own gaussian logit vector over the
    experts scaled by `skew`; a token picks `topk` distinct experts by
    Gumbel-top-k on those logits, and its weights are the softmax over the
    picked logits. Returns the expected counts [layer][expert][domain].
    """
    rng = np.random.default_rng([seed, 1])
    n_dom = len(domains)
    prefs = skew * rng.standard_normal((n_dom, layers, experts))
    token_domain = rng.choice(n_dom, size=tokens, p=domain_weights)
    token_domain[:n_dom] = np.arange(n_dom)  # every domain routes at every layer
    logits = prefs[token_domain]  # (tokens, layers, experts)
    noisy = logits + rng.gumbel(size=logits.shape)
    picked = np.sort(np.argsort(-noisy, axis=2, kind="stable")[:, :, :topk], axis=2)
    chosen = np.take_along_axis(logits, picked, axis=2)
    weights = np.exp(chosen - chosen.max(axis=2, keepdims=True))
    weights /= weights.sum(axis=2, keepdims=True)

    counts = np.zeros((layers, experts, n_dom), dtype=np.int64)
    layer_idx = np.broadcast_to(np.arange(layers)[None, :, None], picked.shape)
    dom_idx = np.broadcast_to(token_domain[:, None, None], picked.shape)
    np.add.at(counts, (layer_idx, picked, dom_idx), 1)

    names = [domains[i] for i in token_domain.tolist()]
    picked_l = picked.tolist()
    weights_l = weights.tolist()  # python floats: repr() gives plain decimals
    lines = ["token_id,domain,layer,expert,weight"]
    for t in range(tokens):
        dom = names[t]
        for layer in range(layers):
            for e, w in zip(picked_l[t][layer], weights_l[t][layer]):
                lines.append(f"{t},{dom},{layer},{e},{w!r}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return counts


def write_loss_files(
    reference_path: str,
    observed_path: str,
    seed: int,
    domains: tuple[str, ...],
    rows: int,
) -> None:
    """Reference per-domain losses and a sequence of observed loss rows that
    sit above and below the reference, so dynamic reweighting has work."""
    rng = np.random.default_rng([seed, 2])
    reference = 2.0 + rng.random(len(domains))
    observed = reference[None, :] + rng.normal(0.0, 0.3, (rows, len(domains)))
    write_json(reference_path, dict(zip(domains, reference.tolist())))
    write_json(observed_path, observed.tolist())
