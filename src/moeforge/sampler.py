"""Domain-mixture scheduling for the training stream.

Static modes keep their weights fixed for the whole run. Dynamic modes
reweight every `update_interval_tokens` tokens by excess loss against a
reference model: w_i proportional to ref_w_i * exp(max(loss_i - ref_loss_i, 0)).
"""

from __future__ import annotations

import enum
import json
from collections.abc import Sequence
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .tensor import Rng

DEFAULT_DOMAINS = (
    "CommonCrawl",
    "C4",
    "GitHub",
    "Wikipedia",
    "Books",
    "arXiv",
    "StackExchange",
)


class SamplerMode(enum.Enum):
    STATIC = "static"
    DYNAMIC = "dynamic"


@dataclass(frozen=True)
class DomainWeights:
    domains: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if len(w) != len(self.domains):
            raise ValueError("one weight per domain required")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if not abs(w.sum() - 1.0) <= 1e-12:  # also false for a nan entry
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
        object.__setattr__(self, "weights", w)

    @staticmethod
    def uniform() -> "DomainWeights":
        n = len(DEFAULT_DOMAINS)
        return DomainWeights(domains=DEFAULT_DOMAINS, weights=np.full(n, 1.0 / n))

    @staticmethod
    def from_mapping(mapping: dict[str, float]) -> "DomainWeights":
        domains = tuple(mapping.keys())
        w = np.array([mapping[d] for d in domains], dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            total = w.sum()
        if not 0.0 < total < np.inf:  # a nan or inf entry, an overflow, or no weight
            raise ValueError(f"weights must have a positive, finite sum, got {float(total)!r}")
        return DomainWeights(domains=domains, weights=w / total)


def load_preset(name_or_path: str) -> DomainWeights:
    """Load a weight preset: a packaged name (llama_v1, sheared_final,
    uniform) or a path to a JSON {domain: weight} file of numbers."""
    packaged = resources.files("moeforge").joinpath(f"presets/{name_or_path}.json")
    try:
        text = packaged.read_text()
    except (FileNotFoundError, ModuleNotFoundError):
        with open(name_or_path) as f:
            text = f.read()
    # an integer too large for a float reads as inf, which the sum check reports
    doc = json.loads(text, parse_int=float)
    if not isinstance(doc, dict) or not all(isinstance(w, float) for w in doc.values()):
        raise ValueError(f"preset {name_or_path} must be a JSON {{domain: number}} object")
    return DomainWeights.from_mapping(doc)


@dataclass(frozen=True)
class SamplerState:
    current: DomainWeights
    reference_weights: DomainWeights
    reference_loss: np.ndarray
    mode: SamplerMode
    update_interval_tokens: int
    tokens_since_update: int = 0

    def __post_init__(self):
        if self.update_interval_tokens <= 0:
            raise ValueError("update_interval_tokens must be positive")
        loss = np.asarray(self.reference_loss, dtype=np.float64)
        if len(loss) != len(self.current.domains):
            raise ValueError("one reference loss per domain required")
        object.__setattr__(self, "reference_loss", loss)

    @staticmethod
    def static(weights: DomainWeights) -> "SamplerState":
        return SamplerState(
            current=weights,
            reference_weights=weights,
            reference_loss=np.zeros(len(weights.domains)),
            mode=SamplerMode.STATIC,
            update_interval_tokens=1,
        )


def next_domain(state: SamplerState, rng: Rng, count: int | None = None):
    """Draw one domain under the current weights, or with `count` a list of
    that many, the same as `count` single draws (one bulk draw from `rng`).
    Returns the draw and the state with one more token per domain drawn."""
    domains, weights = state.current.domains, state.current.weights
    if count is None:
        drawn, count = domains[rng.choice_weighted(weights)], 1
    else:
        drawn = [domains[i] for i in rng.choice_weighted(weights, count).tolist()]
    return drawn, replace(state, tokens_since_update=state.tokens_since_update + count)


def update_due(state: SamplerState) -> bool:
    return (
        state.mode is SamplerMode.DYNAMIC
        and state.tokens_since_update >= state.update_interval_tokens
    )


def dynamic_update(state: SamplerState, observed_loss) -> SamplerState:
    """Excess-loss reweighting: w_i proportional to
    ref_w_i * exp(max(observed_i - ref_i, 0)); resets the token counter."""
    if state.mode is not SamplerMode.DYNAMIC:
        raise ValueError("dynamic_update called on a static sampler")
    obs = np.asarray(observed_loss, dtype=np.float64)
    if obs.shape != state.reference_loss.shape:
        raise ValueError("observed_loss must have one entry per domain")
    if not np.all(np.isfinite(obs)):
        raise ValueError("observed losses must be finite")
    delta = np.maximum(obs - state.reference_loss, 0.0)
    if np.all(delta == 0.0):
        # no excess loss anywhere: revert to the reference weights exactly
        new_weights = state.reference_weights
    else:
        # less the largest weighted excess (normalising cancels it): exp stays finite
        w = state.reference_weights.weights
        live = np.where(w > 0, delta, -np.inf)
        raw = w * np.exp(live - live.max())
        new_weights = DomainWeights(
            domains=state.current.domains, weights=raw / raw.sum()
        )
    return replace(state, current=new_weights, tokens_since_update=0)


def schedule_log(
    state: SamplerState, rng: Rng, draws: int, observed_loss: Sequence = ()
) -> list[str]:
    """The mixture log of `draws` draws as CSV text in pieces, to be written
    in order: a header, then `step,domain` and the weights in force at that
    draw, one line per draw.

    A dynamic sampler updates whenever one is due, on the observed loss
    rows in turn (cycling; the reference loss if there are none). Between
    two updates the weights are fixed and the draws i.i.d., so each run of
    them is one bulk `next_domain` draw, one piece of text, and its weight
    row is formatted once.
    """
    pieces = ["step,domain," + ",".join(state.current.domains) + "\n"]
    step = updates = 0
    while step < draws:
        if update_due(state):
            obs = (
                observed_loss[updates % len(observed_loss)]
                if len(observed_loss)
                else state.reference_loss
            )
            state = dynamic_update(state, obs)
            updates += 1
        count = draws - step
        if state.mode is SamplerMode.DYNAMIC:
            count = min(count, state.update_interval_tokens - state.tokens_since_update)
        drawn, state = next_domain(state, rng, count)
        row = ",".join(repr(float(w)) for w in state.current.weights)
        pieces.append("".join(
            [f"{s},{d},{row}\n" for s, d in zip(range(step, step + count), drawn)]
        ))
        step += count
    return pieces

