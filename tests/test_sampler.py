import json
from importlib import resources

import numpy as np
import pytest

from moeforge.sampler import (
    DEFAULT_DOMAINS,
    DomainWeights,
    SamplerMode,
    SamplerState,
    dynamic_update,
    load_preset,
    next_domain,
    update_due,
)
from moeforge.tensor import Rng

from scalar_stream import static_state, uniform_weights


class TestDomainWeights:
    def test_uniform(self):
        w = uniform_weights()
        assert len(w.domains) == 7
        assert abs(w.weights.sum() - 1.0) <= 1e-12
        assert np.allclose(load_preset("uniform").weights, w.weights, rtol=0, atol=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DomainWeights(domains=("a", "b"), weights=np.array([1.5, -0.5]))

    def test_rejects_nonsimplex(self):
        with pytest.raises(ValueError):
            DomainWeights(domains=("a", "b"), weights=np.array([0.5, 0.6]))

    def test_rejects_nan(self):
        # abs(nan - 1) > tol is false, so the sum check must be written to fail on nan
        with pytest.raises(ValueError):
            DomainWeights(domains=("a", "b"), weights=np.array([np.nan, 1.0]))

    @pytest.mark.parametrize("w", [[np.nan, 1.0], [np.inf, 1.0], [np.inf, -np.inf],
                                   [0.0, 0.0], [-1.0, -1.0], [1e308, 1e308]])
    def test_from_mapping_needs_positive_finite_sum(self, w):
        with pytest.raises(ValueError, match="positive, finite sum"):
            DomainWeights.from_mapping(dict(zip("ab", w)))

    def test_presets_load(self):
        for name in ("llama_v1", "sheared_final", "uniform"):
            w = load_preset(name)
            assert w.domains == DEFAULT_DOMAINS
            assert abs(w.weights.sum() - 1.0) <= 1e-12
            text = resources.files("moeforge").joinpath(f"presets/{name}.json").read_text()
            raw = np.array(list(json.loads(text).values()), dtype=np.float64)
            assert np.array_equal(w.weights, raw / raw.sum())

    def test_preset_integers_are_numbers(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"a": 1, "b": 3}')
        assert load_preset(str(path)).weights.tolist() == [0.25, 0.75]
        path.write_text('{"a": 1' + "0" * 400 + ', "b": 3}')  # too large for a float
        with pytest.raises(ValueError, match="positive, finite sum"):
            load_preset(str(path))


class TestNextDomain:
    def test_single_domain(self):
        w = DomainWeights(domains=DEFAULT_DOMAINS, weights=np.eye(7)[0])
        state = static_state(w)
        rng = Rng(0)
        for _ in range(100):
            (domain,), state = next_domain(state, rng, 1)
            assert domain == "CommonCrawl"

    def test_uniform_frequencies(self):
        state = static_state(uniform_weights())
        rng = Rng(42)
        counts = {d: 0 for d in DEFAULT_DOMAINS}
        draws = 70_000
        for domain in next_domain(state, rng, draws)[0]:
            counts[domain] += 1
        for d in DEFAULT_DOMAINS:
            assert abs(counts[d] / draws - 1 / 7) < 0.015

    def test_determinism(self):
        state = static_state(uniform_weights())
        a = next_domain(state, Rng(5), 1)[0]
        b = next_domain(state, Rng(5), 1)[0]
        assert a == b

    def test_token_counter_advances(self):
        state = static_state(uniform_weights())
        _, state = next_domain(state, Rng(1), 1)
        assert state.tokens_since_update == 1


class TestDynamicUpdate:
    def make_dynamic(self, weights, ref_loss, interval=10):
        return SamplerState(
            current=weights,
            reference_weights=weights,
            reference_loss=np.asarray(ref_loss, dtype=np.float64),
            mode=SamplerMode.DYNAMIC,
            update_interval_tokens=interval,
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_reference_loss_refused(self, bad):
        # the CLI refuses these when it reads the loss file; API callers meet
        # this check, which names the field
        ref = np.full(7, 2.0)
        ref[3] = bad
        with pytest.raises(ValueError, match="reference_loss must be finite"):
            self.make_dynamic(load_preset("llama_v1"), ref)

    @pytest.mark.parametrize("interval", [0, -5])
    def test_nonpositive_interval_refused(self, interval):
        # the CLI refuses these in argparse; API callers meet this check
        with pytest.raises(ValueError, match="update_interval_tokens must be positive"):
            self.make_dynamic(load_preset("llama_v1"), np.ones(7), interval=interval)

    def test_observed_equals_reference_reverts(self):
        w = load_preset("llama_v1")
        ref = np.linspace(1.5, 2.5, 7)
        state = self.make_dynamic(w, ref)
        # perturb current first so revert is observable
        state_after = dynamic_update(state, ref)
        assert np.array_equal(state_after.current.weights, w.weights)
        assert state_after.tokens_since_update == 0

    def test_two_domain_ln2_closed_form(self):
        w = DomainWeights(domains=("a", "b"), weights=np.array([0.5, 0.5]))
        state = self.make_dynamic(w, [1.0, 1.0])
        updated = dynamic_update(state, np.array([1.0 + np.log(2.0), 1.0]))
        assert abs(updated.current.weights[0] - 2.0 / 3.0) <= 1e-12
        assert abs(updated.current.weights[1] - 1.0 / 3.0) <= 1e-12

    def test_large_excess_stays_finite(self):
        # exp(1000) overflows; the shift by the largest excess cancels out
        w = DomainWeights(domains=("a", "b"), weights=np.array([0.5, 0.5]))
        updated = dynamic_update(self.make_dynamic(w, [0.0, 0.0]), np.array([1000.0, 1001.0]))
        ws = updated.current.weights
        assert np.all(np.isfinite(ws)) and abs(ws.sum() - 1.0) <= 1e-12
        assert ws[1] > ws[0]
        assert abs(ws[1] - np.e / (1.0 + np.e)) <= 1e-12

    def test_unweighted_domain_does_not_set_the_shift(self):
        # a domain of reference weight 0 keeps weight 0 whatever its excess
        w = DomainWeights(domains=("a", "b"), weights=np.array([0.0, 1.0]))
        updated = dynamic_update(self.make_dynamic(w, [0.0, 0.0]), np.array([1000.0, 1.0]))
        assert updated.current.weights.tolist() == [0.0, 1.0]

    def test_negative_excess_clamped(self):
        w = uniform_weights()
        state = self.make_dynamic(w, np.full(7, 2.0))
        updated = dynamic_update(state, np.full(7, 1.0))
        assert np.array_equal(updated.current.weights, w.weights)

    def test_simplex_preserved(self):
        w = load_preset("sheared_final")
        state = self.make_dynamic(w, np.full(7, 2.0))
        for seed in range(20):
            obs = 2.0 + np.abs(Rng(seed).normal_array((7,)))
            updated = dynamic_update(state, obs)
            ws = updated.current.weights
            assert np.all(ws >= 0)
            assert abs(ws.sum() - 1.0) <= 1e-12

    def test_static_mode_rejected(self):
        state = static_state(uniform_weights())
        with pytest.raises(ValueError):
            dynamic_update(state, np.zeros(7))

    def test_cadence(self):
        w = uniform_weights()
        state = self.make_dynamic(w, np.zeros(7), interval=5)
        rng = Rng(9)
        updates = 0
        for _ in range(50):
            if update_due(state):
                state = dynamic_update(state, state.reference_loss)
                updates += 1
            _, state = next_domain(state, rng, 1)
        assert updates == 9  # counter reaches 5 nine times over 50 draws

    def test_static_weights_never_change(self):
        state = static_state(load_preset("llama_v1"))
        rng = Rng(11)
        start = state.current.weights.copy()
        for _ in range(10_000):
            assert not update_due(state)
            _, state = next_domain(state, rng, 1)
            assert np.array_equal(state.current.weights, start)

