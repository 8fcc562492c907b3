"""Trace dynamics, error units, the weight update and the rule compiler."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedspike.config import ConfigError, ExperimentConfig
from fedspike.plasticity import (
    SoelEngine,
    box_gate,
    evaluate_errors,
    trace_kernels,
    train_lockstep,
    update_numerator,
    update_trace,
)
from fedspike.federation import LocalClient, ModelSnapshot, train_clients
from fedspike.quant import WEIGHT_SPEC, Rng
from fedspike.snn import (ACC_MAX, DenseLayer, LayerTopology, Network, NeuronParams,
                          SpikingNeurons)
from reference import (SopProgram, SopTerm, apply_soel_update, compile_soel_to_sop,
                       evaluate_error, evaluate_sop, float_update_trace, pre_kernel,
                       round_with_uniforms, uniforms, unquantized_update)


# Every rate the trainer admits, 2^-40 to 2^8, as a strategy.
RATES = st.integers(-40, 8).map(lambda e: Fraction(2) ** e)
# Two different trace decay shifts in [1, 12].
SHIFTS = st.tuples(st.integers(1, 12), st.integers(1, 12)).filter(lambda s: s[0] != s[1])

# The rule these tests were written against, every setting explicit: the
# box band [0, 2^20] holds every membrane the tests reach.
RULE = dict(window=16, error_threshold=1, error_offset=64, learning_rate=1,
            alpha1_shift=2, alpha2_shift=4, impulse1=16, impulse2=16,
            box_enabled=True, box_low=0, box_high=1 << 20)


def rule(**kw) -> ExperimentConfig:
    """A config holding RULE, with kw overriding any of its settings."""
    return ExperimentConfig(**{**RULE, **kw})


def trace_pair(x1=0, x2=0):
    """The (2, ...) int64 trace pair update_trace steps: x1 over x2."""
    return np.array([x1, x2], dtype=np.int64)


class TestTraceState:
    """update_trace on a trace pair, its settings read from the config."""

    def test_validation(self):
        # The config is the one place that checks the trace settings.
        with pytest.raises(ConfigError, match="must differ"):
            rule(alpha1_shift=3, alpha2_shift=3)
        with pytest.raises(ConfigError, match="in \\[1, 12\\]"):
            rule(alpha1_shift=0)
        with pytest.raises(ConfigError, match="impulse1"):
            rule(impulse1=200)

    def test_spike_from_zero_adds_impulse(self):
        x = update_trace(rule(), trace_pair(), 1, Rng(1))
        assert x.tolist() == [16, 16]

    def test_decay_rounds_to_neighbors(self):
        # 100 * (1 - 2^-3) = 87.5: either neighbor, never anything else.
        seen = set()
        rng = Rng(2)
        cfg = rule(alpha1_shift=3, alpha2_shift=4)
        for _ in range(200):
            seen.add(int(update_trace(cfg, trace_pair(100, 100), 0, rng)[0]))
        assert seen == {87, 88}

    def test_decay_is_unbiased(self):
        n = 4000
        rng = Rng(3)
        cfg = rule(alpha1_shift=3, alpha2_shift=4)
        total = 0
        for _ in range(n):
            total += int(update_trace(cfg, trace_pair(100, 0), 0, rng)[0])
        mean = total / n
        sigma = 0.5 / n**0.5
        assert abs(mean - 87.5) < 3 * sigma + 1e-9

    def test_silence_decays_to_zero_monotonically(self):
        x = trace_pair(127, 127)
        rng = Rng(4)
        for _ in range(120):
            prev, x = x, update_trace(rule(), x, 0, rng)
            assert np.all(x <= prev)
        assert x.tolist() == [0, 0]

    def test_impulse_saturates_at_127(self):
        x = update_trace(rule(impulse1=127, impulse2=127), trace_pair(127, 127), 1, Rng(5))
        assert x.tolist() == [127, 127]

    @given(seed=st.integers(0, 2**31), steps=st.integers(1, 60))
    @settings(max_examples=30, deadline=None)
    def test_bounded_for_all_spike_trains(self, seed, steps):
        rng = Rng(seed)
        spikes = np.random.default_rng(seed).integers(0, 2, size=steps)
        x = trace_pair()
        for s in spikes:
            x = update_trace(rule(), x, int(s), rng)
            assert x.min() >= 0 and x.max() <= 127

    def test_array_traces(self):
        x = trace_pair(np.zeros(4), np.zeros(4))
        x = update_trace(rule(), x, np.array([1, 0, 1, 0]), Rng(6))
        assert x.shape == (2, 4)
        assert np.array_equal(x[0], [16, 0, 16, 0])
        assert np.array_equal(x[1], [16, 0, 16, 0])


class TestPreKernel:
    def test_equal_traces_cancel(self):
        assert pre_kernel(trace_pair(30, 30)) == 0

    def test_difference(self):
        assert pre_kernel(trace_pair(5, 20)) == 15

    def test_single_spike_kernel_tracks_double_exponential(self):
        # One spike at t=0, then silence: the integer kernel follows
        # impulse * (f2^t - f1^t) within the accumulated rounding slack.
        f1, f2 = 1 - 2.0**-2, 1 - 2.0**-4
        t = trace_pair()
        rng = Rng(7)
        t = update_trace(rule(), t, 1, rng)
        assert pre_kernel(t) == 0  # both traces at the impulse value
        r1 = r2 = 16.0
        for step in range(1, 40):
            t = update_trace(rule(), t, 0, rng)
            r1, r2 = r1 * f1, r2 * f2
            bound = (1 - f1**step) / (1 - f1) + (1 - f2**step) / (1 - f2)
            assert abs(pre_kernel(t) - (r2 - r1)) <= bound


class TestEvaluateError:
    def test_positive_error_triggers(self):
        err, triggered, register = evaluate_error(rule(), 8, 3)
        assert triggered and err == 5 and register == 69

    def test_exact_match_does_not_trigger(self):
        _, triggered, register = evaluate_error(rule(), 8, 8)
        assert not triggered and register == 64

    def test_negative_error(self):
        err, triggered, register = evaluate_error(rule(), 0, 9)
        assert triggered and err == -9 and register == 55

    def test_within_threshold_not_triggered(self):
        _, triggered, register = evaluate_error(rule(error_threshold=1), 8, 7)
        assert not triggered and register == 64

    def test_register_clamps_to_seven_bits(self):
        _, _, register = evaluate_error(rule(), 0, 200)
        assert register == 0
        _, _, register = evaluate_error(rule(error_threshold=0), 127, 0)
        assert register == 127

    @given(threshold=st.integers(0, 40), offset=st.integers(0, 127),
           pairs=st.lists(st.tuples(st.integers(0, 300), st.integers(0, 300)),
                          min_size=1, max_size=12))
    @settings(max_examples=200)
    def test_array_form_matches_scalar_per_class(self, threshold, offset, pairs):
        cfg = rule(error_threshold=threshold, error_offset=offset)
        targets, counts = np.array(pairs).T
        err, triggered, register = evaluate_errors(cfg, targets, counts)
        assert err.dtype == register.dtype == np.int64
        for i, (target, count) in enumerate(pairs):
            assert (err[i], triggered[i], register[i]) == evaluate_error(cfg, target, count)

    def test_validation(self):
        with pytest.raises(ConfigError, match=r"\[plasticity\] window"):
            rule(window=0)
        with pytest.raises(ConfigError, match=r"\[plasticity\] error_offset"):
            rule(error_offset=128)


class TestBoxGate:
    def test_boundaries_inclusive(self):
        cfg = rule(box_low=-10, box_high=50)
        assert box_gate(cfg, np.array([-10])).tolist() == [1]
        assert box_gate(cfg, np.array([50])).tolist() == [1]
        assert box_gate(cfg, np.array([51])).tolist() == [0]
        assert box_gate(cfg, np.array([-11])).tolist() == [0]

    def test_array_membranes(self):
        cfg = rule(box_low=0, box_high=10)
        out = box_gate(cfg, np.array([-1, 0, 5, 10, 11]))
        assert np.array_equal(out, [0, 1, 1, 1, 0])

    def test_validation(self):
        with pytest.raises(ConfigError, match=r"\[plasticity\] box_high"):
            rule(box_low=5, box_high=4)


class TestPlasticityConfig:
    """The [plasticity] learning_rate check of ExperimentConfig."""

    @pytest.mark.parametrize("lr", [1, 2, 32, Fraction(1, 2), Fraction(1, 16),
                                    Fraction(1, 128), 2**8, Fraction(1, 2**40)])
    def test_powers_of_two_accepted(self, lr):
        rate = ExperimentConfig(learning_rate=lr).learning_rate
        assert type(rate) is Fraction and rate == Fraction(lr)

    @pytest.mark.parametrize("lr", [0, -1, 3, Fraction(3, 4), Fraction(2, 3)])
    def test_other_rates_rejected(self, lr):
        with pytest.raises(ConfigError, match="power of two"):
            ExperimentConfig(learning_rate=lr)

    @pytest.mark.parametrize("lr", [2**9, 2**10, 2**1100, Fraction(1, 2**41),
                                    Fraction(1, 2**1100)])
    def test_rates_beyond_the_integer_update_rejected(self, lr):
        # 2^1100 used to reach train_lockstep and overflow there; 2^-1100
        # used to train at a float rate of zero.
        with pytest.raises(ConfigError, match=r"^\[plasticity\] learning_rate: .*"
                                              r"\[2\^-40, 2\^8\]"):
            ExperimentConfig(learning_rate=lr)


def triggered_unit(target, count, **kw):
    unit = evaluate_error(rule(**kw), target, count)
    assert unit[1]
    return unit


class TestApplySoelUpdate:
    def test_direct_on_grid_update(self):
        unit = triggered_unit(8, 3)  # E=69
        t = trace_pair(1, 5)
        cfg = rule()
        w = apply_soel_update(0, unit, t, 1, cfg, Rng(1))
        assert w == 20

    def test_not_triggered_is_identity(self):
        unit = evaluate_error(rule(), 8, 8)
        rng = Rng(1)
        before = rng.counter
        assert apply_soel_update(40, unit, trace_pair(0, 127), 1,
                                 rule(), rng) == 40
        assert rng.counter == before  # no draw consumed

    def test_saturates_at_126(self):
        unit = triggered_unit(8, 3)  # E-C = 5
        t = trace_pair(1, 5)  # kernel 4 -> delta 20
        assert apply_soel_update(120, unit, t, 1, rule(), Rng(2)) == 126

    def test_gate_zero_blocks_update(self):
        unit = triggered_unit(8, 3)
        t = trace_pair(1, 5)
        assert apply_soel_update(10, unit, t, 0, rule(), Rng(3)) == 10

    def test_offgrid_target_rounds_to_even_neighbors(self):
        unit = triggered_unit(8, 3)  # E-C = 5
        t = trace_pair(2, 5)  # kernel 3 -> w + delta = 15
        rng = Rng(4)
        n = 4000
        values = [apply_soel_update(0, unit, t, 1, rule(), rng)
                  for _ in range(n)]
        assert set(values) == {14, 16}
        frac_up = sum(v == 16 for v in values) / n
        assert abs(frac_up - 0.5) < 3 * 0.5 / n**0.5

    def test_fractional_rate_scales_delta(self):
        unit = triggered_unit(8, 3)  # E-C = 5
        t = trace_pair(2, 5)  # kernel 3 -> delta 7.5 at lr 1/2
        cfg = rule(learning_rate=Fraction(1, 2))
        rng = Rng(5)
        values = {apply_soel_update(0, unit, t, 1, cfg, rng) for _ in range(300)}
        assert values == {6, 8}

    def test_array_weights(self):
        unit = triggered_unit(8, 3)
        t = trace_pair([1, 2, 0], [5, 2, 1])
        w = apply_soel_update(np.array([0, 10, -4]), unit, t, 1,
                              rule(), Rng(6))
        assert w.shape == (3,)
        assert w[0] == 20 and w[1] == 10  # kernel 0 leaves the middle alone

    def test_unquantized_reference_tracks_exact_value(self):
        unit = triggered_unit(8, 3)
        t = trace_pair(2, 5)
        cfg = rule(learning_rate=Fraction(1, 2))
        assert unquantized_update(0, unit, t, 1, cfg) == 7.5
        assert unquantized_update(125, unit, t, 1, cfg) == 126  # saturates


class TestSop:
    def test_compiled_matches_direct_example(self):
        prog = compile_soel_to_sop(rule())
        delta = evaluate_sop(prog, {"error_register": 69, "x1": 1, "x2": 5})
        assert delta == 20

    def test_compiled_matches_direct_randomized(self):
        prog = compile_soel_to_sop(rule())
        rng = np.random.default_rng(0)
        for _ in range(2000):
            e, x1, x2 = (int(v) for v in rng.integers(0, 128, size=3))
            got = evaluate_sop(prog, {"error_register": e, "x1": x1, "x2": x2})
            assert got == (e - 64) * (x2 - x1)

    def test_empty_program(self):
        assert evaluate_sop(SopProgram(()), {}) == 0

    def test_factorless_term_contributes_coefficient(self):
        prog = SopProgram((SopTerm(Fraction(5), ()),))
        assert evaluate_sop(prog, {}) == 5

    def test_single_and_cancelling_terms(self):
        one = SopProgram((SopTerm(Fraction(2), ("x1",)),))
        assert evaluate_sop(one, {"x1": 3}) == 6
        two = SopProgram((SopTerm(Fraction(2), ("x1",)), SopTerm(Fraction(-1), ("x1",))))
        assert evaluate_sop(two, {"x1": 5}) == 5

    def test_unbound_reference_rejected(self):
        prog = SopProgram((SopTerm(Fraction(1), ("post_spike",)),))
        with pytest.raises(ValueError, match="unbound factor"):
            evaluate_sop(prog, {"x1": 1})

    def test_unknown_factor_rejected_at_build(self):
        with pytest.raises(ValueError, match="unknown factor"):
            SopTerm(Fraction(1), ("membrane",))

    def test_array_bindings_match_scalar_loop(self):
        prog = compile_soel_to_sop(rule())
        rng = np.random.default_rng(1)
        x1 = rng.integers(0, 128, size=50)
        x2 = rng.integers(0, 128, size=50)
        arr = evaluate_sop(prog, {"error_register": 90, "x1": x1, "x2": x2})
        for i in range(50):
            assert arr[i] == evaluate_sop(
                prog, {"error_register": 90, "x1": int(x1[i]), "x2": int(x2[i])})

    def test_fractional_scalar_result_is_exact(self):
        prog = SopProgram((SopTerm(Fraction(1, 2), ("x1",)),))
        assert evaluate_sop(prog, {"x1": 4}) == 2
        assert evaluate_sop(prog, {"x1": 3}) == Fraction(3, 2)

    def test_fractional_array_result_rejected(self):
        prog = SopProgram((SopTerm(Fraction(1, 2), ("x1",)),))
        with pytest.raises(ValueError, match="not integral"):
            evaluate_sop(prog, {"x1": np.array([4, 3])})

    @given(seed=st.integers(0, 2**32), offset=st.integers(0, 127), lr=RATES)
    @settings(max_examples=60, deadline=None)
    def test_engine_numerator_is_the_compiled_program(self, seed, offset, lr):
        # The engine's int64 numerator, from int8 kernels as trace_kernels
        # gives them, is the program at rate 1 on the same bindings, gated.
        cfg = rule(error_offset=offset, learning_rate=lr)
        gen = np.random.default_rng(seed)
        k, post, pre = 3, 4, 6
        register = gen.integers(0, 128, size=(k, post))
        gates = gen.integers(0, 2, size=(k, post))
        x1, x2 = gen.integers(0, 128, size=(2, k, pre))
        got = update_numerator(cfg, register, gates, (x2 - x1).astype(np.int8))
        want = evaluate_sop(compile_soel_to_sop(replace(cfg, learning_rate=1)),
                            {"error_register": register[:, :, None],
                             "x1": x1[:, None, :], "x2": x2[:, None, :]})
        assert got.dtype == np.int64
        assert np.array_equal(got, want * gates[:, :, None])
        assert np.abs(got).max() < 2**14


def make_head(pre=6, post=2, threshold=40, shifts=(1, 1)):
    topo = LayerTopology("dense", 0, False, (1, 1, pre), (1, 1, post),
                         np.zeros((post, pre), dtype=np.int8))
    return DenseLayer(topo, NeuronParams(current_decay_shift=shifts[0],
                                         voltage_decay_shift=shifts[1],
                                         threshold=threshold))


def make_engine(seed=9, window=4, box_enabled=False, lr=1):
    return SoelEngine(rule(window=window, box_enabled=box_enabled, learning_rate=lr),
                      Rng(seed))


def replay_pass(head, spikes, targets, cfg, trace_rng, w_rng):
    """One training pass step by step under cfg's rule, rounding in float64
    as the float reference does: head.step, float_update_trace, and at each
    boundary evaluate_error, box_gate, compiled sum-of-products deltas and
    one float64 round_with_uniforms when a unit triggers. Returns the pass's stats.
    """
    steps, pre = spikes.shape
    post = head.topo.out_shape[2]
    head.reset()
    # The program at rate 1 keeps the array sums integral; the rate scales after.
    prog, lr = compile_soel_to_sop(replace(cfg, learning_rate=1)), float(cfg.learning_rate)
    trace = np.zeros((2, pre), dtype=np.int64)
    stats = {"error_l1": 0, "triggered_updates": 0, "boundaries": 0,
             "error_per_class": np.zeros(post, dtype=np.int64)}
    window_counts = np.zeros(post, dtype=np.int64)
    for t in range(steps):
        window_counts += head.step(spikes[t][None, None]).ravel()
        trace = float_update_trace(cfg, trace, spikes[t], trace_rng)
        if (t + 1) % cfg.window:
            continue
        stats["boundaries"] += 1
        units = [evaluate_error(cfg, target, count)
                 for target, count in zip(targets, window_counts)]
        flags = [trig for _, trig, _ in units]
        for i, (err, _, _) in enumerate(units):
            stats["error_l1"] += abs(err)
            stats["error_per_class"][i] += abs(err)
        if any(flags):
            stats["triggered_updates"] += sum(flags)
            gates = box_gate(cfg, head.voltage.ravel()) if cfg.box_enabled else np.ones(post)
            delta = np.zeros((post, pre), dtype=np.float64)
            for i, (_, trig, register) in enumerate(units):
                if trig:
                    row = evaluate_sop(prog, {"error_register": register,
                                              "x1": trace[0], "x2": trace[1]})
                    delta[i] = row * gates[i] * lr
            u = uniforms(w_rng, head.w.size).reshape(head.w.shape)
            new_w = round_with_uniforms(head.w + delta, u, WEIGHT_SPEC)
            head.set_weights(new_w.astype(np.int8))
        window_counts[:] = 0
    return stats


class TestSoelEngine:
    def test_deterministic_across_runs(self):
        spikes = np.random.default_rng(2).integers(0, 2, size=(32, 6)).astype(np.int8)
        results = []
        for _ in range(2):
            head = make_head()
            engine = make_engine(seed=9)
            engine.train_on_spikes(head, spikes, [8, 0])
            results.append(head.w.copy())
        assert np.array_equal(results[0], results[1])

    def test_weights_stay_on_even_grid(self):
        spikes = np.random.default_rng(3).integers(0, 2, size=(64, 6)).astype(np.int8)
        head = make_head()
        engine = make_engine(seed=10)
        engine.train_on_spikes(head, spikes, [8, 3])
        assert np.all(head.w % 2 == 0)
        assert head.w.min() >= -128 and head.w.max() <= 126

    def test_untriggered_rows_never_move(self):
        # Zero weights produce zero output spikes, so a target of 0 is always
        # met exactly and that row must stay untouched while the other trains.
        spikes = np.ones((16, 6), dtype=np.int8)
        head = make_head(threshold=10**6)  # post neurons can never spike
        engine = make_engine(seed=11, window=4)
        stats = engine.train_on_spikes(head, spikes, [8, 0])
        assert stats["boundaries"] == 4
        assert not head.w[1].any()
        assert head.w[0].any()

    def test_no_boundary_means_no_update(self):
        spikes = np.ones((3, 6), dtype=np.int8)
        head = make_head()
        engine = make_engine(seed=12, window=4)
        stats = engine.train_on_spikes(head, spikes, [8, 0])
        assert stats["boundaries"] == 0 and stats["triggered_updates"] == 0
        assert not head.w.any()

    def test_target_count_validated(self):
        head = make_head(post=2)
        with pytest.raises(ValueError, match="targets"):
            make_engine().train_on_spikes(head, np.zeros((4, 6), dtype=np.int8), [1])

    def test_negative_target_rejected(self):
        head = make_head(post=2)
        with pytest.raises(ValueError, match="target must be >= 0"):
            make_engine().train_on_spikes(head, np.zeros((4, 6), dtype=np.int8), [1, -1])

    def test_matches_op_level_replay(self):
        # Replays the engine's documented loop with the op-level pieces and
        # the same streams (see replay_pass).
        seed, window, steps, pre, post = 21, 4, 24, 5, 3
        spikes = np.random.default_rng(seed).integers(0, 2, size=(steps, pre)).astype(np.int8)
        targets = [6, 0, 2]

        head = make_head(pre=pre, post=post, threshold=30)
        engine = make_engine(seed=seed, window=window, box_enabled=True)
        engine.train_on_spikes(head, spikes, targets)

        mirror = make_head(pre=pre, post=post, threshold=30)
        base = Rng(seed)
        replay_pass(mirror, spikes, targets,
                    rule(window=window, box_enabled=True, learning_rate=1),
                    base.fork("traces"), base.fork("updates"))
        assert np.array_equal(head.w, mirror.w)

    def test_every_rounding_goes_through_the_module_attribute(self, monkeypatch):
        # bench/tracer.py counts rounding lanes by patching
        # plasticity.stochastic_round_array: each lane either stream draws
        # must pass through that name.
        from fedspike import plasticity
        lanes = []
        original = plasticity.stochastic_round_array

        def counted(values, spec, rng):
            lanes.append(np.size(values))
            return original(values, spec, rng)
        monkeypatch.setattr(plasticity, "stochastic_round_array", counted)
        pre, post = 6, 2
        spikes = np.random.default_rng(5).integers(0, 2, size=(24, pre)).astype(np.int8)
        head = make_head(pre=pre, post=post)
        engine = make_engine(seed=14)
        engine.train_on_spikes(head, spikes, [8, 3])
        update_trace(engine.cfg, np.zeros((2, pre)), spikes[0], engine._trace_rng)
        assert engine._weight_rng.counter > 0
        assert sum(lanes) == (engine._trace_rng.counter + post * engine._weight_rng.counter) * pre

    def test_training_reduces_error(self):
        # One input pattern, repeated epochs: the true class's window error
        # should shrink as its weights grow.
        rng = np.random.default_rng(4)
        spikes = (rng.random((48, 8)) < 0.6).astype(np.int8)
        head = make_head(pre=8, post=2, threshold=60)
        engine = make_engine(seed=13, window=8, lr=Fraction(1, 8))
        first = engine.train_on_spikes(head, spikes, [6, 0])["error_l1"]
        last = first
        for _ in range(11):
            last = engine.train_on_spikes(head, spikes, [6, 0])["error_l1"]
        assert last <= first // 2


class TestBatchedPasses:
    """A round's passes share one trace recurrence (trace_kernels(engines,
    trains, which, steps)) and drive the head one matmul per window; both
    must equal the pass-by-pass replay through the float64 trace and weight
    rounding and head.step."""

    @given(data=st.data(), seed=st.integers(0, 2**32), window=st.integers(2, 7),
           epochs=st.sampled_from([0, 1, 3]), box=st.booleans(),
           impulses=st.tuples(st.integers(0, 127), st.integers(0, 127)),
           shifts=SHIFTS, lr=RATES, start=st.sampled_from([0, 2**32 - 3, 2**64 - 7]))
    @settings(max_examples=60, deadline=None)
    @example(data=None, seed=3, window=4, epochs=3, box=True, impulses=(127, 127),
             shifts=(2, 4), lr=Fraction(1, 4), start=0)
    @example(data=None, seed=4, window=4, epochs=3, box=False, impulses=(127, 127),
             shifts=(12, 1), lr=Fraction(2**8), start=2**64 - 7)
    @example(data=None, seed=5, window=4, epochs=3, box=True, impulses=(127, 127),
             shifts=(1, 12), lr=Fraction(1, 2**40), start=2**64 - 7)
    def test_client_round_matches_pass_by_pass_replay(self, data, seed, window, epochs,
                                                      box, impulses, shifts, lr, start):
        pre, post = 7, 3
        if data is None:  # explicit example: short, ragged and exact-window passes
            lengths = [3, 4 * window + 1, window, 2 * window + 3]
            rate = 0.5
        else:
            shots = data.draw(st.integers(1, 6 // max(epochs, 1)))
            lengths = data.draw(st.lists(st.integers(0, 5 * window + 3),
                                         min_size=shots, max_size=shots))
            rate = data.draw(st.sampled_from([0.1, 0.5, 0.9]))
        gen = np.random.default_rng(seed)
        shots = [((gen.random((n, pre)) < rate).astype(np.int8), i % post)
                 for i, n in enumerate(lengths)]
        w0 = 2 * gen.integers(-20, 21, size=(post, pre))
        cfg = rule(learning_rate=lr, box_enabled=box, window=window,
                   error_threshold=0, alpha1_shift=shifts[0], alpha2_shift=shifts[1],
                   impulse1=impulses[0], impulse2=impulses[1], box_low=-5, box_high=25,
                   target_rate=3, off_target=0)
        base = Rng(seed, 11)
        # Counters near 2^64 wrap during the round.
        counters = (start, start + 5)

        head = make_head(pre=pre, post=post, threshold=20)
        engine = SoelEngine(cfg, base)
        engine._trace_rng.counter, engine._weight_rng.counter = counters
        client = LocalClient(0, Network([head]), engine, shots)
        client.install(ModelSnapshot(0, w0))
        delta, row = client.train(1, epochs)

        mirror = make_head(pre=pre, post=post, threshold=20)
        mirror.set_weights(w0.astype(np.int8))
        trace_rng, w_rng = base.fork("traces"), base.fork("updates")
        trace_rng.counter, w_rng.counter = counters
        want = {"error_l1": 0, "triggered_updates": 0, "boundaries": 0,
                "error_per_class": np.zeros(post, dtype=np.int64)}
        for _ in range(epochs):
            for spikes, label in shots:
                targets = np.zeros(post, dtype=np.int64)
                targets[label] = 3
                stats = replay_pass(mirror, spikes, targets, cfg, trace_rng, w_rng)
                for key in want:
                    want[key] = want[key] + stats[key]
        want["error_per_class"] = [int(v) for v in want["error_per_class"]]
        assert np.array_equal(delta, mirror.w - w0)
        assert row == {"event": "train", "round": 1, "client": 0, **want}
        assert (engine._trace_rng.counter == trace_rng.counter
                == start + 2 * epochs * sum(lengths))
        assert engine._weight_rng.counter == w_rng.counter

    @given(seed=st.integers(0, 2**32), start=st.sampled_from([0, 2**32 - 3, 2**64 - 5]),
           lengths=st.lists(st.integers(0, 30), min_size=1, max_size=6), shifts=SHIFTS,
           impulses=st.tuples(st.integers(0, 127), st.integers(0, 127)))
    @settings(max_examples=40, deadline=None)
    def test_kernels_equal_update_trace_at_each_boundary(self, seed, start, lengths, shifts,
                                                         impulses):
        # trace_kernels, update_trace and the float64 trace step all agree.
        window, pre = 4, 5
        gen = np.random.default_rng(seed)
        trains = [(gen.random((n, pre)) < 0.5).astype(np.int8) for n in lengths]
        trace_settings = dict(alpha1_shift=shifts[0], alpha2_shift=shifts[1],
                              impulse1=impulses[0], impulse2=impulses[1])
        engine = SoelEngine(rule(window=window, box_enabled=False, **trace_settings), Rng(seed))
        engine._trace_rng.counter = start
        steps = np.array([lengths])
        block = np.zeros((len(trains), max(lengths), pre), dtype=np.int8)
        for p, spikes in enumerate(trains):
            block[p, :len(spikes)] = spikes
        which = np.arange(len(trains))[None]
        got = [k[:n // window] for k, n in zip(trace_kernels([engine], block, which, steps)[0],
                                                lengths)]
        rng, float_rng = Rng(seed).fork("traces"), Rng(seed).fork("traces")
        rng.counter = float_rng.counter = start
        for spikes, kernels in zip(trains, got):
            trace = float_trace = np.zeros((2, pre), dtype=np.int64)
            want = []
            for t in range(len(spikes)):
                trace = update_trace(engine.cfg, trace, spikes[t], rng)
                float_trace = float_update_trace(engine.cfg, float_trace, spikes[t], float_rng)
                assert np.array_equal(trace, float_trace)
                if (t + 1) % window == 0:
                    want.append(pre_kernel(trace))
            assert np.array_equal(kernels, np.array(want).reshape(-1, pre))
        assert (engine._trace_rng.counter == rng.counter == float_rng.counter
                == start + 2 * sum(lengths))


class TestLockstepClients:
    """train_clients steps K clients' passes together (train_lockstep); each
    client must end exactly where it would training alone, pass by pass."""

    @given(data=st.data(), seed=st.integers(0, 2**32), k=st.integers(1, 5),
           window=st.integers(2, 6), epochs=st.integers(0, 3), box=st.booleans(),
           start=st.sampled_from([0, 2**32 - 7, 2**64 - 9]))
    @settings(max_examples=40, deadline=None)
    def test_matches_each_client_replayed_alone(self, data, seed, k, window, epochs, box,
                                                 start):
        pre, post = 6, 3
        gen = np.random.default_rng(seed)
        cfg = rule(learning_rate=Fraction(1, 4), box_enabled=box, window=window,
                   error_threshold=0, box_low=-5, box_high=25, target_rate=3, off_target=0)
        clients, setups = [], []
        for cid in range(k):
            # Unequal shot counts and ragged lengths, some not a whole window.
            lengths = data.draw(st.lists(st.integers(0, 4 * window + 3), min_size=0,
                                         max_size=3 if epochs < 3 else 2))
            shots = [((gen.random((n, pre)) < 0.5).astype(np.int8), int(gen.integers(post)))
                     for n in lengths]
            w0 = 2 * gen.integers(-20, 21, size=(post, pre))
            base = Rng(seed, 100 + cid)
            engine = SoelEngine(cfg, base)
            counters = (start + cid, start + 3 * cid)
            engine._trace_rng.counter, engine._weight_rng.counter = counters
            client = LocalClient(cid, Network([make_head(pre=pre, post=post, threshold=20)]),
                                 engine, shots)
            client.install(ModelSnapshot(0, w0))
            clients.append(client)
            setups.append((shots, w0, base, counters))

        deltas, rows = train_clients(clients, 1, epochs)

        assert list(deltas) == [c.client_id for c in clients]
        for client, row, (shots, w0, base, counters) in zip(clients, rows, setups):
            delta = deltas[client.client_id]
            mirror = make_head(pre=pre, post=post, threshold=20)
            mirror.set_weights(w0.astype(np.int8))
            trace_rng, w_rng = base.fork("traces"), base.fork("updates")
            trace_rng.counter, w_rng.counter = counters
            want = {"error_l1": 0, "triggered_updates": 0, "boundaries": 0,
                    "error_per_class": np.zeros(post, dtype=np.int64)}
            for _ in range(epochs):
                for spikes, label in shots:
                    targets = np.zeros(post, dtype=np.int64)
                    targets[label] = 3
                    stats = replay_pass(mirror, spikes, targets, cfg, trace_rng, w_rng)
                    for key in want:
                        want[key] = want[key] + stats[key]
            want["error_per_class"] = [int(v) for v in want["error_per_class"]]
            head = client.network.output_layer
            assert np.array_equal(head.w, mirror.w)
            assert np.array_equal(delta, mirror.w - w0)
            assert row == {"event": "train", "round": 1, "client": client.client_id, **want}
            assert client.engine._trace_rng.counter == trace_rng.counter
            assert client.engine._weight_rng.counter == w_rng.counter

    def test_triggered_clients_round_in_one_call_per_window(self, monkeypatch):
        # Three clients miss their targets from the first window on, so
        # several trigger in one window, and their weight counters cross
        # 2^64 during the round. Each window rounds every triggered client in
        # one call, whose lanes bench/tracer.py counts.
        from fedspike import plasticity
        calls = []
        original = plasticity.stochastic_round_array

        def counted(values, spec, rng):
            if spec == WEIGHT_SPEC:
                calls.append(np.size(values))
            return original(values, spec, rng)
        monkeypatch.setattr(plasticity, "stochastic_round_array", counted)
        pre, post, window, epochs = 6, 3, 4, 2
        cfg = rule(learning_rate=Fraction(1, 4), window=window, error_threshold=0,
                   box_enabled=False, target_rate=3, off_target=0)
        gen = np.random.default_rng(31)
        starts = (2**64 - 2, 2**64 - 1, 2**64 - 3)
        clients, setups = [], []
        for cid, start in enumerate(starts):
            shots = [((gen.random((3 * window, pre)) < 0.5).astype(np.int8), label)
                     for label in range(post)]
            engine = SoelEngine(cfg, Rng(31, 200 + cid))
            engine._weight_rng.counter = start
            client = LocalClient(cid, Network([make_head(pre=pre, post=post, threshold=20)]),
                                 engine, shots)
            client.install(ModelSnapshot(0, np.zeros((post, pre))))
            clients.append(client)
            setups.append((shots, engine._trace_rng.counter))

        deltas, _ = train_clients(clients, 1, epochs)

        draws = [c.engine._weight_rng.counter - start for c, start in zip(clients, starts)]
        assert all(start + n > 2**64 for start, n in zip(starts, draws))
        assert calls[0] == len(clients) * post * pre
        assert sum(calls) == sum(draws) * post * pre
        assert len(calls) <= epochs * post * 3  # at most one call per window
        for client, start, (shots, trace_counter) in zip(clients, starts, setups):
            mirror = make_head(pre=pre, post=post, threshold=20)
            base = Rng(31, 200 + client.client_id)
            trace_rng, w_rng = base.fork("traces"), base.fork("updates")
            trace_rng.counter, w_rng.counter = trace_counter, start
            for _ in range(epochs):
                for spikes, label in shots:
                    replay_pass(mirror, spikes, np.eye(post, dtype=np.int64)[label] * 3, cfg,
                                trace_rng, w_rng)
            assert np.array_equal(deltas[client.client_id], mirror.w)
            assert client.engine._weight_rng.counter == w_rng.counter

    def test_clients_with_different_settings_are_rejected(self):
        head = make_head()
        w = np.stack([head.w, head.w])
        engines = [make_engine(window=4), make_engine(window=5)]
        passes = [[(np.ones((8, 6), dtype=np.int8), [1, 0])]] * 2
        with pytest.raises(ValueError, match="share"):
            train_lockstep(engines, head.params, w, passes)


def lockstep_and_replay(cfg, heads, setups, epochs):
    """train_clients on heads[k] with client k's (shots, w0, base) from
    setups; each client's delta, train row and weight counter must equal its
    replay alone through replay_pass. Returns the clients and the deltas."""
    clients = []
    for cid, (head, (shots, w0, base)) in enumerate(zip(heads, setups)):
        client = LocalClient(cid, Network([head]), SoelEngine(cfg, base), shots)
        client.install(ModelSnapshot(0, w0))
        clients.append(client)
    deltas, rows = train_clients(clients, 1, epochs)
    replays = []
    for head, (shots, w0, base) in zip(heads, setups):
        mirror = DenseLayer(replace(head.topo, weights=w0), head.params)
        trace_rng, w_rng = base.fork("traces"), base.fork("updates")
        want = {"error_l1": 0, "triggered_updates": 0, "boundaries": 0,
                "error_per_class": np.zeros(len(w0), dtype=np.int64)}
        for _ in range(epochs):
            for spikes, label in shots:
                targets = np.where(np.eye(len(w0), dtype=bool)[label], cfg.target_rate,
                                   cfg.off_target)
                stats = replay_pass(mirror, spikes, targets, cfg, trace_rng, w_rng)
                for key in want:
                    want[key] = want[key] + stats[key]
        want["error_per_class"] = [int(v) for v in want["error_per_class"]]
        replays.append((mirror, w_rng, want))
    for client, row, (mirror, w_rng, want) in zip(clients, rows, replays):
        assert np.array_equal(deltas[client.client_id], mirror.w - setups[client.client_id][1])
        assert row == {"event": "train", "round": 1, "client": client.client_id, **want}
        assert client.engine._weight_rng.counter == w_rng.counter
    return clients, deltas


class TestWindowShortcuts:
    """Exact shortcuts of train_lockstep, each checked against the replay of
    every client alone: proven head windows, and no draws for weights that
    cannot move."""

    @pytest.mark.parametrize("shifts, threshold, proven", [
        ((1, 1), 20, True),
        ((6, 6), 20, True),      # 2^12 * 8 inputs * 1 * 128 = 2^22
        ((6, 7), 20, False),     # 2^23: at the rails
        ((0, 3), 20, False),     # no current decay
        ((3, 0), 20, False),     # no voltage decay
        ((0, 0), ACC_MAX, False),  # currents and voltages climb to the rails
    ], ids=["1-1", "6-6", "6-7", "0-3", "3-0", "0-0-rails"])
    def test_each_round_takes_the_path_its_bound_allows(self, monkeypatch, shifts, threshold,
                                                        proven):
        from fedspike import plasticity, snn
        pre, post, epochs = 8, 3, 2
        cfg = rule(learning_rate=Fraction(1, 4), window=16, error_threshold=0,
                   box_enabled=False, target_rate=3, off_target=0)
        gen = np.random.default_rng(sum(shifts))
        setups = [([((gen.random((192, pre)) < 0.5).astype(np.int8), label)
                    for label in range(2)],
                   2 * gen.integers(1, 64, size=(post, pre)), Rng(41, cid))
                  for cid in range(2)]
        clamps, bounds, saturated = [], [], []
        run, dense_drive, sat24 = SpikingNeurons.run, plasticity.dense_drive, snn._sat24

        def spied_run(neurons, drives, clamp):
            if type(neurons) is SpikingNeurons:  # the trainer's heads, not the replay's
                clamps.append(clamp)
            return run(neurons, drives, clamp)

        def spied_drive(x, w_t, bound):
            bounds.append(bound)
            return dense_drive(x, w_t, bound)

        def spied_sat24(x, out=None):
            saturated.append(bool(np.abs(x).max() > ACC_MAX))
            return sat24(x, out=out)
        monkeypatch.setattr(plasticity, "dense_drive", spied_drive)
        monkeypatch.setattr(SpikingNeurons, "run", spied_run)
        monkeypatch.setattr(snn, "_sat24", spied_sat24)
        heads = [make_head(pre=pre, post=post, threshold=threshold, shifts=shifts)
                 for _ in setups]
        lockstep_and_replay(cfg, heads, setups, epochs)
        # 2 epochs of 2 passes of 12 windows, one drive and one run call each,
        # all under the round's bound: 1 input x 8 inputs x 128.
        assert len(clamps) == epochs * 2 * 12 and bounds == [8 * 128] * len(clamps)
        assert set(clamps) == {not proven}
        # Without decay the voltages pass the rails, where the loop clamps.
        assert any(saturated) == (threshold == ACC_MAX)

    def test_clients_whose_updates_are_zero_draw_nothing(self, monkeypatch):
        # Client 0 starts at zero weights, so its membrane stays at 0, below
        # the box band, and its gate is shut at every triggered window. The
        # others' membranes sit in the band and their weights move.
        from fedspike import plasticity
        pre, post, window, epochs = 6, 3, 4, 2
        cfg = rule(learning_rate=Fraction(1, 4), window=window, error_threshold=0,
                   box_enabled=True, box_low=1, box_high=10**6, target_rate=3, off_target=0)
        gen = np.random.default_rng(43)
        setups = []
        for cid, w0 in enumerate([np.zeros((post, pre), dtype=np.int64),
                                  2 * gen.integers(1, 21, size=(post, pre)),
                                  2 * gen.integers(-20, 21, size=(post, pre))]):
            shots = [((gen.random((3 * window, pre)) < 0.5).astype(np.int8), label)
                     for label in range(post)]
            setups.append((shots, w0, Rng(43, 300 + cid)))
        weight_bases = [b.fork("updates").base for _, _, b in setups]
        rounded, drawn = [], []
        original_round, original_draw = plasticity.stochastic_round_array, plasticity.u64_at

        def counted_round(values, spec, z):
            if spec == WEIGHT_SPEC:
                rounded.append(len(values.num))
            return original_round(values, spec, z)

        def counted_draw(bases, counters, n):
            rows = np.atleast_1d(bases).tolist()
            if set(rows) <= set(weight_bases):
                drawn.append(rows)
            return original_draw(bases, counters, n)
        monkeypatch.setattr(plasticity, "stochastic_round_array", counted_round)
        monkeypatch.setattr(plasticity, "u64_at", counted_draw)
        heads = [make_head(pre=pre, post=post, threshold=2000) for _ in setups]
        clients, deltas = lockstep_and_replay(cfg, heads, setups, epochs)

        # Client 0 triggered and took its counter ticks, as the replay did.
        ticks = [c.engine._weight_rng.counter for c in clients]
        assert ticks[0] > 0 and not deltas[0].any()
        # It never drew nor rounded; each rounding call rounds the clients of
        # its draw, and the others moved.
        assert all(weight_bases[0] not in rows for rows in drawn)
        assert rounded == [len(rows) for rows in drawn]
        assert deltas[1].any() and deltas[2].any()
        assert sum(rounded) < sum(ticks)

