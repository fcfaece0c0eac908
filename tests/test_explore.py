"""Greedy model/hardware search and the accuracy-oracle interface."""

import shlex
import sys

import pytest

from conftest import small_custom_model, std_conv
from turf.errors import NoSolution, OracleError, TurfError, UnknownModel
from turf.explore import (CandidateRecord, Requirements, SyntheticOracle, model_gen,
                          replacement_key, run_framework)
from turf.ir import (LayerKind, LayerSpec, ModelSpec, Replacement, Stage, TensorShape,
                     count_ops_params, replace_layer)
from turf.models import build_reference_model
from turf.oracles import ExternalOracle, TableOracle
from turf.resources import STRATIX_V_5SGSD8, evaluate_model, load_calibration

COEFFS = load_calibration()


class AlwaysPerfect:
    name = "always-one"

    def evaluate(self, model, budget=1):
        return 1.0


class AlwaysFailing:
    name = "always-zero"

    def evaluate(self, model, budget=1):
        return 0.0


class FailAfterFirstReplacement:
    name = "first-replacement-fails"

    def evaluate(self, model, budget=1):
        replaced = sum(r is Replacement.SEPARABLE for r in model.replacement_vector)
        return 1.0 if replaced == 0 else 0.0


class TestRequirements:
    def test_exactly_one_performance_target(self):
        with pytest.raises(Exception):
            Requirements(min_accuracy=0.9)
        with pytest.raises(Exception):
            Requirements(min_accuracy=0.9, min_gops=1.0, max_latency_ms=1.0)
        Requirements(min_accuracy=0.9, min_gops=1.0)

    def test_accuracy_range(self):
        with pytest.raises(Exception):
            Requirements(min_accuracy=1.5, min_gops=1.0)

    def test_bad_call_raises(self):
        with pytest.raises(TurfError, match=r"^min_accuracy must lie in \[0, 1\]$"):
            Requirements(-0.1, 1.0)
        with pytest.raises(TurfError, match="^declare exactly one of min_gops / max_latency_ms$"):
            Requirements(0.5, None, None)
        assert Requirements(0.5, max_latency_ms=2.0).metric == "latency"


class TestModelGen:
    def test_top_down_sequence(self):
        base = small_custom_model(n_convs=3)
        seq = []
        m = model_gen(base)
        while m is not None:
            seq.append(replacement_key(m))
            m = model_gen(base, m)
        assert seq == ["OOO", "OOS", "OSS", "SSS"]

    def test_no_replaceable_positions(self):
        base = small_custom_model(n_convs=3)
        stripped = type(base)(base.base, base.stages, (), ())
        assert model_gen(stripped) == stripped
        assert model_gen(stripped, stripped) is None


class TestSyntheticOracle:
    def test_defaults_shape(self):
        base = small_custom_model(n_convs=3)
        oracle = SyntheticOracle()
        accs = []
        m = model_gen(base)
        while m is not None:
            accs.append(oracle.evaluate(m))
            m = model_gen(base, m)
        # peak at one top replacement, then decaying
        assert accs[1] == max(accs)
        assert accs[1] > accs[0]
        assert all(a > b for a, b in zip(accs[1:], accs[2:]))

    def test_top_replacement_retains_more_accuracy_than_bottom(self):
        base = small_custom_model(n_convs=3)
        oracle = SyntheticOracle()
        top = oracle.evaluate(replace_layer(base, 2))
        mid = oracle.evaluate(replace_layer(base, 1))
        bottom = oracle.evaluate(replace_layer(base, 0))
        assert top > mid > bottom

    def test_deterministic(self):
        base = replace_layer(small_custom_model(), 2)
        assert SyntheticOracle().evaluate(base) == SyntheticOracle().evaluate(base)


class TestTableOracle:
    def test_replay_and_missing_key(self, tmp_path):
        path = tmp_path / "acc.csv"
        path.write_text("replacement_vector,accuracy\nOOO,0.91\nOOS,0.93\n")
        oracle = TableOracle.from_csv(str(path))
        base = small_custom_model(n_convs=3)
        assert oracle.evaluate(base) == 0.91
        assert oracle.evaluate(replace_layer(base, 2)) == 0.93
        with pytest.raises(UnknownModel):
            oracle.evaluate(replace_layer(base, 0))


class TestExternalOracle:
    def test_shells_out(self):
        oracle = ExternalOracle("python3 -c \"import sys; sys.stdin.read(); print(0.875)\"")
        assert oracle.evaluate(small_custom_model()) == 0.875

    @pytest.mark.parametrize("script,message", [
        ("import sys; sys.exit(3)", "exited with status 3"),
        ("print('high')", "could not convert"),
        ("print(-0.25)", "accuracy -0.25, outside [0, 1]"),
        ("print('nan')", "accuracy nan, outside [0, 1]"),
    ])
    def test_failures_raise_oracle_error_naming_the_command(self, script, message):
        command = shlex.join([sys.executable, "-c", script])
        with pytest.raises(OracleError) as exc:
            ExternalOracle(command).evaluate(small_custom_model())
        assert command in str(exc.value) and message in str(exc.value)


class TestRunFramework:
    REQ = Requirements(min_accuracy=0.90, max_latency_ms=1000.0)

    def test_perfect_oracle_visits_all_and_returns_fastest(self):
        base = small_custom_model(n_convs=3)
        res = run_framework(self.REQ, STRATIX_V_5SGSD8, base, AlwaysPerfect(),
                            COEFFS, max_parallel=16)
        assert len(res.candidates) == base.num_replaceable + 1
        assert replacement_key(res.best_model) == "SSS"
        evaluated = [c for c in res.candidates if c.latency_ms is not None]
        assert res.best.latency_ms == min(c.latency_ms for c in evaluated)

    def test_first_replacement_failing_returns_pretrained(self):
        base = small_custom_model(n_convs=3)
        res = run_framework(self.REQ, STRATIX_V_5SGSD8, base,
                            FailAfterFirstReplacement(), COEFFS, max_parallel=16)
        assert replacement_key(res.best_model) == "OOO"
        assert len(res.candidates) == 2  # pretrained + the failing probe

    def test_always_failing_oracle_gives_no_solution_with_log(self):
        base = small_custom_model(n_convs=3)
        with pytest.raises(NoSolution) as exc:
            run_framework(self.REQ, STRATIX_V_5SGSD8, base, AlwaysFailing(),
                          COEFFS, max_parallel=16)
        assert len(exc.value.candidates) == 1
        assert exc.value.candidates[0].accuracy_passed is False

    def test_fig8_peak_returns_one_replacement_variant(self):
        base = small_custom_model(n_convs=3)
        res = run_framework(self.REQ, STRATIX_V_5SGSD8, base, SyntheticOracle(),
                            COEFFS, max_parallel=16)
        assert replacement_key(res.best_model) == "OOS"
        assert len(res.candidates) <= base.num_replaceable + 1

    def test_loop_invariant_best_satisfies_requirements(self):
        base = small_custom_model(n_convs=3)
        req = Requirements(min_accuracy=0.90, min_gops=1.0)
        res = run_framework(req, STRATIX_V_5SGSD8, base, SyntheticOracle(),
                            COEFFS, max_parallel=16)
        assert res.best.gops >= req.min_gops
        best_rec = next(c for c in res.candidates
                        if c.replacement_vector == replacement_key(res.best_model))
        assert best_rec.accuracy >= req.min_accuracy

    @pytest.mark.parametrize("req", [
        Requirements(min_accuracy=0.90, min_gops=1.0),
        Requirements(min_accuracy=0.90, max_latency_ms=1000.0),
    ], ids=["gops", "latency"])
    def test_best_is_the_passing_record_of_highest_performance(self, req):
        base = small_custom_model(n_convs=3)
        res = run_framework(req, STRATIX_V_5SGSD8, base, SyntheticOracle(),
                            COEFFS, exhaustive=True, max_parallel=16)
        assert any(c is res.best for c in res.candidates)
        passing = [c for c in res.candidates
                   if c.accuracy_passed and c.performance_passed]
        assert len(passing) < len(res.candidates)  # accuracy rejects some
        top = max(c.performance for c in passing)
        assert res.best is next(c for c in passing if c.performance == top)
        assert res.best.replacement_vector == replacement_key(res.best_model)

    def test_determinism(self):
        base = small_custom_model(n_convs=3)
        a = run_framework(self.REQ, STRATIX_V_5SGSD8, base, SyntheticOracle(),
                          COEFFS, max_parallel=16)
        b = run_framework(self.REQ, STRATIX_V_5SGSD8, base, SyntheticOracle(),
                          COEFFS, max_parallel=16)
        assert a.candidates == b.candidates
        assert replacement_key(a.best_model) == replacement_key(b.best_model)

    def test_exhaustive_mode_keeps_searching(self):
        base = small_custom_model(n_convs=3)
        res = run_framework(self.REQ, STRATIX_V_5SGSD8, base, SyntheticOracle(),
                            COEFFS, exhaustive=True, max_parallel=16)
        # accuracy no longer terminates: every candidate is visited
        assert len(res.candidates) == base.num_replaceable + 1
        # but accuracy still gates the record: best is the peak variant
        assert replacement_key(res.best_model) == "OOS"

    def test_each_distinct_stage_is_searched_once_per_call(self, monkeypatch):
        """The candidate models of one call share one stage-design table:
        on ResNet-50 (17 candidates of 18 pipeline stages each, 306 stage
        lookups) ``design_gen`` runs once per distinct (op, input shape),
        18 times, and a second call searches them all again."""
        import turf.resources
        from turf.models import build_reference_model
        from turf.ir import has_pipeline

        searched = []
        design_gen = turf.resources.design_gen

        def counted(op, input_shape, *args, **kwargs):
            searched.append((op, input_shape))
            return design_gen(op, input_shape, *args, **kwargs)

        monkeypatch.setattr(turf.resources, "design_gen", counted)
        base = build_reference_model("resnet50")
        models = [base]
        while (m := model_gen(base, models[-1])) is not None:
            models.append(m)
        stages = {(s.op, s.input_shape) for m in models for s in m.stages
                  if has_pipeline(s.op)}
        assert len(models) == 17 and len(stages) == 18
        req = Requirements(min_accuracy=0.0, min_gops=1.0)
        for _ in range(2):
            searched.clear()
            run_framework(req, STRATIX_V_5SGSD8, base, SyntheticOracle(), COEFFS,
                          exhaustive=True)
            assert len(searched) == len(stages)
            assert set(searched) == stages

    def test_every_returned_design_is_feasible(self):
        base = small_custom_model(n_convs=3)
        res = run_framework(self.REQ, STRATIX_V_5SGSD8, base, SyntheticOracle(),
                            COEFFS, max_parallel=16)
        assert res.best_design.resources.feasible(STRATIX_V_5SGSD8)


def _free_stages_model():
    """Two replaceable convolutions around batch-norm, activation and
    pooling stages, which have no pipeline, and a fully-connected head."""
    return ModelSpec("Custom", (
        Stage(TensorShape(16, 16, 8), std_conv(16, bias=True), "c1"),
        Stage(TensorShape(16, 16, 16), LayerSpec(LayerKind.BATCH_NORM), "bn"),
        Stage(TensorShape(16, 16, 16), LayerSpec(LayerKind.ACTIVATION), "relu"),
        Stage(TensorShape(16, 16, 16), LayerSpec(LayerKind.POOLING, kernel_size=2,
                                                 stride=2), "pool"),
        Stage(TensorShape(8, 8, 16), std_conv(32), "c2"),
        Stage(TensorShape(8, 8, 32), LayerSpec(LayerKind.FULLY_CONNECTED, out_channels=10,
                                               has_bias=True), "fc"),
    ), ((0,), (4,)), (Replacement.ORIGIN,) * 2)


@pytest.mark.parametrize("name", ["vgg16", "resnet50", "mobilenetv1", "mobilenetv2",
                                  "custom"])
def test_each_candidate_counts_its_ops_from_the_stage_table(name):
    """For every candidate ``model_gen`` yields, with the candidates sharing
    one stage-design table as in ``run_framework``, the design's ops (summed
    over the table's entries) are ``count_ops_params``'s total, and the
    candidate passes the ``ModelSpec`` checks that ``replace_layer`` skips."""
    pretrained = _free_stages_model() if name == "custom" else build_reference_model(name)
    designs, m, visited = {}, model_gen(pretrained), 0
    while m is not None:
        assert ModelSpec(*m) == m
        design = evaluate_model(m, STRATIX_V_5SGSD8, COEFFS, designs, max_parallel=16)
        assert design.ops == count_ops_params(m).total_ops > 0
        m, visited = model_gen(pretrained, m), visited + 1
    assert visited == pretrained.num_replaceable + 1
