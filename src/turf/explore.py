"""Joint model/hardware search: greedy top-down layer replacement.

The search starts from a pre-trained model and replaces replaceable
positions one at a time from the top (output end) toward the bottom,
running the hardware design-space exploration on each candidate.  Accuracy
evaluation -- fine-tuning in the real flow -- sits behind an oracle
interface; the shipped SyntheticOracle is explicitly synthetic and only
reproduces the qualitative shape of measured accuracy curves (a peak at
one top replacement, decay toward the bottom).  Real accuracies come from
a ``turf.oracles`` table replay or external command, which only
``explore --oracle table:|external:`` loads.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import NoSolution, TurfError
from .ir import ModelSpec, Replacement, replace_layer
from .resources import (CalibrationTable, ModelDesign, PlatformSpec,
                        evaluate_model)


class Requirements(NamedTuple("Requirements", [
        ("min_accuracy", float), ("min_gops", float | None), ("max_latency_ms", float | None)])):
    """Search requirements: accuracy floor plus one performance target."""

    __slots__ = ()

    def __new__(cls, min_accuracy: float, min_gops: float | None = None,
                max_latency_ms: float | None = None):
        if not 0.0 <= min_accuracy <= 1.0:
            raise TurfError("min_accuracy must lie in [0, 1]")
        if (min_gops is None) == (max_latency_ms is None):
            raise TurfError("declare exactly one of min_gops / max_latency_ms")
        return super().__new__(cls, min_accuracy, min_gops, max_latency_ms)

    @property
    def metric(self) -> str:
        return "gops" if self.min_gops is not None else "latency"

    def performance(self, gops: float, latency_ms: float) -> float:
        """Scalar score, larger is better, for the p > p* comparison."""
        return gops if self.metric == "gops" else -latency_ms

    def meets(self, gops: float, latency_ms: float) -> bool:
        if self.metric == "gops":
            return gops >= self.min_gops
        return latency_ms <= self.max_latency_ms


def replacement_key(model: ModelSpec) -> str:
    return "".join("S" if r is Replacement.SEPARABLE else "O"
                   for r in model.replacement_vector)


# SyntheticOracle's curve: peak at one top replacement, sharp fall-off
# toward the bottom
SYNTHETIC_BASE = 0.905
SYNTHETIC_TOP_BONUS = 0.035
SYNTHETIC_DECAY = 0.005
SYNTHETIC_EXPONENT = 3.0


class SyntheticOracle:
    """Deterministic stand-in for fine-tuned accuracy (clearly labelled so).

    accuracy = SYNTHETIC_BASE
             + SYNTHETIC_TOP_BONUS (if the top position is replaced)
             - sum over replaced positions of
               SYNTHETIC_DECAY * depth^SYNTHETIC_EXPONENT
    where depth counts from the top (top position = 1), clipped to [0, 1].
    """

    def evaluate(self, model: ModelSpec, budget: int = 1) -> float:
        n = model.num_replaceable
        acc = SYNTHETIC_BASE
        for pos, state in enumerate(model.replacement_vector):
            if state is Replacement.SEPARABLE:
                depth = n - pos  # 1 at the top position
                acc -= SYNTHETIC_DECAY * depth ** SYNTHETIC_EXPONENT
                if pos == n - 1:
                    acc += SYNTHETIC_TOP_BONUS
        return max(0.0, min(1.0, acc))


def model_gen(pretrained: ModelSpec,
              current: ModelSpec | None = None) -> ModelSpec | None:
    """Next candidate model, or None when the space is exhausted.

    The first call returns the pretrained model unchanged; each subsequent
    call replaces one more position, strictly top-down.
    """
    if current is None:
        return pretrained
    replaced = sum(1 for r in current.replacement_vector if r is Replacement.SEPARABLE)
    n = current.num_replaceable
    if replaced >= n:
        return None
    return replace_layer(current, n - 1 - replaced)


class CandidateRecord(NamedTuple):
    """One visited candidate model.  The performance fields and resources
    are set only when its accuracy passed and its design was evaluated."""

    index: int
    replacement_vector: str
    replaced_positions: int
    accuracy: float
    accuracy_passed: bool
    gops: float | None = None
    latency_ms: float | None = None
    performance: float | None = None
    performance_passed: bool | None = None
    dsp_used: int | None = None
    bram_used: int | None = None
    alm_used: int | None = None


class ExplorationResult(NamedTuple):
    """The search's outcome: ``candidates`` logs every visited model in
    visit order, and ``best`` is the record among them that passed both
    requirements with the highest performance (the first such on a tie),
    ``best_model`` and ``best_design`` its model and whole-model design."""

    best_model: ModelSpec
    best_design: ModelDesign
    best: CandidateRecord
    candidates: tuple[CandidateRecord, ...]


def run_framework(requirements: Requirements, platform: PlatformSpec,
                  pretrained: ModelSpec, oracle, coeffs: CalibrationTable,
                  exhaustive: bool = False,
                  finetune_budget: int = 1,
                  max_parallel: int = 64) -> ExplorationResult:
    """Greedy joint search over model and hardware design spaces.

    Loop: while the candidate is valid and its oracle accuracy meets the
    requirement, run the hardware DSE, evaluate performance, keep the best
    (performance above the requirement and above the incumbent), then move
    to the next candidate with one more top-down replacement.  With
    ``exhaustive`` the accuracy requirement no longer terminates the walk;
    every candidate is visited and accuracy only gates record updates.
    The candidates share one stage-design table, so each distinct stage is
    searched and counted once per call.

    Raises NoSolution (with the full candidate log) when nothing meets
    both requirements.
    """
    records: list[CandidateRecord] = []
    best: tuple[CandidateRecord, ModelSpec, ModelDesign] | None = None
    designs: dict = {}

    m = model_gen(pretrained)
    index = 0
    while m is not None:
        acc = oracle.evaluate(m, budget=finetune_budget)
        acc_ok = acc >= requirements.min_accuracy
        record = dict(index=index, replacement_vector=replacement_key(m),
                      replaced_positions=sum(r is Replacement.SEPARABLE
                                             for r in m.replacement_vector),
                      accuracy=acc, accuracy_passed=acc_ok)
        if not acc_ok:
            records.append(CandidateRecord(**record))
            if not exhaustive:
                break
        else:
            design = evaluate_model(m, platform, coeffs, designs,
                                    max_parallel=max_parallel)
            gops = design.gops(platform)
            latency = design.latency_ms(platform)
            perf = requirements.performance(gops, latency)
            perf_ok = requirements.meets(gops, latency)
            records.append(CandidateRecord(
                **record, gops=gops, latency_ms=latency, performance=perf,
                performance_passed=perf_ok, dsp_used=design.resources.dsp_used,
                bram_used=design.resources.bram_used,
                alm_used=design.resources.alm_used))
            if perf_ok and (best is None or perf > best[0].performance):
                best = (records[-1], m, design)

        m = model_gen(pretrained, m)
        index += 1

    if best is None:
        raise NoSolution(
            f"no candidate met accuracy >= {requirements.min_accuracy} and the "
            f"{requirements.metric} requirement", candidates=records)
    record, model, design = best
    return ExplorationResult(best_model=model, best_design=design, best=record,
                             candidates=tuple(records))
