"""Behavior-plan derivation with verification and bounded refinement.

derive() walks the provider through task decomposition, per-subtask factor
identification, and per-subtask plan generation, then verifies the artifacts
(factor independence across subtasks, tree syntax, query grounding). While
violations remain and rounds allow, only the failing artifacts are sent back
for refinement: plan documents for syntax/grounding problems, the later
subtask's factor list for an independence overlap.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .errors import MalformedDocument, StructureError
from .providers import PlanProvider
from .task_model import (
    BehaviorPlanTree,
    SubtaskSpec,
    TaskSpec,
    ValidationReport,
    Violation,
    parse_behavior_plan,
    validate_tree_grounding,
)


@dataclass
class DerivationResult:
    task: TaskSpec
    subtasks: list[SubtaskSpec]
    trees: list[BehaviorPlanTree | None]
    plan_document: list
    report: ValidationReport
    rounds_used: int
    status: str  # "ok" | "exhausted_rounds"


def verify_independence(subtasks: list[SubtaskSpec]) -> ValidationReport:
    """One violation per subtask pair whose factor names overlap."""
    report = ValidationReport()
    for i in range(len(subtasks)):
        for j in range(i + 1, len(subtasks)):
            a, b = subtasks[i], subtasks[j]
            shared = sorted(
                {f.name for f in a.factors} & {f.name for f in b.factors}
            )
            if shared:
                report.violations.append(
                    Violation(
                        "independence",
                        f"{a.id}+{b.id}",
                        f"subtasks {a.id!r} and {b.id!r} share factor(s): "
                        + ", ".join(shared),
                    )
                )
    return report


def verify_syntax(subtask_id: str, parse_error=None) -> ValidationReport:
    """The parse error of a subtask's plan as a syntax violation, if it had one.

    Every tree comes from parse_behavior_plan, which raises on each
    structural defect, so the parse error is the whole syntax check.
    """
    report = ValidationReport()
    if parse_error is not None:
        report.violations.append(Violation("syntax", subtask_id, str(parse_error)))
    return report


def _tagged_violations(subtasks, trees, parse_errors) -> list[tuple[tuple[str, str], Violation]]:
    """Every violation, each with the (stage, subtask_id) whose refinement can clear it.

    Independence overlaps refine the later subtask's factors; syntax and
    grounding violations refine that subtask's plan document.
    """
    tagged = []
    for i, a in enumerate(subtasks):
        for b in subtasks[i + 1 :]:
            tagged += [(("factors", b.id), v) for v in verify_independence([a, b]).violations]
    for subtask in subtasks:
        report = verify_syntax(subtask.id, parse_errors.get(subtask.id))
        tagged += [(("plan", subtask.id), v) for v in report.violations]
    for subtask, tree in zip(subtasks, trees):
        if tree is not None and subtask.id not in parse_errors:
            report = validate_tree_grounding(tree, subtask.factors)
            tagged += [(("plan", subtask.id), v) for v in report.violations]
    return tagged


@dataclass
class _Working:
    """Mutable per-subtask state across refinement rounds."""

    id: str
    summary: str
    factors: tuple = ()
    raw_plan: object = None
    tree: BehaviorPlanTree | None = None
    parse_error: object = None

    def reparse(self) -> None:
        try:
            (self.tree,) = parse_behavior_plan([self.raw_plan], [self.id])
            self.parse_error = None
        except (StructureError, MalformedDocument) as exc:
            self.tree = None
            self.parse_error = exc


def _subtask_specs(items: list[_Working]) -> list[SubtaskSpec]:
    return [SubtaskSpec(id=w.id, summary=w.summary, factors=w.factors) for w in items]


def derive(provider: PlanProvider, task: TaskSpec, max_rounds: int = 3) -> DerivationResult:
    """Full derivation. Never raises on verification failure: when rounds run
    out with violations left, the result carries status "exhausted_rounds"
    and the failing report."""
    working = [_Working(id=s.id, summary=s.summary) for s in provider.decompose(task)]
    for w in working:
        w.factors = provider.identify_factors(task.id, w.id, w.summary)
    for w in working:
        w.raw_plan = provider.generate_plan(task.id, w.id, w.factors)
        w.reparse()

    def current_violations() -> list[tuple[tuple[str, str], Violation]]:
        return _tagged_violations(
            _subtask_specs(working),
            [w.tree for w in working],
            {w.id: w.parse_error for w in working if w.parse_error is not None},
        )

    tagged = current_violations()
    rounds_used = 1
    by_id = {w.id: w for w in working}
    while tagged and rounds_used < max_rounds:
        # one refine per (stage, subtask), in report order, with its messages
        messages: dict[tuple[str, str], list[str]] = {}
        for target, v in tagged:
            messages.setdefault(target, []).append(v.message)
        for (stage, subtask_id), notes in messages.items():
            w = by_id[subtask_id]
            previous = [asdict(f) for f in w.factors] if stage == "factors" else w.raw_plan
            replacement = provider.refine(stage, subtask_id, previous, notes)
            if stage == "factors":
                w.factors = replacement
            else:
                w.raw_plan = replacement
                w.reparse()
        rounds_used += 1
        tagged = current_violations()

    report = ValidationReport([v for _, v in tagged])
    return DerivationResult(
        task=task,
        subtasks=_subtask_specs(working),
        trees=[w.tree for w in working],
        plan_document=[w.raw_plan for w in working],
        report=report,
        rounds_used=rounds_used,
        status="ok" if report.ok else "exhausted_rounds",
    )
