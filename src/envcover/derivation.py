"""Behavior-plan derivation with verification and bounded refinement.

derive() walks the provider through task decomposition, per-subtask factor
identification, and per-subtask plan generation, then verifies the artifacts
(factor independence across subtasks, tree syntax, query grounding). While
violations remain and rounds allow, only the failing artifacts are sent back
for refinement: plan documents for syntax/grounding problems, the later
subtask's factor list for an independence overlap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MalformedDocument, StructureError
from .providers import PlanProvider
from .task_model import (
    BehaviorPlanTree,
    SubtaskSpec,
    TaskSpec,
    UncertainFactor,
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


def _factors_from_raw(raw) -> tuple[UncertainFactor, ...]:
    return tuple(
        UncertainFactor(
            name=f["name"],
            domain=tuple(f["domain"]),
            aliases=tuple(f.get("aliases", ())),
        )
        for f in raw
    )


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


def verify_all(subtasks, trees, parse_errors=None) -> ValidationReport:
    """Aggregate report in deterministic order: independence, syntax, grounding."""
    parse_errors = parse_errors or {}
    report = verify_independence(list(subtasks))
    for subtask in subtasks:
        report.extend(verify_syntax(subtask.id, parse_errors.get(subtask.id)))
    for subtask, tree in zip(subtasks, trees):
        if tree is not None and subtask.id not in parse_errors:
            report.extend(validate_tree_grounding(tree, subtask.factors))
    return report


@dataclass
class _Working:
    """Mutable per-subtask state across refinement rounds."""

    id: str
    summary: str
    raw_factors: list = field(default_factory=list)
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
    return [
        SubtaskSpec(id=w.id, summary=w.summary, factors=_factors_from_raw(w.raw_factors))
        for w in items
    ]


def _refine_targets(report: ValidationReport) -> list[tuple[str, str]]:
    """(stage, subtask_id) pairs to re-request, deduplicated, in report order.

    Independence violations refine the later subtask's factors; syntax and
    grounding violations refine that subtask's plan document.
    """
    targets: list[tuple[str, str]] = []
    for v in report.violations:
        if v.rule == "independence":
            later = v.location.split("+", 1)[1]
            target = ("factors", later)
        else:
            target = ("plan", v.location.split("/", 1)[0])
        if target not in targets:
            targets.append(target)
    return targets


def _messages_for(report: ValidationReport, stage: str, subtask_id: str) -> list[str]:
    out = []
    for v in report.violations:
        if stage == "factors" and v.rule == "independence":
            if v.location.split("+", 1)[1] == subtask_id:
                out.append(v.message)
        elif stage == "plan" and v.rule in ("syntax", "grounding"):
            if v.location.split("/", 1)[0] == subtask_id:
                out.append(v.message)
    return out


def derive(provider: PlanProvider, task: TaskSpec, max_rounds: int = 3) -> DerivationResult:
    """Full derivation. Never raises on verification failure: when rounds run
    out with violations left, the result carries status "exhausted_rounds"
    and the failing report."""
    working = [
        _Working(id=s["id"], summary=s["summary"]) for s in provider.decompose(task)
    ]
    for w in working:
        w.raw_factors = provider.identify_factors(task.id, w.id, w.summary)
    for w in working:
        w.raw_plan = provider.generate_plan(task.id, w.id, _factors_from_raw(w.raw_factors))
        w.reparse()

    def current_report() -> ValidationReport:
        return verify_all(
            _subtask_specs(working),
            [w.tree for w in working],
            {w.id: w.parse_error for w in working if w.parse_error is not None},
        )

    report = current_report()
    rounds_used = 1
    by_id = {w.id: w for w in working}
    while not report.ok and rounds_used < max_rounds:
        for stage, subtask_id in _refine_targets(report):
            w = by_id[subtask_id]
            messages = _messages_for(report, stage, subtask_id)
            previous = w.raw_factors if stage == "factors" else w.raw_plan
            replacement = provider.refine(stage, subtask_id, previous, messages)
            if stage == "factors":
                w.raw_factors = replacement
            else:
                w.raw_plan = replacement
                w.reparse()
        rounds_used += 1
        report = current_report()

    return DerivationResult(
        task=task,
        subtasks=_subtask_specs(working),
        trees=[w.tree for w in working],
        plan_document=[w.raw_plan for w in working],
        report=report,
        rounds_used=rounds_used,
        status="ok" if report.ok else "exhausted_rounds",
    )
