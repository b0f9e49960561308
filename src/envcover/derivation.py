"""Behavior-plan derivation with verification and bounded refinement.

derive() walks the provider through task decomposition, per-subtask factor
identification, and per-subtask plan generation, then checks the artifacts
in one pass (factor independence across subtasks, tree syntax, query
grounding). Its verdict is the list of violations left: while violations
remain and rounds allow, only the failing artifacts are sent back for
refinement: plan documents for syntax/grounding problems, the later
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
    Violation,
    normalize_text,
    parse_behavior_plan,
    validate_tree_grounding,
)


@dataclass
class DerivationResult:
    subtasks: list[SubtaskSpec]
    trees: list[BehaviorPlanTree | None]
    plan_document: list
    violations: list[Violation]
    rounds_used: int

    @property
    def status(self) -> str:
        return "exhausted_rounds" if self.violations else "ok"


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


def _violations(working: list[_Working]) -> list[tuple[tuple[str, str], Violation]]:
    """Every violation, each with the (stage, subtask id) whose refinement can clear it.

    Independence overlaps come first, one per subtask pair i < j, and refine
    the later subtask's factors. Two factors overlap when a name or alias
    of one equals a name or alias of the other after normalize_text, since
    grounding matches a query against any of them; the message lists the
    earlier subtask's overlapping factors by name, as written. Syntax violations (a plan's
    parse error, which is the whole syntax check) and then grounding
    violations refine that subtask's plan document.
    """

    def terms(f) -> set[str]:
        return {normalize_text(t) for t in (f.name, *f.aliases)}

    tagged = []
    for i, a in enumerate(working):
        for b in working[i + 1 :]:
            b_terms = set().union(*map(terms, b.factors))
            shared = sorted({f.name for f in a.factors if not terms(f).isdisjoint(b_terms)})
            if shared:
                message = f"subtasks {a.id!r} and {b.id!r} share factor(s): " + ", ".join(shared)
                violation = Violation("independence", f"{a.id}+{b.id}", message)
                tagged.append((("factors", b.id), violation))
    for w in working:
        if w.parse_error is not None:
            tagged.append((("plan", w.id), Violation("syntax", w.id, str(w.parse_error))))
    for w in working:
        if w.tree is not None:
            tagged += [(("plan", w.id), v) for v in validate_tree_grounding(w.tree, w.factors)]
    return tagged


def derive(provider: PlanProvider, task: TaskSpec, max_rounds: int = 3) -> DerivationResult:
    """Full derivation. Never raises on verification failure: when rounds run
    out with violations left, the result carries them and its status reads
    "exhausted_rounds"."""
    working = [_Working(id=s.id, summary=s.summary) for s in provider.decompose(task)]
    for w in working:
        w.factors = provider.identify_factors(task.id, w.id, w.summary)
    for w in working:
        w.raw_plan = provider.generate_plan(task.id, w.id, w.factors)
        w.reparse()

    tagged = _violations(working)
    rounds_used = 1
    by_id = {w.id: w for w in working}
    while tagged and rounds_used < max_rounds:
        # one refine per (stage, subtask), in violation order, with its messages
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
        tagged = _violations(working)

    return DerivationResult(
        subtasks=[SubtaskSpec(id=w.id, summary=w.summary, factors=w.factors) for w in working],
        trees=[w.tree for w in working],
        plan_document=[w.raw_plan for w in working],
        violations=[v for _, v in tagged],
        rounds_used=rounds_used,
    )
