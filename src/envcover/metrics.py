"""Coverage and detection metrics over a generated environment set.

Two coverage notions, both computed against ground truth taken straight
from the behavior plans:

- path coverage: which root-to-leaf decision paths appear in at least one
  realized trajectory, over all paths the plans define.
- atomic coverage: which (subtask, factor, value) conditions the realized
  trajectories exercise, over every factor value the subtasks declare.

The Jaccard index between the realized constraint set and the plan universe
doubles as a sanity metric: a selection pass that preserves coverage scores
exactly 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SchemaMismatch
from .task_model import BehaviorPlanTree, SubtaskSpec, extract_paths, match_factors, normalize_text
from .trajectories import LogicalTrajectory, covered_constraints, jaccard_index


@dataclass(frozen=True)
class CoverageStat:
    covered: int
    universe: int

    @property
    def ratio(self) -> float:
        if self.universe == 0:
            return 1.0
        return self.covered / self.universe


def path_universe(trees: list[BehaviorPlanTree]) -> set[str]:
    out: set[str] = set()
    for tree in trees:
        out |= {p.path_id for p in extract_paths(tree)}
    return out


def logic_coverage(trees: list[BehaviorPlanTree], trajectories: list[LogicalTrajectory]) -> CoverageStat:
    universe = path_universe(trees)
    covered = covered_constraints(trajectories) & universe
    return CoverageStat(covered=len(covered), universe=len(universe))


def atomic_universe(subtasks: list[SubtaskSpec]) -> set[tuple[str, str, str]]:
    out = set()
    for st in subtasks:
        for factor in st.factors:
            for value in factor.domain:
                out.add((st.id, normalize_text(factor.name), normalize_text(value)))
    return out


def atomic_conditions(trajectory: LogicalTrajectory, subtasks: list[SubtaskSpec]) -> set[tuple[str, str, str]]:
    """The (subtask, factor, value) conditions one trajectory pins down."""
    by_id = {st.id: st for st in subtasks}
    out = set()
    for path in trajectory.paths:
        st = by_id.get(path.subtask_id)
        if st is None:
            raise SchemaMismatch(f"trajectory names unknown subtask {path.subtask_id!r}")
        for step in path.steps:
            matches = match_factors(step.query, st.factors)
            if len(matches) != 1:
                raise SchemaMismatch(
                    f"query {step.query!r} grounds in {len(matches)} factors of "
                    f"{st.id!r}; atomic coverage needs exactly one"
                )
            out.add((st.id, normalize_text(matches[0].name), normalize_text(step.response)))
    return out


def logic_coverage_atomic(subtasks: list[SubtaskSpec], trajectories: list[LogicalTrajectory]) -> CoverageStat:
    universe = atomic_universe(subtasks)
    covered = set()
    for t in trajectories:
        covered |= atomic_conditions(t, subtasks)
    covered &= universe
    return CoverageStat(covered=len(covered), universe=len(universe))


def selection_jaccard(trees: list[BehaviorPlanTree], trajectories: list[LogicalTrajectory]) -> float:
    """Jaccard index between realized constraints and the plan universe."""
    return jaccard_index(covered_constraints(trajectories), path_universe(trees))


def share(flags: list[bool]) -> float:
    """The fraction of flags that are true, 1.0 when there are none: the
    physics pass rate, the validity rate and the fault detection rate."""
    return sum(flags) / len(flags) if flags else 1.0
