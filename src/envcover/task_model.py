"""Task descriptions, decision-tree behavior plans, and decision paths.

A behavior plan is a JSON list with one entry per subtask. Each entry is
either a bare string (an unconditional action) or a single-key object mapping
a query about the environment to its branches; branch values nest the same
way. Branch declaration order is meaningful and drives every downstream
enumeration, so parsing preserves it.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

from .errors import MalformedDocument, SchemaViolation, StructureError

_PUNCT = re.compile(r"[^\w\s]")
_WS = re.compile(r"\s+")
# distinct texts normalize_text remembers: a plan's queries, responses and
# factor names are a few dozen strings, each normalized hundreds of times
_NORMALIZE_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=_NORMALIZE_CACHE_SIZE)
def normalize_text(text: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace.

    Used for path ids and for grounding queries in factors, so that
    cosmetic differences ("YES!" vs "yes") never split identities.
    """
    out = _PUNCT.sub(" ", text.lower().replace("_", " "))
    return _WS.sub(" ", out).strip()


# ---------------------------------------------------------------------------
# Core task types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UncertainFactor:
    """An environment variable a subtask's behavior depends on."""

    name: str
    domain: tuple[str, ...]
    aliases: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.domain) < 2:
            raise SchemaViolation(f"factor {self.name!r} needs a domain of at least two values")

    def matches_query(self, query_text: str) -> bool:
        """True if the factor's name or an alias occurs in the query text."""
        hay = f" {normalize_text(query_text)} "
        for candidate in (self.name, *self.aliases):
            needle = normalize_text(candidate)
            if needle and f" {needle} " in hay:
                return True
        return False


@dataclass(frozen=True)
class SubtaskSpec:
    id: str
    summary: str
    factors: tuple[UncertainFactor, ...] = ()


@dataclass(frozen=True)
class TaskSpec:
    id: str
    description: str
    environment_type: str


# ---------------------------------------------------------------------------
# Behavior-plan trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    action: str


@dataclass(frozen=True)
class Query:
    text: str
    branches: tuple[tuple[str, "Node"], ...]


Node = Leaf | Query


@dataclass(frozen=True)
class BehaviorPlanTree:
    subtask_id: str
    root: Node


def _parse_node(value, where: str) -> Node:
    if isinstance(value, str):
        if not value.strip():
            raise StructureError(f"{where}: empty action text")
        return Leaf(action=value)
    if isinstance(value, dict):
        if len(value) != 1:
            raise MalformedDocument(
                f"{where}: query object must have exactly one key, got {len(value)}"
            )
        (text, raw_branches), = value.items()
        if not isinstance(text, str) or not text.strip():
            raise StructureError(f"{where}: empty query text")
        if not isinstance(raw_branches, dict):
            raise MalformedDocument(f"{where}: branches of {text!r} must be an object")
        if len(raw_branches) < 2:
            raise StructureError(
                f"{where}: query {text!r} has {len(raw_branches)} branch(es), needs at least 2"
            )
        branches = []
        seen: set[str] = set()
        for response, child in raw_branches.items():
            if not isinstance(response, str) or not response.strip():
                raise StructureError(f"{where}: empty response under {text!r}")
            key = normalize_text(response)
            if key in seen:
                raise StructureError(f"{where}: duplicate response {response!r} under {text!r}")
            seen.add(key)
            branches.append((response, _parse_node(child, f"{where}/{key}")))
        return Query(text=text, branches=tuple(branches))
    raise MalformedDocument(f"{where}: expected string or object, got {type(value).__name__}")


def parse_behavior_plan(doc, subtask_ids=None) -> list[BehaviorPlanTree]:
    """Parse a plan document (list of single-key objects or strings).

    ``subtask_ids`` pairs each tree with its subtask; defaults to s1..sN.
    Raises MalformedDocument for shape problems and StructureError for
    tree-level invariant violations (single-branch queries, empty texts,
    duplicate responses) and for a repeated subtask id, which would give two
    subtasks the same path ids.
    """
    if not isinstance(doc, list):
        raise MalformedDocument(f"plan document must be a list, got {type(doc).__name__}")
    if subtask_ids is None:
        subtask_ids = [f"s{i + 1}" for i in range(len(doc))]
    if len(subtask_ids) != len(doc):
        raise MalformedDocument(
            f"{len(subtask_ids)} subtask ids for {len(doc)} plan entries"
        )
    if len(set(subtask_ids)) != len(subtask_ids):
        raise StructureError(f"duplicate subtask ids in {list(subtask_ids)}")
    trees = []
    for sid, entry in zip(subtask_ids, doc):
        trees.append(BehaviorPlanTree(subtask_id=sid, root=_parse_node(entry, sid)))
    return trees


# ---------------------------------------------------------------------------
# Decision paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QueryResponse:
    query: str
    response: str


@dataclass(frozen=True)
class DecisionPath:
    """One root-to-leaf walk through a subtask's decision tree."""

    subtask_id: str
    steps: tuple[QueryResponse, ...]
    leaf_action: str
    path_id: str = field(default="", compare=False)

    def __post_init__(self):
        if not self.path_id:
            object.__setattr__(self, "path_id", make_path_id(self.subtask_id, self.steps))


def make_path_id(subtask_id: str, steps) -> str:
    parts = ";".join(
        f"{normalize_text(s.query)}={normalize_text(s.response)}" for s in steps
    )
    return f"{subtask_id}/{parts}"


def extract_paths(tree: BehaviorPlanTree) -> list[DecisionPath]:
    """All root-to-leaf paths in depth-first branch-declaration order.

    A bare-leaf tree yields a single path with no steps.
    """
    paths: list[DecisionPath] = []

    def visit(node: Node, steps: tuple[QueryResponse, ...]) -> None:
        if isinstance(node, Leaf):
            paths.append(
                DecisionPath(subtask_id=tree.subtask_id, steps=steps, leaf_action=node.action)
            )
            return
        for response, child in node.branches:
            visit(child, steps + (QueryResponse(query=node.text, response=response),))

    visit(tree.root, ())
    return paths


# ---------------------------------------------------------------------------
# Plan verification (shared with plan derivation)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    rule: str  # "independence" | "syntax" | "grounding"
    location: str
    message: str


def match_factors(query_text: str, factors) -> list[UncertainFactor]:
    """Factors whose name or alias occurs in the (normalized) query text."""
    return [f for f in factors if f.matches_query(query_text)]


def validate_tree_grounding(tree: BehaviorPlanTree, factors) -> list[Violation]:
    """Check every query grounds in exactly one factor, responses in-domain."""
    violations: list[Violation] = []

    def visit(node: Node, where: str) -> None:
        if isinstance(node, Leaf):
            return
        matched = match_factors(node.text, factors)
        if not matched:
            violations.append(
                Violation("grounding", where, f"query {node.text!r} matches no declared factor")
            )
        elif len(matched) > 1:
            names = ", ".join(f.name for f in matched)
            violations.append(
                Violation(
                    "grounding", where, f"query {node.text!r} matches multiple factors ({names})"
                )
            )
        else:
            domain = {normalize_text(d) for d in matched[0].domain}
            for response, _ in node.branches:
                if normalize_text(response) not in domain:
                    violations.append(
                        Violation(
                            "grounding",
                            where,
                            f"response {response!r} outside domain of factor "
                            f"{matched[0].name!r}",
                        )
                    )
        for response, child in node.branches:
            visit(child, f"{where}/{normalize_text(response)}")

    visit(tree.root, tree.subtask_id)
    return violations
