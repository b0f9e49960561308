"""Seeded synthetic inputs for the benchmark workloads.

Every generator draws only from the ``random.Random`` it is given, so one
seed always yields the same inputs. The generators fix the shape of each
input (sizes, counts, room sides) and let the seed vary names, dimensions,
tree layout and which objects a relation names. That keeps the work per
input nearly the same from seed to seed, so runs with different seeds can
be compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from envcover.environment import ObjectSpec, SpatialRelation, make_room

# Path-set sizes of the three plan shapes collect_wide collects per
# iteration: 360, 20 160 and 161 280 trajectories. The sizes are uneven so
# the greedy's cleanup pass has candidates left to rank.
COLLECT_SHAPES = ((6, 5, 4, 3), (8, 7, 6, 5, 4, 3), (8, 8, 7, 6, 5, 4, 3))

_NOUNS = (
    "towel", "plate", "sock", "cup", "pillow", "remote", "bottle", "shoe",
    "lamp", "kettle", "folder", "candle", "basket", "blanket", "charger",
)


def plan_shape(rng, sizes) -> tuple[list, list[dict]]:
    """A plan document and subtask list whose trees yield ``sizes`` paths.

    Half the trees with five or more paths (rounded up) nest a second query
    under one branch of the first, so paths have one or two steps. Every
    query names exactly one factor of its own subtask, which atomic coverage
    needs.
    """
    eligible = [i for i, n in enumerate(sizes) if n >= 5]
    deep = set(rng.sample(eligible, (len(eligible) + 1) // 2))
    nouns = rng.sample(_NOUNS, len(sizes))
    plan, subtasks = [], []
    for i, (n, noun) in enumerate(zip(sizes, nouns)):
        sid = f"st{i}"
        thing = f"{noun} {i}"
        state_q = f"What is the state of the {thing}?"
        if i in deep:
            top = ["clean", "dirty"]
            kinds = [f"kind {j}" for j in range(n - 1)]
            nested = rng.randrange(len(top))
            branches = {}
            for j, value in enumerate(top):
                if j == nested:
                    branches[value] = {
                        f"What is the kind of the {thing}?": {
                            k: f"Put the {value} {thing} away as {k}." for k in kinds
                        }
                    }
                else:
                    branches[value] = f"Leave the {value} {thing}."
            factors = [
                {"name": f"state of the {thing}", "domain": top, "aliases": []},
                {"name": f"kind of the {thing}", "domain": kinds, "aliases": []},
            ]
        else:
            values = [f"state {j}" for j in range(n)]
            branches = {v: f"Handle the {thing} in {v}." for v in values}
            factors = [{"name": f"state of the {thing}", "domain": values, "aliases": []}]
        plan.append({state_q: branches})
        subtasks.append({"id": sid, "summary": f"Tidy the {thing}.", "factors": factors})
    return plan, subtasks


@dataclass(frozen=True)
class Scene:
    """One single-room scene draft for the solver."""

    name: str
    grid: float
    solver_seed: int
    rooms: list
    objects: list
    relations: list
    contradiction: bool = False


def _dims(rng, lo: float, hi: float, height: tuple[float, float]) -> tuple:
    return (
        round(rng.uniform(lo, hi), 2),
        round(rng.uniform(*height), 2),
        round(rng.uniform(lo, hi), 2),
    )


def _obj(oid: str, size, category: str) -> ObjectSpec:
    return ObjectSpec(
        id=oid, description=f"a {oid}", room="r", size=size, category=category, attributes={}
    )


def layout_scene(rng, n: int, name: str, grid: float = 0.1) -> Scene:
    """A satisfiable scene of ``n`` objects with near/far/edge/side_of/on_top_of.

    A quarter of the objects are small items resting on floor objects. The
    relations bind only the large "anchor" objects, which the solver places
    first (largest footprint first), and the room is sized to about 20 %
    floor cover. Constraints are thus settled before the room fills up and
    the search does not thrash; the backtracking work of this workload comes
    from contradiction_scene.
    """
    n_top = n // 4
    n_floor = n - n_top
    n_anchor = min(6, max(2, n_floor - 3))
    n_filler = n_floor - n_anchor
    cover = n_anchor * 0.85**2 + n_filler * 0.425**2
    side = max(4.5, math.ceil(math.sqrt(cover / 0.2) * 2) / 2)
    categories = ("task_related", "enrichment")
    floor = [
        _obj(f"anchor{i}", _dims(rng, 0.7, 1.0, (0.4, 0.9)), rng.choice(categories))
        for i in range(n_anchor)
    ] + [
        _obj(f"filler{i}", _dims(rng, 0.3, 0.55, (0.4, 0.9)), rng.choice(categories))
        for i in range(n_filler)
    ]
    items = [
        _obj(f"item{i}", _dims(rng, 0.1, 0.25, (0.05, 0.3)), "task_related")
        for i in range(n_top)
    ]

    def priority():
        return rng.choice(("task", "enrichment"))

    hosts = rng.sample([o.id for o in floor], n_top)
    relations = [
        SpatialRelation(kind="on_top_of", subject=item.id, reference=host, priority="task")
        for item, host in zip(items, hosts)
    ]
    a = [o.id for o in floor[:n_anchor]]
    rng.shuffle(a)
    relations.append(SpatialRelation(kind="near", subject=a[0], reference=a[1], priority=priority()))
    if n_anchor >= 3:
        relations.append(SpatialRelation(kind="edge", subject=a[2], priority=priority()))
    if n_anchor >= 5:
        relations.append(
            SpatialRelation(kind="side_of", subject=a[3], reference=a[4], priority=priority())
        )
    if n_anchor >= 6:
        relations.append(SpatialRelation(kind="far", subject=a[5], reference=a[2], priority=priority()))
    return Scene(
        name=name,
        grid=grid,
        solver_seed=rng.randrange(2**31),
        rooms=[make_room("r", 0.0, 0.0, side, side)],
        objects=floor + items,
        relations=relations,
    )


def contradiction_scene(rng, name: str, grid: float = 0.25) -> Scene:
    """A c09-style scene whose first two relaxation rungs are unsat.

    The plant must be near the sofa (task) and far from it (enrichment). The
    relaxation ladder drops distance relations in declaration order, so the
    search proves the full set unsat, then the set without the satisfiable
    enrichment ``near`` between two fillers, and solves once ``far`` is gone.
    The sofa is the largest object, so each proof is one pass over its
    direction and position domains.
    """
    sofa_size = (
        round(rng.uniform(1.8, 2.1), 2),
        round(rng.uniform(0.7, 0.9), 2),
        round(rng.uniform(0.8, 1.0), 2),
    )
    sofa = _obj("sofa", sofa_size, "task_related")
    book = _obj("book", _dims(rng, 0.15, 0.3, (0.03, 0.06)), "task_related")
    plant = _obj("plant", _dims(rng, 0.3, 0.45, (0.8, 1.0)), "enrichment")
    fillers = [_obj(f"filler{i}", _dims(rng, 0.3, 0.5, (0.3, 0.6)), "enrichment") for i in range(3)]
    relations = [
        SpatialRelation(kind="on_top_of", subject="book", reference="sofa", priority="task"),
        SpatialRelation(kind="near", subject="plant", reference="sofa", priority="task"),
        SpatialRelation(kind="near", subject="filler0", reference="filler1", priority="enrichment"),
        SpatialRelation(kind="far", subject="plant", reference="sofa", priority="enrichment"),
        SpatialRelation(kind="edge", subject="filler2", priority="enrichment"),
    ]
    return Scene(
        name=name,
        grid=grid,
        solver_seed=rng.randrange(2**31),
        rooms=[make_room("r", 0.0, 0.0, 4.0, 4.0)],
        objects=[sofa, book, plant] + fillers,
        relations=relations,
        contradiction=True,
    )


def tangled_scene(rng, n: int, name: str, grid: float = 0.1) -> Scene:
    """Like layout_scene, but relations bind any objects, in chains.

    ``near`` links a chain of objects and ``far`` closes it, so an early
    placement can leave a later object without room while the objects placed
    in between keep the search from noticing. Chronological backtracking then
    thrashes. Only the scale-curve probe uses this: it is where the solver's
    budgets fire, which no timed workload may do.
    """
    n_top = n // 4
    n_floor = n - n_top
    side = max(4.0, math.ceil(math.sqrt(n_floor * 1.5) * 2) / 2)
    categories = ("task_related", "enrichment")
    floor = [
        _obj(f"obj{i}", _dims(rng, 0.4, 1.0, (0.4, 0.9)), rng.choice(categories))
        for i in range(n_floor)
    ]
    items = [
        _obj(f"item{i}", _dims(rng, 0.1, 0.25, (0.05, 0.3)), "task_related")
        for i in range(n_top)
    ]

    def priority():
        return rng.choice(("task", "enrichment"))

    relations = [
        SpatialRelation(kind="on_top_of", subject=item.id, reference=host, priority="task")
        for item, host in zip(items, rng.sample([o.id for o in floor], n_top))
    ]
    ids = [o.id for o in floor]
    rng.shuffle(ids)
    k = max(1, n_floor // 4)
    for j in range(k):
        relations.append(
            SpatialRelation(kind="near", subject=ids[j], reference=ids[(j + 1) % n_floor], priority=priority())
        )
        relations.append(SpatialRelation(kind="edge", subject=ids[k + j], priority=priority()))
    relations.append(SpatialRelation(kind="far", subject=ids[-1], reference=ids[0], priority=priority()))
    relations.append(SpatialRelation(kind="side_of", subject=ids[-2], reference=ids[-3], priority=priority()))
    return Scene(
        name=name,
        grid=grid,
        solver_seed=rng.randrange(2**31),
        rooms=[make_room("r", 0.0, 0.0, side, side)],
        objects=floor + items,
        relations=relations,
    )
