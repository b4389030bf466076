"""Build and navigate the contact-order tree model of a pair of germs.

The tree is the recursive partition of the Newton-Puiseux roots of f*g by
contact order: a bar at height h collects arcs agreeing below h, and the
equivalence classes modulo h+ form the trunks growing on it.  Bars of
infinite height (one per root) are stored but omitted from rendering.

All structure is immutable after construction; growth points are exact
field elements, so trunk lookup is exact equality, never a tolerance test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InputViolatesSimplicity, NoCover, TruncationTooShort
from .exactalg import CycloField, CycloRational, UniPoly
from .puiseux import INF, ExpandedRoot, PuiseuxSeries, contact_order


@dataclass(frozen=True)
class RootInfo:
    id: str
    kind: str                  # "f" or "g"
    series: PuiseuxSeries


@dataclass(frozen=True)
class Trunk:
    bar_id: str                          # bar the trunk grows on
    point: CycloRational                 # growth point
    bimultiplicity: tuple[int, int]      # (count of f-roots, count of g-roots)
    top_bar_id: str                      # the postbar on top of this trunk

    @property
    def total_multiplicity(self) -> int:
        return self.bimultiplicity[0] + self.bimultiplicity[1]


@dataclass(frozen=True)
class Bar:
    id: str
    height: object                       # Fraction, or INF for a root's final bar
    prefix: PuiseuxSeries                # lambda_B: any member root cut below the height
    parent_trunk_id: str | None          # None for the ground bar
    trunk_ids: tuple[str, ...]           # ordered by growth point
    root_ids: tuple[str, ...]

    def is_finite(self) -> bool:
        return self.height is not INF


@dataclass(frozen=True)
class ArcTrace:
    """Where an arc sits relative to the tree.

    This is the one placement of an arc: ``Tree.trace_arc`` climbs the tree
    once, and the oracle's checks and the factor grouping read the result
    back through :meth:`climb` and ``leave_poly`` instead of comparing the
    arc with bar prefixes again.  A finite bar off ``path`` bounds the arc:
    the arc differs from the bar's prefix below the bar's height.
    """

    path: tuple[tuple[str, CycloRational | None], ...]  # (bar, climb point); None = unresolved
    is_root: bool = False
    leave_bar_id: str | None = None          # arc leaves the tree on this bar ...
    leave_point: CycloRational | None = None  # ... at this point (None = unresolved location)
    leave_height: Fraction | None = None
    bounded_by: str | None = None            # minimal bar bounding the arc strictly
    leave_poly: UniPoly | None = None        # unresolved leave: the coefficient is a root of this

    def climb(self, bar_id: str) -> tuple[bool, CycloRational | None]:
        """(True, point) when the arc climbs the bar, point None if unresolved;
        (False, None) when the bar bounds the arc."""
        for bid, z in self.path:
            if bid == bar_id:
                return True, z
        return False, None


class Tree:
    """The tree model of a pair: bars, trunks, heights, bimultiplicities."""

    def __init__(self, field: CycloField, roots: dict[str, RootInfo],
                 bars: dict[str, Bar], trunks: dict[str, Trunk],
                 ground_id: str, E1: int, E2: int, ram: int,
                 contacts: dict[tuple[str, str], Fraction]):
        self.field = field
        self.roots = roots
        self.bars = bars
        self.trunks = trunks
        self.ground_id = ground_id
        self.E1 = E1
        self.E2 = E2
        self.ram = ram
        self.contacts = contacts  # (root id, other root id) -> contact order
        self.max_contact = max(contacts.values(), default=Fraction(0))
        self.p = sum(1 for r in roots.values() if r.kind == "f")
        self.q = sum(1 for r in roots.values() if r.kind == "g")

    # -- navigation --------------------------------------------------------
    @property
    def ground(self) -> Bar:
        return self.bars[self.ground_id]

    def finite_bars(self) -> list[Bar]:
        return [b for b in self.bars.values() if b.is_finite()]

    def trunk_at(self, bar: Bar, z: CycloRational) -> Trunk | None:
        for tid in bar.trunk_ids:
            t = self.trunks[tid]
            if t.point == z:
                return t
        return None

    def postbar_at(self, bar: Bar, z: CycloRational) -> Bar | None:
        t = self.trunk_at(bar, z)
        return self.bars[t.top_bar_id] if t else None

    def parent_bar(self, bar: Bar) -> Bar | None:
        if bar.parent_trunk_id is None:
            return None
        return self.bars[self.trunks[bar.parent_trunk_id].bar_id]

    def bars_above(self, bar: Bar) -> list[Bar]:
        """All finite bars strictly above the given bar."""
        out = []
        for b in self.finite_bars():
            if b.id == bar.id:
                continue
            cur = self.parent_bar(b)
            while cur is not None:
                if cur.id == bar.id:
                    out.append(b)
                    break
                cur = self.parent_bar(cur)
        return out

    def growth_points(self, bar: Bar) -> list[tuple[CycloRational, Trunk]]:
        return [(self.trunks[tid].point, self.trunks[tid]) for tid in bar.trunk_ids]

    # -- arc placement ------------------------------------------------------
    def trace_arc(self, arc: ExpandedRoot) -> ArcTrace:
        """Climb the tree with an arc and report where it leaves or is bounded."""
        path: list[tuple[str, CycloRational | None]] = []
        bar = self.ground
        while True:
            if not bar.is_finite():
                t = arc.contact_with(bar.prefix)
                if t is INF:
                    return ArcTrace(tuple(path), is_root=True)
                return ArcTrace(tuple(path), bounded_by=bar.id, leave_height=t)
            rel = arc.coefficient_relative(bar.prefix, bar.height)
            if rel[0] == "below":
                return ArcTrace(tuple(path), bounded_by=bar.id, leave_height=rel[1])
            if rel[0] == "coeff-unresolved":
                chi_here = rel[1]
                for z, _tr in self.growth_points(bar):
                    if chi_here.vanishes_at(z):
                        raise TruncationTooShort(
                            "unresolved coefficient may equal a growth point"
                        )
                path.append((bar.id, None))
                return ArcTrace(
                    tuple(path), leave_bar_id=bar.id, leave_point=None,
                    leave_height=bar.height, leave_poly=chi_here,
                )
            z = rel[1]
            path.append((bar.id, z))
            trunk = self.trunk_at(bar, z)
            if trunk is None:
                return ArcTrace(
                    tuple(path), leave_bar_id=bar.id, leave_point=z,
                    leave_height=bar.height,
                )
            bar = self.bars[trunk.top_bar_id]


def build_tree(
    alpha: Sequence[PuiseuxSeries],
    beta: Sequence[PuiseuxSeries],
    E1: int = 0,
    E2: int = 0,
) -> Tree:
    """Construct the tree model from the root systems of the two germs.

    Roots must be pairwise distinct (the simple-roots standing assumption)
    and expanded deep enough that every pairwise contact is determined.
    """
    if not alpha and not beta:
        raise InputViolatesSimplicity("no roots at all; nothing to model")
    field = (alpha[0] if alpha else beta[0]).field
    infos: dict[str, RootInfo] = {}
    for k, s in enumerate(alpha):
        infos[f"a{k}"] = RootInfo(f"a{k}", "f", s)
    for k, s in enumerate(beta):
        infos[f"b{k}"] = RootInfo(f"b{k}", "g", s)
    ids = sorted(infos)
    contacts: dict[tuple[str, str], Fraction] = {}
    for i, r1 in enumerate(ids):
        for r2 in ids[i + 1:]:
            c = contact_order(infos[r1].series, infos[r2].series)
            if c is INF:
                raise InputViolatesSimplicity(
                    f"roots {r1} and {r2} of the product coincide"
                )
            contacts[(r1, r2)] = contacts[(r2, r1)] = c

    bars: dict[str, Bar] = {}
    trunks: dict[str, Trunk] = {}
    counter = {"bar": 0, "trunk": 0}

    def new_bar_id() -> str:
        i = counter["bar"]
        counter["bar"] += 1
        return f"B{i}"

    def new_trunk_id() -> str:
        i = counter["trunk"]
        counter["trunk"] += 1
        return f"T{i}"

    def build(member_ids: list[str], parent_trunk: str | None) -> str:
        bar_id = new_bar_id()
        if len(member_ids) == 1:
            rid = member_ids[0]
            bars[bar_id] = Bar(bar_id, INF, infos[rid].series, parent_trunk, (), (rid,))
            return bar_id
        h = min(contacts[(r1, r2)] for i, r1 in enumerate(member_ids)
                for r2 in member_ids[i + 1:])
        prefix = infos[member_ids[0]].series.prefix_below(h)
        groups: dict[CycloRational, list[str]] = {}
        for rid in member_ids:
            z = infos[rid].series.coefficient_at(h)
            groups.setdefault(z, []).append(rid)
        trunk_ids = []
        ordered = sorted(groups.items(), key=lambda kv: kv[0].sort_key())
        for z, members in ordered:
            tid = new_trunk_id()
            trunk_ids.append(tid)
            s = sum(1 for r in members if infos[r].kind == "f")
            t = len(members) - s
            top = build(members, tid)
            trunks[tid] = Trunk(bar_id, z, (s, t), top)
        bars[bar_id] = Bar(bar_id, h, prefix, parent_trunk,
                           tuple(trunk_ids), tuple(sorted(member_ids)))
        return bar_id

    ground_id = "B*"
    main_trunk_id = new_trunk_id()
    top = build(ids, main_trunk_id)
    s = sum(1 for r in ids if infos[r].kind == "f")
    trunks[main_trunk_id] = Trunk(ground_id, field.zero, (s, len(ids) - s), top)
    bars[ground_id] = Bar(
        ground_id, Fraction(0), PuiseuxSeries.zero(field), None,
        (main_trunk_id,), tuple(ids),
    )
    ram = 1
    for info in infos.values():
        d = info.series.exponent_denominator()
        ram = ram * d // math.gcd(ram, d)
    return Tree(field, infos, bars, trunks, ground_id, E1, E2, ram, contacts)


# ---------------------------------------------------------------------------
# covers, repairs, basics, conjugacy
# ---------------------------------------------------------------------------


def cover_of(tree: Tree, analyses, bar: Bar, c: CycloRational) -> list[str]:
    """The unique minimal set of non-collinear bars over a collinear point.

    Chains run from the point through collinear bars only; existence is
    guaranteed for holomorphic input and can fail in meromorphic mode.
    """
    start = tree.postbar_at(bar, c)
    if start is None:
        raise ValueError(f"no trunk grows at {c} on {bar.id}")

    out: set[str] = set()

    def descend(b: Bar) -> None:
        if not b.is_finite():
            raise NoCover(
                f"chain from {bar.id} at {c} ends in a bar of infinite height"
            )
        if not analyses[b.id].collinear:
            out.add(b.id)
            return
        for _z, trunk in tree.growth_points(b):
            descend(tree.bars[trunk.top_bar_id])

    descend(start)
    return sorted(out)


def repair_of(tree: Tree, analyses, bar: Bar) -> set[str]:
    """All bars reachable from the given bar through collinear support points."""
    ana = analyses[bar.id]
    if not ana.collinear_points:
        return set()
    rep: set[str] = set()
    frontier = [bar]
    while frontier:
        cur = frontier.pop()
        for c in analyses[cur.id].collinear_points:
            nxt = tree.postbar_at(cur, c)
            if nxt is None or not nxt.is_finite():
                continue
            if nxt.id in rep:
                continue
            rep.add(nxt.id)
            if analyses[nxt.id].collinear_points:
                frontier.append(nxt)
    return rep


def basics_of(tree: Tree, analyses, bar: Bar) -> list[str]:
    """The bar itself plus non-collinear bars above it supported at non-collinear points."""
    out = [bar.id]
    for b in tree.bars_above(bar):
        if analyses[b.id].collinear:
            continue
        parent_trunk = tree.trunks[b.parent_trunk_id]
        parent_bar = tree.bars[parent_trunk.bar_id]
        if parent_trunk.point in analyses[parent_bar.id].noncollinear_points:
            out.append(b.id)
    return sorted(out, key=lambda bid: (tree.bars[bid].height, bid))


def conjugacy_classes(tree: Tree) -> list[frozenset[str]]:
    """Partition of the bars by the root-of-unity conjugation action.

    The generator y^(1/D) -> theta*y^(1/D), D = ``tree.ram``, multiplies the
    coefficient at height h by theta^(hD), so it maps a bar of height h to
    the bar whose trunks sit at z*theta^(hD) for the trunks z of the bar.
    One walk from the ground gives this map on every bar; the classes are
    its orbits.  Bars of infinite height (one per root) take part: their
    classes are the root orbits themselves.
    """
    D = tree.ram
    theta = tree.field.zeta_of_order(D)  # FieldTooSmall if absent
    image = {tree.ground_id: tree.ground_id}
    stack = [tree.ground]
    while stack:
        bar = stack.pop()
        if not bar.is_finite():
            continue
        img = tree.bars[image[bar.id]]
        rot = theta ** int(bar.height * D)
        for z, trunk in tree.growth_points(bar):
            t = tree.trunk_at(img, z * rot)
            if t is None:
                raise TruncationTooShort(
                    "conjugate of a root did not match any root at this truncation"
                )
            image[trunk.top_bar_id] = t.top_bar_id
            stack.append(tree.bars[trunk.top_bar_id])
    out: list[frozenset[str]] = []
    seen: set[str] = set()
    for b in tree.bars:
        orbit = set()
        while b not in seen:
            seen.add(b)
            orbit.add(b)
            b = image[b]
        if orbit:
            out.append(frozenset(orbit))
    out.sort(key=lambda cls: sorted(cls)[0])
    return out


def render_tree(tree: Tree, analyses) -> str:
    """Deterministic ASCII rendering with o/x growth-point markers."""
    lines: list[str] = []

    def mark(bar: Bar, z: CycloRational) -> str:
        ana = analyses[bar.id]
        return "∘" if z in ana.collinear_points else "×"

    def bar_label(bar: Bar) -> str:
        ana = analyses[bar.id]
        tag = " collinear" if ana.collinear else ""
        return f"{bar.id}  h = {bar.height}{tag}"

    def walk(bar: Bar, indent: str) -> None:
        lines.append(indent + bar_label(bar))
        gps = tree.growth_points(bar)
        for k, (z, trunk) in enumerate(gps):
            last = k == len(gps) - 1
            stem = "`-" if last else "|-"
            s, t = trunk.bimultiplicity
            lines.append(
                f"{indent}{stem} [{s},{t}] at {z}  {mark(bar, z)}"
            )
            child = tree.bars[trunk.top_bar_id]
            if child.is_finite():
                walk(child, indent + ("   " if last else "|  "))

    walk(tree.ground, "")
    return "\n".join(lines) + "\n"
