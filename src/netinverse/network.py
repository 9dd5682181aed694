"""Network data model and file ingestion.

Directed graphs with integer link ids and opaque string node ids, plus the
route, demand, capacity, and observation records that every solver in the
package consumes.  All types are immutable after construction and safe to
share across concurrent tasks.

File formats are UTF-8 CSV.  Blank and ``#`` lines are skipped, the first other
line must be the header, later lines have its field count, fields are trimmed,
and errors name ``file:line``.  Written files read back: link costs, timestamps
and flow exports are exact, and an id that is empty, untrimmed or holds a comma
or line break, or an agent id starting with ``#``, is refused.  An unwritable
output is a DataError (exit 2).  Observations loaded with equal route text share
one immutable ``Path``, built and validated once per file.

* links:        ``link_id,start_node,end_node,cost``
* demand:       ``origin,destination,flow``
* capacities:   ``link_id,capacity`` where capacity is a positive number or
                the literal ``priced`` for links whose capacity is latent and
                only the dual price is of interest
* observations: ``agent_id,timestamp,origin,destination,link_seq`` with
                ``link_seq`` a ``;``-separated list of link ids and an
                optional (possibly empty) timestamp
* prices:       ``link_id,value``, one row per link estimated
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path as FilePath
from typing import Any, Callable, Collection, Iterable, Iterator, Mapping

from .errors import DataError

NodeId = str
LinkId = int

# Link-keyed scalar map used both for link costs and for capacity dual prices.
PriceVector = dict[LinkId, float]


@dataclass(frozen=True)
class Link:
    """One directed link with a nonnegative base cost (generalized units)."""

    id: LinkId
    tail: NodeId
    head: NodeId
    base_cost: float

    def __post_init__(self) -> None:
        if self.id <= 0:
            raise DataError(f"link id must be a positive integer, got {self.id}")
        _check_ids("node", (self.tail, self.head))
        if self.tail == self.head:
            raise DataError(f"link {self.id} is a self-loop at node {self.tail!r}")
        if not math.isfinite(self.base_cost) or self.base_cost < 0:
            raise DataError(f"link {self.id} has invalid cost {self.base_cost!r}")


@dataclass(frozen=True)
class Path:
    """An ordered, node-simple link sequence between an origin and destination."""

    origin: NodeId
    destination: NodeId
    links: tuple[LinkId, ...]

    def __post_init__(self) -> None:
        if not self.links:
            raise DataError("a path must contain at least one link")


class Network:
    """Immutable directed network: node set, ordered links, tail-indexed adjacency.

    Links are kept sorted by id so that iteration order, and everything
    derived from it, is deterministic.
    """

    def __init__(self, links: Iterable[Link]):
        ordered = sorted(links, key=lambda l: l.id)
        if not ordered:
            raise DataError("no links")
        by_id: dict[LinkId, Link] = {}
        for link in ordered:
            if link.id in by_id:
                raise DataError(f"duplicate link id {link.id}")
            by_id[link.id] = link
        self._links: tuple[Link, ...] = tuple(ordered)
        self._by_id = by_id
        self._nodes = frozenset(l.tail for l in ordered) | frozenset(l.head for l in ordered)
        out: dict[NodeId, list[Link]] = {}
        for link in ordered:
            out.setdefault(link.tail, []).append(link)
        self._out = {n: tuple(ls) for n, ls in out.items()}

    @property
    def links(self) -> tuple[Link, ...]:
        return self._links

    @property
    def nodes(self) -> frozenset[NodeId]:
        return self._nodes

    def link(self, link_id: LinkId) -> Link:
        try:
            return self._by_id[link_id]
        except KeyError:
            raise DataError(f"unknown link id {link_id}") from None

    def has_link(self, link_id: LinkId) -> bool:
        return link_id in self._by_id

    def outgoing(self, node: NodeId) -> tuple[Link, ...]:
        return self._out.get(node, ())

    def base_costs(self) -> PriceVector:
        return {l.id: l.base_cost for l in self._links}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Network) and self._links == other._links

    def __repr__(self) -> str:
        return f"Network({len(self._nodes)} nodes, {len(self._links)} links)"


@dataclass(frozen=True)
class DemandEntry:
    origin: NodeId
    destination: NodeId
    flow: float

    def __post_init__(self) -> None:
        if self.origin == self.destination:
            raise DataError(f"demand entry {self.origin!r}->{self.destination!r} is a self-pair")
        if not math.isfinite(self.flow) or self.flow < 0:
            raise DataError(f"demand {self.origin!r}->{self.destination!r} has invalid flow")


@dataclass(frozen=True)
class DemandTable:
    """Origin-destination flows; one entry per distinct OD pair."""

    entries: tuple[DemandEntry, ...]

    def __post_init__(self) -> None:
        seen = set()
        for e in self.entries:
            key = (e.origin, e.destination)
            if key in seen:
                raise DataError(f"duplicate demand entry for OD {key}")
            seen.add(key)

    def validate_against(self, net: Network) -> None:
        for e in self.entries:
            for node in (e.origin, e.destination):
                if node not in net.nodes:
                    raise DataError(f"demand references unknown node {node!r}")


#: Marker value for links whose capacity is latent (dual price only).
PRICED_ONLY = None


@dataclass(frozen=True)
class CapacitySpec:
    """Capacity per link id; value ``None`` marks a priced-only link.

    Priced-only entries carry no numeric capacity: they designate links whose
    dual prices are to be inferred while the capacity itself stays latent.
    """

    entries: Mapping[LinkId, float | None]

    def __post_init__(self) -> None:
        for link_id, cap in self.entries.items():
            if cap is not None and (not math.isfinite(cap) or cap <= 0):
                raise DataError(f"capacity for link {link_id} must be positive, got {cap!r}")

    @classmethod
    def priced_only(cls, link_ids: Iterable[LinkId]) -> "CapacitySpec":
        return cls({lid: PRICED_ONLY for lid in link_ids})

    def validate_against(self, net: Network) -> None:
        for link_id in self.entries:
            if not net.has_link(link_id):
                raise DataError(f"capacity entry references unknown link id {link_id}")

    def priced_links(self) -> tuple[LinkId, ...]:
        return tuple(sorted(self.entries))

    def numeric(self) -> dict[LinkId, float]:
        missing = [lid for lid, cap in self.entries.items() if cap is None]
        if missing:
            raise DataError(f"links {sorted(missing)} carry no numeric capacity")
        return {lid: float(cap) for lid, cap in self.entries.items()}  # type: ignore[arg-type]


@dataclass(frozen=True)
class Observation:
    """One agent's revealed route with a flow weight and optional metadata."""

    agent_id: str
    path: Path
    weight: float = 1.0
    timestamp: float | None = None

    def __post_init__(self) -> None:
        _check_ids("agent", (self.agent_id,))
        if not math.isfinite(self.weight) or self.weight <= 0:
            raise DataError(f"observation {self.agent_id!r} has non-positive weight")
        if self.timestamp is not None and not math.isfinite(self.timestamp):
            raise DataError(
                f"observation {self.agent_id!r} has non-finite timestamp {self.timestamp}"
            )


def validate_path(net: Network, path: Path) -> None:
    """Raise :class:`DataError` unless ``path`` is a valid simple route in ``net``."""

    links = [net.link(lid) for lid in path.links]
    if links[0].tail != path.origin:
        raise DataError(
            f"path starts at {links[0].tail!r} but declares origin {path.origin!r}"
        )
    if links[-1].head != path.destination:
        raise DataError(
            f"path ends at {links[-1].head!r} but declares destination {path.destination!r}"
        )
    for prev, cur in zip(links, links[1:]):
        if prev.head != cur.tail:
            raise DataError(f"links {prev.id} and {cur.id} are not connected")
    visited = [links[0].tail] + [l.head for l in links]
    if len(set(visited)) != len(visited):
        raise DataError(f"path revisits a node: {visited}")


def path_cost(net: Network, costs: Mapping[LinkId, float], path: Path) -> float:
    """Sum of per-link cost values along ``path``."""

    total = 0.0
    for lid in path.links:
        if not net.has_link(lid):
            raise DataError(f"unknown link id {lid}")
        try:
            total += costs[lid]
        except KeyError:
            raise DataError(f"no cost entry for link {lid}") from None
    return total


def enumerate_paths(net: Network, od: tuple[NodeId, NodeId], max_paths: int) -> list[Path]:
    """All simple paths for an OD pair, sorted by base cost, truncated at ``max_paths``.

    Depth-first enumeration; intended for desk-scale networks where the path
    count is small (oracle support and validation, not production routing).
    An unconnected pair yields an empty list.
    """

    if max_paths < 1:
        raise DataError(f"max_paths must be >= 1, got {max_paths}")
    base = net.base_costs()
    found = sorted(_simple_paths(net, od), key=lambda p: (path_cost(net, base, p), p.links))
    return found[:max_paths]


def _simple_paths(net: Network, od: tuple[NodeId, NodeId]) -> Iterator[Path]:
    """Each simple path for an OD pair, depth first; none for an unconnected or coincident pair.

    The search enters only nodes from which the destination can still be
    reached off the partial path, so every branch ends in a path and the
    next one comes after polynomial work, however few are taken.
    """

    origin, destination = od
    if origin == destination or not {origin, destination} <= net.nodes:
        return
    tails: dict[NodeId, list[NodeId]] = {}
    for link in net.links:
        tails.setdefault(link.head, []).append(link.tail)
    visited = {origin}
    seq: list[LinkId] = []

    def reaching() -> set[NodeId]:
        found, stack = {destination}, [destination]
        while stack:
            for tail in tails.get(stack.pop(), ()):
                if tail not in found and tail not in visited:
                    found.add(tail)
                    stack.append(tail)
        return found

    def dfs(node: NodeId) -> Iterator[Path]:
        if node == destination:
            yield Path(origin, destination, tuple(seq))
            return
        live = reaching()
        for link in net.outgoing(node):
            if link.head not in live:
                continue
            seq.append(link.id)
            visited.add(link.head)
            yield from dfs(link.head)
            visited.remove(link.head)
            seq.pop()

    yield from dfs(origin)


# ---------------------------------------------------------------------------
# file ingestion
# ---------------------------------------------------------------------------


def _read_rows(path: FilePath | str, header: str, parse: Callable[[list[str]], Any]) -> list:
    """``parse(fields)`` of each data row, by the rules above; its errors name ``file:line``."""

    try:
        text = FilePath(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
        raise DataError(f"cannot read {path}: {exc}") from None
    width = header.count(",") + 1
    rows: list | None = None  # until the header is read
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line[0] == "#":
                continue
            fields = [f.strip() for f in line.split(",")]
            if rows is None:
                if fields != header.split(","):
                    raise DataError(f"expected header {header!r}, got {line!r}")
                rows = []
            elif len(fields) != width:
                raise DataError(f"expected {width} fields, got {len(fields)}")
            else:
                rows.append(parse(fields))
    except (ValueError, DataError) as exc:
        raise DataError(f"{path}:{lineno}: {exc}") from None
    if rows is None:
        raise DataError(f"{path}: missing header row {header!r}")
    return rows


@contextmanager
def _writing(target: FilePath | str) -> Iterator[None]:
    """Report an ``OSError`` raised in the block as a :class:`DataError` naming ``target``."""

    try:
        yield
    except OSError as exc:
        raise DataError(f"cannot write {target}: {exc.strerror or exc}") from None


def _write_lines(path: FilePath | str, lines: list[str], target: FilePath | None = None) -> None:
    """Write ``lines`` to ``path``; a failure names ``target``, by default ``path``."""

    with _writing(target or path):
        FilePath(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _check_ids(kind: str, ids: Iterable[str]) -> None:
    """Refuse an agent or node id that would not read back as written (rules above)."""

    for value in ids:
        if (not value or value != value.strip() or "," in value or len(value.splitlines()) > 1
                or (kind == "agent" and value[0] == "#")):
            raise DataError(f"bad {kind} id {value!r}: ids are nonempty and trimmed, with no "
                            "comma or line break, and agent ids do not start with '#'")


def _check_values(what: str, values: Mapping[LinkId, float], link_ids: Iterable[LinkId]) -> None:
    """Raise DataError at the first of ``link_ids`` lacking a finite value >= 0 in ``values``."""

    for lid in link_ids:
        value = values.get(lid)
        if value is None:
            raise DataError(f"{what} has no entry for link {lid}")
        if not 0.0 <= value < math.inf:
            raise DataError(f"{what} of link {lid} is negative or not finite: {value}")


def _format_float(value: float | None) -> str:
    """``format(value, "g")`` if that reads back exactly, else ``repr(value)``; None is ``""``."""

    text = "" if value is None else format(value, "g")
    return repr(value) if text and float(text) != value else text


def load_network(links_file: FilePath | str) -> Network:
    """Load a network from a ``link_id,start_node,end_node,cost`` file."""

    return Network(_read_rows(links_file, "link_id,start_node,end_node,cost",
                              lambda f: Link(int(f[0]), f[1], f[2], float(f[3]))))


def write_network(net: Network, path: FilePath | str) -> None:
    lines = ["link_id,start_node,end_node,cost"]
    for link in net.links:
        lines.append(f"{link.id},{link.tail},{link.head},{_format_float(link.base_cost)}")
    _write_lines(path, lines)


def load_demand(path: FilePath | str, net: Network) -> DemandTable:
    entries = _read_rows(path, "origin,destination,flow",
                         lambda f: DemandEntry(f[0], f[1], float(f[2])))
    table = DemandTable(tuple(entries))
    table.validate_against(net)
    return table


def load_capacities(path: FilePath | str, net: Network) -> CapacitySpec:
    entries: dict[LinkId, float | None] = {}

    def add(fields: list[str]) -> None:
        link_id = int(fields[0])
        if link_id in entries:
            raise DataError(f"duplicate capacity entry for link {link_id}")
        entries[link_id] = PRICED_ONLY if fields[1].lower() == "priced" else float(fields[1])

    _read_rows(path, "link_id,capacity", add)
    spec = CapacitySpec(entries)
    spec.validate_against(net)
    return spec


def load_prices(path: FilePath | str, link_ids: Collection[LinkId]) -> PriceVector:
    """One price for each of ``link_ids``, the links estimated, from a ``link_id,value`` file."""

    prices: PriceVector = {}

    def add(fields: list[str]) -> None:
        link_id = int(fields[0])
        if link_id in prices:
            raise DataError(f"link {link_id} has a second price entry")
        if link_id not in link_ids:
            raise DataError(f"link {link_id} has a price entry but is not estimated")
        prices[link_id] = float(fields[1])
        _check_values("price", prices, (link_id,))

    _read_rows(path, "link_id,value", add)
    _check_values(f"{path}: price", prices, link_ids)
    return prices


def load_observations(path: FilePath | str, net: Network) -> list[Observation]:
    routes: dict[tuple[str, str, str], Path] = {}  # by route text: each is built once

    def observation(fields: list[str]) -> Observation:
        agent_id, stamp, origin, destination, seq = fields
        key = (origin, destination, seq)
        route = routes.get(key)
        if route is None:
            route = Path(origin, destination, tuple(map(int, filter(None, seq.split(";")))))
            validate_path(net, route)
            routes[key] = route
        return Observation(agent_id, route, timestamp=float(stamp) if stamp else None)

    return _read_rows(path, "agent_id,timestamp,origin,destination,link_seq", observation)


def write_observations(
    observations: Iterable[Observation],
    path: FilePath | str,
    header_comments: Iterable[str] = (),
) -> None:
    lines = [f"# {comment}" for comment in header_comments]
    lines.append("agent_id,timestamp,origin,destination,link_seq")
    routes: dict[Path, str] = {}  # each distinct route's text, formatted once
    for ob in observations:
        route = routes.get(ob.path)
        if route is None:
            _check_ids("node", (ob.path.origin, ob.path.destination))
            seq = ";".join(map(str, ob.path.links))
            route = routes[ob.path] = f"{ob.path.origin},{ob.path.destination},{seq}"
        lines.append(f"{ob.agent_id},{_format_float(ob.timestamp)},{route}")
    _write_lines(path, lines)
