"""Network data model and file ingestion.

Directed graphs with integer link ids and opaque string node ids, plus the
route, demand, capacity, and observation records that every solver in the
package consumes.  All types are immutable after construction and safe to
share across concurrent tasks.

File formats (UTF-8, comma separated, mandatory header, ``#`` comment lines
ignored, surrounding whitespace trimmed):

* links:        ``link_id,start_node,end_node,cost``
* demand:       ``origin,destination,flow``
* capacities:   ``link_id,capacity`` where capacity is a positive number or
                the literal ``priced`` for links whose capacity is latent and
                only the dual price is of interest
* observations: ``agent_id,timestamp,origin,destination,link_seq`` with
                ``link_seq`` a ``;``-separated list of link ids and an
                optional (possibly empty) timestamp
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path as FilePath
from typing import Iterable, Mapping

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

    @property
    def is_fully_numeric(self) -> bool:
        return all(cap is not None for cap in self.entries.values())


@dataclass(frozen=True)
class Observation:
    """One agent's revealed route with a flow weight and optional metadata."""

    agent_id: str
    path: Path
    weight: float = 1.0
    timestamp: float | None = None
    subnetwork: frozenset[LinkId] | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.weight) or self.weight <= 0:
            raise DataError(f"observation {self.agent_id!r} has non-positive weight")
        if self.subnetwork is not None:
            outside = [l for l in self.path.links if l not in self.subnetwork]
            if outside:
                raise DataError(
                    f"observation {self.agent_id!r} uses links {outside} outside its subnetwork"
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
    origin, destination = od
    if origin == destination:
        return []
    found: list[Path] = []

    def dfs(node: NodeId, visited: set[NodeId], seq: list[LinkId]) -> None:
        if node == destination:
            found.append(Path(origin, destination, tuple(seq)))
            return
        for link in net.outgoing(node):
            if link.head in visited:
                continue
            seq.append(link.id)
            visited.add(link.head)
            dfs(link.head, visited, seq)
            visited.remove(link.head)
            seq.pop()

    if origin in net.nodes and destination in net.nodes:
        dfs(origin, {origin}, [])
    base = net.base_costs()
    found.sort(key=lambda p: (path_cost(net, base, p), p.links))
    return found[:max_paths]


# ---------------------------------------------------------------------------
# file ingestion
# ---------------------------------------------------------------------------


def _read_rows(path: FilePath | str, expected_header: str) -> list[tuple[int, list[str]]]:
    """Yield (line_number, fields) for data rows, checking the header."""

    fp = FilePath(path)
    try:
        text = fp.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
        raise DataError(f"cannot read {fp}: {exc}") from None
    rows: list[tuple[int, list[str]]] = []
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            got = [f.strip() for f in line.split(",")]
            want = expected_header.split(",")
            if got != want:
                raise DataError(
                    f"{fp}:{lineno}: expected header {expected_header!r}, got {line!r}"
                )
            header_seen = True
            continue
        rows.append((lineno, [f.strip() for f in line.split(",")]))
    if not header_seen:
        raise DataError(f"{fp}: missing header row {expected_header!r}")
    return rows


def load_network(links_file: FilePath | str) -> Network:
    """Load a network from a ``link_id,start_node,end_node,cost`` file."""

    links = []
    for lineno, fields in _read_rows(links_file, "link_id,start_node,end_node,cost"):
        if len(fields) != 4:
            raise DataError(f"{links_file}:{lineno}: expected 4 fields, got {len(fields)}")
        try:
            link_id = int(fields[0])
            cost = float(fields[3])
        except ValueError as exc:
            raise DataError(f"{links_file}:{lineno}: {exc}") from None
        if not fields[1] or not fields[2]:
            raise DataError(f"{links_file}:{lineno}: empty node id")
        try:
            links.append(Link(link_id, fields[1], fields[2], cost))
        except DataError as exc:
            raise DataError(f"{links_file}:{lineno}: {exc}") from None
    if not links:
        raise DataError(f"{links_file}: no links")
    return Network(links)


def write_network(net: Network, path: FilePath | str) -> None:
    lines = ["link_id,start_node,end_node,cost"]
    for link in net.links:
        cost = link.base_cost
        cost_str = repr(int(cost)) if float(cost).is_integer() else repr(cost)
        lines.append(f"{link.id},{link.tail},{link.head},{cost_str}")
    FilePath(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_demand(path: FilePath | str, net: Network | None = None) -> DemandTable:
    entries = []
    for lineno, fields in _read_rows(path, "origin,destination,flow"):
        if len(fields) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 fields, got {len(fields)}")
        try:
            entries.append(DemandEntry(fields[0], fields[1], float(fields[2])))
        except (ValueError, DataError) as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
    table = DemandTable(tuple(entries))
    if net is not None:
        table.validate_against(net)
    return table


def load_capacities(path: FilePath | str, net: Network | None = None) -> CapacitySpec:
    entries: dict[LinkId, float | None] = {}
    for lineno, fields in _read_rows(path, "link_id,capacity"):
        if len(fields) != 2:
            raise DataError(f"{path}:{lineno}: expected 2 fields, got {len(fields)}")
        try:
            link_id = int(fields[0])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        if link_id in entries:
            raise DataError(f"{path}:{lineno}: duplicate capacity entry for link {link_id}")
        if fields[1].lower() == "priced":
            entries[link_id] = PRICED_ONLY
        else:
            try:
                entries[link_id] = float(fields[1])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
    spec = CapacitySpec(entries)
    if net is not None:
        spec.validate_against(net)
    return spec


def load_observations(path: FilePath | str, net: Network) -> list[Observation]:
    observations = []
    header = "agent_id,timestamp,origin,destination,link_seq"
    for lineno, fields in _read_rows(path, header):
        if len(fields) != 5:
            raise DataError(f"{path}:{lineno}: expected 5 fields, got {len(fields)}")
        agent_id, ts_str, origin, destination, seq_str = fields
        if not agent_id:
            raise DataError(f"{path}:{lineno}: empty agent_id")
        try:
            timestamp = float(ts_str) if ts_str else None
            links = tuple(int(tok) for tok in seq_str.split(";") if tok)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        try:
            route = Path(origin, destination, links)
            validate_path(net, route)
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        observations.append(Observation(agent_id, route, timestamp=timestamp))
    return observations


def write_observations(
    observations: Iterable[Observation],
    path: FilePath | str,
    header_comments: Iterable[str] = (),
) -> None:
    lines = [f"# {comment}" for comment in header_comments]
    lines.append("agent_id,timestamp,origin,destination,link_seq")
    for ob in observations:
        ts = "" if ob.timestamp is None else format(ob.timestamp, "g")
        seq = ";".join(str(l) for l in ob.path.links)
        lines.append(f"{ob.agent_id},{ts},{ob.path.origin},{ob.path.destination},{seq}")
    FilePath(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
