"""Phenotype ontology: parsing, graph queries, and information-content similarity.

The ontology is a rooted DAG of terms connected by is_a edges. Obsolete terms
are parsed and retained for provenance but excluded from every graph query,
so downstream retrieval, sampling, and similarity never see them.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import DataError, ParseError, StructuralError, UnknownTermError

TERM_ID_RE = re.compile(r"^HP:\d{7}$")

_OBO_QUOTED_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')


@dataclass
class TermRecord:
    """One ontology term as read from the source file."""

    id: str
    name: str
    synonyms: list[str] = field(default_factory=list)
    definition: str = ""
    parents: list[str] = field(default_factory=list)
    obsolete: bool = False


class Ontology:
    """Validated, immutable view of a parsed ontology.

    Construction enforces the structural invariants: ids match ``HP:`` followed
    by seven digits, every is_a target resolves, the full is_a graph is acyclic,
    and the non-obsolete subgraph has exactly one root every term can reach.

    Each non-obsolete term has a dense id: its position in ``ids``, the
    non-obsolete term ids in sorted order. The self-inclusive ancestor closure
    of every such term is one int32 array of dense ids in CSR form, with an
    explicit start per row: the row of dense id ``i`` is ``closure[start[i] :
    start[i] + size[i]]``, each ancestor once, in no particular order. Rows
    are stored one longest-path level after another, because a level's rows
    are built from those of the levels above it. ``closure_rows`` gathers
    rows for the count and similarity kernels.

    Three parts are built on first use, each from data that never changes and
    stored with one assignment, so instances are safe to share across
    threads: the parent rows and the child rows of every live term, in the
    same form (``parent_rows``, ``child_rows``, ``hops``), built from each
    record's parent indices; the live terms' names (``names``); and, on an
    ontology that ``from_arrays`` restored, the records in ``terms``, which
    steps that read no synonym or definition never build: such an ontology
    cuts ``names`` straight from its strings.
    """

    def __init__(self, terms: Mapping[str, TermRecord]):
        self.terms: dict[str, TermRecord] = dict(terms)
        self._validate_records()
        self._validate_edges()
        levels = self._topological_levels()
        records = list(self.terms.values())
        row = {t: i for i, t in enumerate(self.terms)}
        self._parent_count = np.array([len(r.parents) for r in records], dtype=np.int64)
        self._parents = np.array([row[p] for r in records for p in r.parents], dtype=np.int64)
        self._index(list(self.terms), np.array([r.obsolete for r in records], dtype=np.bool_))
        self._closure, self._closure_start, self._closure_size = self._close(levels)
        self._edges: tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]] | None = None

    @functools.cached_property
    def terms(self) -> dict[str, TermRecord]:
        """Every record, obsolete ones too, by id in file order; the
        constructor sets them, and a restored ontology builds them here."""
        return self._records()

    @functools.cached_property
    def names(self) -> list[str]:
        """The name of each live term, by dense id; a restored ontology cuts
        them from its strings without building ``terms``."""
        return self._names()

    def _names(self) -> list[str]:
        return [self.terms[t].name for t in self.ids]

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "Ontology":
        """The ontology whose ``to_arrays`` these are, rebuilt without
        validating, sorting or closing it again; the records wait until
        ``terms`` is first read.

        The constructor enforced its invariants when the arrays were written;
        since they come back from a file, each is checked here for dtype,
        length and index bounds: a violation raises ValueError, and a missing
        or repeated root StructuralError.
        """
        text = array_member(arrays, "text", np.uint8)
        lens = array_member(arrays, "text_len", np.int64)
        obsolete = array_member(arrays, "obsolete", np.bool_)
        n = len(obsolete)
        synonym_count = array_member(arrays, "synonym_count", np.int64, n)
        parent_count = array_member(arrays, "parent_count", np.int64, n)
        parents = array_member(arrays, "parents", np.int64)
        if not (
            _in_range(lens, 0, len(text))
            and _in_range(synonym_count, 0, len(lens))
            and _in_range(parent_count, 0, len(parents))
            and len(lens) == 3 * n + synonym_count.sum()
            and len(parents) == parent_count.sum()
            and _in_range(parents, 0, n - 1)
        ):
            raise ValueError("string or parent counts disagree with the records")
        if (obsolete[parents] & ~np.repeat(obsolete, parent_count)).any():
            raise ValueError("a live term has an obsolete parent")
        chars = text.tobytes().decode("utf-8", "surrogatepass")
        if len(chars) != lens.sum():
            raise ValueError("text is not as long as its strings")
        ids = _split(chars, lens[:n])
        if len(set(ids)) != n:
            raise ValueError("repeated term id")
        o = cls.__new__(cls)
        o._parent_count, o._parents = parent_count, parents
        o._index(ids, obsolete)
        live = len(o.ids)
        closure = array_member(arrays, "closure", np.int32)
        start = array_member(arrays, "closure_start", np.int64, live)
        size = array_member(arrays, "closure_size", np.int64, live)
        if not (
            _in_range(closure, 0, live - 1)
            and _in_range(start, 0, len(closure))
            and _in_range(size, 1, len(closure))
            and (size <= len(closure) - start).all()
        ):
            raise ValueError("closure index out of range")
        o._closure, o._closure_start, o._closure_size = closure, start, size
        o._edges = None

        def records() -> dict[str, TermRecord]:
            strings = _split(chars, lens)
            return {
                tid: TermRecord(tid, name, synonyms, definition, parent_ids, flag)
                for tid, name, definition, synonyms, parent_ids, flag in zip(
                    ids,
                    strings[n : 2 * n],
                    strings[2 * n : 3 * n],
                    _split(strings[3 * n :], synonym_count),
                    _split([ids[j] for j in parents.tolist()], parent_count),
                    obsolete.tolist(),
                )
            }

        def names() -> list[str]:
            own = _split(chars, lens[: 2 * n])[n:]
            return [own[r] for r in o._rows.tolist()]

        o._records, o._names = records, names
        return o

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The records and the ancestor closure as plain arrays, for
        ``from_arrays``.

        The strings (every record's id, then every name, every definition and
        every synonym, in ``terms`` order) are one UTF-8 blob, encoded with
        ``surrogatepass`` so that any ``str`` survives, plus the length of
        each in characters. Parents are record indices.
        """
        records = list(self.terms.values())
        strings = [r.id for r in records] + [r.name for r in records]
        strings += [r.definition for r in records]
        strings += [x for r in records for x in r.synonyms]
        text = "".join(strings).encode("utf-8", "surrogatepass")
        return {
            "text": np.frombuffer(text, dtype=np.uint8),
            "text_len": np.array([len(x) for x in strings], dtype=np.int64),
            "synonym_count": np.array([len(r.synonyms) for r in records], dtype=np.int64),
            "parent_count": self._parent_count,
            "parents": self._parents,
            "obsolete": np.array([r.obsolete for r in records], dtype=np.bool_),
            "closure": self._closure,
            "closure_start": self._closure_start,
            "closure_size": self._closure_size,
        }

    # -- construction helpers -------------------------------------------------

    def _index(self, record_ids: list[str], obsolete: np.ndarray) -> None:
        """Set ``ids``, the dense index and ``root`` from every record's id and
        obsolete flag, and ``_rows``, the record index of each dense id."""
        # Dense id i names ids[i]; sorted, so dense order is term id order.
        rows = sorted(np.flatnonzero(~obsolete).tolist(), key=record_ids.__getitem__)
        self._rows = np.array(rows, dtype=np.int64)
        self.ids: tuple[str, ...] = tuple(record_ids[r] for r in rows)
        # The dense id of each live term: a term is live exactly when it is here.
        self.dense: dict[str, int] = {t: i for i, t in enumerate(self.ids)}
        roots = np.flatnonzero((self._parent_count == 0) & ~obsolete).tolist()
        self.root: str = _only_root(sorted(record_ids[r] for r in roots))

    def _edge_rows(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """(data, start, size) of the parent rows and of the child rows of
        every live term, built on first use.

        A parent row lists the term's is_a targets in record order. The child
        rows are the edges stably sorted by parent, so each lists its
        children in ascending dense id.
        """
        if self._edges is None:
            n = len(self.ids)
            dense = np.full(len(self._parent_count), -1, dtype=np.int64)
            dense[self._rows] = np.arange(n)  # live parents only, so no -1 is read
            first = np.cumsum(self._parent_count) - self._parent_count
            parents, size = _segments(self._parents, first, self._parent_count, self._rows)
            up = dense[parents]
            child = np.repeat(np.arange(n, dtype=np.int64), size)
            down = child[np.argsort(up, kind="stable")]
            down_size = np.bincount(up, minlength=n)
            self._edges = (
                (up, np.cumsum(size) - size, size),
                (down, np.cumsum(down_size) - down_size, down_size),
            )
        return self._edges

    def _validate_records(self) -> None:
        for tid, rec in self.terms.items():
            if tid != rec.id:
                raise StructuralError(f"term keyed {tid} carries id {rec.id}")
            if not TERM_ID_RE.match(rec.id):
                raise StructuralError(f"malformed term id {rec.id!r}")
            if not rec.obsolete and not rec.name:
                raise StructuralError(f"term {rec.id} has an empty name")

    def _validate_edges(self) -> None:
        for rec in self.terms.values():
            for p in rec.parents:
                target = self.terms.get(p)
                if target is None:
                    raise StructuralError(
                        f"term {rec.id} lists unknown parent {p}"
                    )
                if not rec.obsolete and target.obsolete:
                    raise StructuralError(
                        f"term {rec.id} lists obsolete parent {p}"
                    )

    def _topological_levels(self) -> list[list[str]]:
        """Kahn's order of every term, obsolete ones included, in batches.

        Batch k holds the terms whose longest is_a path up to a parentless
        term has k edges, so every parent lies in an earlier batch. Raises
        StructuralError naming a term on a cycle when one exists.
        """
        children: dict[str, list[str]] = {t: [] for t in self.terms}
        pending: dict[str, int] = {}
        for rec in self.terms.values():
            pending[rec.id] = len(rec.parents)
            for p in rec.parents:
                children[p].append(rec.id)
        levels = [[t for t, n in pending.items() if n == 0]]
        ordered = 0
        while levels[-1]:
            ordered += len(levels[-1])
            ready: list[str] = []
            for t in levels[-1]:
                for c in children[t]:
                    pending[c] -= 1
                    if pending[c] == 0:
                        ready.append(c)
            levels.append(ready)
        if ordered < len(self.terms):
            # Every unordered term has an unordered parent; following them
            # must revisit a term, and that term lies on a cycle.
            t = min(t for t, n in pending.items() if n > 0)
            seen: set[str] = set()
            while t not in seen:
                seen.add(t)
                t = next(p for p in self.terms[t].parents if pending[p] > 0)
            raise StructuralError(f"is_a cycle involving {t}")
        return levels[:-1]

    def _close(
        self, levels: list[list[str]]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Closure rows of every live term, one longest-path level at a time.

        Returns (closure, start, size) as described on the class. A level's
        rows are its terms plus the rows of their parents, which all lie in
        earlier levels: one gather, int64 keys ``position * n + ancestor``,
        one sort and a neighbour mask to drop repeats (rows come out
        ascending).
        """
        n = len(self.ids)
        dense = self.dense
        terms = self.terms
        order: list[int] = []  # live dense ids, level after level
        # Per is_a edge: the child's position in its level times n, the parent.
        owner: list[int] = []
        parent: list[int] = []
        steps: list[tuple[int, int]] = []  # (order end, edge end) per level
        for batch in levels:
            level = [t for t in batch if t in dense]
            if not level:
                continue
            order += [dense[t] for t in level]
            owner += [k * n for k, t in enumerate(level) for _ in terms[t].parents]
            parent += [dense[p] for t in level for p in terms[t].parents]
            steps.append((len(order), len(parent)))
        order_a = np.array(order, dtype=np.int64)
        owner_a = np.array(owner, dtype=np.int64)
        parent_a = np.array(parent, dtype=np.int64)
        closure = np.empty(2 * n, dtype=np.int32)
        start = np.zeros(n, dtype=np.int64)
        size = np.zeros(n, dtype=np.int64)
        filled = t0 = e0 = 0
        for t1, e1 in steps:
            terms = order_a[t0:t1]
            ancestors, lens = _segments(closure, start, size, parent_a[e0:e1])
            keys = np.repeat(owner_a[e0:e1], lens)
            keys += ancestors
            own = np.arange(len(terms), dtype=np.int64) * n + terms
            keys = _distinct(np.concatenate((keys, own)))
            position = keys // n
            sizes = np.bincount(position, minlength=len(terms))
            rows = keys - position * n
            closure = _reserve(closure, filled, len(rows))
            closure[filled : filled + len(rows)] = rows
            start[terms] = filled + np.cumsum(sizes) - sizes
            size[terms] = sizes
            filled += len(rows)
            t0, e0 = t1, e1
        return closure[:filled].copy(), start, size

    # -- queries ---------------------------------------------------------------

    def __contains__(self, tid: str) -> bool:
        return tid in self.terms

    def require(self, tid: str) -> TermRecord:
        """Return the non-obsolete record for ``tid`` or raise UnknownTermError."""
        rec = self.terms.get(tid)
        if rec is None:
            raise UnknownTermError(f"unknown term id {tid}")
        if rec.obsolete:
            raise UnknownTermError(f"term {tid} is obsolete")
        return rec

    # A copy of ``ids``, which the package reads instead. Its last caller is
    # ``perfbench/launch.py``, until the benchmark reads in-package telemetry
    # (the ROADMAP telemetry item).
    def non_obsolete_ids(self) -> list[str]:
        return list(self.ids)

    def dense_ids(self, tids: Iterable[str]) -> np.ndarray:
        """Dense ids (positions in ``ids``) of ``tids``, in order, as int64.

        Raises UnknownTermError for an unknown or obsolete id.
        """
        try:
            return np.array([self.dense[t] for t in tids], dtype=np.int64)
        except KeyError as e:
            self.require(e.args[0])
            raise

    def closure_rows(self, dense: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Self-inclusive ancestor rows of the ``dense`` ids, concatenated, as
        int32 dense ids, and the length of each row."""
        return _segments(self._closure, self._closure_start, self._closure_size, dense)

    def parent_rows(self, dense: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Parents of the ``dense`` ids, concatenated, and the length of each row."""
        return _segments(*self._edge_rows()[0], dense)

    def child_rows(self, dense: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Children of the ``dense`` ids, concatenated, and the length of each row."""
        return _segments(*self._edge_rows()[1], dense)

    def hops(
        self, start: np.ndarray, direction: str, limit: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fewest is_a hops of each walk from its start keys to each term it reaches.

        A key ``walk * len(ids) + dense_id`` names a term within one walk, so
        plain dense ids start one walk from all of them. ``direction`` is
        ``"up"`` (to parents), ``"down"`` (to children) or ``"both"``;
        ``limit`` caps the hop count (None walks the whole reachable
        subgraph). Returns the reached keys, start keys included, and their
        hop counts, nearest first and each hop in ascending key order.
        """
        up, down = self._edge_rows()
        rows = {"up": (up,), "down": (down,), "both": (up, down)}.get(direction)
        if rows is None:
            raise ValueError(f"direction must be up, down or both, not {direction!r}")
        n = len(self.ids)
        frontier = _distinct(np.array(start, dtype=np.int64))
        walks = int(frontier[-1]) // n + 1 if len(frontier) else 0
        seen = np.zeros(walks * n, dtype=bool)
        seen[frontier] = True
        keys = [frontier]
        while len(frontier) and (limit is None or len(keys) <= limit):
            walk = frontier // n * n
            reached = []
            for data, first, size in rows:
                near, lens = _segments(data, first, size, frontier - walk)
                reached.append(np.repeat(walk, lens) + near)
            frontier = np.concatenate(reached)
            frontier = _distinct(frontier[~seen[frontier]])
            seen[frontier] = True
            keys.append(frontier)
        hops = np.repeat(np.arange(len(keys)), [len(k) for k in keys])
        return np.concatenate(keys), hops


def _only_root(roots: Iterable[str]) -> str:
    """The one parentless live term, in sorted order; raises StructuralError
    when there is none or more than one."""
    roots = list(roots)
    if not roots:
        raise StructuralError("ontology has no non-obsolete root term")
    if len(roots) > 1:
        raise StructuralError(
            "ontology has multiple root candidates: " + ", ".join(roots)
        )
    return roots[0]


def _segments(
    data: np.ndarray, start: np.ndarray, size: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``data[start[r] : start[r] + size[r]]`` for each r in ``rows``, concatenated,
    and the length of each."""
    lens = size[rows]
    ends = np.cumsum(lens)
    total = int(ends[-1]) if len(ends) else 0
    return data[np.repeat(start[rows] - ends + lens, lens) + np.arange(total)], lens


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of ``keys``, ascending: one sort of ``keys`` in
    place and a neighbour mask."""
    keys.sort()
    keep = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def array_member(
    arrays: Mapping[str, np.ndarray], name: str, dtype, length: int | None = None
) -> np.ndarray:
    """``arrays[name]``, checked to be one-dimensional, of ``dtype`` and, when
    given, of ``length``; raises ValueError (KeyError when absent) otherwise."""
    a = arrays[name]
    if a.dtype != np.dtype(dtype) or a.ndim != 1:
        raise ValueError(f"{name}: {a.dtype} array of shape {a.shape}, not 1-d {dtype}")
    if length is not None and len(a) != length:
        raise ValueError(f"{name}: {len(a)} entries, not {length}")
    return a


def _split(items, counts: np.ndarray) -> list:
    """``items`` cut into consecutive slices of the given lengths."""
    ends = np.cumsum(counts).tolist()
    return [items[a:b] for a, b in zip([0, *ends], ends)]


def _in_range(a: np.ndarray, lo: int, hi: int) -> bool:
    """Every entry of ``a`` lies in ``[lo, hi]``."""
    return bool(((lo <= a) & (a <= hi)).all())


def _reserve(buf: np.ndarray, filled: int, more: int) -> np.ndarray:
    """``buf``, or a larger copy of its first ``filled`` entries, with room for
    ``more`` entries after them; capacity at least doubles on each copy."""
    if filled + more <= len(buf):
        return buf
    grown = np.empty(max(2 * len(buf), filled + more), dtype=buf.dtype)
    grown[:filled] = buf[:filled]
    return grown


# -- parsing -------------------------------------------------------------------


def _obo_unquote(line: str, tag: str, stanza_idx: int) -> str:
    m = _OBO_QUOTED_RE.search(line)
    if m is None:
        raise ParseError(f"stanza {stanza_idx}: {tag} line has no quoted string")
    return m.group(1).replace('\\"', '"').replace("\\\\", "\\")


def parse_obo(text: str) -> Ontology:
    """Parse OBO-format text into a validated Ontology.

    Recognizes the tags id, name, synonym, def, is_a, and is_obsolete inside
    [Term] stanzas; all other stanza types and tags are ignored. Stanza indexes
    in error messages are 1-based over [Term] stanzas.
    """
    terms: dict[str, TermRecord] = {}
    stanza: dict | None = None
    stanza_idx = 0

    def flush() -> None:
        if stanza is None:
            return
        if not stanza.get("id"):
            raise ParseError(f"stanza {stanza['n']}: missing id")
        if stanza.get("name") is None:
            raise ParseError(f"stanza {stanza['n']}: missing name")
        rec = TermRecord(
            id=stanza["id"],
            name=stanza["name"],
            synonyms=stanza["synonyms"],
            definition=stanza.get("def") or "",
            parents=stanza["is_a"],
            obsolete=stanza["obsolete"],
        )
        if rec.id in terms:
            raise ParseError(f"stanza {stanza['n']}: duplicate term id {rec.id}")
        terms[rec.id] = rec

    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("!"):
            continue
        if line.startswith("["):
            flush()
            if line == "[Term]":
                stanza_idx += 1
                stanza = {
                    "n": stanza_idx,
                    "id": None,
                    "name": None,
                    "synonyms": [],
                    "is_a": [],
                    "obsolete": False,
                }
            else:
                stanza = None
            continue
        if stanza is None or ":" not in line:
            continue
        tag, _, value = line.partition(":")
        tag = tag.strip()
        value = value.strip()
        if tag == "id":
            stanza["id"] = value
        elif tag == "name":
            if stanza["name"] is None:
                stanza["name"] = value
        elif tag == "synonym":
            stanza["synonyms"].append(_obo_unquote(value, "synonym", stanza["n"]))
        elif tag == "def":
            stanza["def"] = _obo_unquote(value, "def", stanza["n"])
        elif tag == "is_a":
            target = value.split("!", 1)[0].strip()
            target = target.split()[0] if target else ""
            if not target:
                raise ParseError(f"stanza {stanza['n']}: empty is_a target")
            stanza["is_a"].append(target)
        elif tag == "is_obsolete":
            stanza["obsolete"] = value.lower().startswith("true")
    flush()
    if not terms:
        raise ParseError("no [Term] stanzas found")
    return Ontology(terms)


_TEXT = {str}


def parse_ontology_json(text: str) -> Ontology:
    """Parse the JSON ontology form: a list of term objects, or {"terms": [...]}.

    Each object carries id, name, and optionally synonyms, def, is_a and
    is_obsolete (a JSON boolean). Validation is identical to the OBO path.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid ontology JSON: {e}") from e
    except RecursionError:
        raise ParseError("invalid ontology JSON: nested too deeply to decode") from None
    if isinstance(doc, dict):
        doc = doc.get("terms")
    if not isinstance(doc, list):
        raise ParseError("ontology JSON must be a list of terms or {'terms': [...]}")
    terms: dict[str, TermRecord] = {}
    for i, obj in enumerate(doc, start=1):
        if not isinstance(obj, dict):
            raise ParseError(f"term {i}: not an object")
        tid = obj.get("id")
        name = obj.get("name")
        if not tid:
            raise ParseError(f"term {i}: missing id")
        if name is None:
            raise ParseError(f"term {i}: missing name")
        synonyms = obj.get("synonyms") or []
        definition = obj.get("def") or ""
        parents = obj.get("is_a") or []
        # json.loads makes exact str and list objects, so exact type checks
        # accept what isinstance would.
        if not (
            type(tid) is str
            and type(name) is str
            and type(definition) is str
            and type(synonyms) is list
            and type(parents) is list
            and {*map(type, synonyms), *map(type, parents)} <= _TEXT
        ):
            raise ParseError(f"term {i}: id, name, def, synonyms and is_a must be text")
        if tid in terms:
            raise ParseError(f"term {i}: duplicate term id {tid}")
        obsolete = obj.get("is_obsolete", False)
        if type(obsolete) is not bool:
            raise ParseError(f"term {tid}: is_obsolete must be true or false")
        terms[tid] = TermRecord(tid, name, synonyms, definition, parents, obsolete)
    if not terms:
        raise ParseError("ontology JSON contains no terms")
    return Ontology(terms)


# -- information content ---------------------------------------------------------


@dataclass(frozen=True)
class OntologyStats:
    """Disease-annotation counts and information content per non-obsolete term.

    Both arrays are indexed by dense id (``o.ids`` order). annot_count (int64)
    counts distinct diseases annotated to a term or any descendant. ic
    (float64) is the negative log fraction of annotated diseases; terms no
    disease reaches get the add-one ceiling -ln(1/(total+1)).
    """

    annot_count: np.ndarray
    total_diseases: int
    ic: np.ndarray


def propagate_counts(
    o: Ontology,
    terms: np.ndarray,
    docs: np.ndarray,
    groups: np.ndarray | None = None,
    group_count: int = 0,
) -> np.ndarray:
    """Count, per term, the distinct documents annotated to it or a descendant.

    Row ``i`` annotates document ``docs[i]`` (a non-negative int) to dense id
    ``terms[i]``; with ``groups``, row ``i`` also belongs to group
    ``groups[i]`` in ``[0, group_count)``. Returns int64 counts of shape
    ``(1 + group_count, len(o.ids))``: row 0 over every row, row ``1 + g``
    over the rows of group g alone.

    One walk: the closure rows of all rows are gathered once into int64
    keys ``(document * n + ancestor) * group_count + group``; one sort and a
    neighbour mask keep each key once, a second mask each (document,
    ancestor) pair once, and one bincount per row of the result counts the
    ancestors.
    """
    n = len(o.ids)
    ancestors, lens = o.closure_rows(terms)
    keys = np.repeat(np.asarray(docs, dtype=np.int64) * n, lens)
    keys += ancestors
    counts = np.empty((1 + group_count, n), dtype=np.int64)
    if groups is None:
        counts[0] = np.bincount(_distinct(keys) % n, minlength=n)
        return counts
    keys *= group_count
    keys += np.repeat(np.asarray(groups, dtype=np.int64), lens)
    keys = _distinct(keys)
    pairs, group = np.divmod(keys, group_count)
    first = np.ones(len(pairs), dtype=bool)
    np.not_equal(pairs[1:], pairs[:-1], out=first[1:])
    ancestor = pairs % n
    counts[0] = np.bincount(ancestor[first], minlength=n)
    counts[1:] = np.bincount(group * n + ancestor, minlength=group_count * n).reshape(-1, n)
    return counts


def compute_stats(o: Ontology, kb) -> OntologyStats:
    """Derive IC from the KB's disease annotations propagated to ancestors.

    ``kb`` is an ``annotations.AnnotationKB`` loaded against ``o``; its
    ``disease_counts`` pool the sources (a disease id names one document
    regardless of source). IC is ``-math.log(c / total)`` per term, as in
    Resnik (1995), one term at a time, so its bits do not depend on the CPU.
    """
    total = kb.total_diseases
    if total == 0:
        raise DataError("annotation KB holds no diseases; IC is undefined")
    count = kb.disease_counts(o)[0]
    ceiling = -math.log(1.0 / (total + 1))
    ic = np.array(
        [-math.log(c / total) if c > 0 else ceiling for c in count.tolist()],
        dtype=np.float64,
    )
    return OntologyStats(annot_count=count, total_diseases=total, ic=ic)


# -- similarity ------------------------------------------------------------------


def lin_similarity(
    o: Ontology, s: OntologyStats, rows: Iterable[str], cols: Iterable[str]
) -> np.ndarray:
    """Lin similarity 2*ic(mica) / (ic(a) + ic(b)) of every (row, col) pair,
    as a (len(rows), len(cols)) float64 matrix with values in [0, 1].

    The most informative common ancestor's IC is the largest IC in a row
    term's ancestor closure among those that the column term's closure also
    holds: each column's closure is one row of a boolean mask over the
    ontology, and one ``np.maximum.reduceat`` takes the maxima over the row
    terms' concatenated closures. Every pair shares the root, and IC is never
    negative, so a 0 where the mask is unset never exceeds the true maximum.
    When both terms carry zero IC the ratio is undefined; identity maps to 1
    and distinct terms to 0. Unknown and obsolete ids raise UnknownTermError.
    """
    a = o.dense_ids(rows)
    b = o.dense_ids(cols)
    col_anc, col_lens = o.closure_rows(b)
    mask = np.zeros((len(b), len(o.ids)), dtype=bool)
    mask[np.repeat(np.arange(len(b)), col_lens), col_anc] = True
    row_anc, row_lens = o.closure_rows(a)
    common = np.where(mask[:, row_anc], s.ic[row_anc], 0.0)
    starts = np.cumsum(row_lens) - row_lens
    mica_ic = np.maximum.reduceat(common, starts, axis=1).T
    denom = s.ic[a][:, None] + s.ic[b]
    out = (a[:, None] == b).astype(np.float64)
    np.divide(2.0 * mica_ic, denom, out=out, where=denom != 0.0)
    # A term that every disease reaches, the root among them, has IC -0.0;
    # abs keeps a ratio over such a MICA from reading -0.0.
    return np.abs(out, out=out)
