"""Phenotype ontology: parsing, graph queries, and information-content similarity.

The ontology is a rooted DAG of terms connected by is_a edges. Obsolete terms
are parsed and retained for provenance but excluded from every graph query,
so downstream retrieval, sampling, and similarity never see them.
"""

from __future__ import annotations

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
    rows for the count and similarity kernels. ``depth()`` builds the depth
    map on its first call. That cache is the only state written after
    construction; it is computed from data that never changes and stored with
    one assignment, so instances are safe to share across threads.
    """

    def __init__(self, terms: Mapping[str, TermRecord]):
        self.terms: dict[str, TermRecord] = dict(terms)
        self._validate_records()
        self._validate_edges()
        levels = self._topological_levels()
        self._index()
        self._closure, self._closure_start, self._closure_size = self._close(levels)
        self._depth: dict[str, int] | None = None

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "Ontology":
        """The ontology whose ``to_arrays`` these are, rebuilt without
        validating, sorting or closing it again.

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
        strings = _split(chars, lens)
        ids = strings[:n]
        o = cls.__new__(cls)
        o.terms = {
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
        if len(o.terms) != n:
            raise ValueError("repeated term id")
        o._index()
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
        o._depth = None
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
        row = {t: i for i, t in enumerate(self.terms)}
        strings = [r.id for r in records] + [r.name for r in records]
        strings += [r.definition for r in records]
        strings += [x for r in records for x in r.synonyms]
        text = "".join(strings).encode("utf-8", "surrogatepass")
        return {
            "text": np.frombuffer(text, dtype=np.uint8),
            "text_len": np.array([len(x) for x in strings], dtype=np.int64),
            "synonym_count": np.array([len(r.synonyms) for r in records], dtype=np.int64),
            "parent_count": np.array([len(r.parents) for r in records], dtype=np.int64),
            "parents": np.array(
                [row[p] for r in records for p in r.parents], dtype=np.int64
            ),
            "obsolete": np.array([r.obsolete for r in records], dtype=np.bool_),
            "closure": self._closure,
            "closure_start": self._closure_start,
            "closure_size": self._closure_size,
        }

    # -- construction helpers -------------------------------------------------

    def _index(self) -> None:
        """Set ``ids``, the dense index, the parent and child lists and the root."""
        # Dense id i names ids[i]; sorted, so dense order is term id order.
        self.ids: tuple[str, ...] = tuple(
            sorted(t for t, rec in self.terms.items() if not rec.obsolete)
        )
        self._dense: dict[str, int] = {t: i for i, t in enumerate(self.ids)}
        self._parents: dict[str, list[str]] = {
            t: self.terms[t].parents for t in self.ids
        }
        # Filled in sorted id order, so every child list comes out sorted.
        self._children: dict[str, list[str]] = {t: [] for t in self.ids}
        for t, parents in self._parents.items():
            for p in parents:
                self._children[p].append(t)
        roots = [t for t, parents in self._parents.items() if not parents]
        if not roots:
            raise StructuralError("ontology has no non-obsolete root term")
        if len(roots) > 1:
            raise StructuralError(
                "ontology has multiple root candidates: " + ", ".join(roots)
            )
        self.root: str = roots[0]

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
        dense = self._dense
        parents = self._parents
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
            owner += [k * n for k, t in enumerate(level) for _ in parents[t]]
            parent += [dense[p] for t in level for p in parents[t]]
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
            keys = np.concatenate((keys, own))
            keys.sort()
            keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
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

    def parents(self, tid: str) -> list[str]:
        return list(self.require(tid).parents)

    def children(self, tid: str) -> list[str]:
        self.require(tid)
        return list(self._children[tid])

    def dense_ids(self, tids: Iterable[str]) -> np.ndarray:
        """Dense ids (positions in ``ids``) of ``tids``, in order, as int64.

        Raises UnknownTermError for an unknown or obsolete id.
        """
        try:
            return np.array([self._dense[t] for t in tids], dtype=np.int64)
        except KeyError as e:
            self.require(e.args[0])
            raise

    def closure_rows(self, dense: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Self-inclusive ancestor rows of the ``dense`` ids, concatenated, as
        int32 dense ids, and the length of each row."""
        return _segments(self._closure, self._closure_start, self._closure_size, dense)

    def hops(
        self, sources: Iterable[str], direction: str, limit: int | None = None
    ) -> dict[str, int]:
        """Fewest is_a hops from any of ``sources`` to each term it reaches.

        ``direction`` is ``"up"`` (to parents), ``"down"`` (to children) or
        ``"both"``. Sources map to 0; ``limit`` caps the hop count (None walks
        the whole reachable subgraph).
        """
        graphs = {
            "up": (self._parents,),
            "down": (self._children,),
            "both": (self._parents, self._children),
        }.get(direction)
        if graphs is None:
            raise ValueError(f"direction must be up, down or both, not {direction!r}")
        dist = {self.require(s).id: 0 for s in sources}
        frontier = list(dist)
        d = 0
        while frontier and (limit is None or d < limit):
            d += 1
            reached: list[str] = []
            for t in frontier:
                for graph in graphs:
                    for n in graph[t]:
                        if n not in dist:
                            dist[n] = d
                            reached.append(n)
            frontier = reached
        return dist

    def depth(self, tid: str) -> int:
        """Fewest is_a hops from the root down to ``tid``."""
        self.require(tid)
        if self._depth is None:
            self._depth = self.hops([self.root], "down")
        return self._depth[tid]


def _segments(
    data: np.ndarray, start: np.ndarray, size: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``data[start[r] : start[r] + size[r]]`` for each r in ``rows``, concatenated,
    and the length of each."""
    lens = size[rows]
    ends = np.cumsum(lens)
    total = int(ends[-1]) if len(ends) else 0
    return data[np.repeat(start[rows] - ends + lens, lens) + np.arange(total)], lens


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


def parse_ontology_json(text: str) -> Ontology:
    """Parse the JSON ontology form: a list of term objects, or {"terms": [...]}.

    Each object carries id, name, and optionally synonyms, def, is_a,
    is_obsolete. Validation is identical to the OBO path.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid ontology JSON: {e}") from e
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
        if not (isinstance(synonyms, list) and isinstance(parents, list)) or not all(
            isinstance(x, str) for x in [tid, name, definition, *synonyms, *parents]
        ):
            raise ParseError(f"term {i}: id, name, def, synonyms and is_a must be text")
        if tid in terms:
            raise ParseError(f"term {i}: duplicate term id {tid}")
        terms[tid] = TermRecord(
            id=tid,
            name=name,
            synonyms=synonyms,
            definition=definition,
            parents=parents,
            obsolete=bool(obj.get("is_obsolete", False)),
        )
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
    o: Ontology, direct: Mapping[str, Iterable[str]]
) -> np.ndarray:
    """Count, per term, the distinct documents annotated to it or a descendant.

    ``direct`` maps term id -> documents annotated directly to that term.
    Returns int64 counts indexed by dense id (``o.ids`` order).
    Each (document, ancestor) pair is one int64 key; a sort and a neighbour
    mask keep each pair once, and one bincount counts the ancestors.
    """
    docs = [d for annotated in direct.values() for d in annotated]
    doc_index = {d: i for i, d in enumerate(dict.fromkeys(docs))}
    per_term = [len(annotated) for annotated in direct.values()]
    terms = np.repeat(o.dense_ids(direct), per_term)
    n = len(o.ids)
    ancestors, lens = o.closure_rows(terms)
    keys = np.repeat(np.array([doc_index[d] for d in docs], dtype=np.int64) * n, lens)
    keys += ancestors
    keys.sort()
    keep = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return np.bincount(keys[keep] % n, minlength=n)


def compute_stats(o: Ontology, kb) -> OntologyStats:
    """Propagate the KB's disease annotations to ancestors and derive IC.

    ``kb`` supplies ``disease_annots``: source -> term -> set of disease ids.
    Sources are pooled (a disease id names one document regardless of source).
    IC is ``-math.log(c / total)`` per term, as in Resnik (1995), one term at
    a time, so its bits do not depend on the CPU.
    """
    pooled: dict[str, set[str]] = {}
    for per_term in kb.disease_annots.values():
        for tid, diseases in per_term.items():
            pooled.setdefault(tid, set()).update(diseases)
    total = len(set().union(*pooled.values()))
    if total == 0:
        raise DataError("annotation KB holds no diseases; IC is undefined")
    count = propagate_counts(o, pooled)
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
