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
    Ancestor closures (self-inclusive) are precomputed for the non-obsolete
    subgraph; instances are safe to share across threads.
    """

    def __init__(self, terms: Mapping[str, TermRecord]):
        self.terms: dict[str, TermRecord] = dict(terms)
        self._validate_records()
        self._validate_edges()
        order = self._topological_order()
        self._non_obsolete: list[str] = sorted(
            t for t, rec in self.terms.items() if not rec.obsolete
        )
        self._parents: dict[str, list[str]] = {
            t: self.terms[t].parents for t in self._non_obsolete
        }
        # Filled in sorted id order, so every child list comes out sorted.
        self._children: dict[str, list[str]] = {t: [] for t in self._non_obsolete}
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
        # Parents precede children in ``order``, so each closure is complete
        # before any child reads it.
        self._ancestors: dict[str, frozenset[str]] = {}
        for t in order:
            if t in self._parents:
                self._ancestors[t] = frozenset(
                    {t}.union(*(self._ancestors[p] for p in self._parents[t]))
                )
        self._depth: dict[str, int] = self.hops([self.root], "down")

    # -- construction helpers -------------------------------------------------

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

    def _topological_order(self) -> list[str]:
        """Kahn's order of every term, obsolete ones included: parents first.

        Raises StructuralError naming a term on a cycle when one exists.
        """
        children: dict[str, list[str]] = {t: [] for t in self.terms}
        pending: dict[str, int] = {}
        for rec in self.terms.values():
            pending[rec.id] = len(rec.parents)
            for p in rec.parents:
                children[p].append(rec.id)
        order = [t for t, n in pending.items() if n == 0]
        for t in order:  # the loop also visits terms appended during it
            for c in children[t]:
                pending[c] -= 1
                if pending[c] == 0:
                    order.append(c)
        if len(order) < len(self.terms):
            # Every unordered term has an unordered parent; following them
            # must revisit a term, and that term lies on a cycle.
            t = min(t for t, n in pending.items() if n > 0)
            seen: set[str] = set()
            while t not in seen:
                seen.add(t)
                t = next(p for p in self.terms[t].parents if pending[p] > 0)
            raise StructuralError(f"is_a cycle involving {t}")
        return order

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

    def non_obsolete_ids(self) -> list[str]:
        return list(self._non_obsolete)

    def parents(self, tid: str) -> list[str]:
        return list(self.require(tid).parents)

    def children(self, tid: str) -> list[str]:
        self.require(tid)
        return list(self._children[tid])

    def ancestors(self, tid: str, include_self: bool = True) -> frozenset[str]:
        """All terms reachable from ``tid`` along is_a edges (self included by default)."""
        self.require(tid)
        anc = self._ancestors[tid]
        return anc if include_self else anc - {tid}

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
        self.require(tid)
        return self._depth[tid]


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
        if tid in terms:
            raise ParseError(f"term {i}: duplicate term id {tid}")
        terms[tid] = TermRecord(
            id=tid,
            name=name,
            synonyms=list(obj.get("synonyms") or []),
            definition=obj.get("def") or "",
            parents=list(obj.get("is_a") or []),
            obsolete=bool(obj.get("is_obsolete", False)),
        )
    if not terms:
        raise ParseError("ontology JSON contains no terms")
    return Ontology(terms)


# -- information content ---------------------------------------------------------


@dataclass(frozen=True)
class OntologyStats:
    """Disease-annotation counts and information content per non-obsolete term.

    annot_count[t] counts distinct diseases annotated to t or any descendant.
    ic is the negative log fraction of annotated diseases; terms no disease
    reaches get the add-one ceiling -ln(1/(total+1)).
    """

    annot_count: dict[str, int]
    total_diseases: int
    ic: dict[str, float]


def propagate_counts(
    o: Ontology, direct: Mapping[str, Iterable[str]]
) -> dict[str, int]:
    """Count, per term, the distinct documents annotated to it or a descendant.

    ``direct`` maps term id -> documents annotated directly to that term. Terms
    no document reaches are absent from the result.
    """
    # Invert to document -> terms, then count each document once per ancestor.
    by_doc: dict[str, set[str]] = {}
    for tid, docs in direct.items():
        for d in docs:
            by_doc.setdefault(d, set()).add(tid)
    counts: dict[str, int] = {}
    for terms in by_doc.values():
        reached: set[str] = set()
        for tid in terms:
            reached |= o.ancestors(tid)
        for t in reached:
            counts[t] = counts.get(t, 0) + 1
    return counts


def compute_stats(o: Ontology, kb) -> OntologyStats:
    """Propagate the KB's disease annotations to ancestors and derive IC.

    ``kb`` supplies ``disease_annots``: source -> term -> set of disease ids.
    Sources are pooled (a disease id names one document regardless of source).
    """
    pooled: dict[str, set[str]] = {}
    for per_term in kb.disease_annots.values():
        for tid, diseases in per_term.items():
            o.require(tid)
            pooled.setdefault(tid, set()).update(diseases)
    total = len(set().union(*pooled.values()))
    if total == 0:
        raise DataError("annotation KB holds no diseases; IC is undefined")
    reached = propagate_counts(o, pooled)
    count = {t: reached.get(t, 0) for t in o.non_obsolete_ids()}
    floor_p = 1.0 / (total + 1)
    ic = {
        t: -math.log(c / total) if c > 0 else -math.log(floor_p)
        for t, c in count.items()
    }
    return OntologyStats(annot_count=count, total_diseases=total, ic=ic)


# -- similarity ------------------------------------------------------------------


def mica(o: Ontology, s: OntologyStats, a: str, b: str) -> str:
    """Most informative common ancestor of a and b (self counts as ancestor).

    Ties on IC resolve to the lexicographically smallest term id.
    """
    common = o.ancestors(a) & o.ancestors(b)
    if not common:
        raise StructuralError(f"{a} and {b} share no ancestor")
    return min(common, key=lambda t: (-s.ic[t], t))


def lin_similarity(o: Ontology, s: OntologyStats, a: str, b: str) -> float:
    """Lin similarity 2*ic(mica) / (ic(a) + ic(b)), in [0, 1].

    When both terms carry zero IC the ratio is undefined; identity maps to 1
    and distinct terms to 0.
    """
    denom = s.ic[o.require(a).id] + s.ic[o.require(b).id]
    if denom == 0.0:
        return 1.0 if a == b else 0.0
    return abs(2.0 * s.ic[mica(o, s, a, b)] / denom)

