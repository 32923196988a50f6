"""Quivers, paths, monomial presentations and the nonzero-path basis.

Orientation convention: a path of length n is a word alpha_n ... alpha_1 of
arrows, stored left-to-right in composition order, so ``arrows[0]`` is the
last arrow traversed and ``arrows[-1]`` the first.  The file format and all
human-facing output list arrows in traversal order (first-traversed first);
``Path.traversal`` is that reversed view.  Concatenation ``p * q`` is defined
when s(p) = t(q) and simply joins the words.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import (
    DuplicateIdentifier,
    InfiniteDimensional,
    NonComposableRelation,
    ParseError,
    RelationTooShort,
    UnknownArrow,
    UnknownVertex,
    ZeroPath,
)


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class Path:
    """An arrow word in composition order, or a trivial path at a vertex."""

    arrows: tuple  # tuple of arrow names, composition order
    source: str
    target: str

    @property
    def length(self):
        return len(self.arrows)

    @property
    def is_trivial(self):
        return not self.arrows

    @property
    def traversal(self):
        """Arrow names in traversal order (first-traversed first)."""
        return tuple(reversed(self.arrows))

    def __str__(self):
        if self.is_trivial:
            return f"e_{self.source}"
        return "·".join(self.traversal)


class Quiver:
    """A finite quiver; vertices and arrows keep their declaration order."""

    def __init__(self, vertices, arrows):
        self.vertices = tuple(vertices)
        self.arrows = tuple(Arrow(*a) if not isinstance(a, Arrow) else a for a in arrows)
        seen = set()
        for v in self.vertices:
            if v in seen:
                raise DuplicateIdentifier(f"duplicate vertex {v!r}")
            seen.add(v)
        vset = set(self.vertices)
        self.arrow_by_name = {}
        for a in self.arrows:
            if a.name in self.arrow_by_name:
                raise DuplicateIdentifier(f"duplicate arrow {a.name!r}")
            if a.source not in vset:
                raise UnknownVertex(f"arrow {a.name!r} has undeclared source {a.source!r}")
            if a.target not in vset:
                raise UnknownVertex(f"arrow {a.name!r} has undeclared target {a.target!r}")
            self.arrow_by_name[a.name] = a
        self._vertex_index = {v: i for i, v in enumerate(self.vertices)}
        self._arrow_index = {a.name: i for i, a in enumerate(self.arrows)}
        self.arrows_from = {v: [] for v in self.vertices}
        self.arrows_into = {v: [] for v in self.vertices}
        for a in self.arrows:
            self.arrows_from[a.source].append(a)
            self.arrows_into[a.target].append(a)

    def source(self, arrow_name):
        return self.arrow_by_name[arrow_name].source

    def target(self, arrow_name):
        return self.arrow_by_name[arrow_name].target

    def trivial_path(self, vertex):
        if vertex not in self._vertex_index:
            raise UnknownVertex(f"unknown vertex {vertex!r}")
        return Path((), vertex, vertex)

    def arrow_path(self, name):
        a = self.arrow_by_name[name]
        return Path((name,), a.source, a.target)

    def path(self, names, order="traversal"):
        """Build a composable path from arrow names.

        ``order`` is "traversal" (first-traversed first, the file-format
        convention) or "composition" (the internal word order).
        """
        names = tuple(names)
        if order == "traversal":
            names = tuple(reversed(names))
        elif order != "composition":
            raise ValueError("order must be 'traversal' or 'composition'")
        if not names:
            raise ValueError("a path of arrows needs at least one arrow; use trivial_path")
        for n in names:
            if n not in self.arrow_by_name:
                raise UnknownArrow(f"unknown arrow {n!r}")
        # composition order: names[i] is applied after names[i+1]
        for i in range(len(names) - 1):
            if self.source(names[i]) != self.target(names[i + 1]):
                raise NonComposableRelation(
                    f"arrows {names[i + 1]!r} then {names[i]!r} do not compose: "
                    f"t({names[i + 1]}) = {self.target(names[i + 1])!r} but "
                    f"s({names[i]}) = {self.source(names[i])!r}"
                )
        return Path(names, self.source(names[-1]), self.target(names[0]))

    def subword_path(self, names):
        """Path from a composition-order subword of a known-composable word."""
        return Path(tuple(names), self.source(names[-1]), self.target(names[0]))

    def concat(self, p, q):
        """The concatenation pq, defined exactly when s(p) = t(q)."""
        if q.is_trivial:
            if p.is_trivial and p.source != q.source:
                raise NonComposableRelation("trivial paths at distinct vertices")
            if p.source != q.target:
                raise NonComposableRelation(f"s({p}) = {p.source!r} != t({q}) = {q.target!r}")
            return p
        if p.is_trivial:
            if p.source != q.target:
                raise NonComposableRelation(f"s({p}) = {p.source!r} != t({q}) = {q.target!r}")
            return q
        if p.source != q.target:
            raise NonComposableRelation(f"s({p}) = {p.source!r} != t({q}) = {q.target!r}")
        return Path(p.arrows + q.arrows, q.source, p.target)

    def sort_key(self, p):
        """Canonical path order: (length, traversal-order arrow indices)."""
        if p.is_trivial:
            return (0, (self._vertex_index[p.source],))
        return (p.length, tuple(self._arrow_index[a] for a in p.traversal))

    def vertex_index(self, v):
        return self._vertex_index[v]

    def arrow_index(self, name):
        return self._arrow_index[name]

    def __eq__(self, other):
        if not isinstance(other, Quiver):
            return NotImplemented
        return set(self.vertices) == set(other.vertices) and set(self.arrows) == set(other.arrows)

    def __hash__(self):
        return hash((frozenset(self.vertices), frozenset(self.arrows)))


class MonomialPresentation:
    """A quiver with monomial relation generators: the algebra kQ/I.

    ``generators`` is kept verbatim for round-trip serialization; the minimal
    relation set F (generators not properly containing another generator) is
    normalized at construction and drives all zero-ness tests.
    """

    def __init__(self, quiver, generators):
        self.quiver = quiver
        gens = []
        for g in generators:
            if g.length < 2:
                raise RelationTooShort(f"relation {g} has length {g.length} < 2")
            gens.append(g)
        self.generators = tuple(gens)
        self.minimal = _minimal_relations(self.generators)
        self._forbidden = {p.arrows for p in self.minimal}
        self._lengths = sorted({p.length for p in self.minimal})
        self._rmax = max(self._lengths, default=1)
        self._cache = {}

    # -- zero-ness -------------------------------------------------------

    def word_is_nonzero(self, arrows):
        """True iff no contiguous window of the composition word lies in F.

        Each window of each distinct relation length is one set lookup, so
        the cost does not grow with the number of relations.
        """
        n = len(arrows)
        forbidden = self._forbidden
        for k in self._lengths:
            if k > n:
                break
            for i in range(n - k + 1):
                if arrows[i : i + k] in forbidden:
                    return False
        return True

    def is_nonzero(self, p):
        return self.word_is_nonzero(p.arrows)

    # -- basis enumeration -----------------------------------------------

    def automaton(self):
        """Forbidden-factor automaton over nonzero words of length < r_max.

        States are the trailing traversal windows (composition-order prefixes)
        of nonzero paths; appending an arrow at the target side transitions to
        the new trailing window when no minimal relation is completed.  The
        algebra is finite-dimensional iff the reachable part is acyclic.
        """
        if "automaton" in self._cache:
            return self._cache["automaton"]
        width = self._rmax - 1
        states = set()
        edges = {}
        frontier = []
        for v in self.quiver.vertices:
            s = ((), v)  # (window word, current end vertex)
            states.add(s)
            frontier.append(s)
        while frontier:
            word, end = frontier.pop()
            edges.setdefault((word, end), [])
            for a in self.quiver.arrows_from[end]:
                new_word = (a.name,) + word
                if not self.word_is_nonzero(new_word):
                    continue
                nxt = (new_word[:width], a.target)
                edges[(word, end)].append((a.name, nxt))
                if nxt not in states:
                    states.add(nxt)
                    frontier.append(nxt)
        self._cache["automaton"] = (states, edges)
        return states, edges

    def automaton_cycle(self):
        """A reachable automaton cycle as a traversal-order arrow word, or None."""
        states, edges = self.automaton()
        cycle, _ = find_cycle(sorted(states, key=_state_key(self.quiver)),
                              lambda state: edges.get(state, []))
        return None if cycle is None else tuple(cycle)

    def is_finite_dimensional(self):
        return self.automaton_cycle() is None

    def basis(self):
        """The PathBasis of all nonzero paths; raises InfiniteDimensional."""
        if "basis" in self._cache:
            return self._cache["basis"]
        cyc = self.automaton_cycle()
        if cyc is not None:
            word = "·".join(cyc)
            raise InfiniteDimensional(
                f"nonzero paths of unbounded length: the arrow cycle {word} can be pumped",
                witness=cyc,
            )
        paths = [self.quiver.trivial_path(v) for v in self.quiver.vertices]
        frontier = list(paths)
        while frontier:
            p = frontier.pop()
            for a in self.quiver.arrows_from[p.target]:
                word = (a.name,) + p.arrows
                if self.word_is_nonzero(word):
                    q = Path(word, p.source, a.target)
                    paths.append(q)
                    frontier.append(q)
        paths.sort(key=self.quiver.sort_key)
        b = PathBasis(self, paths)
        self._cache["basis"] = b
        return b

    def dimension(self):
        return self.basis().dimension

    def cyclic_module_basis(self, p):
        """Basis {q'p nonzero} of Ap and its dimension vector by target vertex.

        Includes p itself (trivial q').  Raises ZeroPath when p is zero.
        """
        if not self.is_nonzero(p):
            raise ZeroPath(f"{p} is zero in the algebra")
        basis = self.basis()
        out = []
        for q in basis.from_vertex(p.target):
            if q.is_trivial:
                out.append(p)
            else:
                word = q.arrows + p.arrows
                if self.word_is_nonzero(word):
                    out.append(Path(word, p.source, q.target))
        out.sort(key=self.quiver.sort_key)
        vec = {v: 0 for v in self.quiver.vertices}
        for q in out:
            vec[q.target] += 1
        return out, vec

    def opposite(self):
        """The opposite presentation: arrows and relation words reversed."""
        arrows = [Arrow(a.name, a.target, a.source) for a in self.quiver.arrows]
        q = Quiver(self.quiver.vertices, arrows)
        # the opposite of the word alpha_n...alpha_1 is alpha_1...alpha_n
        gens = [q.subword_path(tuple(reversed(g.arrows))) for g in self.generators]
        return MonomialPresentation(q, gens)

    def __eq__(self, other):
        if not isinstance(other, MonomialPresentation):
            return NotImplemented
        return self.quiver == other.quiver and set(p.arrows for p in self.minimal) == set(
            p.arrows for p in other.minimal
        )

    def __hash__(self):
        return hash((self.quiver, frozenset(p.arrows for p in self.minimal)))


def find_cycle(roots, successors):
    """Depth-first search from ``roots`` in order; returns (cycle, finished).

    ``successors(node)`` lists ``(label, next node)`` pairs.  ``cycle`` is the
    label list of the first cycle met (from the node it closes on), or None;
    ``finished`` lists the nodes whose search ended, each after all of its
    successors, so without a cycle it is a reverse topological order.  The
    search keeps its own stack, so its depth is not bounded by recursion.
    """
    pos = {}  # node -> stack position while on the stack, None once finished
    finished = []
    for root in roots:
        if root in pos:
            continue
        pos[root] = 0
        stack = [(root, iter(successors(root)))]
        trail = []  # trail[i]: the label taken from stack[i] to stack[i + 1]
        while stack:
            node, it = stack[-1]
            for label, nxt in it:
                if nxt not in pos:
                    pos[nxt] = len(stack)
                    stack.append((nxt, iter(successors(nxt))))
                    trail.append(label)
                    break
                if pos[nxt] is not None:
                    return trail[pos[nxt]:] + [label], finished
            else:
                pos[node] = None
                finished.append(node)
                stack.pop()
                if trail:
                    trail.pop()
    return None, finished


def _state_key(quiver):
    def key(state):
        word, end = state
        return (len(word), tuple(quiver.arrow_index(a) for a in word), quiver.vertex_index(end))

    return key


def _minimal_relations(generators):
    """Generators containing no other generator as a proper subpath."""
    words = {g.arrows for g in generators}
    keep = []
    seen = set()
    for g in generators:
        if g.arrows in seen:
            continue
        seen.add(g.arrows)
        has_proper = False
        for w in words:
            if len(w) >= g.length or not w:
                continue
            if any(g.arrows[i : i + len(w)] == w for i in range(g.length - len(w) + 1)):
                has_proper = True
                break
        if not has_proper:
            keep.append(g)
    return tuple(keep)


def minimal_relations(pres):
    """The set F of minimal paths of the ideal, as a canonically sorted tuple."""
    return tuple(sorted(pres.minimal, key=pres.quiver.sort_key))


def is_nonzero(pres, p):
    return pres.is_nonzero(p)


def enumerate_basis(pres):
    return pres.basis()


def cyclic_module_basis(pres, p):
    return pres.cyclic_module_basis(p)


class PathBasis:
    """All nonzero paths, canonically ordered, with source/target/length indexes."""

    def __init__(self, pres, paths):
        self.pres = pres
        self.paths = tuple(paths)
        self.dimension = len(paths)
        self._by_source = {}
        self._by_st = {}
        self._by_length = {}
        self._words = set()
        for p in self.paths:
            self._by_source.setdefault(p.source, []).append(p)
            self._by_st.setdefault((p.source, p.target), []).append(p)
            self._by_length.setdefault(p.length, []).append(p)
            self._words.add((p.source, p.arrows))

    def from_vertex(self, v):
        return self._by_source.get(v, [])

    def between(self, s, t):
        return self._by_st.get((s, t), [])

    def of_length(self, k):
        return self._by_length.get(k, [])

    def nontrivial(self):
        return [p for p in self.paths if not p.is_trivial]

    def max_length(self):
        return max(self._by_length, default=0)

    def __contains__(self, p):
        return (p.source, p.arrows) in self._words

    def __iter__(self):
        return iter(self.paths)

    def __len__(self):
        return self.dimension


# -- parsing and serialization ------------------------------------------------


def parse_presentation(text):
    """Parse the presentation file format.

    One statement per line, '#' starts a comment::

        vertex <id> [<id> ...]
        arrow <id> <source> <target>
        relation <arrowid> <arrowid> [...]   # traversal order

    Relation tokens are given in traversal order (first-traversed first) and
    stored in composition order.
    """
    vertices = []
    arrows = []
    relation_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head, rest = tokens[0], tokens[1:]
        if head == "vertex":
            if not rest:
                raise ParseError("vertex statement needs at least one identifier", lineno)
            vertices.extend(rest)
        elif head == "arrow":
            if len(rest) != 3:
                raise ParseError("arrow statement needs: arrow <id> <source> <target>", lineno)
            arrows.append(tuple(rest))
        elif head == "relation":
            relation_lines.append((lineno, rest))
        else:
            raise ParseError(f"unknown statement {head!r}", lineno)
    try:
        quiver = Quiver(vertices, arrows)
    except ParseError:
        raise
    generators = []
    for lineno, names in relation_lines:
        if len(names) < 2:
            raise RelationTooShort(f"relation {' '.join(names)!r} has length {len(names)} < 2", lineno)
        try:
            generators.append(quiver.path(names, order="traversal"))
        except UnknownArrow as e:
            raise UnknownArrow(str(e), lineno) from None
        except NonComposableRelation as e:
            raise NonComposableRelation(str(e), lineno) from None
    return MonomialPresentation(quiver, generators)


def parse_presentation_file(path):
    with open(path, encoding="utf-8") as fh:
        return parse_presentation(fh.read())


def presentation_to_json(pres):
    """The documented JSON echo; relations listed in traversal order."""
    return {
        "vertices": list(pres.quiver.vertices),
        "arrows": [{"id": a.name, "src": a.source, "tgt": a.target} for a in pres.quiver.arrows],
        "relations": [list(g.traversal) for g in pres.generators],
    }


def presentation_to_text(pres):
    lines = ["vertex " + " ".join(pres.quiver.vertices)]
    for a in pres.quiver.arrows:
        lines.append(f"arrow {a.name} {a.source} {a.target}")
    for g in pres.generators:
        lines.append("relation " + " ".join(g.traversal))
    return "\n".join(lines) + "\n"


def dumps_json(obj):
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"
