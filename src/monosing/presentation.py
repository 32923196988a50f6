"""Quivers, paths, monomial presentations and the nonzero-path basis.

Orientation convention: a path of length n is a word alpha_n ... alpha_1 of
arrows, stored left-to-right in composition order, so ``arrows[0]`` is the
last arrow traversed and ``arrows[-1]`` the first.  The file format and all
human-facing output list arrows in traversal order (first-traversed first);
``Path.traversal`` is that reversed view.  Concatenation ``p * q`` is defined
when s(p) = t(q) and simply joins the words.

A ``Path`` is a ``typing.NamedTuple``, so hashing, equality and construction
run in C.  Being a tuple, it also takes ``len()`` (always 3) and sorts as a
tuple: use ``p.length`` for its length, and sort paths only with a key, which
for nonzero paths is ``basis().rank`` and for the zero paths of F is
``Quiver.sort_key``.

The relation automaton follows Aho–Corasick failure links, with one memoized
transition per (prefix, arrow).  It is built by one walk: ``find_cycle``'s
depth-first search from the trivial states in vertex order lists each
state's edges, in arrow order, through its successors callback, and the
automaton keeps the first cycle that search meets as the refusal witness.
``basis()`` walks it level by level: the trivial paths in vertex order, the
arrows in arrow order, then each level's paths extended in order along their
states' edges, which are in arrow order.  That is the canonical order, so
the basis is never sorted, and ``PathBasis.rank`` gives each nonzero path's
position in it.

``dumps_json(obj)`` is ``json.dumps(obj, indent=2) + "\n"`` byte for byte,
with every string encoded by json's C encoder; it raises TypeError on what
``json`` rejects.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

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


_MISSING = object()


def memoized(fn):
    """Memoize ``fn(owner)`` or ``fn(owner, arg)`` in ``owner._cache``.

    The entry is keyed by the function's module and qualified name, and a
    two-argument function keeps there one dict keyed by the argument.
    Nothing is kept when ``fn`` raises, so a failing call fails every time.
    """
    name = f"{fn.__module__}.{fn.__qualname__}"
    if fn.__code__.co_argcount == 1:
        @functools.wraps(fn)
        def whole(owner):
            cache = owner._cache
            hit = cache.get(name, _MISSING)
            if hit is _MISSING:
                hit = cache[name] = fn(owner)
            return hit

        return whole

    @functools.wraps(fn)
    def per_arg(owner, arg):
        memo = owner._cache.get(name)
        if memo is None:
            memo = owner._cache[name] = {}
        hit = memo.get(arg, _MISSING)
        if hit is _MISSING:
            hit = memo[arg] = fn(owner, arg)
        return hit

    return per_arg


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


class Path(NamedTuple):
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


def _declaration_error(vertices, arrows):
    """The first bad declaration as (position, error), or None: a repeated
    vertex first, then the first arrow that repeats a name or has an
    undeclared end.  The position counts the vertices, then the arrows."""
    seen = set()
    for i, v in enumerate(vertices):
        if v in seen:
            return i, DuplicateIdentifier(f"duplicate vertex {v!r}")
        seen.add(v)
    names = set()
    for i, a in enumerate(arrows, start=len(vertices)):
        if a.name in names:
            return i, DuplicateIdentifier(f"duplicate arrow {a.name!r}")
        if a.source not in seen:
            return i, UnknownVertex(f"arrow {a.name!r} has undeclared source {a.source!r}")
        if a.target not in seen:
            return i, UnknownVertex(f"arrow {a.name!r} has undeclared target {a.target!r}")
        names.add(a.name)
    return None


class Quiver:
    """A finite quiver; vertices and arrows keep their declaration order."""

    def __init__(self, vertices, arrows):
        self.vertices = tuple(vertices)
        self.arrows = tuple(Arrow(*a) if not isinstance(a, Arrow) else a for a in arrows)
        bad = _declaration_error(self.vertices, self.arrows)
        if bad is not None:
            raise bad[1]
        self.arrow_by_name = {a.name: a for a in self.arrows}
        self._vertex_index = {v: i for i, v in enumerate(self.vertices)}
        self._zero_dims = dict.fromkeys(self.vertices, 0)
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

    def path(self, names):
        """Build a composable path from arrow names in traversal order
        (first-traversed first, the file-format convention)."""
        names = tuple(reversed(tuple(names)))
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

    def sort_key(self, p):
        """Canonical path order: (length, traversal-order arrow indices)."""
        a = p.arrows
        if not a:
            return (0, (self._vertex_index[p.source],))
        return (len(a), tuple(map(self._arrow_index.__getitem__, reversed(a))))

    def vertex_index(self, v):
        return self._vertex_index[v]

    def zero_dims(self):
        """A new dict sending every vertex to 0, in vertex order."""
        return self._zero_dims.copy()

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

    def is_minimal_relation(self, arrows):
        """True iff the composition word lies in F."""
        return arrows in self._forbidden

    # -- basis enumeration -----------------------------------------------

    @memoized
    def automaton(self):
        """The relation automaton of F (Aho–Corasick, CACM 18, 1975), which is
        Ufnarovski's graph of a monomial algebra (Math. Notes 31, 1982).

        A state ``(u, v)`` holds the longest final factor ``u`` of the path
        read so far that begins a minimal relation, as a composition-order
        prefix, and the path's end ``v``.  An arrow is dropped when a final
        factor of the new word lies in F, and otherwise moves to the longest
        one that begins a relation, so there are at most sum(|f| - 1) + |Q_0|
        states.  Each nonzero path from v is one walk from ``((), v)``; the
        algebra is finite-dimensional iff the automaton is acyclic.

        Each transition is computed once per (prefix, arrow), down the
        failure links: ``(a,) + u`` is dropped if it lies in F, kept if it
        begins a relation, and otherwise ``a`` is read from the failure of
        ``u``, its longest proper final factor that begins a relation.  This
        is exact because F is minimal: a word that begins a relation has no
        final factor in F, so no shorter factor can drop a kept arrow.

        Returns ``(states, edges, cycle)``.  ``find_cycle``'s search from the
        trivial states in vertex order lists each state's edges, in arrow
        order, once, through its successors callback; ``cycle`` is the first
        cycle it meets as a traversal-order arrow word, or None.
        """
        forbidden = self._forbidden
        # the proper traversal-order prefixes of F: composition-order tails
        prefixes = {f.arrows[k:] for f in self.minimal for k in range(1, f.length)}
        goto = {}  # (u, arrow name) -> next prefix, or None when a relation ends

        def step(u, a):
            chain = []
            while True:
                nxt = goto.get((u, a), _MISSING)
                if nxt is not _MISSING:
                    break
                chain.append((u, a))
                w = (a,) + u
                if w in forbidden:
                    nxt = None
                    break
                if w in prefixes:
                    nxt = w
                    break
                if not u:
                    nxt = ()
                    break
                u = failure[u]
            for key in chain:
                goto[key] = nxt
            return nxt

        failure = {}  # u -> its longest proper final factor that begins a relation
        for u in sorted(prefixes, key=len):
            failure[u] = step(failure[u[1:]], u[0]) if len(u) > 1 else ()
        arrows_from = self.quiver.arrows_from
        edges = {}

        def successors(state):
            word, end = state
            out = edges[state] = []
            for a in arrows_from[end]:
                nxt = step(word, a.name)
                if nxt is not None:
                    out.append((a.name, (nxt, a.target)))
            return out

        cycle, _ = find_cycle([((), v) for v in self.quiver.vertices], successors)
        return set(edges), edges, None if cycle is None else tuple(cycle)

    def automaton_cycle(self):
        """A reachable automaton cycle as a traversal-order arrow word, or None."""
        return self.automaton()[2]

    def is_finite_dimensional(self):
        return self.automaton_cycle() is None

    @memoized
    def basis(self):
        """The PathBasis of all nonzero paths; raises InfiniteDimensional.

        The paths are walked out level by level in canonical order: the
        trivial paths in vertex order, the arrows in arrow order, and then
        each level's paths in order, each extended along its state's edges,
        which the automaton lists in arrow order.
        """
        cyc = self.automaton_cycle()
        if cyc is not None:
            word = "·".join(cyc)
            raise InfiniteDimensional(
                f"nonzero paths of unbounded length: the arrow cycle {word} can be pumped",
                witness=cyc,
            )
        _, edges, _ = self.automaton()
        q = self.quiver
        levels = [[q.trivial_path(v) for v in q.vertices]]
        after = {name: nxt for v in q.vertices for name, nxt in edges[((), v)]}
        level = [(Path((a.name,), a.source, a.target), after[a.name]) for a in q.arrows]
        while level:
            levels.append([p for p, _ in level])
            level = [(Path((name,) + p.arrows, p.source, nxt[1]), nxt)
                     for p, state in level for name, nxt in edges[state]]
        return PathBasis(self, levels)

    def dimension(self):
        return self.basis().dimension

    def cyclic_module_basis(self, p):
        """Basis {q'p nonzero} of Ap and its dimension vector by target vertex.

        Includes p itself (trivial q').  Raises ZeroPath when p is zero.
        The paths q'p are listed in the basis order of the q' from t(p),
        which is their own, since q'p sorts like q'.
        """
        v, words = self.survivor_key(p)
        out = [Path(x.arrows + p.arrows, p.source, x.target) if x.arrows else p
               for x in self.basis().from_vertex(v) if x.arrows in words]
        vec = self.quiver.zero_dims()
        for q in out:
            vec[q.target] += 1
        return out, vec

    @memoized
    def survivor_key(self, p):
        """Isomorphism key of Ap: its top vertex t(p) and the left-acting
        words q' with q'p nonzero.  Raises ZeroPath when p is zero."""
        if not self.is_nonzero(p):
            raise ZeroPath(f"{p} is zero in the algebra")
        word = p.arrows
        return (p.target, frozenset(
            q.arrows for q in self.basis().from_vertex(p.target)
            if not q.arrows or self.word_is_nonzero(q.arrows + word)))

    @memoized
    def path_classes(self):
        """The path modules A.p of the nontrivial paths up to isomorphism,
        without the projective ones: each distinct non-projective survivor
        key with its first path, in basis order."""
        classes = {}
        for p in self.basis().nontrivial():
            key = self.survivor_key(p)
            if key not in classes and not self.key_is_projective(key):
                classes[key] = p
        return classes

    def key_is_projective(self, key):
        """Whether the cyclic module with this survivor key is projective: no
        path from its vertex kills the generator."""
        v, words = key
        return len(words) == len(self.basis().from_vertex(v))

    @memoized
    def opposite(self):
        """The opposite presentation: arrows and relation words reversed.

        Memoized, so every caller shares the opposite's automaton, basis and
        oracle caches, and the opposite's own opposite is this presentation.
        """
        arrows = [Arrow(a.name, a.target, a.source) for a in self.quiver.arrows]
        q = Quiver(self.quiver.vertices, arrows)
        # the opposite of the word alpha_n...alpha_1 is alpha_1...alpha_n
        gens = [q.subword_path(tuple(reversed(g.arrows))) for g in self.generators]
        op = MonomialPresentation(q, gens)
        op._cache[f"{__name__}.MonomialPresentation.opposite"] = self  # memoized's key
        return op

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

    ``successors(node)`` lists ``(label, next node)`` pairs and is called
    once per node reached, when the search enters it.  ``cycle`` is the
    label list of the first cycle met (from the node it closes on), or None;
    the search still runs to the end, so ``finished`` lists every node
    reached, each after all of its successors, and without a cycle it is a
    reverse topological order.  The search keeps its own stack, so its
    depth is not bounded by recursion.
    """
    pos = {}  # node -> stack position while on the stack, None once finished
    finished = []
    cycle = None
    for root in roots:
        if root in pos:
            continue
        pos[root] = 0
        stack = [(root, iter(successors(root)))]
        trail = []  # trail[i]: the label taken from stack[i] to stack[i + 1]
        while stack:
            node, it = stack[-1]
            for label, nxt in it:
                at = pos.get(nxt, _MISSING)
                if at is _MISSING:
                    pos[nxt] = len(stack)
                    stack.append((nxt, iter(successors(nxt))))
                    trail.append(label)
                    break
                if at is not None and cycle is None:
                    cycle = trail[at:] + [label]
            else:
                pos[node] = None
                finished.append(node)
                stack.pop()
                if trail:
                    trail.pop()
    return cycle, finished


def successor_cycles(starts, successor):
    """The cycles of a partial successor map, as node lists.

    Walks ``successor`` (a dict; a node missing from it ends the walk) from
    each of ``starts`` in order, until the walk meets a node seen before;
    each cycle is listed once, from the node where its first walk entered
    it.
    """
    cycles = []
    done = set()
    for start in starts:
        if start in done:
            continue
        walk, pos = [], {}
        cur = start
        while cur is not None and cur not in done and cur not in pos:
            pos[cur] = len(walk)
            walk.append(cur)
            cur = successor.get(cur)
        if cur is not None and cur in pos:
            cycles.append(walk[pos[cur]:])
        done.update(walk)
    return cycles


def _minimal_relations(generators):
    """Generators containing no other generator as a proper subpath.

    Each shorter window of a generator is one lookup in the word set, as in
    ``word_is_nonzero``, so the cost does not grow with the number of
    generators.
    """
    words = {g.arrows for g in generators}
    lengths = sorted({len(w) for w in words if w})
    keep = []
    seen = set()
    for g in generators:
        word = g.arrows
        if word in seen:
            continue
        seen.add(word)
        n = len(word)
        if not any(word[i : i + k] in words
                   for k in lengths if k < n for i in range(n - k + 1)):
            keep.append(g)
    return tuple(keep)


def minimal_relations(pres):
    """The set F of minimal paths of the ideal, as a canonically sorted tuple."""
    return tuple(sorted(pres.minimal, key=pres.quiver.sort_key))


class PathBasis:
    """All nonzero paths, canonically ordered, with source/target/length
    indexes; each index lists its paths in basis order, and ``rank`` maps
    each path to its position.  ``levels[k]`` lists the paths of length k."""

    def __init__(self, pres, levels):
        self.pres = pres
        self.paths = tuple(itertools.chain.from_iterable(levels))
        self.dimension = len(self.paths)
        self.rank = dict(zip(self.paths, range(self.dimension)))
        self._by_length = dict(enumerate(levels))
        self._by_source = {}
        self._by_target = {}
        for p in self.paths:
            self._by_source.setdefault(p.source, []).append(p)
            self._by_target.setdefault(p.target, []).append(p)

    def from_vertex(self, v):
        return self._by_source.get(v, [])

    def into_vertex(self, v):
        """The paths ending at v; a longest one comes last."""
        return self._by_target.get(v, [])

    def of_length(self, k):
        return self._by_length.get(k, [])

    def nontrivial(self):
        """The paths of positive length: all but the leading trivial ones."""
        return list(self.paths[len(self._by_length[0]):])

    def max_length(self):
        return max(self._by_length, default=0)

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
    stored in composition order.  A vertex may be declared after the arrows
    that use it; every error names the line of its statement.
    """
    vertices = []
    arrows = []
    vertex_lines, arrow_lines = [], []  # the statement line of each declaration
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
            vertex_lines.extend([lineno] * len(rest))
        elif head == "arrow":
            if len(rest) != 3:
                raise ParseError("arrow statement needs: arrow <id> <source> <target>", lineno)
            arrows.append(Arrow(*rest))
            arrow_lines.append(lineno)
        elif head == "relation":
            relation_lines.append((lineno, rest))
        else:
            raise ParseError(f"unknown statement {head!r}", lineno)
    bad = _declaration_error(vertices, arrows)
    if bad is not None:
        position, error = bad
        raise type(error)(str(error), (vertex_lines + arrow_lines)[position])
    quiver = Quiver(vertices, arrows)
    generators = []
    for lineno, names in relation_lines:
        if len(names) < 2:
            raise RelationTooShort(f"relation {' '.join(names)!r} has length {len(names)} < 2", lineno)
        try:
            generators.append(quiver.path(names))
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


_encode_str = json.encoder.encode_basestring_ascii


def dumps_json(obj):
    """``json.dumps(obj, indent=2) + "\\n"``, with every string encoded in C.

    The indent sends ``json`` to its pure-Python encoder; this writes the
    same bytes with ``encode_basestring_ascii``, and a list made only of
    strings with one ``join``.  A value that ``json`` would reject raises
    TypeError; a self-containing value is not detected.
    """
    return _encode(obj, "\n") + "\n"


def _encode(obj, newline):
    """One JSON value at indent 2; ``newline`` starts the value's own line."""
    if isinstance(obj, str):
        return _encode_str(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        try:
            body = ("," + inner).join(map(_encode_str, obj))
        except TypeError:  # not a list made only of strings
            body = ("," + inner).join([_encode(x, inner) for x in obj])
        return "[" + inner + body + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        return "{" + inner + ("," + inner).join(
            [_encode_str(_key(k)) + ": " + _encode(v, inner) for k, v in obj.items()]
        ) + newline + "}"
    return _scalar(obj)


def _scalar(obj):
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float.__repr__(obj)
        return "NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity"
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _key(key):
    """A dict key as json writes it: a string, or a scalar's JSON text."""
    if isinstance(key, str):
        return key
    if isinstance(key, (int, float)) or key is None:
        return _scalar(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
