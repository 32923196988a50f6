import hashlib
import json
import random
from collections import Counter

import pytest

from monosing.errors import (
    InfiniteDimensional,
    NonComposableRelation,
    RelationTooShort,
    ZeroPath,
)
from monosing import corpus as corpus_module
from monosing.corpus import random_presentation
from monosing.presentation import (
    Arrow,
    MonomialPresentation,
    Path,
    Quiver,
    dumps_json,
    find_cycle,
    memoized,
    minimal_relations,
    parse_presentation,
    presentation_to_json,
    presentation_to_text,
)


def paths_of(pres, *names):
    return pres.quiver.path(names)


def test_parse_single_relation_line():
    pres = parse_presentation("vertex 1 2 3\narrow a 1 2\narrow b 2 3\nrelation a b\n")
    assert [g.traversal for g in pres.generators] == [("a", "b")]
    # traversal (a, b) is the composition b.a
    g = pres.generators[0]
    assert g.arrows == ("b", "a") and g.source == "1" and g.target == "3"


def test_parse_two_triangle_quiver(glu):
    assert len(glu.quiver.vertices) == 5
    assert len(glu.quiver.arrows) == 6
    assert len(glu.generators) == 6
    assert all(g.length == 3 for g in glu.generators)


def test_parse_noncomposable_relation():
    with pytest.raises(NonComposableRelation):
        parse_presentation("vertex 1 2\narrow a 1 2\nrelation a a\n")


def test_parse_relation_too_short():
    with pytest.raises(RelationTooShort):
        parse_presentation("vertex 1 2\narrow a 1 2\nrelation a\n")


def test_parse_duplicate_identifiers():
    from monosing.errors import DuplicateIdentifier

    with pytest.raises(DuplicateIdentifier):
        parse_presentation("vertex 1 1\n")
    with pytest.raises(DuplicateIdentifier):
        parse_presentation("vertex 1 2\narrow a 1 2\narrow a 2 1\n")


@pytest.mark.parametrize("text, line, message", [
    ("vertex 1\n# a comment\nvertex 2 1\n", 3, "duplicate vertex '1'"),
    ("vertex 1 2\narrow a 1 2\n\narrow a 2 1\n", 4, "duplicate arrow 'a'"),
    ("vertex 1\narrow a 1 3\n", 2, "undeclared target '3'"),
    ("arrow a 0 1\nvertex 1\n", 1, "undeclared source '0'"),
])
def test_declaration_errors_name_their_line(text, line, message):
    from monosing.errors import ParseError

    with pytest.raises(ParseError, match=f"^line {line}: .*{message}") as info:
        parse_presentation(text)
    assert info.value.line == line


def test_a_vertex_may_follow_the_arrows_that_use_it():
    pres = parse_presentation("arrow a 1 2\nvertex 1\nvertex 2\n")
    assert pres.quiver.vertices == ("1", "2") and pres.quiver.source("a") == "1"


def test_parse_unknown_arrow_in_relation():
    from monosing.errors import UnknownArrow

    with pytest.raises(UnknownArrow):
        parse_presentation("vertex 1 2\narrow a 1 2\nrelation a c\n")


def test_parse_comments_and_echo(z3r2):
    data = presentation_to_json(z3r2)
    assert data["vertices"] == ["1", "2", "3"]
    assert data["relations"] == [["a1", "a2"], ["a2", "a3"], ["a3", "a1"]]
    # round trip through the text writer
    again = parse_presentation(presentation_to_text(z3r2))
    assert again == z3r2


def test_the_empty_presentation_round_trips():
    # no vertex, so no vertex line: "vertex " alone is refused
    empty = parse_presentation("")
    assert presentation_to_text(empty) == ""
    assert parse_presentation(presentation_to_text(empty)) == empty
    one = parse_presentation("vertex 1\n")
    assert presentation_to_text(one) == "vertex 1\n"


def test_minimal_relations_single(lin):
    assert [str(f) for f in minimal_relations(lin)] == ["a·b"]


def test_minimal_relations_filters_subsumed():
    pres = parse_presentation(
        "vertex 1 2 3 4\narrow a 1 2\narrow b 2 3\narrow c 3 4\n"
        "relation a b\nrelation a b c\n"
    )
    assert [f.traversal for f in minimal_relations(pres)] == [("a", "b")]


def test_minimal_relations_incomparable(z3r2):
    assert len(minimal_relations(z3r2)) == 3


def pairwise_minimal_reference(generators):
    """The minimal-relation rule as a pairwise comparison of generators."""
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


def test_minimal_relations_match_the_pairwise_rule():
    from monosing.corpus import random_gentle_presentation, seeded_rng
    from monosing.presentation import _minimal_relations

    # duplicates keep their first copy; equal-length words never subsume
    # each other, and a word inside a longer one drops the longer one
    q = Quiver(["1"], [Arrow("x", "1", "1"), Arrow("y", "1", "1")])
    w = q.subword_path
    gens = [w(("x", "y", "x")), w(("x", "y")), w(("y", "x")), w(("x", "y")), w(("y", "y")),
            w(("y", "x", "y", "y")), w(("x", "x", "y"))]
    assert [g.arrows for g in _minimal_relations(gens)] == \
           [("x", "y"), ("y", "x"), ("y", "y")]
    assert _minimal_relations(gens) == pairwise_minimal_reference(gens)
    # the seeded corpora, with shuffled extra words of lengths 2..4 on the
    # same quivers, so that many generators contain others
    rng = seeded_rng()
    corpus = [random_presentation(rng) for _ in range(100)]
    corpus += [random_gentle_presentation(rng) for _ in range(30)]
    dropped = 0
    for pres in corpus:
        assert _minimal_relations(pres.generators) == \
               pairwise_minimal_reference(pres.generators)
        quiver = pres.quiver
        layer = [(name,) for name in quiver.arrow_by_name]
        long = []
        for _ in range(3):
            layer = [(a.name,) + word for word in layer
                     for a in quiver.arrows_from[quiver.target(word[0])]]
            long += layer
        if not long:
            continue
        gens = [quiver.subword_path(rng.choice(long)) for _ in range(rng.randint(1, 12))]
        got = _minimal_relations(gens)
        assert got == pairwise_minimal_reference(gens), gens
        dropped += len(gens) - len(got)
    assert dropped > 100, dropped


def test_is_nonzero(z2r3):
    ab = paths_of(z2r3, "b", "a")  # composition a.b
    assert z2r3.is_nonzero(ab)
    aba = paths_of(z2r3, "a", "b", "a")
    assert not z2r3.is_nonzero(aba)
    assert z2r3.is_nonzero(z2r3.quiver.trivial_path("1"))


def test_enumerate_basis_z3r2(z3r2):
    basis = z3r2.basis()
    assert basis.dimension == 6
    assert sorted(str(p) for p in basis) == sorted(["e_1", "e_2", "e_3", "a1", "a2", "a3"])


def test_enumerate_basis_z2r3(z2r3):
    basis = z2r3.basis()
    assert basis.dimension == 6
    assert {str(p) for p in basis} == {"e_1", "e_2", "a", "b", "a·b", "b·a"}


def test_enumerate_basis_infinite():
    pres = parse_presentation("vertex 1 2 3\narrow x 1 2\narrow y 2 3\narrow z 3 1\n")
    for _ in range(2):  # a raising call is not memoized
        with pytest.raises(InfiniteDimensional) as exc:
            pres.basis()
        assert exc.value.witness


def test_memoized_calls_return_the_same_object(z2r3):
    assert z2r3.basis() is z2r3.basis()
    assert z2r3.opposite() is z2r3.opposite()
    assert z2r3.opposite() is not z2r3 and z2r3.opposite().opposite() is z2r3
    a = z2r3.quiver.arrow_path("a")
    assert z2r3.survivor_key(a) is z2r3.survivor_key(a)
    assert z2r3.path_classes() is z2r3.path_classes()


def test_memoized_keys_by_function_then_argument_and_keeps_no_failure():
    calls = []

    class Owner:
        def __init__(self):
            self._cache = {}

        @memoized
        def whole(self):
            calls.append("whole")
            return []

        @memoized
        def halve(self, n):
            calls.append(n)
            if n % 2:
                raise ValueError(n)
            return [n // 2]

    owner = Owner()
    assert owner.whole() is owner.whole()
    assert owner.halve(4) is owner.halve(4) and owner.halve(6) == [3]
    for _ in range(2):
        with pytest.raises(ValueError):
            owner.halve(3)
    assert calls == ["whole", 4, 6, 3, 3]
    name = f"{__name__}.{Owner.__qualname__}"
    assert set(owner._cache) == {f"{name}.whole", f"{name}.halve"}
    assert set(owner._cache[f"{name}.halve"]) == {4, 6}


def test_into_vertex_lists_the_paths_ending_there_in_basis_order():
    for pres in corpus():
        basis = pres.basis()
        for v in pres.quiver.vertices:
            into = basis.into_vertex(v)
            assert into == [p for p in basis if p.target == v]
            assert into[-1].length == max(p.length for p in into)


def test_cyclic_module_basis(z3r2, z2r3):
    a1 = z3r2.quiver.arrow_path("a1")
    basis, vec = z3r2.cyclic_module_basis(a1)
    assert [str(p) for p in basis] == ["a1"]
    assert vec == {"1": 0, "2": 1, "3": 0}

    a = z2r3.quiver.arrow_path("a")
    basis, vec = z2r3.cyclic_module_basis(a)
    assert {str(p) for p in basis} == {"a", "a·b"}
    assert vec == {"1": 1, "2": 1}

    # trivial path gives the projective at the vertex
    e2 = z2r3.quiver.trivial_path("2")
    basis, vec = z2r3.cyclic_module_basis(e2)
    assert {str(p) for p in basis} == {"e_2", "b", "b·a"}


def test_cyclic_module_basis_needs_no_sort():
    # q'p is listed in the basis order of the q' from t(p), with no sort:
    # it equals the paths q'p sorted by basis rank, on every nonzero path
    from conftest import class_rule_corpus

    checked = 0
    for pres in class_rule_corpus():
        for pr in (pres, pres.opposite()):
            basis = pr.basis()
            for p in basis:
                out, vec = pr.cyclic_module_basis(p)
                _, words = pr.survivor_key(p)
                ref = sorted((pr.quiver.subword_path(w + p.arrows) if w else p for w in words),
                             key=basis.rank.__getitem__)
                assert out == ref, (presentation_to_text(pr), p)
                assert sum(vec.values()) == len(out)
                checked += 1
    assert checked > 2000, checked


def test_cyclic_module_zero_path(z2r3):
    aba = paths_of(z2r3, "a", "b", "a")
    with pytest.raises(ZeroPath):
        z2r3.cyclic_module_basis(aba)


# -- module invariants ---------------------------------------------------------


def corpus(n=25, seed=99173, require_finite=True):
    rng = random.Random(seed)
    return [random_presentation(rng, require_finite=require_finite) for _ in range(n)]


def test_subpath_closure():
    for pres in corpus():
        basis = pres.basis()
        for p in basis:
            for k in range(p.length + 1):
                for i in range(p.length - k + 1):
                    window = p.arrows[i : i + k]
                    assert pres.word_is_nonzero(window)


def test_dimension_partition_by_projectives():
    for pres in corpus():
        total = 0
        for v in pres.quiver.vertices:
            b, _ = pres.cyclic_module_basis(pres.quiver.trivial_path(v))
            total += len(b)
        assert total == pres.basis().dimension


def test_is_nonzero_invariant_under_normalization():
    # append redundant generators (超paths of existing ones); verdicts must agree
    rng = random.Random(3021)
    for pres in corpus(15, seed=551):
        basis = pres.basis()
        redundant = list(pres.generators)
        for g in pres.generators:
            exts = [a for a in pres.quiver.arrows_from[g.target]]
            if exts:
                a = rng.choice(exts)
                redundant.append(pres.quiver.subword_path((a.name,) + g.arrows))
        from monosing.presentation import MonomialPresentation

        fat = MonomialPresentation(pres.quiver, redundant)
        words = [p.arrows for p in basis if not p.is_trivial]
        for w in words:
            assert fat.word_is_nonzero(w) == pres.word_is_nonzero(w)
        assert {f.arrows for f in fat.minimal} == {f.arrows for f in pres.minimal}


def window_reference(pres, word):
    """Nonzero iff no contiguous window of the word is a minimal relation."""
    forbidden = {f.arrows for f in pres.minimal}
    return not any(word[i:j] in forbidden
                   for i in range(len(word)) for j in range(i + 1, len(word) + 1))


def test_word_is_nonzero_matches_the_window_reference():
    rng = random.Random(5150)
    # one vertex, three loops: every word composes, relations of lengths 2-5
    quiver = Quiver(["1"], [Arrow(x, "1", "1") for x in "xyz"])
    shapes = [[], ["x x"], ["x y z y x"], ["x y", "z z z", "y x z y"],
              ["x x x x", "y z y z y"]]
    for rels in shapes:
        pres = MonomialPresentation(
            quiver, [quiver.path(r.split()) for r in rels])
        shortest = min((len(r.split()) for r in rels), default=None)
        assert pres.word_is_nonzero(())
        if shortest is not None:
            assert pres.word_is_nonzero(("x",) * (shortest - 1))
        for _ in range(400):
            word = tuple(rng.choice("xyz") for _ in range(rng.randint(0, 9)))
            assert pres.word_is_nonzero(word) == window_reference(pres, word), (rels, word)
    for pres in corpus(25, seed=4242, require_finite=False):
        names = [a.name for a in pres.quiver.arrows]
        for _ in range(100):
            word = tuple(rng.choice(names) for _ in range(rng.randint(0, 7)))
            assert pres.word_is_nonzero(word) == window_reference(pres, word), word


def test_determinism_of_basis_order():
    for pres in corpus(10, seed=77):
        text = presentation_to_text(pres)
        a = parse_presentation(text).basis()
        b = parse_presentation(text).basis()
        assert [str(p) for p in a] == [str(p) for p in b]


def has_nonzero_path_longer_than(pres, cap):
    """Plain depth-first word search for a nonzero path of length > cap.

    Exits on the first witness; on finite-dimensional input it simply
    exhausts the (finitely many) nonzero words.
    """

    def extend(word, end):
        if len(word) > cap:
            return True
        for a in pres.quiver.arrows_from[end]:
            new = (a.name,) + word
            if pres.word_is_nonzero(new) and extend(new, a.target):
                return True
        return False

    return any(extend((), v) for v in pres.quiver.vertices)


def test_automaton_soundness_against_capped_search():
    rng = random.Random(40404)
    for _ in range(25):
        pres = random_presentation(rng, require_finite=False)
        states, _, _ = pres.automaton()
        long_path = has_nonzero_path_longer_than(pres, len(states))
        assert (pres.automaton_cycle() is not None) == long_path


def one_relation_on_loops(loops, relation):
    """One vertex with the given loops and the single relation ``relation``."""
    quiver = Quiver(["1"], [Arrow(x, "1", "1") for x in loops])
    return MonomialPresentation(quiver, [quiver.path(relation)])


def test_automaton_states_are_bounded_by_the_relation_prefixes():
    # a^9 over four loops has 87,381 nonzero words shorter than the relation,
    # but only 8 proper relation prefixes
    a9 = one_relation_on_loops("abcd", "a" * 9)
    a10 = one_relation_on_loops("abcde", "a" * 10)
    assert len(a9.automaton()[0]) == 9
    for pres in [a9, a10] + corpus(25, seed=4242, require_finite=False):
        bound = sum(f.length - 1 for f in pres.minimal) + len(pres.quiver.vertices)
        assert len(pres.automaton()[0]) <= bound


def test_automaton_cycle_pumps():
    infinite = 0
    for pres in corpus(25, seed=4242, require_finite=False):
        cycle = pres.automaton_cycle()
        if cycle is None:
            continue
        infinite += 1
        word = tuple(reversed(cycle))  # composition order
        for k in range(1, 6):
            assert pres.word_is_nonzero(word * k), (presentation_to_text(pres), cycle)
    assert infinite
    assert one_relation_on_loops("abcd", "a" * 9).automaton_cycle() == ("a",) * 8 + ("b",)


def basis_reference(pres):
    """The nonzero paths in basis order, by extending each nonzero path by
    every arrow and keeping the words that pass the window scan."""
    paths = [pres.quiver.trivial_path(v) for v in pres.quiver.vertices]
    frontier = list(paths)
    while frontier:
        p = frontier.pop()
        for a in pres.quiver.arrows_from[p.target]:
            word = (a.name,) + p.arrows
            if pres.word_is_nonzero(word):
                q = Path(word, p.source, a.target)
                paths.append(q)
                frontier.append(q)
    return sorted(paths, key=pres.quiver.sort_key)


def test_basis_matches_the_window_scan_reference():
    from conftest import FIXTURE_NAMES, load
    from monosing.corpus import seeded_rng

    presentations = [load(name) for name in FIXTURE_NAMES + ["loc1"]]
    presentations += [pres.opposite() for pres in presentations]
    rng = seeded_rng()
    presentations += [random_presentation(rng) for _ in range(200)]
    for pres in presentations:
        assert list(pres.basis()) == basis_reference(pres), presentation_to_text(pres)


# sha256 of presentation_to_text over the first 50 draws of each generator;
# the seeded sweeps and the benchmark's gentle files rest on these draws
CORPUS_DIGESTS = {
    ("random_presentation", 174011):
        "485b16bb132a0b76a1d870f33284a5a64187baceb1b6b81f35134f4089848d7d",
    ("random_presentation", 1):
        "0e3c1740293508c0fdb5f82ac2fbd47fec469d0f83f95df9486af046ac4fdc6c",
    ("random_gentle_presentation", 174011):
        "a968ded95fe2ff2207d8209d810ddab7e7c06d67a9374412a908ae935a7da231",
    ("random_gentle_presentation", 1):
        "36e4e32ea69e1d4e34ceddea93ccd7f9fdbdf90c036e19130d081f9607a69acc",
}


@pytest.mark.parametrize("name, seed", sorted(CORPUS_DIGESTS))
def test_corpus_draws_are_pinned(name, seed):
    draw = getattr(corpus_module, name)
    rng = random.Random(seed)
    digest = hashlib.sha256()
    for _ in range(50):
        digest.update(presentation_to_text(draw(rng)).encode())
    assert digest.hexdigest() == CORPUS_DIGESTS[(name, seed)]


def test_large_corpus_draws_are_pinned():
    # the 4th draw once listed every word of up to 6 arrows before sampling
    rng = random.Random(174011)
    text = "".join(presentation_to_text(random_presentation(rng, 10, 16, 6))
                   for _ in range(4))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "6a7939578f883567ef9a5c66a3f03e602e3a7cff1ad228f2c76484c860e4f05e"


def test_a_word_population_past_an_index_is_refused():
    # one vertex with 40 loops has 40^2 + ... + 40^13 words of 2 to 13
    # arrows, more than len() can return: the draw names the size instead of
    # failing inside len() or random.sample
    class Widest(random.Random):
        def randint(self, a, b):
            return b

    size = sum(40 ** m for m in range(2, 14))
    with pytest.raises(ValueError, match=f"population has {size} words"):
        random_presentation(Widest(0), max_vertices=1, max_arrows=40, max_rel_len=13)
    loops = Quiver(["1"], [Arrow(f"x{i + 1}", "1", "1") for i in range(40)])
    words = corpus_module._Words(loops, 13)
    assert words.size == size
    with pytest.raises(ValueError, match=f"population has {size} words"):
        len(words)


def all_words_reference(quiver, length):
    """corpus._all_words as it was: every word of ``length`` arrows, listed."""
    words = [[a] for a in quiver.arrows]
    for _ in range(length - 1):
        nxt = []
        for w in words:
            for a in quiver.arrows_from[w[-1].target]:
                nxt.append(w + [a])
        words = nxt
    return [tuple(a.name for a in reversed(w)) for w in words]  # composition order


def test_word_sequence_matches_the_listing_reference():
    from conftest import FIXTURE_NAMES, load
    from monosing.corpus import seeded_rng

    quivers = [load(name).quiver for name in FIXTURE_NAMES + ["loc1"]]
    rng = seeded_rng()
    quivers += [random_presentation(rng, require_finite=False).quiver for _ in range(100)]
    for quiver in quivers:
        reference = []
        for max_len in range(2, 7):
            reference += all_words_reference(quiver, max_len)
            words = corpus_module._Words(quiver, max_len)
            assert len(words) == len(reference)
            assert list(words) == reference
            assert [words[i] for i in range(len(words))] == reference
        with pytest.raises(IndexError):
            words[len(words)]


def sort_key_reference(quiver, p):
    """Quiver.sort_key as it was: (length, traversal-order arrow indices)."""
    if p.is_trivial:
        return (0, (quiver.vertex_index(p.source),))
    return (p.length, tuple(quiver.arrow_index(a) for a in p.traversal))


def test_sort_key_matches_the_traversal_reference():
    from conftest import FIXTURE_NAMES, load, nakayama
    from monosing.corpus import random_gentle_presentation, seeded_rng

    presentations = [load(name) for name in FIXTURE_NAMES + ["loc1"]]
    rng = seeded_rng()
    presentations += [random_presentation(rng) for _ in range(100)]
    presentations += [random_gentle_presentation(rng) for _ in range(25)]
    presentations += [nakayama(n, m) for m in range(2, 7) for n in range(1, 9)]
    checked = 0
    for pres in presentations:
        for pr in (pres, pres.opposite()):
            q = pr.quiver
            for p in list(pr.basis()) + list(pr.minimal):
                assert q.sort_key(p) == sort_key_reference(q, p), str(p)
                checked += 1
    assert checked > 3000, checked


def automaton_reference(pres):
    """The relation automaton by a heads scan: for each state and arrow, every
    final factor of the new word is tested against F and against the
    relation prefixes, longest first."""
    prefixes = {f.arrows[k:] for f in pres.minimal for k in range(1, f.length)}
    forbidden = {f.arrows for f in pres.minimal}
    frontier = [((), v) for v in pres.quiver.vertices]
    states = set(frontier)
    edges = {}
    while frontier:
        state = frontier.pop()
        word, end = state
        out = edges[state] = []
        for a in pres.quiver.arrows_from[end]:
            heads = [(a.name,) + word[:k] for k in range(len(word), -1, -1)]
            if not forbidden.isdisjoint(heads):
                continue
            nxt = (next((h for h in heads if h in prefixes), ()), a.target)
            out.append((a.name, nxt))
            if nxt not in states:
                states.add(nxt)
                frontier.append(nxt)
    return states, edges


def first_cycle_reference(roots, edges):
    """The labels of the first cycle met by a depth-first search over the
    dict ``edges`` from ``roots`` in order, which stops there; or None."""
    pos = {}  # node -> stack position while on the stack, None once finished
    for root in roots:
        if root in pos:
            continue
        pos[root] = 0
        stack, trail = [(root, iter(edges[root]))], []
        while stack:
            _, it = stack[-1]
            for label, nxt in it:
                if nxt not in pos:
                    pos[nxt] = len(stack)
                    stack.append((nxt, iter(edges[nxt])))
                    trail.append(label)
                    break
                if pos[nxt] is not None:
                    return trail[pos[nxt]:] + [label]
            else:
                pos[stack.pop()[0]] = None
                if trail:
                    trail.pop()
    return None


def basis_walk_reference(pres, edges):
    """The nonzero paths by a depth-first walk of the automaton's edges,
    sorted by Quiver.sort_key."""
    paths = []
    frontier = [(pres.quiver.trivial_path(v), ((), v)) for v in pres.quiver.vertices]
    while frontier:
        p, state = frontier.pop()
        paths.append(p)
        for name, nxt in edges[state]:
            frontier.append((Path((name,) + p.arrows, p.source, nxt[1]), nxt))
    return sorted(paths, key=pres.quiver.sort_key)


class CountingSet(set):
    """A set that counts its membership tests."""

    lookups = 0

    def __contains__(self, item):
        self.lookups += 1
        return super().__contains__(item)


def core_corpus(require_finite=True):
    from conftest import nakayama
    from monosing.corpus import random_gentle_presentation, seeded_rng

    rng = seeded_rng()
    presentations = [random_presentation(rng, require_finite=require_finite)
                     for _ in range(150)]
    presentations += [random_gentle_presentation(rng) for _ in range(50)]
    presentations += [nakayama(n, m) for m in range(2, 8) for n in range(1, 30)]
    return presentations


def test_automaton_and_basis_match_the_heads_scan_and_sort_references():
    checked = infinite = 0
    for pres in core_corpus(require_finite=False):
        for pr in (pres, pres.opposite()):
            # each transition tests one word against F
            pr._forbidden = CountingSet(pr._forbidden)
            states, edges, cycle = pr.automaton()
            ref_states, ref_edges = automaton_reference(pr)
            assert states == ref_states, presentation_to_text(pr)
            assert edges == ref_edges, presentation_to_text(pr)
            roots = [((), v) for v in pr.quiver.vertices]
            ref_cycle = first_cycle_reference(roots, ref_edges)
            assert cycle == (None if ref_cycle is None else tuple(ref_cycle)), presentation_to_text(pr)
            pairs = sum(len(pr.quiver.arrows_from[end]) for _, end in states)
            assert pr._forbidden.lookups <= sum(f.length for f in pr.minimal) + pairs
            if pr.automaton_cycle() is not None:
                infinite += 1
                continue
            basis = pr.basis()
            assert basis.paths == tuple(basis_walk_reference(pr, ref_edges))
            assert basis.nontrivial() == [p for p in basis if not p.is_trivial]
            assert [basis.of_length(k) for k in range(basis.max_length() + 1)] == [
                [p for p in basis if p.length == k] for k in range(basis.max_length() + 1)]
            checked += 1
    assert checked > 500 and infinite > 20, (checked, infinite)


def test_a_long_relation_on_five_loops_is_refused_with_the_same_witness():
    a10 = one_relation_on_loops("abcde", "a" * 10)
    for pr in (a10, a10.opposite()):
        _, ref_edges = automaton_reference(pr)
        ref_cycle = first_cycle_reference([((), "1")], ref_edges)
        assert pr.automaton_cycle() == tuple(ref_cycle) == ("a",) * 9 + ("b",)
        with pytest.raises(InfiniteDimensional) as exc:
            pr.basis()
        assert exc.value.witness == tuple(ref_cycle)


def test_path_is_a_tuple_ordered_by_basis_rank():
    p = Path(("b", "a"), "1", "3")
    assert repr(p) == "Path(arrows=('b', 'a'), source='1', target='3')"
    assert str(p) == "a·b" and p.length == 2 and p.traversal == ("a", "b")
    assert hash(p) == hash((p.arrows, p.source, p.target))
    assert str(Path((), "2", "2")) == "e_2"
    checked = 0
    for pres in core_corpus():
        for pr in (pres, pres.opposite()):
            basis = pr.basis()
            shuffled = random.Random(checked).sample(basis.paths, basis.dimension)
            assert sorted(shuffled, key=basis.rank.__getitem__) == sorted(
                shuffled, key=pr.quiver.sort_key) == list(basis)
            assert list(basis.rank.values()) == list(range(basis.dimension))
            checked += basis.dimension
    assert checked > 10000, checked


class CountingDict(dict):
    """A dict that counts the reads of each key."""

    def __init__(self, items, reads):
        super().__init__(items)
        self.reads = reads

    def __getitem__(self, key):
        self.reads[key] += 1
        return super().__getitem__(key)


def test_one_walk_lists_each_automaton_states_out_edges_once(monkeypatch):
    # the cycle search builds the automaton's edges through its successors
    # callback, so building the automaton is the one walk over its states:
    # the finiteness test and the basis read the kept edges and cycle
    import monosing.presentation as presentation

    expanded = Counter()
    real = presentation.find_cycle

    def counting(roots, successors):
        def listed(node):
            expanded[node] += 1
            return successors(node)
        return real(roots, listed)

    monkeypatch.setattr(presentation, "find_cycle", counting)
    checked = 0
    for pres in core_corpus():
        pres._cache.clear()  # the draw tested its finiteness
        for pr in (pres, pres.opposite()):
            expanded.clear()
            reads = Counter()
            pr.quiver.arrows_from = CountingDict(pr.quiver.arrows_from, reads)
            states, _, cycle = pr.automaton()
            assert cycle is None and expanded == Counter(states)
            assert pr.is_finite_dimensional() and pr.automaton_cycle() is None
            pr.basis()
            assert expanded == Counter(states)
            assert reads == Counter(end for _, end in states)
            checked += 1
    assert checked > 500, checked


def test_find_cycle_reports_the_first_cycle_and_finishes_every_node():
    rng = random.Random(5150)
    cyclic = 0
    for _ in range(300):
        n = rng.randint(1, 9)
        succ = {x: [(f"{x}>{y}", y) for y in rng.sample(range(n), rng.randint(0, 3) % (n + 1))]
                for x in range(n)}
        roots = rng.sample(range(n), rng.randint(1, n))
        calls = Counter()
        cycle, finished = find_cycle(roots, lambda x: calls.update([x]) or succ[x])
        reached, todo = set(roots), list(roots)
        while todo:
            for _, y in succ[todo.pop()]:
                if y not in reached:
                    reached.add(y)
                    todo.append(y)
        assert sorted(finished) == sorted(reached) and calls == Counter(reached)
        assert cycle == first_cycle_reference(roots, succ)
        if cycle is not None:
            cyclic += 1
        else:
            rank = {x: i for i, x in enumerate(finished)}
            assert all(rank[y] < rank[x] for x in reached for _, y in succ[x])
    assert cyclic > 50, cyclic


def test_dumps_json_writes_the_json_modules_bytes():
    cases = [
        {}, [], (), [[]], [{}], {"a": {}}, {"a": [[], {}, [[]]]},
        ["quote \" and backslash \\", "\x00\x1f\t\n\r\x7f", "a·b", "é € 😀"],
        [True, 1, False, 0, None, -7, 10 ** 30],
        (1, ("x", (2,))), [1.5, -0.0, 1e300, float("nan"), float("inf"), float("-inf")],
        {1: "int key", 2.5: "float key", True: "bool key", None: "null key", "s": "str key"},
        {"·": ["e_1", "b·a"], "nested": {"deep": [{"x": [1, [2, [3]]]}, "y"]}},
        ["a", 1], [1, "a"], ["a", ["b"]], "plain", 5, None, False,
    ]
    for case in cases:
        assert dumps_json(case) == json.dumps(case, indent=2) + "\n", case


@pytest.mark.parametrize("bad", [object(), {"a": b"x"}, ["s", {1, 2}], {(1, 2): 1}, [Path]])
def test_dumps_json_rejects_what_json_rejects(bad):
    with pytest.raises(TypeError):
        json.dumps(bad, indent=2)
    with pytest.raises(TypeError):
        dumps_json(bad)
