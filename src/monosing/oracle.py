"""Exact linear-algebra homological oracle over the rationals.

Ground truth for the combinatorial layers: representations of kQ/I with one
matrix per arrow, minimal projective covers and resolutions, Hom/Ext spaces,
the injective-dimension (Gorenstein) profile, the Gorenstein-projective test,
and the classification crosscheck.  Nothing here consults perfect pairs or
minimal annihilator sets; the only shared foundation is the nonzero-path
basis itself.

Resolutions are minimal, and every full resolution ends certified, by one
rule.  From the second syzygy on, every module over a monomial algebra is a
direct sum of cyclic modules A e_v / (paths), each generated by a path
(B. Zimmermann-Huisgen, Predicting syzygies over monomial relations algebras,
Manuscripta Math. 70 (1991)).  The minimal cover P -> M built from M's top
lifts g certifies such a split directly: the cover is onto, so its nonzero
columns x.g span every vertex space, and when at every vertex their number
equals dim M_v they are a basis.  M is then the direct sum of the cyclic
modules A.g, each A e_v modulo the paths x with x.g = 0, and its class is
keyed by v and the words x with x.g != 0.  Dense syzygy steps run until a
cover certifies a split or 2 + (number of nontrivial basis paths) steps have
passed, a backstop certifying infinite pd since a finite one is bounded by
the longest descending chain of classes.  A finite resolution always ends in
a split: the cover of a projective syzygy is an isomorphism.
After a split each class is resolved once per presentation; its syzygy
splits again, into the classes of the next step.  A cycle reachable in this
class graph certifies infinite pd (PeriodicityDetected); otherwise pd is the
number of dense steps before the split plus the longest class path.

A class's syzygy is read off its key, with no module, cover or kernel.
The cover P_v -> A e_v/I of the class (v, words) sends each path from v to
itself or to zero, so its kernel is spanned by the killed paths, those
outside the words.  Each killed path falls under exactly one minimal killed
right factor x, a killed path whose right factor x[1:] survives, so the
kernel is the direct sum of the A.x.  The words are closed under right
factors, so y.x is killed exactly when it is nonzero: A.x is the class of
x's survivor key, generated in degree len(x).

Every module carries its support, the vertices with a nonzero space, and
the per-module work follows it: builders, validation, covers, kernels and
the split test walk the support and the arrows between its vertices, never
the whole quiver.  Only ``Representation.__init__`` fills ``dims`` and
``degrees`` over every vertex, so a module on k vertices still costs one
dict entry per vertex of the quiver.  Each step asks the cover for a split
before it takes the kernel, so the step that certifies a split builds no
kernel.  A dense step solves nothing: ``la.nullspace`` gives each kernel
vector a free column, its last nonzero entry, where every other kernel
vector at its vertex is zero, so the coordinates of an arrow's image are
its entries at the free columns, each divided by its kernel vector's entry
there, and the image must be the combination they give, else the kernel
is not closed under the action.

Each module holds its arrow action in one form, sparse columns
{row: entry}, one per basis vector of an arrow's source, and the dense
matrices ``mats`` are only a view derived from them on first read.  A
module spanned by paths, D(e_v A) included, sends each basis vector to one
basis vector or to zero, so its columns are {i: 1} or empty.  The top
lifts reduce the images of the arrows into a vertex with the last nonzero
index as pivot and keep the other indices; on unit columns the pivots are
the hit indices.  The cover walks P once, in basis order: a path's right
factor is shorter and starts at the same vertex, so its image is already
known, and the path's image is its first arrow's image of that one.  The
kernel rule is chosen by the shape of the cover's columns, one degree
block at a time.  When each column of the block is zero or a basis vector,
the kernel has e_j for each zero column j and e_j - e_i for each later
column j of the fibre whose first column is i, which is exactly
``la.nullspace``'s basis with the same free columns, found with no
elimination.  Any other block is made dense for ``la.nullspace``.

Hom from a class (v, W) to a module N is decided by generator images: a map
is fixed by the image y in N_v of the generator, and y is one iff x.y = 0
for every minimal killed path x; graded maps of shift s take as unknowns
only the coordinates of N_v in degree deg(g) + s.  Between two classes Hom
is counted, with nothing built or solved.  A map from (v, W) to (w, W') is
fixed by y = sum c_u u over the words u in W' ending at v.  For a fixed x
the paths x.u are distinct, so x.y = 0 splits into one condition per word:
Hom has a basis of the u with x.u outside W' for every minimal killed x.
The cover A e_w -> A e_w/I' sends each path to itself or to zero, so the
maps that factor through it are the u with every x.u zero in A, and the
stable Hom counts the u with x.u outside W' for every x and nonzero in A
for some x.  ``stable_hom_dim`` reads the Ext rule's sequence in its
second argument, with no map family built; only the torsionless test and
``_iso_witness`` compose families, from generator images on a cyclic source.

Three kinds of module are classes from the start and are never built for
their pd.  A cyclic injective summand D(e_v A) is the class
(s(w), {initial factors of w}), w a longest path into v: it is cyclic exactly
when the paths into v number len(w) + 1, so that each is a final factor of
w.  The simple S_v is the class (v, {e_v}).  Each is walked as the class
its one-generator cover would certify at step 1, which is exactly what
``resolve`` reports, and the global dimension builds nothing.  The path
module A.p is the class of p's survivor key, which the presentation owns
(``survivor_key``, and ``path_classes`` for the distinct non-projective
keys of the nontrivial paths).

A non-cyclic D(e_v A) has its first syzygy read off the maximal paths w_i
into v, its top (``_fibre_split``).  The column (i, x) of P0 = sum of the
A e_s(w_i) goes to the dual of q when w_i = q.x and to zero otherwise, so
Omega^1 is spanned by the killed columns and the fibre differences
(i, x_i) - (j, x_j) over a common final factor q.  An arrow c sends a
difference at q to the difference at q' when q = q'.c, and otherwise to
(i, c.x_i) - (j, c.x_j), a signed pair of minimal killed columns, or one
of them when the other path is zero.  So the top of Omega^1 has one
minimal killed column per ungrounded group of signed pairs and one
difference per extra block of each fibre, grouped by the arrow before q.
When their classes' words number dim P0 - dim D(e_v A) at every vertex,
Omega^1 is their direct sum, and the class walk from step 2 is the
summand's trace, with no module built.  The classes are listed as the
dense cover of Omega^1 lists its generators: the dense kernel orders
Omega^1's basis at a vertex by degree and then by P0 column (generator,
then path in basis order), and its top lifts, pivoted on last indices,
keep the least column of each component of rad Omega^1, which is the
column the fibre rule picks.  So an infinite trace names the same split
step and first class cycle as the dense resolution, and projective ranks
and syzygy dimensions, invariants of the minimal resolution, read the
same anyway.

When the certificate fails, the resolution goes on in path coordinates,
still with no module built (``_syzygy_in_paths``): Omega^k is held as its
top lifts written in P_(k-1)'s columns, and Omega^(k+1) is the kernel of
the cover P_k -> P_(k-1), until the lifts' classes certify a split or
``resolve``'s backstop is passed.  The trace is the dense resolution's:
the same generators, dimensions, split step and ordered classes.  Two
kernels do not always suffice; a summand may split only at Omega^3.

The crosscheck compares keys.  Over a Gorenstein algebra of level d the
Gorenstein-projective modules are the d-th syzygies and the M with
Ext^{1..d}(M, A) = 0 (Buchweitz 1986).  So each class of Omega^d of a path
class is Gorenstein projective, and as Omega permutes those finitely many
classes, each is Omega^d of another: they are the keys of Omega^d of the
path classes, read with no Ext into A.  Distinct keys are never isomorphic
classes: an isomorphism A e_v/I -> A e_v/J sends the generator to u + J
with u = e_v + (cycles at v), so I = {x : x.u in J}; a path x appears in
x.u with coefficient 1 beside only longer paths, and J is spanned by paths,
so x.u in J puts x in J.  That gives I <= J and, by symmetry, I = J.  So
the kept keys are the isomorphism classes, no isomorphism test runs, and
the perfect-path classification matches exactly when the keys of its
perfect paths are the kept keys, each once; no module is built for it.

Ext has one rule: Ext^1(X, N) = hom(Omega X, N) - hom(P_X, N) + hom(X, N)
for the minimal cover P_X -> X, and Ext^k(M, N) = Ext^1(Omega^(k-1) M, N).
Omega^(k-1) M is a dense syzygy of the trace before its split and a
multiset of classes after it; the syzygy of a class is the direct sum of
its children.  A class module splits at its first cover, so the
Gorenstein-projective test takes no dense step on it, and Ext^1 of a class
reads each Hom off its key's generator images.  The graded tilting check
resolves nothing itself: it starts from the crosscheck's Omega^d of the
path classes, each class with the degree of its generator, walks their
syzygies with the projective classes dropped, and counts the stable Hom
between them, so it builds no module and solves nothing.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg as la
from .errors import (
    InternalInvariantViolation,
    MismatchDetected,
    NotGorenstein,
    PresentationMismatch,
    UnknownArrow,
)
from .presentation import Path, find_cycle, memoized

FINITE = "Finite"
PERIODIC = "PeriodicityDetected"

DIM_CAP = 260  # not read by the oracle; benchmarks/run.py checks it never changes


class Representation:
    """Vertex spaces over Q and the arrows' action between them.

    ``support`` lists the vertices with a nonzero space, in quiver order;
    every per-module loop of the oracle walks it and the arrows between its
    vertices, never the whole quiver.  ``dims`` still answers for every
    vertex (0 off the support).

    ``degrees`` optionally tags every basis vector with an integer degree
    (arrow action must then raise degree by one).  ``key`` is set on a class
    module: the survivor key ``(v, words)`` of ``A e_v`` modulo the paths
    from v outside the words, whose basis is the words' paths from v in
    basis order, the generator ``e_v`` first at v.  Hom from a module with
    a key is decided by generator images.

    The action is held in one form, ``columns``: per arrow, one sparse
    column ``{row: entry}`` per basis vector of the source, and an arrow
    left out of it acts by zero.  A path span (the projectives, the class
    modules and the regular module) and D(e_v A) send each basis vector to
    one basis vector or to zero, so their columns are ``{i: 1}`` or ``{}``.
    A syzygy is given its columns; a module given dense ``mats``
    (target-dim x source-dim lists of rows) keeps their columns.  With
    ``validate``, a vertex off the quiver raises UnknownVertex, an arrow
    off it UnknownArrow and a negative dimension ValueError.

    ``mats`` is a view derived from the columns: every arrow between
    support vertices is built as a dense matrix when ``mats`` is first
    read, and the other arrows get their zero matrix on first read, as
    ``[]`` when it has no rows.  So ``Representation(pres, M.dims,
    M.mats)`` is always a copy of the module M.
    """

    def __init__(self, pres, dims, mats=None, degrees=None, key=None, validate=True,
                 columns=None):
        self.pres = pres
        q = pres.quiver
        if validate:
            self._check_names(dims, columns if mats is None else mats)
        self.support = tuple(sorted([v for v, n in dims.items() if n], key=q.vertex_index))
        self.dims = dict.fromkeys(q.vertices, 0)
        self.dims.update({v: dims[v] for v in self.support})
        if mats is not None:
            if validate:
                self._check_shapes(mats)
            columns = self._columns_of(mats)
        self.columns = columns or {}
        self.degrees = None if degrees is None else self._on_support(degrees)
        self.key = key
        self._cache = {}
        if validate:
            self._validate()

    def _on_support(self, per_vertex):
        """A vertex -> tuple map over the whole quiver, empty off the support."""
        full = dict.fromkeys(self.pres.quiver.vertices, ())
        full.update({v: tuple(per_vertex.get(v, ())) for v in self.support})
        return full

    def _check_names(self, dims, action):
        """Every vertex and arrow named lies on the quiver, and no dimension
        is negative."""
        q = self.pres.quiver
        for v, n in dims.items():
            q.trivial_path(v)  # UnknownVertex off the quiver
            if n < 0:
                raise ValueError(f"dimension {n} at vertex {v!r} is negative")
        for name in action or ():
            if name not in q.arrow_by_name:
                raise UnknownArrow(f"unknown arrow {name!r}")

    def _check_shapes(self, mats):
        arrows = self.pres.quiver.arrow_by_name
        dims = self.dims
        for name, m in mats.items():  # every matrix given, zero ends included
            a = arrows[name]
            if len(m) != dims[a.target]:
                raise InternalInvariantViolation(f"matrix for {name} has wrong row count")
            for row in m:
                if len(row) != dims[a.source]:
                    raise InternalInvariantViolation(f"matrix for {name} has wrong column count")

    def _columns_of(self, mats):
        """The sparse columns of the dense matrices between support vertices."""
        arrows = self.pres.quiver.arrow_by_name
        dims = self.dims
        columns = {}
        for name, m in mats.items():
            a = arrows[name]
            if dims[a.source] and dims[a.target]:
                columns[name] = [{i: row[j] for i, row in enumerate(m) if row[j]}
                                 for j in range(dims[a.source])]
        return columns

    def _validate(self):
        """Each arrow's columns fit the spaces at its ends, and every minimal
        relation whose word stays inside the support acts by zero, composed
        through the columns."""
        arrows = self.pres.quiver.arrow_by_name
        dims = self.dims
        for name, action in self.columns.items():
            a = arrows[name]
            if len(action) != dims[a.source]:
                raise InternalInvariantViolation(f"column list for {name} has wrong length")
            if any(not 0 <= i < dims[a.target] for col in action for i in col):
                raise InternalInvariantViolation(f"column list for {name} leaves the target space")
        q = self.pres.quiver
        relations = _relations_at(self.pres)
        for v in self.support:
            for f, stops in relations.get(v, ()):
                if not all(dims[u] for u in stops):
                    continue  # the word passes through a zero space, so it acts by zero
                for j in range(dims[q.source(f.arrows[-1])]):
                    if _word_image(self, f.arrows, {j: 1}):
                        raise InternalInvariantViolation(f"relation {f} acts nonzero")

    def image(self, name, vec):
        """The image under the arrow ``name`` of a sparse vector {index:
        entry} in its source space, as a sparse vector without zeros."""
        out = {}
        columns = self.columns.get(name)
        if columns is not None:
            for j, x in vec.items():
                for i, y in columns[j].items():
                    out[i] = out.get(i, 0) + x * y
        return {i: x for i, x in out.items() if x}

    @functools.cached_property
    def mats(self):
        """Dense arrow matrices (target-dim x source-dim), derived from the
        columns in full on first read."""
        dims = self.dims
        built = {}
        for a in _supported_arrows(self.pres, {v: dims[v] for v in self.support}):
            m = built[a.name] = la.zeros(dims[a.target], dims[a.source])
            for j in range(dims[a.source]):
                for i, x in self.image(a.name, {j: 1}).items():
                    m[i][j] = x
        arrow = self.pres.quiver.arrow_by_name
        return _ZeroBlocks(built, lambda a: (dims[arrow[a].target], dims[arrow[a].source]))

    @property
    def total_dim(self):
        return sum(self.dims[v] for v in self.support)

    def is_zero(self):
        return not self.support

    def dim_vector(self):
        return dict(self.dims)


def _word_image(M, word, vec):
    """The image under the composition-order arrow word of a sparse vector
    of M, one ``image`` per arrow, the last arrow of the word first."""
    for name in reversed(word):
        vec = M.image(name, vec)
    return vec


class _ZeroBlocks(dict):
    """Matrices by key (a representation's arrows, a map family's vertices):
    a key left out holds the zero matrix of ``shape(key)`` (rows, columns),
    made on first read, as ``[]`` when it has no rows."""

    __slots__ = ("_shape",)

    def __init__(self, mats, shape):
        super().__init__(mats)
        self._shape = shape

    def __missing__(self, key):
        rows, cols = self._shape(key)
        m = self[key] = la.zeros(rows, cols) if rows else []
        return m


def _family(M, N, mats):
    """A map family M -> N: vertex -> matrix, zero off the vertices given."""
    rows, cols = N.dims, M.dims
    return _ZeroBlocks(mats, lambda v: (rows[v], cols[v]))


@memoized
def _relations_at(pres):
    """The minimal relations by the vertex their word ends at, each with the
    vertices the word passes through."""
    q = pres.quiver
    index = {}
    for f in pres.minimal:
        end = q.target(f.arrows[0])
        index.setdefault(end, []).append((f, {end} | {q.source(a) for a in f.arrows}))
    return index


def _check_pair(M, N, degree_shift=None):
    """One presentation for both, and degrees on both when maps are graded."""
    if M.pres is not N.pres and M.pres != N.pres:
        raise PresentationMismatch("representations live over different presentations")
    if degree_shift is not None:
        for side, rep in (("source", M), ("target", N)):
            if rep.degrees is None:
                raise ValueError(f"degree_shift needs graded modules; the {side} has no degrees")


def zero_rep(pres):
    return Representation(pres, {}, {}, degrees={}, validate=False)


def _path_span(pres, elems):
    """The module spanned by tagged nonzero paths under left multiplication.

    ``elems`` lists ``(tag, path)``; each path is placed at its target in list
    order, and an arrow prepends itself when the longer word is listed under
    the same tag and sends the path to zero otherwise, so a list closed under
    right factors spans a quotient of the projectives.  Returns
    ``(dims, columns, by_vertex)`` over the support only, with
    ``by_vertex[v]`` the elements placed at v and ``columns`` each arrow's
    columns, ``{i: 1}`` for the element i it sends a path to and ``{}`` for
    zero; ``columns`` leaves out the arrows with a zero-dimensional end.
    """
    by_vertex = {}
    index = {}
    for tag, x in elems:
        placed = by_vertex.setdefault(x.target, [])
        index[(tag, x.arrows)] = len(placed)
        placed.append((tag, x))
    dims = {v: len(placed) for v, placed in by_vertex.items()}
    columns = {}
    for a in _supported_arrows(pres, dims):
        hits = (index.get((tag, (a.name,) + x.arrows)) for tag, x in by_vertex[a.source])
        columns[a.name] = [{} if i is None else {i: 1} for i in hits]
    return dims, columns, by_vertex


def _supported_arrows(pres, dims):
    """The arrows whose source and target spaces are both nonzero; ``dims``
    lists the nonzero spaces only."""
    arrows_from = pres.quiver.arrows_from
    return [a for v in dims for a in arrows_from[v] if a.target in dims]


def path_module_rep(pres, p):
    """The cyclic module on a nonzero path p, graded with its top in degree 0:
    the class module of p's survivor key, since q'p sorts like q'."""
    return _class_rep(pres, pres.survivor_key(p))  # raises ZeroPath


def _class_rep(pres, key):
    """The cyclic module A e_v modulo the paths from v outside the key's
    words; x.g sits in degree len(x), and g = e_v comes first."""
    dims, columns, by_vertex = _path_span(pres, [(None, x) for x in _class_paths(pres, key)])
    degrees = {u: tuple(x.length for _, x in placed) for u, placed in by_vertex.items()}
    return Representation(pres, dims, degrees=degrees, key=key, columns=columns)


def _class_paths(pres, key):
    """The paths x from v with x in the key's words, in basis order: the
    basis x.g of the class module."""
    v, words = key
    return [x for x in pres.basis().from_vertex(v) if x.arrows in words]


def regular_rep(pres):
    """The left regular module: basis all nonzero paths grouped by target."""
    dims, columns, by_vertex = _path_span(pres, [(w.source, w) for w in pres.basis()])
    degrees = {v: tuple(w.length for _, w in placed) for v, placed in by_vertex.items()}
    return Representation(pres, dims, degrees=degrees, columns=columns)


def dual_regular_rep(pres):
    """The dual of the right regular module, as a left module: the direct sum
    of the injective summands at every vertex."""
    return direct_sum(pres, [injective_summand_rep(pres, v) for v in pres.quiver.vertices])


def simple_rep(pres, v):
    """The simple module at v: the class (v, {e_v})."""
    pres.quiver.trivial_path(v)  # UnknownVertex off the quiver
    return _class_rep(pres, (v, frozenset({()})))


def direct_sum(pres, reps):
    if not reps:
        return zero_rep(pres)
    dims = {}
    for r in reps:
        for v in r.support:
            dims[v] = dims.get(v, 0) + r.dims[v]
    columns = {}
    for a in _supported_arrows(pres, dims):
        cols = columns[a.name] = []
        offset = 0  # the summand's first row at the target
        for r in reps:
            for j in range(r.dims[a.source]):
                cols.append({offset + i: x for i, x in r.image(a.name, {j: 1}).items()})
            offset += r.dims[a.target]
    degrees = None
    if all(r.degrees is not None for r in reps):
        degrees = {v: tuple(d for r in reps for d in r.degrees[v]) for v in dims}
    return Representation(pres, dims, degrees=degrees, validate=False, columns=columns)


# -- minimal covers, syzygies, resolutions ------------------------------------


@dataclass
class ProjectiveLayer:
    """One term of a minimal resolution: P = direct sum of Ae_v with shifts."""

    gens: list  # [(vertex, degree)]
    pbasis: dict  # vertex of P's support -> list of (gen index, path)
    rep: object  # Representation of P


def _build_projective(pres, gens):
    basis = pres.basis()
    elems = [(gi, x) for gi, (v, _) in enumerate(gens) for x in basis.from_vertex(v)]
    dims, columns, pbasis = _path_span(pres, elems)
    degrees = {v: tuple(gens[gi][1] + x.length for gi, x in placed)
               for v, placed in pbasis.items()}
    rep = Representation(pres, dims, degrees=degrees, validate=False, columns=columns)
    return ProjectiveLayer(gens=list(gens), pbasis=pbasis, rep=rep)


def top_lifts(rep):
    """Standard-basis lifts of top(M) = M/rad M, per support vertex, homogeneous.

    The images of the arrows into v are reduced to a basis with distinct
    last nonzero indices (``_last_index_pivots``), and the top lifts are the
    other indices: e_i lies in rad M + <e_k : k < i> exactly when some
    vector of rad M ends at i, so these are the identity columns that
    ``la.pivot_columns`` keeps in ``[images | identity]``.  On unit columns
    the pivots are the indices the arrows hit."""
    dims = rep.dims
    arrows_into = rep.pres.quiver.arrows_into
    lifts = {}
    for v in rep.support:
        into = [a.name for a in arrows_into[v] if dims[a.source]]
        hit = _last_index_pivots(col for a in into for col in rep.columns.get(a, ()))
        lifts[v] = [j for j in range(dims[v]) if j not in hit]
    return lifts


def _last_index_pivots(vectors):
    """The last nonzero indices of an echelon basis of the span of the
    sparse vectors: each vector is reduced by the basis vectors kept so
    far, one per last index, each with entry 1 there."""
    basis = {}
    for vec in vectors:
        vec = dict(vec)
        while vec:
            p = max(vec)
            x = vec[p]
            b = basis.get(p)
            if b is None:
                basis[p] = _divided(vec, x)
                break
            _subtract(vec, x, b)
    return basis.keys()


def _divided(vec, x):
    """The sparse vector vec / x, integral when vec is and x is 1 or -1."""
    if x == 1:
        return vec
    if x == -1:
        return {i: -y for i, y in vec.items()}
    x = Fraction(x)
    return {i: y / x for i, y in vec.items()}


def _subtract(vec, s, other):
    """vec -= s * other, in place, on sparse vectors without zeros."""
    for i, y in other.items():
        t = vec.get(i, 0) - s * y
        if t:
            vec[i] = t
        else:
            del vec[i]


def projective_cover(rep):
    """(layer, cover blocks): minimal cover P -> M with P from top lifts.

    P is walked once, in basis order: generator by generator, the paths
    from its vertex in canonical order, so each path's right factor
    ``word[1:]``, shorter and from the same vertex, is already imaged, and
    the path's image is its first arrow's image of that one, a sparse
    column {row: entry}.  ``cover`` has one block per vertex of P's
    support, which contains M's since the cover is onto: the images of P's
    basis at that vertex, in basis order.
    """
    basis = rep.pres.basis()
    lifts = top_lifts(rep)
    gens = []
    cover = {}
    for v in rep.support:
        for j in lifts[v]:
            gens.append((v, rep.degrees[v][j] if rep.degrees is not None else 0))
            images = {}
            for x in basis.from_vertex(v):
                word = x.arrows
                image = rep.image(word[0], images[word[1:]]) if word else {j: 1}
                images[word] = image
                cover.setdefault(x.target, []).append(image)
    return _build_projective(rep.pres, gens), cover


def _cover_matrix(rep, cover, v):
    """The cover's block at v as a dense matrix, with one row per basis
    vector of M_v and one column per basis vector of P_v."""
    block = cover[v]
    m = la.zeros(rep.dims[v], len(block))
    for j, image in enumerate(block):
        for i, x in image.items():
            m[i][j] = x
    return m


@memoized
def _module_cover(rep):
    """``projective_cover(rep)``, memoized on the module, so ``resolve`` and
    every stable Hom into it share one cover."""
    return projective_cover(rep)


def _kernel_blocks(rep, layer, cover):
    """Homogeneous kernel basis of the cover, per vertex of P's support, as
    (free column, vector) pairs, each vector a dict {column: entry}: the
    free column is the vector's last nonzero entry, and every other vector
    at the vertex is zero there.

    The rule follows the columns' shape.  When every cover column of a
    degree block is zero or a basis vector, a zero column j gives e_j and
    each later column j of a fibre gives e_j - e_first: ``la.nullspace``'s
    basis, with the same free columns in the same order, and no
    elimination.  Any other block is made dense for ``la.nullspace``, its
    columns read off ``_cover_matrix``; ``resolve`` takes a kernel only
    when the cover certified no split."""
    kernel = {}
    for v in layer.rep.support:
        ncols = layer.rep.dims[v]
        pdeg = layer.rep.degrees[v] if rep.degrees is not None else (None,) * ncols
        groups = {}
        for j, d in enumerate(pdeg):
            groups.setdefault(d, []).append(j)
        block = cover[v]
        dense = None
        cols = []
        for dkey in sorted(groups, key=lambda x: (x is not None, x)):
            idx = groups[dkey]
            if all(not block[j] or list(block[j].values()) == [1] for j in idx):
                first = {}
                for j in idx:
                    if not block[j]:
                        cols.append((j, {j: 1}))
                        continue
                    (i,) = block[j]
                    if i in first:
                        cols.append((j, {first[i]: -1, j: 1}))
                    else:
                        first[i] = j
                continue
            if dense is None:
                dense = _cover_matrix(rep, cover, v)
            sub = [[row[j] for j in idx] for row in dense]
            for vec in la.nullspace(sub, len(idx)):
                full = {j: x for j, x in zip(idx, vec) if x}
                cols.append((max(full), full))
        kernel[v] = cols
    return kernel


def syzygy_step(rep):
    """Minimal cover (kept on the module) and its kernel; returns (layer,
    cover, kernel rep, kernel columns), each kernel column a sparse vector
    {column: entry} over P's basis at its vertex.  A kernel vector moves
    through ``P.image``, P's unit columns.  Coordinate i of an arrow's image
    is its entry at the free column f_i of kernel vector k_i over k_i[f_i],
    and the image must be the combination of the k_i with those
    coefficients; the kernel rep keeps those coordinates as its sparse
    columns."""
    pres = rep.pres
    layer, cover = _module_cover(rep)
    blocks = _kernel_blocks(rep, layer, cover)
    P = layer.rep
    # minimality: kernel must avoid the generator coordinates
    for v, placed in layer.pbasis.items():
        gen_positions = [j for j, (gi, x) in enumerate(placed) if x.is_trivial]
        for _, vec in blocks[v]:
            if any(j in vec for j in gen_positions):
                raise InternalInvariantViolation("projective cover is not minimal")
    dims = {v: len(pairs) for v, pairs in blocks.items() if pairs}
    # the action on the kernel; an arrow into a zero kernel space must still
    # send every kernel vector to zero, so closure is checked before skipping
    free = {v: {f: (i, k) for i, (f, k) in enumerate(pairs)} for v, pairs in blocks.items()}
    columns = {}
    for src in dims:
        for a in pres.quiver.arrows_from[src]:
            tgt = a.target
            cols = []
            for _, vec in blocks[src]:
                img = P.image(a.name, vec)
                col = {}
                for f, y in list(img.items()):
                    if f not in free[tgt]:
                        continue
                    i, k = free[tgt][f]
                    c = y if k[f] == 1 else Fraction(y, k[f])
                    col[i] = c
                    for t, x in k.items():
                        img[t] = img.get(t, 0) - c * x
                if any(img.values()):
                    raise InternalInvariantViolation("syzygy is not closed under the action")
                cols.append(col)
            if tgt in dims:
                columns[a.name] = cols
    degrees = None
    if rep.degrees is not None:
        degrees = {v: tuple(P.degrees[v][f] for f, _ in blocks[v]) for v in dims}
    krep = Representation(pres, dims, degrees=degrees, validate=False, columns=columns)
    kernel = {v: [vec for _, vec in pairs] for v, pairs in blocks.items()}
    return layer, cover, krep, kernel


@dataclass
class ResolutionTrace:
    """A minimal projective resolution with its termination status."""

    module: object
    layers: list = field(default_factory=list)  # ProjectiveLayer per step
    syzygies: list = field(default_factory=list)  # Omega^k representations, k >= 1
    classes: list = None  # the split: class keys of Omega^len(syzygies), set by _class_walk
    status: str = None
    pd: int = None
    detail: str = ""


def resolve(rep):
    """Minimal resolution of rep with its termination status.

    Each step covers the module, keeping the cover on it
    (``_module_cover``), and asks whether the cover certifies a split into
    summand classes, which are then walked (``Finite`` or
    ``PeriodicityDetected``, see the module docstring).  Otherwise the step
    takes the kernel, a dense syzygy step.  A resolution still alive after
    bound + 1 steps is ``PeriodicityDetected``: bound = 2 + (number of
    nontrivial basis paths) is the sound upper limit on finite projective
    dimensions over a monomial algebra.  After a walk the layers stop at
    the split and the syzygies one step before it.
    """
    pres = rep.pres
    bound = _backstop(pres)
    trace = ResolutionTrace(module=rep)
    if rep.is_zero():
        trace.status, trace.pd = FINITE, 0
        return trace
    cur = rep
    k = 0
    while True:
        k += 1
        layer, cover = _module_cover(cur)
        trace.layers.append(layer)
        classes = _summand_classes(cur, layer, cover)
        if classes is not None:
            return _class_walk(pres, trace, classes, k)
        _, _, cur, _ = syzygy_step(cur)
        trace.syzygies.append(cur)
        if k > bound:
            return _past_backstop(trace, bound)


def _backstop(pres):
    """2 + (number of nontrivial basis paths), the sound upper limit on
    finite projective dimensions over a monomial algebra."""
    return 2 + max(0, pres.basis().dimension - len(pres.quiver.vertices))


def _past_backstop(trace, bound):
    """Finish a trace still alive after bound + 1 steps: periodic."""
    trace.status = PERIODIC
    trace.detail = (f"resolution alive after the finite-pd bound {bound}; "
                    "syzygy classes over a monomial algebra must recur")
    return trace


def _summand_classes(rep, layer, cover):
    """The class keys of rep's summands on its top lifts, or None when the
    cover does not certify a split (see the module docstring)."""
    words = [[] for _ in layer.gens]
    for v, placed in layer.pbasis.items():
        nonzero = [col for col, image in enumerate(cover[v]) if image]
        if len(nonzero) != rep.dims[v]:
            return None
        for col in nonzero:
            gi, x = placed[col]
            words[gi].append(x.arrows)
    return [(v, frozenset(ws)) for (v, _), ws in zip(layer.gens, words)]


def _minimal_killed(pres, v, words):
    """The minimal killed paths of the cyclic module (v, words), in canonical
    order: the paths x from v outside the words whose right factor x[1:] is
    one of them.  Every other killed path is a left multiple of one."""
    return [x for x in pres.basis().from_vertex(v)
            if x.arrows not in words and x.arrows[1:] in words]


@memoized
def _class_children(pres, key):
    """The summand classes of a class's syzygy as (class key, generator
    degree) pairs, the class generated in degree 0.  A projective class
    kills no path and has none.

    The child of each minimal killed path x is the class of x's survivor
    key in degree len(x) (see the module docstring for why this is exact),
    in the order a dense syzygy step and its cover would list them: by t(x)
    in quiver order, then in canonical path order.
    """
    minimal = sorted(_minimal_killed(pres, *key),
                     key=lambda x: pres.quiver.vertex_index(x.target))
    return [(pres.survivor_key(x), x.length) for x in minimal]


def _class_walk(pres, trace, classes, k):
    """Finish a trace whose step-k cover split into ``classes``."""
    trace.classes = classes
    cycle, finished = find_cycle(
        classes, lambda key: [(child, child) for child, _ in _class_children(pres, key)])
    if cycle is not None:
        trace.status = PERIODIC
        trace.detail = (f"Omega^{k - 1} splits into summand classes that reach "
                        f"a cycle of {len(cycle)} classes")
        return trace
    height = {}  # the pd of each class: children finish before their parents
    for key in finished:
        height[key] = 1 + max((height[c] for c, _ in _class_children(pres, key)), default=-1)
    trace.status, trace.pd = FINITE, k - 1 + max(height[key] for key in classes)
    return trace


# -- Hom and Ext ---------------------------------------------------------------


def hom_basis(M, N, degree_shift=None):
    """Basis of Hom(M, N) as vertex-matrix families.

    With ``degree_shift`` s, restricts to maps sending degree d to degree
    d + s (both representations must carry degrees).  This is the dense
    path, for sources without a generator; ``hom_basis_from_cyclic`` decides
    Hom from a cyclic source.
    """
    _check_pair(M, N, degree_shift)
    pres = M.pres
    unknowns = []  # (vertex, i, j)
    index = {}
    for v in M.support:
        for i in range(N.dims[v]):
            for j in range(M.dims[v]):
                if degree_shift is not None:
                    if N.degrees[v][i] != M.degrees[v][j] + degree_shift:
                        continue
                index[(v, i, j)] = len(unknowns)
                unknowns.append((v, i, j))
    rows = []  # per arrow u -> w, i in N_w and j in M_u: the square commutes
    for u in M.support:
        for a in pres.quiver.arrows_from[u]:
            w = a.target
            if not N.dims[w]:
                continue
            Na, Ma = N.mats[a.name], M.mats[a.name]
            for i in range(N.dims[w]):
                for j in range(M.dims[u]):
                    row = [0] * len(unknowns)
                    used = False
                    for t in range(N.dims[u]):
                        if Na[i][t] and (u, t, j) in index:
                            row[index[(u, t, j)]] += Na[i][t]
                            used = True
                    for t in range(M.dims[w]):
                        if Ma[t][j] and (w, i, t) in index:
                            row[index[(w, i, t)]] -= Ma[t][j]
                            used = True
                    if used:
                        rows.append(row)
    out = []
    for vec in la.nullspace(rows, len(unknowns)):
        fam = _family(M, N, {})
        for val, (v, i, j) in zip(vec, unknowns):
            if val:
                fam[v][i][j] = val
        out.append(fam)
    return out


def _generator(M):
    """The key (v, words) of a class module, whose generator is e_v."""
    if M.key is None:
        raise ValueError("Hom by generator images needs a cyclic source; "
                         "the source has no generator (no key)")
    return M.key


def _generator_images(v, words, N, free):
    """Basis of the generator images of maps from the class (v, words) to
    N, each zero off the coordinates ``free`` of N_v: the y with x.y = 0
    for every minimal killed path x.  Every other killed path is a left
    multiple of one.  With no free coordinate nothing is solved."""
    if not free:
        return []
    rows = []
    for x in _minimal_killed(N.pres, v, words):
        images = [_word_image(N, x.arrows, {i: 1}) for i in free]
        for r in sorted({r for image in images for r in image}):
            rows.append([image.get(r, 0) for image in images])
    ys = []
    for vec in la.nullspace(rows, len(free)):
        y = [0] * N.dims[v]
        for i, val in zip(free, vec):
            y[i] = val
        ys.append(y)
    return ys


def hom_basis_from_cyclic(M, N, degree_shift=None):
    """Hom(M, N) for cyclic M with simple top, via generator images.

    Requires M.key (ValueError otherwise); every path outside the key's
    words kills the generator g = e_{v0}, as in the class modules and
    simples built here.  A map is fixed by y = f(g) in N_{v0}, and y is such
    an image iff x.y = 0 for every path x with x.g = 0.  The killed paths
    whose right factor x[1:] survives suffice: every other killed path is a
    left multiple of one.  With ``degree_shift`` s only the coordinates of
    N_{v0} in degree deg(g) + s are unknowns, so the maps send degree d to
    degree d + s, and with no such coordinate the basis is empty at no
    further cost.  Returns (image space basis, builder) where builder(y)
    makes the vertex-matrix family on M's support.
    """
    _check_pair(M, N, degree_shift)
    v0, words = _generator(M)
    if degree_shift is None:
        free = range(N.dims[v0])
    else:
        top = M.degrees[v0][0] + degree_shift
        free = [i for i, d in enumerate(N.degrees[v0]) if d == top]
    ys = _generator_images(v0, words, N, free)

    def build(y):
        columns = {}  # the images x.y of M's basis x.g, by vertex in basis order
        vec = {i: val for i, val in enumerate(y) if val}
        for x in _class_paths(M.pres, M.key):
            n = N.dims[x.target]
            if n:
                image = _word_image(N, x.arrows, vec)
                columns.setdefault(x.target, []).append([image.get(i, 0) for i in range(n)])
        return _family(M, N, {v: [list(row) for row in zip(*cols)]
                              for v, cols in columns.items()})

    return ys, build


def hom_dim(M, N, degree_shift=None):
    """dim Hom_A(M, N), of the maps of shift ``degree_shift`` when given."""
    if M.key is not None:
        ys, _ = hom_basis_from_cyclic(M, N, degree_shift)
        return len(ys)
    return len(hom_basis(M, N, degree_shift))


def _hom_family_basis(M, N, degree_shift=None):
    """Hom(M, N) as vertex-matrix families, from a source of any kind."""
    if M.key is not None:
        ys, build = hom_basis_from_cyclic(M, N, degree_shift)
        return [build(y) for y in ys]
    return hom_basis(M, N, degree_shift=degree_shift)


def stable_hom_dim(M, N, degree_shift=None):
    """dim of Hom(M, N) modulo maps factoring through a projective.

    A map factors through a projective iff it factors through the minimal
    cover P_N -> N.  Hom(M, -) is left exact on 0 -> Omega N -> P_N -> N,
    so those maps number hom(M, P_N) - hom(M, Omega N).  With
    ``degree_shift`` s every Hom keeps only the maps sending degree d to
    degree d + s (M and N must carry degrees).  Between two classes the
    oracle counts words instead (``_class_stable_hom``).
    """
    hom = hom_dim(M, N, degree_shift)
    if not hom:
        return 0
    layer, _ = _module_cover(N)
    return hom - hom_dim(M, layer.rep, degree_shift) + hom_dim(M, syzygy_rep(N), degree_shift)


def _ext1(hom_omega, top, hom_x):
    """dim Ext^1(X, N) from 0 -> Hom(X, N) -> Hom(P_X, N) -> Hom(Omega X, N)
    -> Ext^1(X, N) -> 0, with ``top`` = dim Hom(P_X, N) = sum of dim N_v
    over the generators v of the minimal cover P_X."""
    return hom_omega - top + hom_x


def ext_dim(M, N, k):
    """dim Ext^k_A(M, N) for k >= 1, read off M's resolution.  Modules of
    two presentations raise PresentationMismatch."""
    if k < 1:
        raise ValueError("ext_dim needs k >= 1")
    _check_pair(M, N)
    return _ext_from_trace(resolve(M), N, k)


def _ext_from_trace(trace, N, k):
    """Ext^k(M, N) = Ext^1(Omega^(k-1) M, N) off M's resolution trace: on
    its dense head, then summed over the multiset of classes.  A backstop
    trace, alive past the bound with no split, has only its dense head."""
    if trace.status == FINITE and trace.pd < k:
        return 0
    split = len(trace.syzygies)  # Omega^split M is the direct sum of trace.classes
    if k <= split:
        X = trace.module if k == 1 else trace.syzygies[k - 2]
        top = sum(N.dims[v] for v, _ in trace.layers[k - 1].gens)
        return _ext1(hom_dim(trace.syzygies[k - 1], N), top, hom_dim(X, N))
    if trace.classes is None:
        raise InternalInvariantViolation(
            f"Ext^{k} lies past the {split} dense steps of a trace with no split")
    summands = Counter(trace.classes)
    for _ in range(k - 1 - split):
        summands = _class_syzygy(N.pres, summands)
    return sum(m * _class_ext1(key, N) for key, m in summands.items())


def _class_syzygy(pres, summands):
    """Omega of a direct sum of classes; both are Counters of class keys."""
    out = Counter()
    for key, m in summands.items():
        for child, _ in _class_children(pres, key):
            out[child] += m
    return out


def _class_ext1(key, N):
    """Ext^1 of a class module into N: one generator, at key[0], and the
    children.  Each Hom from a class is read off the key's generator
    images, so no class module is built."""
    pres = N.pres
    if pres.key_is_projective(key):
        return 0

    def hom(c):  # dim Hom(class c, N), by generator images
        return len(_generator_images(*c, N, range(N.dims[c[0]])))

    hom_omega = sum(hom(c) for c, _ in _class_children(pres, key))
    return _ext1(hom_omega, N.dims[key[0]], hom(key))


# -- Gorenstein profile --------------------------------------------------------


@dataclass
class SideStatus:
    """Aggregated resolution status of the dual regular module on one side."""

    status: str
    length: int = None
    detail: str = ""

    def to_json(self):
        return {"status": self.status, "length": self.length, "detail": self.detail}


def injective_summand_rep(pres, v):
    """D(e_v A) as a left module: the dual of each path w into v sits at
    s(w), in ``into_vertex(v)`` order, in degree -len(w).  The arrow a
    sends it to the dual of w[:-1] when w traverses a first (w[-1] == a),
    and to zero otherwise."""
    pres.quiver.trivial_path(v)  # UnknownVertex off the quiver
    by_vertex = {}
    index = {}
    for w in pres.basis().into_vertex(v):
        placed = by_vertex.setdefault(w.source, [])
        index[w.arrows] = len(placed)
        placed.append(w.arrows)
    dims = {u: len(placed) for u, placed in by_vertex.items()}
    columns = {a.name: [{index[w[:-1]]: 1} if w and w[-1] == a.name else {}
                        for w in by_vertex[a.source]]
               for a in _supported_arrows(pres, dims)}
    degrees = {u: tuple(-len(w) for w in placed) for u, placed in by_vertex.items()}
    return Representation(pres, dims, degrees=degrees, columns=columns)


def _injective_summand_key(pres, v):
    """The class key of D(e_v A) when it is cyclic, else None.

    D(e_v A) has the duals of the paths into v as its basis, and a word x
    sends the dual of w to the dual of w with its initial factor x removed
    (zero when x is no initial factor of w).  Let w be a longest path into
    v.  Its final factors are len(w) + 1 paths into v, so when there are no
    others, the dual of w generates and D(e_v A) is the class
    (s(w), {initial factors of w}).  Otherwise a second path into v is no
    final factor of w and D(e_v A) has two top elements.
    """
    paths = pres.basis().into_vertex(v)  # a longest path comes last
    w = paths[-1]
    if len(paths) != w.length + 1:
        return None
    return (w.source, frozenset(w.arrows[k:] for k in range(w.length + 1)))


def _class_trace(pres, key):
    """The resolution of the class module of ``key`` as ``resolve`` reports
    it: the cover by one generator certifies the split at step 1, so status,
    pd and detail come from the class walk, with no module built here."""
    return _class_walk(pres, ResolutionTrace(module=None), [key], 1)


@dataclass(frozen=True)
class _Counted:
    """A syzygy the fibre rule counts but never builds: the trace report
    reads only its dimension."""

    total_dim: int


@memoized
def _class_dims(pres, key):
    """The dimension vector of the class module of ``key``, as a Counter
    over its nonzero entries: each word sits at its target."""
    v, words = key
    target = pres.quiver.target
    return Counter(target(w[0]) if w else v for w in words)


def _fibre_split(pres, v):
    """(P0's generators, Omega^1's dimension vector, the classes of
    Omega^1's top generators, lifts) for the non-cyclic D(e_v A), read off
    the maximal paths into v with no module built (see the module
    docstring).  Omega^1 is the direct sum of the classes when the
    certificate holds: their words number dim P0 - dim D(e_v A) at every
    vertex.  Then ``lifts`` is None; otherwise it lists the top generators
    as ``(vertex, degree, vector)`` in P0's coordinates, for
    ``_syzygy_in_paths``: e_(i, c.x_i) for a killed column, and
    e_(i, x_i) - e_(leader) for a fibre difference.

    P0's generators are listed in ``top_lifts`` order.  A minimal killed
    column (i, c.x_i) belongs to exactly one group of signed pairs, the one
    of its final factor q (w_i = q.x_i) and its arrow c, so the components
    of the pairs are these groups, with no union-find: a group is tied to
    the ground when some c.x_j is zero in A, and otherwise its first
    member is a generator.

    The classes come in the dense cover's order of Omega^1's top lifts:
    by the quiver index of the column's vertex, its degree, i and the
    basis rank of its path.  A killed column (i, c.x_i) sits at t(c) in
    degree 1 - len(q); a difference at q sits at s(q) in degree -len(q),
    placed by its later member (i, x_i), the first of its block.
    """
    basis = pres.basis()
    quiver = pres.quiver
    into = basis.into_vertex(v)
    extended = {w.arrows[:-1] for w in into if w.arrows}
    index = quiver.vertex_index
    rank = basis.rank
    tops = sorted((w for w in into if w.arrows not in extended), key=lambda w: index(w.source))
    fibres = {}
    for i, w in enumerate(tops):
        for k in range(w.length + 1):
            fibres.setdefault(w.arrows[:k], []).append((i, w.source, w.arrows[k:]))
    lifts = []  # (place in the dense cover's order, class, P0 columns of the lift)
    for q, members in fibres.items():  # members: (i, s(w_i), x_i) with w_i = q.x_i
        u = quiver.source(q[-1]) if q else v
        # one minimal killed column per ungrounded group (q, c)
        for c in quiver.arrows_from[u]:
            if q and c.name == q[-1]:
                continue
            if all(pres.word_is_nonzero((c.name,) + x) for _, _, x in members):
                i, s, x = members[0]
                y = Path((c.name,) + x, s, c.target)
                r = rank[y]
                lifts.append(((index(c.target), 1 - len(q), i, r), pres.survivor_key(y),
                              ((i, r),)))
        # one difference per block past the first, blocks by the arrow before q
        blocks = {}
        for i, s, x in members:
            blocks.setdefault(x[:1], (i, s, x))
        if len(blocks) > 1:
            (lead, s, x), *rest = blocks.values()
            leader = Path(x, s, u)
            words = pres.survivor_key(leader)[1]
            for i, t, y in rest:
                p = Path(y, t, u)
                r = rank[p]
                lifts.append(((index(u), -len(q), i, r), (u, words | pres.survivor_key(p)[1]),
                              ((i, r), (lead, rank[leader]))))
    lifts.sort(key=lambda lift: lift[0])
    classes = [key for _, key, _ in lifts]
    omega = Counter()  # dim P0 - dim D(e_v A), per vertex
    for w in tops:
        omega.update(p.target for p in basis.from_vertex(w.source))
    omega.subtract(w.source for w in into)
    gens = [(w.source, -w.length) for w in tops]
    if _counted(pres, classes) == omega:
        return gens, omega, classes, None
    return gens, omega, classes, [(key[0], order[1], dict(zip(cols, (1, -1))))
                                  for order, key, cols in lifts]


@memoized
def _left_products(pres):
    """By basis rank, each nonzero path's nonzero left multiples a.p by
    arrow name, as basis ranks."""
    basis = pres.basis()
    rank = basis.rank
    arrows_from = pres.quiver.arrows_from
    out = []
    for p in basis:
        products = {}
        for a in arrows_from[p.target]:
            r = rank.get(Path((a.name,) + p.arrows, p.source, a.target))
            if r is not None:
                products[a.name] = r
        out.append(products)
    return out


def _counted(pres, classes):
    """The words of the classes, counted by the vertex they end at: the
    dimension vector of their direct sum."""
    counted = Counter()
    for key in classes:
        counted.update(_class_dims(pres, key))
    return counted


def _syzygy_in_paths(pres, lifts):
    """One resolution step in path coordinates, from the top lifts of
    Omega^k written in P_(k-1)'s columns (generator index, path): returns
    Omega^(k+1)'s dimension vector, the classes of its top lifts and the
    lifts, the lifts None when the classes certify a split.

    P_k has one generator per lift, in lift order, and its column (g, z)
    goes to z.g: each path p of g's support becomes z.p, and the terms zero
    in A drop.  Omega^k sits inside P_(k-1), so Omega^(k+1) is the kernel of
    this map, taken per (vertex, degree) block, columns in P_k's order: a
    column is free when it lies in the span of the earlier ones, and its
    kernel vector is the combination with 1 there and its other entries on
    pivot columns, which ``la.nullspace`` gives up to scaling, as a reduced
    kernel basis is unique.  Omega^(k+1)'s basis at a vertex comes by
    degree and then by free column, and an arrow's image of a kernel
    vector has its free-column entries as its coordinates, so
    ``_last_index_pivots`` on those images leaves the top lifts, as in
    ``top_lifts``.  The class of a lift is (its vertex, the union of the
    survivor words of the paths in its support): z.g is nonzero exactly
    when z.p is for one of them, as distinct paths p give distinct z.p.
    """
    basis = pres.basis()
    rank = basis.rank
    left = _left_products(pres)
    blocks = {}  # (vertex, degree) -> [(P_k column, its image in P_(k-1))], in P_k's order
    for g, (t, d, vec) in enumerate(lifts):
        images = {}  # z's word -> z.g; z's right factor z[1:] comes first in basis order
        for z in basis.from_vertex(t):
            word = z.arrows
            if word:
                a = word[0]
                image = {}
                for (i, r), c in images[word[1:]].items():
                    r = left[r].get(a)
                    if r is not None:
                        image[(i, r)] = c
            else:
                image = vec
            images[word] = image
            blocks.setdefault((z.target, d + len(word)), []).append(((g, rank[z]), image))
    kernel = {}  # vertex -> [(degree, free column, vector)], in Omega^(k+1)'s basis order
    for (u, d), columns in sorted(blocks.items(), key=lambda item: item[0][1]):
        reduced = {}  # pivot -> (image with 1 at the pivot, its combination of columns)
        for col, image in columns:
            image = dict(image)
            combo = {col: 1}
            while image:
                p = next(iter(image))
                x = image[p]
                if p not in reduced:
                    reduced[p] = _divided(image, x), _divided(combo, x)
                    break
                b_image, b_combo = reduced[p]
                _subtract(image, x, b_image)
                _subtract(combo, x, b_combo)
            else:
                kernel.setdefault(u, []).append((d, col, combo))
    arrows_into = pres.quiver.arrows_into
    index = pres.quiver.vertex_index
    omega = Counter()
    classes = []
    top = []
    for u in sorted(kernel, key=index):
        basis_u = kernel[u]
        omega[u] = len(basis_u)
        free = {col: j for j, (_, col, _) in enumerate(basis_u)}
        images = []
        for a in arrows_into[u]:
            for _, _, vec in kernel.get(a.source, ()):
                image = {}
                for (g, r), c in vec.items():
                    j = free.get((g, left[r].get(a.name)))
                    if j is not None:
                        image[j] = c
                images.append(image)
        hit = _last_index_pivots(images)
        for j, (d, _, vec) in enumerate(basis_u):
            if j not in hit:
                top.append((u, d, vec))
                classes.append((u, frozenset().union(
                    *(pres.survivor_key(basis.paths[r])[1] for _, r in vec))))
    return omega, classes, None if _counted(pres, classes) == omega else top


@memoized
def _summand_trace(pres, v):
    """The resolution of D(e_v A), once per presentation, with no module
    built.  A cyclic summand is walked as its class.  Any other is split by
    the fibre rule (``_fibre_split``); while the classes of the current
    syzygy's top lifts do not certify a split, the next syzygy is taken in
    path coordinates (``_syzygy_in_paths``), up to ``resolve``'s backstop.
    The classes of the split, in the dense order, are then walked, finite
    or periodic."""
    key = _injective_summand_key(pres, v)
    if key is not None:
        return _class_trace(pres, key)
    gens, omega, classes, lifts = _fibre_split(pres, v)
    trace = ResolutionTrace(module=None, layers=[ProjectiveLayer(gens, pbasis=None, rep=None)],
                            syzygies=[_Counted(omega.total())])
    bound = _backstop(pres)
    k = 2
    while lifts is not None:
        trace.layers.append(ProjectiveLayer([(t, d) for t, d, _ in lifts], pbasis=None, rep=None))
        omega, classes, lifts = _syzygy_in_paths(pres, lifts)
        trace.syzygies.append(_Counted(omega.total()))
        if k > bound:
            return _past_backstop(trace, bound)
        k += 1
    return _class_walk(pres, trace, classes, k)


def _dual_regular_pd(pres):
    """pd of the dual regular module via its injective summands, with early
    exit as soon as one summand is certified infinite."""
    worst = 0
    for v in pres.quiver.vertices:
        tr = _summand_trace(pres, v)
        if tr.status == PERIODIC:
            return SideStatus(PERIODIC, detail=f"summand at {v}: {tr.detail}")
        worst = max(worst, tr.pd)
    return SideStatus(FINITE, length=worst)


@dataclass
class GorensteinProfile:
    id_of_regular: SideStatus  # pd of D(A_A) over A = inj.dim of the right regular module
    pd_of_dual: SideStatus  # pd of D(_AA) over A^op = inj.dim of the left regular module
    decided: bool  # always True: every full resolution ends certified
    gorenstein: bool
    level: int = None

    def to_json(self):
        return {
            "id_of_regular": self.id_of_regular.to_json(),
            "pd_of_dual": self.pd_of_dual.to_json(),
            "decided": self.decided,
            "gorenstein": self.gorenstein,
            "level": self.level,
        }


@memoized
def injective_dimension_profile(pres):
    """Resolve the dual regular modules on both sides; Gorenstein iff both finite.

    One side certified infinite already decides the verdict, so the other is
    skipped.
    """
    s1 = _dual_regular_pd(pres)
    if s1.status == PERIODIC:
        s2 = SideStatus("NotComputed", detail="the other side already certifies infinity")
    else:
        s2 = _dual_regular_pd(pres.opposite())
    gor = s2.status == FINITE
    level = max(s1.length, s2.length) if gor else None
    return GorensteinProfile(id_of_regular=s1, pd_of_dual=s2, decided=True,
                             gorenstein=gor, level=level)


def resolution_trace_report(pres):
    """Per-vertex resolution traces behind the profile, for diagnostics.

    The ranks and syzygy dimensions list P_0 .. P_pd and Omega^1 ..
    Omega^(pd+1) = 0 for a finite trace, and every step up to and including
    the one whose cover certified the split (or the backstop) for an
    infinite one.  From the split step on they count the class multisets:
    one generator per class, and len(words) dimensions.  A cyclic summand
    is walked as its class.
    """
    out = {}
    for key, pr in (("id_of_regular", pres), ("pd_of_dual", pres.opposite())):
        side = {}
        for v in pr.quiver.vertices:
            tr = _summand_trace(pr, v)
            ranks = [len(layer.gens) for layer in tr.layers[:len(tr.syzygies)]]
            if tr.classes is not None:
                ranks.append(len(tr.classes))
            dims = [s.total_dim for s in tr.syzygies]
            steps = tr.pd + 1 if tr.status == FINITE else len(ranks)
            summands = Counter(tr.classes)
            while len(dims) < steps:
                summands = _class_syzygy(pr, summands)
                dims.append(sum(m * len(words) for (_, words), m in summands.items()))
                if len(ranks) < steps:
                    ranks.append(sum(summands.values()))
            side[v] = {
                "status": tr.status,
                "pd": tr.pd,
                "projective_ranks": ranks,
                "syzygy_dims": dims,
                "detail": tr.detail,
            }
        out[key] = side
    return out


def global_dimension(pres):
    """Max pd of the simples, each walked as its class (v, {e_v}); None
    means infinite."""
    worst = 0
    for v in pres.quiver.vertices:
        tr = _class_trace(pres, (v, frozenset({()})))
        if tr.status == PERIODIC:
            return None
        worst = max(worst, tr.pd)
    return worst


# -- Gorenstein-projective test and classification crosscheck -------------------


@memoized
def _regular(pres):
    """The left regular module, built once per presentation."""
    return regular_rep(pres)


def is_torsionless(M):
    """Does the evaluation into the double dual embed M, i.e. do maps to A
    jointly have zero kernel?  At each support vertex the rows of every
    map M -> A, stacked, must have full rank."""
    fams = _hom_family_basis(M, _regular(M.pres))
    for v in M.support:
        rows = [row for fam in fams for row in fam[v]]
        if not rows or la.rank(rows) < M.dims[v]:
            return False
    return True


def gorenstein_projective_test(M):
    """Ext^k(M, A) = 0 for 1 <= k <= level, for any module M, which alone
    makes M Gorenstein projective (see the module docstring).

    Ext^k into A is read off one full resolution of M; at level 0 every
    module passes and nothing is resolved.
    """
    pres = M.pres
    prof = injective_dimension_profile(pres)
    if not prof.gorenstein:
        raise NotGorenstein("the profile does not certify a Gorenstein algebra")
    if not prof.level:
        return True
    trace = resolve(M)
    A = _regular(pres)
    return not any(_ext_from_trace(trace, A, k) for k in range(1, prof.level + 1))


def _iso_witness(M, N):
    """An invertible intertwiner M -> N, or None.  M must be cyclic with simple top.

    With equal dimensions, f is invertible iff it is onto, iff the image of
    M's generator lies outside rad N.  The maps whose generator image lies in
    rad N form a subspace, so an invertible map exists iff some Hom-basis map
    is invertible: scanning the basis is an exact test.  The tests use it as
    their isomorphism reference, and the benchmark's span table
    (benchmarks/tracing.py) looks it up by name.
    """
    _generator(M)
    if M.dims != N.dims:
        return None
    ys, build = hom_basis_from_cyclic(M, N)
    for y in ys:
        fam = build(y)
        if all(la.is_invertible(fam[v]) for v in M.support):
            return fam
    return None


def crosscheck_classification(pres):
    """Compare the homological GP classification with the perfect-path one.

    The GP path classes are the keys of Omega^level of the path classes
    (``_gp_classes``), kept in ``path_classes()`` order, each one
    isomorphism class; see the module docstring for why both steps are
    exact.  The kept keys must be the survivor keys of the perfect paths,
    each once; MismatchDetected lists both sides by a generating path
    otherwise.  The report's dimension vectors, sorted, are the
    descriptors', so no class module is built.  They are sorted once, by
    a key read off the nonzero entries alone: the pairs (-i, c) for the
    i-th vertex in name order with c != 0, by increasing i.  It orders
    dimension vectors exactly as their dense tuples in name order do: at
    the first vertex where two vectors differ, the smaller count is either
    a smaller pair or a zero, whose next pair has a smaller -i, or the end
    of the key.  Each dense vector is a copy of one zero vector over the
    names, updated with the nonzero entries.
    """
    prof = injective_dimension_profile(pres)
    if not prof.gorenstein:
        raise NotGorenstein("crosscheck requires a Gorenstein certificate")
    classes = pres.path_classes()
    gp = {key for key, _ in _gp_classes(pres, prof.level)}
    kept = [key for key in classes if key in gp]
    from .perfection import classify_stable_gproj

    comb = classify_stable_gproj(pres)
    if Counter(kept) != Counter(pres.survivor_key(d.generator) for d in comb):
        raise MismatchDetected(
            f"classification mismatch: homological [{', '.join(str(classes[k]) for k in kept)}]"
            f" vs perfect-path [{', '.join(str(d.generator) for d in comb)}]"
        )
    names = sorted(pres.quiver.vertices)
    rank = {v: -i for i, v in enumerate(names)}
    zero = dict.fromkeys(names, 0)

    def order(d):
        return sorted(((rank[v], c) for v, c in d.nonzero_dims.items()), reverse=True)

    return {
        "homological_classes": len(kept),
        "combinatorial_classes": len(comb),
        "dim_vectors": [{**zero, **d.nonzero_dims} for d in sorted(comb, key=order)],
        "match": True,
    }


# -- graded tilting check --------------------------------------------------------


def _stable_hom0_dim(X, Y):
    """dim of degree-preserving stable Hom(X, Y).

    Kept by name because the benchmark's span table (benchmarks/tracing.py)
    looks it up; new code calls ``stable_hom_dim(X, Y, degree_shift=0)``.
    """
    return stable_hom_dim(X, Y, degree_shift=0)


def _omega_classes(pres, summands):
    """The graded syzygy of a direct sum of shifted classes, as a set of
    (class key, generator degree) pairs with the projective classes dropped."""
    return {(c, d + s) for key, d in summands for c, s in _class_children(pres, key)
            if not pres.key_is_projective(c)}


def _gp_classes(pres, level):
    """The Gorenstein-projective path classes as (class key, generator
    degree) pairs: Omega^level of the path classes generated in degree 0
    (see the module docstring)."""
    summands = {(key, 0) for key in pres.path_classes()}
    for _ in range(level):
        summands = _omega_classes(pres, summands)
    return summands


def _class_stable_hom(pres, ys, xs):
    """dim of degree-preserving stable Hom between direct sums of shifted
    classes, summed over class pairs, by counting words.

    A map from the class (v, W) generated in degree d to the class (w, W')
    generated in degree d0 is fixed by its generator image y, a combination
    of the words u in W' from w to v with len(u) = d - d0.  For a fixed path
    x the paths x.u are distinct, so x.y = 0 splits into one condition per
    word: the maps have a basis of the u with x.u outside W' for every
    minimal killed path x of the source.  The cover A e_w sends each path to
    itself or to zero, so the maps through it are the u with every x.u zero
    in A; the stable Hom counts the u with some x.u nonzero instead.
    """
    targets = {}
    for (w, words), d0 in xs:
        targets.setdefault((w, d0), []).append(words)
    total = 0
    for key, d in ys:
        killed = [x.arrows for x in _minimal_killed(pres, *key)]
        for u in pres.basis().into_vertex(key[0]):
            hits = [words for words in targets.get((u.source, d - u.length), ())
                    if u.arrows in words]
            prods = [x + u.arrows for x in killed]
            if hits and any(map(pres.word_is_nonzero, prods)):
                total += sum(not any(p in words for p in prods) for words in hits)
    return total


def verify_omega_T_ext_vanishing(pres, window):
    """Vanishing of the singularity-category self-extensions of the graded
    tilting candidate's syzygy over the given shift window.

    The syzygy W of the truncation sum has one summand A.p per nontrivial
    nonzero path p, all generated in one degree.  Each Omega^j W is a set of
    (class key, generator degree) pairs without the projective classes:
    they add nothing to a stable Hom.  X0 = Omega^d W is the set of GP path
    classes (``_gp_classes``), each of which Omega sends to one non-projective
    class.  The degree-preserving stable Hom from Omega^k X0 to X0 must
    vanish for 1 <= k <= window.  Generator
    degrees grow strictly along minimal graded syzygies, so the scan exits
    early as soon as they clear X0's top degree.  A window below 1 would
    test nothing and raises ValueError.
    """
    if window < 1:
        raise ValueError(f"the tilting window must be at least 1, got {window}")
    prof = injective_dimension_profile(pres)
    if not prof.gorenstein:
        return False
    X0 = _gp_classes(pres, prof.level)
    if not X0:
        return True
    maxdeg = max(d + max(map(len, words)) for (_, words), d in X0)
    Y = X0
    for _ in range(window):
        Y = _omega_classes(pres, Y)
        if min(d for _, d in Y) > maxdeg:
            return True  # generator degrees only grow; all later Homs vanish
        if _class_stable_hom(pres, Y, X0):
            return False
    return True


def syzygy_rep(M):
    """The minimal first syzygy of M as a representation."""
    _, _, krep, _ = syzygy_step(M)
    return krep
