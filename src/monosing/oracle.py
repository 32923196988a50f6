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
keyed by v and the words x with x.g != 0.  Dense syzygy steps run until the
syzygy dies (Finite), a cover certifies a split, or 2 + (number of
nontrivial basis paths) steps have passed, a backstop certifying infinite pd
since a finite one is bounded by the longest descending chain of classes.
After a split each class is resolved once per presentation; its syzygy
splits again, into the classes of the next step.  A cycle reachable in this
class graph certifies infinite pd (PeriodicityDetected); otherwise pd is the
number of dense steps before the split plus the longest class path.

Over a Gorenstein algebra of level d a module of finite projective dimension
has pd <= d, since Ext^{pd M}(M, A) != 0 and Ext^{>d}(-, A) = 0.  Checks that
already hold a Gorenstein certificate therefore resolve only as deep as they
read: the Gorenstein-projective test to depth d + 2 (not at all at level 0),
and the tilting check's "stably nonzero" test to depth d + 1, where a
nonzero Omega^{d+1} means infinite pd.  A resolution stopped at a requested
depth is DepthReached, never PeriodicityDetected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import linalg as la
from .errors import (
    InternalInvariantViolation,
    MismatchDetected,
    NotGorenstein,
    PresentationMismatch,
)
from .presentation import find_cycle

FINITE = "Finite"
PERIODIC = "PeriodicityDetected"
DEPTH = "DepthReached"

DIM_CAP = 260  # not read by the oracle; benchmarks/run.py checks it never changes


class Representation:
    """Vertex spaces and arrow matrices (target-dim x source-dim) over Q.

    ``degrees`` optionally tags every basis vector with an integer degree
    (arrow action must then raise degree by one).  ``act_labels`` optionally
    names each basis vector by the word carrying a cyclic generator onto it,
    and ``gen`` marks that generator's (vertex, index); both enable the fast
    Hom solver for cyclic modules with simple top.

    An arrow missing from ``mats`` acts by zero.  Builders leave out the
    arrows with a zero-dimensional end; their matrix is filled in here, as
    ``[]`` when it has no rows.
    """

    def __init__(self, pres, dims, mats, degrees=None, act_labels=None, gen=None, validate=True):
        self.pres = pres
        self.dims = {v: dims.get(v, 0) for v in pres.quiver.vertices}
        self.mats = {}
        for a in pres.quiver.arrows:
            m = mats.get(a.name)
            if m is None:
                rows = self.dims[a.target]
                m = la.zeros(rows, self.dims[a.source]) if rows else []
            self.mats[a.name] = m
        if degrees is not None:
            degrees = {v: tuple(degrees.get(v, ())) for v in pres.quiver.vertices}
        self.degrees = degrees
        if act_labels is not None:
            act_labels = {v: tuple(act_labels.get(v, ())) for v in pres.quiver.vertices}
        self.act_labels = act_labels
        self.gen = gen
        if validate:
            self._validate()

    def _validate(self):
        for a in self.pres.quiver.arrows:
            m = self.mats[a.name]
            if len(m) != self.dims[a.target]:
                raise InternalInvariantViolation(f"matrix for {a.name} has wrong row count")
            for row in m:
                if len(row) != self.dims[a.source]:
                    raise InternalInvariantViolation(f"matrix for {a.name} has wrong column count")
        dims = self.dims
        for f, stops in _relation_stops(self.pres):
            if not all(dims[v] for v in stops):
                continue  # the word passes through a zero space, so it acts by zero
            m = self.act(f.arrows)
            if not la.is_zero_matrix(m):
                raise InternalInvariantViolation(f"relation {f} acts nonzero")

    @property
    def total_dim(self):
        return sum(self.dims.values())

    def is_zero(self):
        return self.total_dim == 0

    def dim_vector(self):
        return dict(self.dims)

    def act(self, word):
        """Matrix of the composition-order arrow word (memoized)."""
        q = self.pres.quiver
        if not word:
            raise ValueError("empty word; use the identity at a vertex")
        cache = getattr(self, "_act_cache", None)
        if cache is None:
            cache = self._act_cache = {}
        hit = cache.get(word)
        if hit is not None:
            return hit
        rows = self.dims[q.target(word[0])]
        cols = self.dims[q.source(word[-1])]
        if any(self.dims[q.source(a)] == 0 for a in word) or rows == 0:
            m = la.zeros(rows, cols)
        elif len(word) == 1:
            m = self.mats[word[0]]
        else:
            m = la.mat_mul(self.mats[word[0]], self.act(word[1:]))
        cache[word] = m
        return m


def _relation_stops(pres):
    """Each minimal relation with the vertices its word passes through."""
    if "relation_stops" not in pres._cache:
        q = pres.quiver
        pres._cache["relation_stops"] = [
            (f, {q.target(f.arrows[0])} | {q.source(a) for a in f.arrows})
            for f in pres.minimal
        ]
    return pres._cache["relation_stops"]


def _check_same_pres(M, N):
    if M.pres is not N.pres and M.pres != N.pres:
        raise PresentationMismatch("representations live over different presentations")


def zero_rep(pres):
    return Representation(pres, {}, {}, validate=False)


def _path_span(pres, elems):
    """The 0/1 module spanned by tagged nonzero paths under left multiplication.

    ``elems`` lists ``(tag, path)``; each path is placed at its target in list
    order, and an arrow prepends itself when the longer word is listed under
    the same tag and sends the path to zero otherwise, so a list closed under
    right factors spans a quotient of the projectives.  Returns
    ``(dims, mats, by_vertex)`` with ``by_vertex[v]`` the elements placed at v;
    ``mats`` leaves out the arrows with a zero-dimensional end.
    """
    by_vertex = {v: [] for v in pres.quiver.vertices}
    index = {}
    for tag, x in elems:
        index[(tag, x.arrows)] = len(by_vertex[x.target])
        by_vertex[x.target].append((tag, x))
    dims = {v: len(by_vertex[v]) for v in by_vertex}
    mats = {}
    for a in _supported_arrows(pres, dims):
        m = la.zeros(dims[a.target], dims[a.source])
        for j, (tag, x) in enumerate(by_vertex[a.source]):
            i = index.get((tag, (a.name,) + x.arrows))
            if i is not None:
                m[i][j] = 1
        mats[a.name] = m
    return dims, mats, by_vertex


def _supported_arrows(pres, dims):
    """The arrows whose source and target spaces are both nonzero."""
    return [a for v in pres.quiver.vertices if dims[v]
            for a in pres.quiver.arrows_from[v] if dims[a.target]]


def path_module_rep(pres, p):
    """The cyclic module on a nonzero path p, graded with its top in degree 0."""
    basis, _ = pres.cyclic_module_basis(p)  # raises ZeroPath
    dims, mats, by_vertex = _path_span(pres, [(None, w) for w in basis])
    # w = q'p is reached from the generator by the acting word q'
    labels = {v: tuple(w.arrows[: w.length - p.length] for _, w in by_vertex[v])
              for v in by_vertex}
    degrees = {v: tuple(len(act) for act in labels[v]) for v in labels}
    gen = (p.target, by_vertex[p.target].index((None, p)))
    return Representation(pres, dims, mats, degrees=degrees, act_labels=labels, gen=gen)


def regular_rep(pres):
    """The left regular module: basis all nonzero paths grouped by target."""
    dims, mats, by_vertex = _path_span(pres, [(w.source, w) for w in pres.basis()])
    degrees = {v: tuple(w.length for _, w in by_vertex[v]) for v in by_vertex}
    return Representation(pres, dims, mats, degrees=degrees)


def dual_regular_rep(pres):
    """The dual of the right regular module, as a left module: the direct sum
    of the injective summands at every vertex."""
    return direct_sum(pres, [injective_summand_rep(pres, v) for v in pres.quiver.vertices])


def simple_rep(pres, v):
    return Representation(pres, {v: 1}, {}, degrees={v: (0,)}, validate=False,
                          act_labels={v: ((),)}, gen=(v, 0))


def direct_sum(pres, reps):
    if not reps:
        return zero_rep(pres)
    dims = {v: sum(r.dims[v] for r in reps) for v in pres.quiver.vertices}
    mats = {}
    for a in pres.quiver.arrows:
        blocks = [r.mats[a.name] for r in reps]
        m = la.zeros(dims[a.target], dims[a.source])
        ri = ci = 0
        for r, b in zip(reps, blocks):
            for i in range(r.dims[a.target]):
                for j in range(r.dims[a.source]):
                    m[ri + i][ci + j] = b[i][j]
            ri += r.dims[a.target]
            ci += r.dims[a.source]
        mats[a.name] = m
    degrees = None
    if all(r.degrees is not None for r in reps):
        degrees = {
            v: tuple(d for r in reps for d in r.degrees[v]) for v in pres.quiver.vertices
        }
    return Representation(pres, dims, mats, degrees=degrees, validate=False)


# -- minimal covers, syzygies, resolutions ------------------------------------


@dataclass
class ProjectiveLayer:
    """One term of a minimal resolution: P = direct sum of Ae_v with shifts."""

    gens: list  # [(vertex, degree)]
    pbasis: dict  # vertex -> list of (gen index, path)
    rep: object  # Representation of P


def _build_projective(pres, gens):
    basis = pres.basis()
    elems = [(gi, x) for gi, (v, _) in enumerate(gens) for x in basis.from_vertex(v)]
    dims, mats, pbasis = _path_span(pres, elems)
    degrees = {
        v: tuple(gens[gi][1] + x.length for gi, x in pbasis[v]) for v in pbasis
    }
    rep = Representation(pres, dims, mats, degrees=degrees, validate=False)
    return ProjectiveLayer(gens=list(gens), pbasis=pbasis, rep=rep)


def top_lifts(rep):
    """Standard-basis lifts of top(M) = M/rad M, per vertex, homogeneous."""
    lifts = {}
    for v in rep.pres.quiver.vertices:
        n = rep.dims[v]
        if n == 0:
            lifts[v] = []
            continue
        rad_cols = []
        for a in rep.pres.quiver.arrows_into[v]:
            m = rep.mats[a.name]
            for j in range(rep.dims[a.source]):
                rad_cols.append([m[i][j] for i in range(n)])
        stacked = [[col[i] for col in rad_cols] + [1 if k == i else 0 for k in range(n)]
                   for i in range(n)]
        pivots = la.pivot_columns(stacked)
        lifts[v] = [p - len(rad_cols) for p in pivots if p >= len(rad_cols)]
    return lifts


def projective_cover(rep):
    """(layer, cover matrices): minimal cover P -> M with P from top lifts.

    Images of the projective basis are grown one arrow at a time, so each
    column costs a matrix-vector product.
    """
    pres = rep.pres
    lifts = top_lifts(rep)
    gens = []
    gen_vectors = []
    for v in pres.quiver.vertices:
        for j in lifts[v]:
            d = rep.degrees[v][j] if rep.degrees is not None else 0
            gens.append((v, d))
            vec = [0] * rep.dims[v]
            vec[j] = 1
            gen_vectors.append(vec)
    layer = _build_projective(pres, gens)
    images = {}  # (gen index, word) -> vector in M at the word's target
    for gi, (v, _) in enumerate(gens):
        images[(gi, ())] = gen_vectors[gi]
    for v in pres.quiver.vertices:
        for gi, x in layer.pbasis[v]:
            if x.is_trivial:
                continue
            key = (gi, x.arrows)
            if key in images:
                continue
            stackw = []
            word = x.arrows
            while (gi, word) not in images:
                stackw.append(word)
                word = word[1:]
            base = images[(gi, word)]
            while stackw:
                word = stackw.pop()
                base = la.mat_vec(rep.mats[word[0]], base)
                images[(gi, word)] = base
    cover = {}
    for v in pres.quiver.vertices:
        m = la.zeros(rep.dims[v], layer.rep.dims[v])
        for col, (gi, x) in enumerate(layer.pbasis[v]):
            img = images[(gi, x.arrows)]
            for i in range(rep.dims[v]):
                m[i][col] = img[i]
        cover[v] = m
    return layer, cover


def _kernel_blocks(rep, layer, cover):
    """Homogeneous kernel basis of the cover, per vertex."""
    pres = rep.pres
    kernel = {}
    for v in pres.quiver.vertices:
        ncols = layer.rep.dims[v]
        if ncols == 0:
            kernel[v] = []
            continue
        if rep.degrees is None:
            groups = {None: list(range(ncols))}
        else:
            groups = {}
            for j in range(ncols):
                groups.setdefault(layer.rep.degrees[v][j], []).append(j)
        cols = []
        m = cover[v]
        nrows = rep.dims[v]
        for dkey in sorted(groups, key=lambda x: (x is not None, x)):
            idx = groups[dkey]
            sub = [[m[i][j] for j in idx] for i in range(nrows)]
            for vec in la.nullspace(sub, len(idx)):
                full = [0] * ncols
                for pos, j in enumerate(idx):
                    full[j] = vec[pos]
                cols.append(full)
        kernel[v] = cols
    return kernel


def syzygy_step(rep):
    """Minimal cover and its kernel; returns (layer, cover, kernel rep, kernel columns)."""
    pres = rep.pres
    layer, cover = projective_cover(rep)
    kernel = _kernel_blocks(rep, layer, cover)
    # minimality: kernel must avoid the generator coordinates
    for v in pres.quiver.vertices:
        gen_positions = [j for j, (gi, x) in enumerate(layer.pbasis[v]) if x.is_trivial]
        for vec in kernel[v]:
            if any(vec[j] != 0 for j in gen_positions):
                raise InternalInvariantViolation("projective cover is not minimal")
    dims = {v: len(kernel[v]) for v in pres.quiver.vertices}
    # the action on the kernel; an arrow into a zero kernel space must still
    # send every kernel vector to zero, so closure is checked before skipping
    mats = {}
    for src in pres.quiver.vertices:
        if not dims[src]:
            continue
        for a in pres.quiver.arrows_from[src]:
            tgt = a.target
            if not layer.rep.dims[tgt]:
                continue
            pa = layer.rep.mats[a.name]
            todo = []
            for j, vec in enumerate(kernel[src]):
                img = la.mat_vec(pa, vec)
                if any(x != 0 for x in img):
                    todo.append((j, img))
            if todo and not kernel[tgt]:
                raise InternalInvariantViolation("syzygy is not closed under the action")
            if not dims[tgt]:
                continue
            m = la.zeros(dims[tgt], dims[src])
            if todo:
                kb = la.transpose(kernel[tgt])
                sols = la.solve_many(kb, [img for _, img in todo])
                for (j, _), sol in zip(todo, sols):
                    if sol is None:
                        raise InternalInvariantViolation("syzygy is not closed under the action")
                    for i in range(dims[tgt]):
                        m[i][j] = sol[i]
            mats[a.name] = m
    degrees = None
    if rep.degrees is not None:
        degrees = {}
        for v in pres.quiver.vertices:
            degs = []
            for vec in kernel[v]:
                j = next(i for i, x in enumerate(vec) if x != 0)
                degs.append(layer.rep.degrees[v][j])
            degrees[v] = tuple(degs)
    krep = Representation(pres, dims, mats, degrees=degrees, validate=False)
    return layer, cover, krep, kernel


@dataclass
class ResolutionTrace:
    """A minimal projective resolution with its termination status."""

    module: object
    layers: list = field(default_factory=list)  # ProjectiveLayer per step
    differentials: list = field(default_factory=list)  # step k>=1: gen -> (vertex, vector in P_{k-1})
    syzygies: list = field(default_factory=list)  # Omega^k representations, k >= 1
    status: str = None
    pd: int = None
    detail: str = ""

    def projective_rank(self, k):
        return len(self.layers[k].gens) if k < len(self.layers) else 0


def resolve(pres, rep, depth=None):
    """Minimal resolution of rep with its termination status.

    Without ``depth`` it takes dense syzygy steps until the syzygy dies
    (``Finite``), a cover certifies a split into summand classes, which are
    then walked (``Finite`` or ``PeriodicityDetected``, see the module
    docstring), or the resolution is still alive after bound + 1 steps, where
    bound = 2 + (number of nontrivial basis paths) is the sound upper limit
    on finite projective dimensions over a monomial algebra
    (``PeriodicityDetected``).  After a walk the layers stop at the split, so
    they are a complete resolution only when their number is pd + 1.

    With ``depth`` it stops after exactly that many dense steps.  A
    resolution still alive there is ``DepthReached``: it shows
    Omega^depth != 0 and certifies nothing more.  Over a Gorenstein algebra
    of level d every finite pd is at most d, so there depth d + 1 decides
    whether pd is finite.
    """
    basis = pres.basis()
    bound = 2 + max(0, basis.dimension - len(pres.quiver.vertices))
    trace = ResolutionTrace(module=rep)
    if rep.is_zero():
        trace.status, trace.pd = FINITE, 0
        return trace
    cur = rep
    pending_lift = pending_kernel = None
    k = 0
    while depth is None or k < depth:
        k += 1
        layer, cover, krep, kernel = syzygy_step(cur)
        trace.layers.append(layer)
        if pending_kernel is not None:
            diffs = [
                (v, pending_kernel[v][pending_lift[gi]])
                for gi, (v, _) in enumerate(layer.gens)
            ]
            trace.differentials.append(diffs)
        else:
            trace.differentials.append(None)
        # the next layer's generators lift these kernel columns
        lifts = top_lifts(krep)
        pending_lift = [j for v in pres.quiver.vertices for j in lifts[v]]
        pending_kernel = kernel
        trace.syzygies.append(krep)
        if krep.is_zero():
            trace.status, trace.pd = FINITE, k - 1
            return trace
        if depth is None:
            classes = _summand_classes(cur, layer, cover)
            if classes is not None:
                return _class_walk(pres, trace, classes, k)
            if k > bound:
                trace.status = PERIODIC
                trace.detail = (f"resolution alive after the finite-pd bound {bound}; "
                                "syzygy classes over a monomial algebra must recur")
                return trace
        cur = krep
    trace.status = DEPTH
    trace.detail = f"stopped after the requested {depth} steps"
    return trace


def _summand_classes(rep, layer, cover):
    """The class keys of rep's summands on its top lifts, or None when the
    cover does not certify a split (see the module docstring)."""
    words = [[] for _ in layer.gens]
    for v in rep.pres.quiver.vertices:
        m = cover[v]
        nonzero = [col for col in range(len(layer.pbasis[v])) if any(row[col] for row in m)]
        if len(nonzero) != rep.dims[v]:
            return None
        for col in nonzero:
            gi, x = layer.pbasis[v][col]
            words[gi].append(x.arrows)
    return [(v, frozenset(ws)) for (v, _), ws in zip(layer.gens, words)]


def _class_rep(pres, key):
    """The cyclic module A e_v modulo the paths from v outside the key's words."""
    v, words = key
    elems = [(None, x) for x in pres.basis().from_vertex(v) if x.arrows in words]
    dims, mats, by_vertex = _path_span(pres, elems)
    degrees = {u: tuple(x.length for _, x in by_vertex[u]) for u in by_vertex}
    return Representation(pres, dims, mats, degrees=degrees)


def _class_children(pres, key):
    """The summand classes of a class's syzygy, resolved once per presentation."""
    memo = pres._cache.setdefault("class_children", {})
    if key not in memo and len(key[1]) == len(pres.basis().from_vertex(key[0])):
        memo[key] = []  # no path from v is killed: the class is projective
    if key not in memo:
        _, _, om, _ = syzygy_step(_class_rep(pres, key))
        children = [] if om.is_zero() else _summand_classes(om, *projective_cover(om))
        if children is None:
            raise InternalInvariantViolation(f"the syzygy of the class at {key[0]} does not split")
        memo[key] = children
    return memo[key]


def _class_walk(pres, trace, classes, k):
    """Finish a trace whose step-k cover split into ``classes``."""
    cycle, finished = find_cycle(
        classes, lambda key: [(child, child) for child in _class_children(pres, key)])
    if cycle is not None:
        trace.status = PERIODIC
        trace.detail = (f"Omega^{k - 1} splits into summand classes that reach "
                        f"a cycle of {len(cycle)} classes")
        return trace
    height = {}  # the pd of each class: children finish before their parents
    for key in finished:
        height[key] = 1 + max((height[c] for c in _class_children(pres, key)), default=-1)
    trace.status, trace.pd = FINITE, k - 1 + max(height[key] for key in classes)
    return trace


# -- Hom and Ext ---------------------------------------------------------------


def hom_basis(M, N, degree_shift=None):
    """Basis of Hom(M, N) as vertex-matrix families.

    With ``degree_shift`` s, restricts to maps sending degree d to degree
    d + s (both representations must carry degrees).
    """
    _check_same_pres(M, N)
    pres = M.pres
    unknowns = []  # (vertex, i, j)
    index = {}
    for v in pres.quiver.vertices:
        for i in range(N.dims[v]):
            for j in range(M.dims[v]):
                if degree_shift is not None:
                    if N.degrees[v][i] != M.degrees[v][j] + degree_shift:
                        continue
                index[(v, i, j)] = len(unknowns)
                unknowns.append((v, i, j))
    if not unknowns:
        return []
    rows = []
    for a in pres.quiver.arrows:
        u, w = a.source, a.target
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
    vecs = la.nullspace(rows) if rows else [
        [1 if k == i else 0 for k in range(len(unknowns))] for i in range(len(unknowns))
    ]
    out = []
    for vec in vecs:
        fam = {v: la.zeros(N.dims[v], M.dims[v]) for v in pres.quiver.vertices}
        for val, (v, i, j) in zip(vec, unknowns):
            fam[v][i][j] = val
        out.append(fam)
    return out


def hom_basis_from_cyclic(M, N):
    """Hom(M, N) for cyclic M with simple top, via generator images.

    Requires M.gen and M.act_labels.  Returns (image space basis, builder)
    where builder(y) materializes the full vertex-matrix family.
    """
    _check_same_pres(M, N)
    pres = M.pres
    v0, _ = M.gen
    basis = pres.basis()
    survivors = {(v, lab) for v in pres.quiver.vertices for lab in M.act_labels[v]}
    rows = []
    for x in basis.from_vertex(v0):
        if (x.target, x.arrows) in survivors:
            continue
        mat = N.act(x.arrows) if not x.is_trivial else la.identity(N.dims[v0])
        for r in mat:
            rows.append(list(r))
    if N.dims[v0] == 0:
        ys = []
    elif rows:
        ys = la.nullspace(rows)
    else:
        ys = [[1 if k == i else 0 for k in range(N.dims[v0])] for i in range(N.dims[v0])]

    def build(y):
        fam = {}
        for v in pres.quiver.vertices:
            m = la.zeros(N.dims[v], M.dims[v])
            for j, lab in enumerate(M.act_labels[v]):
                img = y if not lab else la.mat_vec(N.act(lab), y)
                for i in range(N.dims[v]):
                    m[i][j] = img[i]
            fam[v] = m
        return fam

    return ys, build


def hom_dim(M, N):
    """dim Hom_A(M, N)."""
    if M.gen is not None and M.act_labels is not None:
        ys, _ = hom_basis_from_cyclic(M, N)
        return len(ys)
    return len(hom_basis(M, N))


def _hom_family_basis(M, N, degree_shift=None):
    if degree_shift is None and M.gen is not None and M.act_labels is not None:
        ys, build = hom_basis_from_cyclic(M, N)
        return [build(y) for y in ys]
    return hom_basis(M, N, degree_shift=degree_shift)


def stable_hom_dim(M, N, degree_shift=None):
    """dim of Hom(M, N) modulo maps factoring through a projective.

    A map factors through a projective iff it factors through the minimal
    cover of N, so the quotient is by the image of Hom(M, P_N) under the
    cover projection.  With ``degree_shift`` s, both Hom spaces keep only
    the maps sending degree d to degree d + s (M and N must carry degrees).
    """
    _check_same_pres(M, N)
    vertices = M.pres.quiver.vertices
    homs = _hom_family_basis(M, N, degree_shift)
    if not homs:
        return 0
    layer, cover = projective_cover(N)
    image = []
    for g in _hom_family_basis(M, layer.rep, degree_shift):
        comp = {v: la.mat_mul(cover[v], g[v]) if N.dims[v] and layer.rep.dims[v]
                else la.zeros(N.dims[v], M.dims[v]) for v in vertices}
        image.append([x for v in vertices for row in comp[v] for x in row])
    if not image:
        return len(homs)
    # rank of the factoring subspace inside Hom(M, N)
    return len(homs) - la.rank(image)


def _hom_complex_matrix(pres, layer_from, diffs, layer_to, N):
    """Matrix of Hom(P_{k-1}, N) -> Hom(P_k, N) induced by d_k.

    ``diffs`` lists, for each generator of P_k, its image as (vertex, vector
    over layer_to.pbasis[vertex]).  Components of Hom(P, N) are stacked per
    generator as N_{v} blocks.
    """
    col_offsets = []
    off = 0
    for (v, _) in layer_to.gens:
        col_offsets.append(off)
        off += N.dims[v]
    ncols = off
    row_offsets = []
    off = 0
    for (v, _) in layer_from.gens:
        row_offsets.append(off)
        off += N.dims[v]
    nrows = off
    m = la.zeros(nrows, ncols)
    for gi, (v, _) in enumerate(layer_from.gens):
        w, vec = diffs[gi]
        assert w == v
        for pos, coeff in enumerate(vec):
            if coeff == 0:
                continue
            gj, x = layer_to.pbasis[w][pos]
            tv = layer_to.gens[gj][0]
            if x.is_trivial:
                block = la.identity(N.dims[tv])
            else:
                block = N.act(x.arrows)
            for i in range(N.dims[v]):
                for j in range(N.dims[tv]):
                    m[row_offsets[gi] + i][col_offsets[gj] + j] += coeff * block[i][j]
    return m


def _died(trace):
    """Whether the trace's layers run until the syzygy dies: P_0 .. P_pd."""
    return trace.status == FINITE and len(trace.layers) == trace.pd + 1


def ext_dim(pres, M, N, k):
    """dim Ext^k_A(M, N) for k >= 1, from a minimal resolution of M."""
    if k < 1:
        raise ValueError("ext_dim needs k >= 1")
    return _ext_from_trace(pres, resolve(pres, M, depth=k + 2), N, k)


def _ext_from_trace(pres, trace, N, k):
    """Ext^k from P_k, P_{k+1} and their differentials; a trace that stopped
    short of P_{k+1} without dying is resolved again to depth k + 2."""
    if trace.status == FINITE and trace.pd < k:
        return 0
    if len(trace.layers) < k + 2 and not _died(trace):
        return _ext_from_trace(pres, resolve(pres, trace.module, depth=k + 2), N, k)
    nk = sum(N.dims[v] for (v, _) in trace.layers[k].gens)
    d_k = _hom_complex_matrix(pres, trace.layers[k], trace.differentials[k], trace.layers[k - 1], N)
    rank_prev = la.rank(d_k) if d_k and d_k[0] else 0
    if len(trace.layers) > k + 1:
        d_next = _hom_complex_matrix(
            pres, trace.layers[k + 1], trace.differentials[k + 1], trace.layers[k], N
        )
        rank_next = la.rank(d_next) if d_next and d_next[0] else 0
    else:
        rank_next = 0
    return nk - rank_next - rank_prev


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
    """The dual of the projective right module at v, as a left module, with
    the dual of a path w in degree -len(w)."""
    basis = pres.basis()
    by_vertex = {u: [] for u in pres.quiver.vertices}
    index = {}
    for w in basis:
        if w.target != v:
            continue
        key = (w.source, w.arrows)
        index[key] = (w.source, len(by_vertex[w.source]))
        by_vertex[w.source].append(w)
    dims = {u: len(by_vertex[u]) for u in by_vertex}
    mats = {}
    for a in _supported_arrows(pres, dims):
        m = la.zeros(dims[a.target], dims[a.source])
        for j, w in enumerate(by_vertex[a.source]):
            if w.arrows and w.arrows[-1] == a.name:
                rest = w.arrows[:-1]
                key = (a.target, rest)
                i = index[key][1]
                m[i][j] = 1
        mats[a.name] = m
    degrees = {u: tuple(-w.length for w in by_vertex[u]) for u in by_vertex}
    return Representation(pres, dims, mats, degrees=degrees)


def _dual_regular_pd(pres):
    """pd of the dual regular module via its injective summands, with early
    exit as soon as one summand is certified infinite."""
    worst = 0
    for v in pres.quiver.vertices:
        tr = resolve(pres, injective_summand_rep(pres, v))
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


def injective_dimension_profile(pres):
    """Resolve the dual regular modules on both sides; Gorenstein iff both finite.

    One side certified infinite already decides the verdict, so the other is
    skipped.
    """
    if "profile" in pres._cache:
        return pres._cache["profile"]
    s1 = _dual_regular_pd(pres)
    if s1.status == PERIODIC:
        s2 = SideStatus("NotComputed", detail="the other side already certifies infinity")
    else:
        s2 = _dual_regular_pd(pres.opposite())
    gor = s2.status == FINITE
    level = max(s1.length, s2.length) if gor else None
    prof = GorensteinProfile(id_of_regular=s1, pd_of_dual=s2, decided=True,
                             gorenstein=gor, level=level)
    pres._cache["profile"] = prof
    return prof


def resolution_trace_report(pres):
    """Per-vertex resolution traces behind the profile, for diagnostics; a
    finite one lists every layer, P_0 .. P_pd."""
    out = {}
    for key, pr in (("id_of_regular", pres), ("pd_of_dual", pres.opposite())):
        side = {}
        for v in pr.quiver.vertices:
            M = injective_summand_rep(pr, v)
            tr = resolve(pr, M)
            if tr.status == FINITE and not _died(tr):
                tr = resolve(pr, M, depth=tr.pd + 1)
            side[v] = {
                "status": tr.status,
                "pd": tr.pd,
                "projective_ranks": [len(layer.gens) for layer in tr.layers],
                "syzygy_dims": [s.total_dim for s in tr.syzygies],
                "detail": tr.detail,
            }
        out[key] = side
    return out


def global_dimension(pres):
    """Max pd of the simples; None means infinite."""
    worst = 0
    for v in pres.quiver.vertices:
        tr = resolve(pres, simple_rep(pres, v))
        if tr.status == PERIODIC:
            return None
        worst = max(worst, tr.pd)
    return worst


# -- Gorenstein-projective test and classification crosscheck -------------------


def _regular(pres):
    """The left regular module, built once per presentation."""
    if "regular_rep" not in pres._cache:
        pres._cache["regular_rep"] = regular_rep(pres)
    return pres._cache["regular_rep"]


def is_torsionless(M):
    """Does the evaluation into the double dual embed M, i.e. do maps to A
    jointly have zero kernel?"""
    pres = M.pres
    A = _regular(pres)
    fams = _hom_family_basis(M, A)
    for v in pres.quiver.vertices:
        n = M.dims[v]
        if n == 0:
            continue
        rows = []
        for fam in fams:
            rows.extend(fam[v])
        if not rows:
            return False
        if la.rank(rows) < n:
            return False
    return True


def gorenstein_projective_test(pres, M):
    """Ext^k(M, A) = 0 for 1 <= k <= level, plus the torsionless check.

    Ext^k reads the resolution only through P_{k+1}, so M is resolved to
    depth level + 2, and not at all at level 0.
    """
    prof = injective_dimension_profile(pres)
    if not prof.gorenstein:
        raise NotGorenstein("the profile does not certify a Gorenstein algebra")
    d = prof.level
    if M.is_zero():
        return True
    if d:
        A = _regular(pres)
        trace = resolve(pres, M, depth=d + 2)
        if any(_ext_from_trace(pres, trace, A, k) for k in range(1, d + 1)):
            return False
    return is_torsionless(M)


def _iso_witness(M, N):
    """An invertible intertwiner M -> N, or None.  M must be cyclic with simple top.

    With equal dimensions, f is invertible iff it is onto, iff the image of
    M's generator lies outside rad N.  The maps whose generator image lies in
    rad N form a subspace, so an invertible map exists iff some Hom-basis map
    is invertible: scanning the basis is an exact test.
    """
    if M.dims != N.dims:
        return None
    ys, build = hom_basis_from_cyclic(M, N)
    for y in ys:
        fam = build(y)
        if all(la.is_invertible(fam[v]) for v in M.pres.quiver.vertices):
            return fam
    return None


def crosscheck_classification(pres):
    """Compare the homological GP classification with the perfect-path one.

    Enumerates all cyclic path modules, keeps the non-projective Gorenstein
    projective ones, reduces to isomorphism classes, and requires the multiset
    of dimension vectors to equal the combinatorial classification's.  Raises
    MismatchDetected on any difference.
    """
    prof = injective_dimension_profile(pres)
    if not prof.gorenstein:
        raise NotGorenstein("crosscheck requires a Gorenstein certificate")
    basis = pres.basis()
    reps = []
    for p in basis.paths:
        if p.is_trivial:
            continue
        M = path_module_rep(pres, p)
        if M.total_dim == len(basis.from_vertex(p.target)):
            continue  # projective: the cover is an isomorphism
        if gorenstein_projective_test(pres, M):
            reps.append((p, M))
    classes = []
    for p, M in reps:
        placed = False
        for cl in classes:
            q, N = cl[0]
            if M.dims == N.dims and _iso_witness(M, N) is not None:
                cl.append((p, M))
                placed = True
                break
        if not placed:
            classes.append([(p, M)])
    hom_side = sorted(
        tuple(sorted(cl[0][1].dims.items())) for cl in classes
    )
    from .perfection import classify_stable_gproj

    comb = classify_stable_gproj(pres)
    comb_side = sorted(tuple(sorted(d.dim_vector.items())) for d in comb)
    report = {
        "homological_classes": len(classes),
        "combinatorial_classes": len(comb),
        "dim_vectors": [dict(t) for t in hom_side],
        "match": hom_side == comb_side,
    }
    if hom_side != comb_side:
        raise MismatchDetected(
            f"classification mismatch: homological {hom_side} vs perfect-path {comb_side}"
        )
    return report


# -- graded tilting check --------------------------------------------------------


def _stable_hom0_dim(X, Y):
    """dim of degree-preserving stable Hom(X, Y).

    Kept by name because the benchmark's span table (benchmarks/tracing.py)
    looks it up; new code calls ``stable_hom_dim(X, Y, degree_shift=0)``.
    """
    return stable_hom_dim(X, Y, degree_shift=0)


def verify_omega_T_ext_vanishing(pres, window):
    """Vanishing of the singularity-category self-extensions of the graded
    tilting candidate's syzygy over the given shift window.

    Builds W as the direct sum of the stably nonzero (infinite projective
    dimension) summands of the syzygy of the truncation sum, stabilizes by the
    Gorenstein level d, and checks that the degree-preserving stable Hom from
    the (d+k)-th graded syzygy of W to the d-th vanishes for 1 <= k <= window.
    Generator degrees grow strictly along minimal graded syzygies, so the scan
    exits early as soon as they clear W's top degree.
    """
    prof = injective_dimension_profile(pres)
    if not prof.gorenstein:
        return False
    from .graded import syzygy_of_T

    chosen = []
    seen = set()
    for s in syzygy_of_T(pres):
        key = (s.generator.source, s.generator.arrows)
        if key in seen:
            continue
        seen.add(key)
        # a finite pd is at most d, so Omega^{d+1} != 0 means infinite pd
        tr = resolve(pres, path_module_rep(pres, s.generator), depth=prof.level + 1)
        if tr.status == DEPTH:
            chosen.append(s.generator)
    if not chosen:
        return True
    W = direct_sum(pres, [path_module_rep(pres, p) for p in chosen])
    cur = W
    for _ in range(prof.level):
        _, _, cur, _ = syzygy_step(cur)
    X0 = cur
    if X0.is_zero():
        return True
    maxdeg = max(d for v in pres.quiver.vertices for d in X0.degrees[v])
    Y = X0
    for k in range(1, window + 1):
        _, _, Y, _ = syzygy_step(Y)
        if Y.is_zero():
            return True
        gen_degs = [Y.degrees[v][j] for v, top in top_lifts(Y).items() for j in top]
        if gen_degs and min(gen_degs) > maxdeg:
            return True  # generator degrees only grow; all later Homs vanish
        if stable_hom_dim(Y, X0, degree_shift=0) != 0:
            return False
    return True


def syzygy_rep(pres, M):
    """The minimal first syzygy of M as a representation."""
    _, _, krep, _ = syzygy_step(M)
    return krep
