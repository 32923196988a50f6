"""Seeded random presentation corpora for the verification sweeps.

All generators are deterministic functions of a random.Random instance; the
suite seeds it from MONO_SING_SEED (default DEFAULT_SEED) so repeated runs
see identical corpora.
"""

from __future__ import annotations

import os
import random

from .gluing import Involution, glue, glue_is_finite_dimensional
from .oracle import injective_dimension_profile
from .presentation import Arrow, MonomialPresentation, Quiver

DEFAULT_SEED = 174011


def seeded_rng():
    return random.Random(int(os.environ.get("MONO_SING_SEED", DEFAULT_SEED)))


def _all_words(quiver, length):
    words = [[a] for a in quiver.arrows]
    for _ in range(length - 1):
        nxt = []
        for w in words:
            for a in quiver.arrows_from[w[-1].target]:
                nxt.append(w + [a])
        words = nxt
    return [tuple(a.name for a in reversed(w)) for w in words]  # composition order


def random_presentation(rng, max_vertices=4, max_arrows=6, max_rel_len=3, require_finite=True,
                        max_tries=200):
    """A random monomial presentation, finite-dimensional when asked."""
    for _ in range(max_tries):
        nv = rng.randint(1, max_vertices)
        vertices = [str(i + 1) for i in range(nv)]
        na = rng.randint(1, max_arrows)
        arrows = [
            Arrow(f"x{i + 1}", rng.choice(vertices), rng.choice(vertices)) for i in range(na)
        ]
        quiver = Quiver(vertices, arrows)
        candidates = []
        for length in range(2, max_rel_len + 1):
            candidates.extend(_all_words(quiver, length))
        if candidates:
            k = rng.randint(0, min(len(candidates), 6))
            chosen = rng.sample(candidates, k) if k else []
        else:
            chosen = []
        gens = [quiver.subword_path(w) for w in chosen]
        pres = MonomialPresentation(quiver, gens)
        if not require_finite or pres.is_finite_dimensional():
            return pres
    raise RuntimeError("could not sample a finite-dimensional presentation")


def finite_corpus(rng, n, **kwargs):
    return [random_presentation(rng, **kwargs) for _ in range(n)]


def gorenstein_corpus(rng, n, **kwargs):
    """Presentations whose homological profile certifies Gorenstein."""
    out = []
    while len(out) < n:
        pres = random_presentation(rng, **kwargs)
        if injective_dimension_profile(pres).gorenstein:
            out.append(pres)
    return out


def involution_corpus(rng, n, **kwargs):
    """(presentation, involution) pairs passing the gluing chain test."""
    out = []
    while len(out) < n:
        pres = random_presentation(rng, **kwargs)
        vertices = list(pres.quiver.vertices)
        if len(vertices) < 2:
            continue
        rng.shuffle(vertices)
        npairs = rng.randint(1, len(vertices) // 2)
        pairs = [(vertices[2 * i], vertices[2 * i + 1]) for i in range(npairs)]
        E = Involution.from_pairs(pres.quiver.vertices, pairs)
        finite, _ = glue_is_finite_dimensional(pres, E)
        if not finite:
            continue
        glue(pres, E)  # validates the glued presentation
        out.append((pres, E))
    return out


def random_gentle_presentation(rng, max_vertices=4, max_arrows=6, max_tries=400):
    """A random gentle presentation (finite-dimensional by rejection)."""
    for _ in range(max_tries):
        nv = rng.randint(1, max_vertices)
        vertices = [str(i + 1) for i in range(nv)]
        na = rng.randint(1, max_arrows)
        arrows = []
        out_count = {v: 0 for v in vertices}
        in_count = {v: 0 for v in vertices}
        for i in range(na):
            options = [
                (s, t)
                for s in vertices
                for t in vertices
                if out_count[s] < 2 and in_count[t] < 2
            ]
            if not options:
                break
            s, t = rng.choice(options)
            arrows.append(Arrow(f"x{len(arrows) + 1}", s, t))
            out_count[s] += 1
            in_count[t] += 1
        if not arrows:
            continue
        quiver = Quiver(vertices, arrows)
        # label each composable pair (later, earlier) rel/free so that every
        # arrow sees at most one of each label on each side
        rel = set()
        ok = True
        for v in vertices:
            incoming = [a.name for a in quiver.arrows_into[v]]
            outgoing = [a.name for a in quiver.arrows_from[v]]
            if not incoming or not outgoing:
                continue
            pairs = [(o, i) for o in outgoing for i in incoming]
            for attempt in range(8):
                labels = {p: rng.random() < 0.5 for p in pairs}  # True = relation
                good = True
                for i in incoming:
                    for val in (True, False):
                        if sum(1 for o in outgoing if labels[(o, i)] == val) > 1:
                            good = False
                for o in outgoing:
                    for val in (True, False):
                        if sum(1 for i in incoming if labels[(o, i)] == val) > 1:
                            good = False
                if good:
                    rel.update(p for p, v2 in labels.items() if v2)
                    break
            else:
                ok = False
                break
        if not ok:
            continue
        gens = [quiver.subword_path(p) for p in sorted(rel)]
        pres = MonomialPresentation(quiver, gens)
        if pres.is_finite_dimensional():
            return pres
    raise RuntimeError("could not sample a gentle presentation")


def gentle_corpus(rng, n, **kwargs):
    return [random_gentle_presentation(rng, **kwargs) for _ in range(n)]
