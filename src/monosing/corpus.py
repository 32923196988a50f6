"""Seeded random presentation corpora for the verification sweeps.

All generators are deterministic functions of a random.Random instance; the
suite seeds it from MONO_SING_SEED (default DEFAULT_SEED) so repeated runs
see identical corpora.
"""

from __future__ import annotations

import os
import random
from collections.abc import Sequence

from .gluing import Involution, glue, glue_is_finite_dimensional
from .oracle import injective_dimension_profile
from .presentation import Arrow, MonomialPresentation, Quiver

DEFAULT_SEED = 174011


def seeded_rng():
    return random.Random(int(os.environ.get("MONO_SING_SEED", DEFAULT_SEED)))


class _Words(Sequence):
    """Every word of 2 .. ``max_len`` arrows, in composition order, listed by
    length, then by the first-traversed arrow's index in ``quiver.arrows``,
    then by each next arrow's index in ``arrows_from``.

    Nothing is listed up front: the length comes from walk counts per
    (length, vertex), and an index is unranked on demand, so ``rng.sample``
    draws from a population far too large to list.
    """

    def __init__(self, quiver, max_len):
        self.quiver = quiver
        # walks[m][v]: the words of m arrows that start at v
        walks = [dict.fromkeys(quiver.vertices, 1)]
        for _ in range(max_len - 1):
            prev = walks[-1]
            walks.append({v: sum(prev[a.target] for a in quiver.arrows_from[v])
                          for v in quiver.vertices})
        self.walks = walks
        self.sizes = [sum(walks[n - 1][a.target] for a in quiver.arrows)
                      for n in range(2, max_len + 1)]
        self.size = sum(self.sizes)

    def __len__(self):
        return self.size

    def __getitem__(self, i):
        if i < 0:
            i += self.size
        if not 0 <= i < self.size:
            raise IndexError("word index out of range")
        m = 1  # arrows after the first, in the word being unranked
        while i >= self.sizes[m - 1]:
            i -= self.sizes[m - 1]
            m += 1
        word = []
        options = self.quiver.arrows
        while True:
            for a in options:
                count = self.walks[m][a.target]
                if i < count:
                    break
                i -= count
            word.append(a.name)
            if m == 0:
                return tuple(reversed(word))
            options = self.quiver.arrows_from[a.target]
            m -= 1

    def __iter__(self):
        # each length's words extend the previous length's in order, which
        # keeps random.sample's list(population) branch as fast as a list
        quiver = self.quiver
        level = [(a.name,) for a in quiver.arrows]
        for _ in self.sizes:
            level = [(b.name,) + w for w in level for b in quiver.arrows_from[quiver.target(w[0])]]
            yield from level


def random_presentation(rng, max_vertices=4, max_arrows=6, max_rel_len=3, require_finite=True):
    """A random monomial presentation, finite-dimensional when asked; gives
    up after 200 draws."""
    for _ in range(200):
        nv = rng.randint(1, max_vertices)
        vertices = [str(i + 1) for i in range(nv)]
        na = rng.randint(1, max_arrows)
        arrows = [
            Arrow(f"x{i + 1}", rng.choice(vertices), rng.choice(vertices)) for i in range(na)
        ]
        quiver = Quiver(vertices, arrows)
        candidates = _Words(quiver, max_rel_len)
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


def random_gentle_presentation(rng, max_vertices=4, max_arrows=6):
    """A random gentle presentation (finite-dimensional by rejection); gives
    up after 400 draws."""
    for _ in range(400):
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
