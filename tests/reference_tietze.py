"""Test-only copy of the Tietze simplification that fpgroups used to ship.

It re-keys every relator by listing all of its rotations and those of its
inverse after every move and for every elimination candidate, and scans the
target at every position for every rotation of a rule.  The routine in
``meridian.fpgroups`` must make the same moves in the same order, so the two
agree on the presentation and on the step count for every input and budget.
The one intended difference is ``completed``: this copy reports False
whenever the budget is used up, even if no move was left.
"""

from meridian.fpgroups import (
    Presentation,
    TietzeResult,
    Word,
    cyclic_reduce,
    invert,
    multiply,
    reduce_word,
)


def _cyclic_rotations(w: Word):
    for i in range(len(w)):
        yield w[i:] + w[:i]


def _relator_key(w: Word) -> Word:
    if not w:
        return ()
    candidates = list(_cyclic_rotations(w)) + list(_cyclic_rotations(invert(w)))
    return min(candidates)


def _substitute(word: Word, gen: int, image: Word) -> Word:
    image_inv = invert(image)
    out: list[Word] = []
    for x in word:
        if x == gen:
            out.append(image)
        elif x == -gen:
            out.append(image_inv)
        else:
            out.append((x,))
    return multiply(*out)


def _drop_generator(word: Word, gen: int) -> Word:
    return tuple(x - 1 if x > gen else x + 1 if x < -gen else x for x in word)


def _isolated_candidates(relators):
    out = []
    for ri, rel in enumerate(relators):
        counts: dict[int, int] = {}
        for x in rel:
            counts[abs(x)] = counts.get(abs(x), 0) + 1
        for g in (g for g, c in counts.items() if c == 1):
            sign = next(x for x in rel if abs(x) == g)
            out.append(((len(rel), ri, -g), ri, sign))
    return [(ri, sign) for _, ri, sign in sorted(out)]


def _try_shorten(target: Word, rule: Word) -> Word | None:
    n = len(rule)
    if n < 2:
        return None
    half = n // 2 + 1
    for base in (rule, invert(rule)):
        for rot in _cyclic_rotations(base):
            u = rot[:half]
            v = invert(rot[half:])
            for i in range(len(target) - len(u) + 1):
                if target[i:i + len(u)] == u:
                    cand = multiply(target[:i], v, target[i + len(u):])
                    if len(cand) < len(target):
                        return cand
    return None


def tietze_simplify(pres: Presentation, budget: int = 10000) -> TietzeResult:
    gens = list(pres.generators)
    relators = list(pres.relators)
    steps = 0

    def normalized(rels):
        seen = set()
        out = []
        for rel in rels:
            rel = cyclic_reduce(reduce_word(rel))
            key = _relator_key(rel)
            if rel and key not in seen:
                seen.add(key)
                out.append(rel)
        return out

    relators = normalized(relators)
    while steps < budget:
        eliminated = False
        current_total = sum(len(r) for r in relators)
        for ri, signed in _isolated_candidates(relators):
            rel = relators[ri]
            g = abs(signed)
            k = rel.index(signed)
            rest = rel[k + 1:] + rel[:k]
            image = invert(rest) if signed > 0 else rest
            others = relators[:ri] + relators[ri + 1:]
            candidate = normalized(_substitute(r, g, image) for r in others)
            if sum(len(r) for r in candidate) > current_total:
                continue
            relators = [_drop_generator(r, g) for r in candidate]
            del gens[g - 1]
            steps += 1
            eliminated = True
            break
        if eliminated:
            continue

        shortened = False
        order = sorted(range(len(relators)), key=lambda i: len(relators[i]))
        for i in order:
            for j in range(len(relators)):
                if i == j:
                    continue
                cand = _try_shorten(relators[j], relators[i])
                if cand is not None:
                    relators[j] = cand
                    relators = normalized(relators)
                    shortened = True
                    steps += 1
                    break
            if shortened:
                break
        if shortened:
            continue

        best = None
        for ri, signed in _isolated_candidates(relators):
            rel = relators[ri]
            g = abs(signed)
            k = rel.index(signed)
            rest = rel[k + 1:] + rel[:k]
            image = invert(rest) if signed > 0 else rest
            others = relators[:ri] + relators[ri + 1:]
            candidate = normalized(_substitute(r, g, image) for r in others)
            total = sum(len(r) for r in candidate)
            if best is None or total < best[0]:
                best = (total, g, candidate)
        if best is None:
            return TietzeResult(Presentation(tuple(gens), tuple(relators)),
                                True, steps)
        _, g, candidate = best
        relators = [_drop_generator(r, g) for r in candidate]
        del gens[g - 1]
        steps += 1
    return TietzeResult(Presentation(tuple(gens), tuple(relators)), False, steps)
