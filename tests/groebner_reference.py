"""The Groebner basis and Stetter normal forms over the rationals, with
``fractions.Fraction`` coefficients and monic basis elements: the reference
that ``analyzer._basis`` and ``analyzer._zeros``, which run on integers, are
tested against. Polynomials are dicts (p, q) -> Fraction in graded
reverse-lex order, x > y."""

from fractions import Fraction

import numpy as np

from gradfit.analyzer import _MIX, _grevlex


def remainder(f: dict, G: list) -> dict:
    """f reduced by G, a list of (leading monomial, monic polynomial)."""
    f, rem = dict(f), {}
    while f:
        m = max(f, key=_grevlex)
        lm, g = next(((lm, g) for lm, g in G
                      if lm[0] <= m[0] and lm[1] <= m[1]), (None, None))
        if g is None:
            rem[m] = f.pop(m)
            continue
        c, sp, sq = f[m], m[0] - lm[0], m[1] - lm[1]
        for (p, q), v in g.items():
            k = (p + sp, q + sq)
            f[k] = f.get(k, 0) - c * v
            if not f[k]:
                del f[k]
    return rem


def basis(*polys) -> list | None:
    """Buchberger's algorithm with monic elements, as (leading monomial,
    polynomial) pairs, or None if 1 lies in the ideal."""
    G, pairs, todo = [], [], list(polys[::-1])
    while todo or pairs:
        if todo:
            f = todo.pop()
        else:
            pairs.sort(key=lambda t: _grevlex(t[0]), reverse=True)
            lcm, i, j = pairs.pop()
            f = {}
            for (lm, g), sign in ((G[i], 1), (G[j], -1)):
                for (p, q), v in g.items():
                    k = (p + lcm[0] - lm[0], q + lcm[1] - lm[1])
                    f[k] = f.get(k, 0) + sign * v
        r = remainder({k: v for k, v in f.items() if v}, G)
        if not r:
            continue
        lm = max(r, key=_grevlex)
        if lm == (0, 0):
            return None
        pairs += [((max(lm[0], lg[0]), max(lm[1], lg[1])), i, len(G))
                  for i, (lg, _) in enumerate(G)
                  if min(lm[0], lg[0]) or min(lm[1], lg[1])]
        G.append((lm, {m: v / r[lm] for m, v in r.items()}))
    return G


def zeros(G: list):
    """The common zeros of a monic basis G as a (2, k) array, or None when
    there are infinitely many; normal forms in Fractions, each entry of T_x
    and T_y rounded by ``float``."""
    lms = [lm for lm, _ in G]
    a = min((p for p, q in lms if q == 0), default=None)
    b = min((q for p, q in lms if p == 0), default=None)
    if a is None or b is None:
        return None
    normal = [(p, q) for p in range(a) for q in range(b)
              if not any(l[0] <= p and l[1] <= q for l in lms)]
    forms = {m: {m: 1} for m in normal}

    def normal_form(m):
        if m not in forms:
            lm, g = next(h for h in G if h[0][0] <= m[0] and h[0][1] <= m[1])
            form = forms[m] = {}
            for (p, q), c in g.items():
                if (p, q) != lm:
                    t = (p + m[0] - lm[0], q + m[1] - lm[1])
                    for n, v in normal_form(t).items():
                        form[n] = form.get(n, 0) - c * v
        return forms[m]

    index = {m: i for i, m in enumerate(normal)}
    T = np.zeros((2, len(normal), len(normal)))
    for i, (p, q) in enumerate(normal):
        for v, m in enumerate(((p + 1, q), (p, q + 1))):
            for n, c in normal_form(m).items():
                T[v, i, index[n]] = c
    _, V = np.linalg.eig(T[0] + _MIX * T[1])
    return T[:, 0] @ V / V[0]


def slices(P, Q):
    """The generator triples (P, Q, x - t) and (P, Q, y - t) of
    ``analyzer._sliced_zeros``, on its seeded lines, as Fraction dicts."""
    rng = np.random.default_rng(1729)
    out = []
    for line in ((1, 0), (0, 1)):
        t = Fraction(int(rng.integers(-2 ** 20, 2 ** 20)), 2 ** 19)
        out.append((P.terms, Q.terms, {line: Fraction(1), (0, 0): -t}))
    return out
