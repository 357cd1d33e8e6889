"""Finite permutation groups, the named groups S_k, C_k, A_k and V4, and
abstract groups given by tables.

Permutations act on {1, ..., n}.  Groups are stored as explicit element
sets (closure by breadth-first multiplication), which is fine at the
scales this package targets: degree at most 12, order at most 10**6.
The facts about G that realization and validation both read live here
too: the degree cap of the S_n route (``check_sn_cap``) and G's table
over its sorted elements (``group_table``).
"""

from __future__ import annotations

from .errors import CapExceededError, SpecParseError, VerificationError

MAX_DEGREE = 12
MAX_ORDER = 10**6
ISO_BACKTRACK_CAP = 10**4
SN_CAP = 3


class Permutation:
    """A permutation of {1..n}, stored as the tuple of images of 1..n."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise SpecParseError(f"not a permutation of 1..{len(images)}: {images}")
        self.images = images

    @classmethod
    def identity(cls, n):
        return cls(range(1, n + 1))

    @classmethod
    def from_cycles(cls, cycles, n):
        """Build from disjoint cycles given as tuples of points."""
        images = list(range(1, n + 1))
        seen = set()
        for cyc in cycles:
            for a in cyc:
                if not (1 <= a <= n):
                    raise SpecParseError(f"point {a} outside 1..{n}")
                if a in seen:
                    raise SpecParseError(f"point {a} repeated across cycles")
                seen.add(a)
            for i, a in enumerate(cyc):
                images[a - 1] = cyc[(i + 1) % len(cyc)]
        return cls(images)

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, point):
        return self.images[point - 1]

    def __mul__(self, other):
        """Composition: (self * other)(x) = self(other(x))."""
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Permutation(self.images[b - 1] for b in other.images)

    def cycles(self):
        """Nontrivial cycles, each rotated to start at its minimum, sorted."""
        seen = set()
        out = []
        for start in range(1, self.degree + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            b = self(start)
            while b != start:
                cyc.append(b)
                seen.add(b)
                b = self(b)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        out.sort()
        return out

    @property
    def is_identity(self):
        return all(self.images[i] == i + 1 for i in range(self.degree))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other):
        return self.images < other.images

    def __repr__(self):
        return f"Permutation({self.images})"


def render_cycles(perm):
    cycs = perm.cycles()
    if not cycs:
        return "()"
    return "".join("(" + " ".join(str(a) for a in c) + ")" for c in cycs)


def parse_cycles(text, n):
    """Parse cycle notation like "(1 2 3)(4 5)" or "()" on n points; every
    point of every cycle, a 1-cycle's too, must lie in 1..n and appear
    once."""
    text = text.strip()
    if text in ("()", "e", "id", ""):
        return Permutation.identity(n)
    if text.count("(") != text.count(")"):
        raise SpecParseError(f"unbalanced parentheses in {text!r}")
    cycles = []
    depth = 0
    buf = ""
    for ch in text:
        if ch == "(":
            if depth:
                raise SpecParseError(f"nested parentheses in {text!r}")
            depth = 1
            buf = ""
        elif ch == ")":
            if not depth:
                raise SpecParseError(f"stray ')' in {text!r}")
            depth = 0
            parts = buf.replace(",", " ").split()
            try:
                cyc = tuple(int(p) for p in parts)
            except ValueError:
                raise SpecParseError(f"bad cycle {buf!r} in {text!r}") from None
            cycles.append(cyc)
        elif depth:
            buf += ch
        elif not ch.isspace():
            raise SpecParseError(f"unexpected character {ch!r} in {text!r}")
    if depth:
        raise SpecParseError(f"unterminated cycle in {text!r}")
    return Permutation.from_cycles(cycles, n)


class PermGroup:
    """A permutation group as an explicit, closed element set."""

    def __init__(self, generators, degree=None):
        generators = list(generators)
        if degree is None:
            if not generators:
                raise ValueError("need a degree for the trivial group")
            degree = generators[0].degree
        if degree > MAX_DEGREE:
            raise CapExceededError(
                f"degree {degree} exceeds the permutation degree cap {MAX_DEGREE}"
            )
        for g in generators:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
        self.degree = degree
        self.generators = tuple(g for g in generators if not g.is_identity)
        self.elements = self._close()

    def _close(self):
        identity = Permutation.identity(self.degree)
        elements = {identity}
        frontier = [identity]
        while frontier:
            nxt = []
            for a in frontier:
                for g in self.generators:
                    b = g * a
                    if b not in elements:
                        elements.add(b)
                        nxt.append(b)
                        if len(elements) > MAX_ORDER:
                            raise CapExceededError(
                                f"group order exceeds the cap {MAX_ORDER}"
                            )
            frontier = nxt
        return frozenset(elements)

    @classmethod
    def symmetric(cls, n):
        if n <= 1:
            return cls([], degree=max(n, 1))
        gens = [Permutation.from_cycles([(1, 2)], n)]
        if n >= 3:
            gens.append(Permutation.from_cycles([tuple(range(1, n + 1))], n))
        return cls(gens, degree=n)

    @classmethod
    def alternating(cls, n):
        if n <= 2:
            return cls([], degree=max(n, 1))
        gens = [
            Permutation.from_cycles([(i, i + 1, i + 2)], n) for i in range(1, n - 1)
        ]
        return cls(gens, degree=n)

    @classmethod
    def cyclic(cls, n):
        if n <= 1:
            return cls([], degree=max(n, 1))
        return cls([Permutation.from_cycles([tuple(range(1, n + 1))], n)], degree=n)

    @property
    def order(self):
        return len(self.elements)

    def __iter__(self):
        return iter(sorted(self.elements))

    def __eq__(self, other):
        return (
            isinstance(other, PermGroup)
            and self.degree == other.degree
            and self.elements == other.elements
        )

    def __repr__(self):
        return f"PermGroup(order={self.order}, degree={self.degree})"


def check_sn_cap(n: int):
    """Refuse a degree below 1 or above SN_CAP before any work is done
    for it."""
    if n < 1:
        raise SpecParseError(f"n must be >= 1, got {n}")
    if n > SN_CAP:
        raise CapExceededError(
            f"n = {n} is not supported yet: the S_n route stops at n = {SN_CAP}"
        )


def group_table(G: PermGroup):
    """G's own table over sorted(G.elements): entry [a][b] is the index of
    the a-th element times the b-th.  An automorphism table equal to it
    is a copy of G in which the i-th automorphism extends the i-th
    element, so the position of each image labels it."""
    elems = sorted(G.elements)
    index = {g: i for i, g in enumerate(elems)}
    return [[index[a * b] for b in elems] for a in elems]


def named_group(name):
    """(canonical name, degree, expand) of S_k, C_k, A_k or V4, read from
    the name alone.  The canonical name is the upper-case letter and k in
    decimal (" s03" is S3), so that every spelling gives one certificate.
    ``expand()`` builds (the group, its generators in canonical cycle
    notation, ``["()"]`` for a trivial group); a caller checks the degree
    before it calls ``expand``, for closing a large group costs seconds."""
    name = name.strip()
    if name.upper() == "V4":
        canonical, k = "V4", 4

        def build(n):
            return PermGroup([parse_cycles(s, n) for s in ("(1 2)(3 4)", "(1 3)(2 4)")], degree=n)

    else:
        build = {
            "S": PermGroup.symmetric,
            "C": PermGroup.cyclic,
            "A": PermGroup.alternating,
        }.get(name[:1].upper())
        if build is None:
            raise SpecParseError(f"unknown named group {name!r}")
        try:
            k = int(name[1:])
        except ValueError:
            raise SpecParseError(f"unknown named group {name!r}") from None
        if k < 1:
            raise SpecParseError(f"named group index must be >= 1: {name!r}")
        canonical = f"{name[0].upper()}{k}"

    def expand():
        G = build(k)
        return G, [render_cycles(g) for g in G.generators] or ["()"]

    return canonical, k, expand


class AbstractGroup:
    """A finite group as a composition table over indices 0..n-1.

    table[i][j] is the index of element_i * element_j; index 0 must be the
    identity.  The constructor verifies the full group axioms.
    """

    def __init__(self, table):
        self.table = tuple(tuple(row) for row in table)
        self._verify()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def _verify(self):
        n = len(self.table)
        if not n:
            raise VerificationError("composition table is empty")
        idx = set(range(n))
        for row in self.table:
            if len(row) != n or set(row) != idx:
                raise VerificationError("composition table row is not a bijection")
        for j in range(n):
            if {self.table[i][j] for i in range(n)} != idx:
                raise VerificationError("composition table column is not a bijection")
        for i in range(n):
            if self.table[0][i] != i or self.table[i][0] != i:
                raise VerificationError("index 0 is not the identity")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if (
                        self.table[self.table[i][j]][k]
                        != self.table[i][self.table[j][k]]
                    ):
                        raise VerificationError("composition table not associative")

    @property
    def order(self):
        return len(self.table)

    def mul(self, i, j):
        return self.table[i][j]

    def element_order(self, i):
        k, acc = 1, i
        while acc != 0:
            acc = self.table[acc][i]
            k += 1
        return k

    def order_multiset(self):
        return sorted(self.element_order(i) for i in range(self.order))


def _generating_indices(group):
    """A small generating set of element indices, greedily extended."""
    n = group.order
    if n == 1:
        return []
    gens = []
    closed = {0}
    for i in sorted(range(n), key=group.element_order, reverse=True):
        if i in closed:
            continue
        gens.append(i)
        frontier = list(closed)
        closed = set(closed)
        new = [i]
        while new:
            nxt = []
            for a in list(closed) + new:
                for g in gens:
                    b = group.mul(g, a)
                    if b not in closed and b not in set(new) | set(nxt):
                        nxt.append(b)
            closed |= set(new)
            new = nxt
        if len(closed) == n:
            break
    return gens


def are_isomorphic(g1, g2):
    """Isomorphism test for AbstractGroups.

    Returns (True, mapping) with mapping a tuple sending index i of g1 to
    an index of g2, or (False, None).  Backtracks over generator images,
    pruned by element orders; raises CapExceededError past the node cap.
    """
    if g1.order != g2.order:
        return False, None
    if g1.order_multiset() != g2.order_multiset():
        return False, None
    n = g1.order
    if n == 1:
        return True, (0,)
    gens = _generating_indices(g1)
    orders2 = {}
    for j in range(n):
        orders2.setdefault(g2.element_order(j), []).append(j)

    nodes = 0

    def close_words(gen_count):
        """Words in the generators reaching every element of g1, as index
        sequences; returns dict element -> word (list of generator slots)."""
        words = {0: []}
        frontier = [0]
        while frontier:
            nxt = []
            for a in frontier:
                for slot in range(gen_count):
                    b = g1.mul(gens[slot], a)
                    if b not in words:
                        words[b] = [slot] + words[a]
                        nxt.append(b)
            frontier = nxt
        return words

    words = close_words(len(gens))
    if len(words) != n:
        raise VerificationError("generating set does not generate")

    def image_of(word, images):
        acc = 0
        for slot in reversed(word):
            acc = g2.mul(images[slot], acc)
        return acc

    def extend(images):
        nonlocal nodes
        nodes += 1
        if nodes > ISO_BACKTRACK_CAP:
            raise CapExceededError(
                f"isomorphism search exceeded {ISO_BACKTRACK_CAP} nodes"
            )
        k = len(images)
        if k == len(gens):
            mapping = [None] * n
            used = set()
            for elem, word in words.items():
                img = image_of(word, images)
                if img in used:
                    return None
                mapping[elem] = img
                used.add(img)
            for i in range(n):
                for j in range(n):
                    if mapping[g1.mul(i, j)] != g2.mul(mapping[i], mapping[j]):
                        return None
            return tuple(mapping)
        want = g1.element_order(gens[k])
        for j in orders2.get(want, []):
            result = extend(images + [j])
            if result is not None:
                return result
        return None

    mapping = extend([])
    if mapping is None:
        return False, None
    return True, mapping
