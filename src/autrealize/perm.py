"""Finite permutation groups and the generator text of the named groups
S_k, C_k, A_k and V4.

Permutations act on {1, ..., n}.  Groups are stored as explicit element
sets (closure by breadth-first multiplication), which is fine at the
scales this package targets: degree at most 12, order at most 10**6.
The facts about G that realization and validation both read live here
too: the degree cap of the S_n route (``check_sn_cap``) and G's table
over its sorted elements (``group_table``).
"""

from __future__ import annotations

from itertools import product

from .errors import CapExceededError, SpecParseError

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

    def __init__(self, generators, degree):
        generators = list(generators)
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


def parse_generators(texts, n):
    """(the group on {1..n} that the cycle-notation texts generate, the
    texts in canonical cycle notation): how ``realize`` reads ``--gens``
    and ``--named`` alike, and how the validator reads a certificate's
    group."""
    gens = [parse_cycles(s, n) for s in texts]
    return PermGroup(gens, degree=n), [render_cycles(g) for g in gens]


def named_group(name):
    """(canonical name, degree, generators) of S_k, C_k, A_k or V4, read
    from the name alone.  The canonical name is the upper-case letter and
    k in decimal (" s03" is S3), so that every spelling gives one
    certificate.  The generators are canonical cycle text (``"()"`` for a
    trivial group), yielded lazily: none is written until a caller reads
    them, after it has checked the degree, for S_k's k-cycle is k numbers
    long."""
    name = name.strip()
    letter = name[:1].upper()
    if name.upper() == "V4":
        k = 4
    elif letter not in ("S", "C", "A"):
        raise SpecParseError(f"unknown named group {name!r}")
    else:
        try:
            k = int(name[1:])
        except ValueError:
            raise SpecParseError(f"unknown named group {name!r}") from None
        if k < 1:
            raise SpecParseError(f"named group index must be >= 1: {name!r}")
    return f"{letter}{k}", k, _named_generators(letter, k)


def _named_generators(letter, k):
    """V4's two double transpositions, A_k's 3-cycles (i i+1 i+2), the
    transposition (1 2) (S_k, k > 2) and the k-cycle (S_k and C_k, k > 1),
    or the identity."""
    if letter == "V":
        yield from ("(1 2)(3 4)", "(1 3)(2 4)")
    elif letter == "A" and k > 2:
        yield from (f"({i} {i + 1} {i + 2})" for i in range(1, k - 1))
    elif letter in ("S", "C") and k > 1:
        if letter == "S" and k > 2:
            yield "(1 2)"
        yield "(" + " ".join(str(a) for a in range(1, k + 1)) + ")"
    else:
        yield "()"


def are_isomorphic(t1, t2):
    """Isomorphism test for two composition tables: rows over indices
    0..n-1 with index 0 the identity, as ``group_table`` returns.

    Returns (True, mapping) with mapping a tuple sending index i of t1 to
    an index of t2, or (False, None).  Tries every same-order image of a
    greedy generating set of t1, largest orders first; raises
    CapExceededError past ISO_BACKTRACK_CAP candidates.
    """
    orders1, orders2 = _element_orders(t1), _element_orders(t2)
    if sorted(orders1) != sorted(orders2):
        return False, None
    gens, steps = [], {0: None}
    for i in sorted(range(len(t1)), key=orders1.__getitem__, reverse=True):
        if i not in steps:
            gens.append(i)
            steps = _closure(t1, gens)
    walk = list(steps.items())[1:]  # (b, (slot, a)) with b = gens[slot] * a
    same_order = [[j for j, k in enumerate(orders2) if k == orders1[g]] for g in gens]
    for tried, images in enumerate(product(*same_order)):
        if tried == ISO_BACKTRACK_CAP:
            raise CapExceededError(
                f"isomorphism search exceeded {ISO_BACKTRACK_CAP} candidates"
            )
        mapping = [0] * len(t1)
        for b, (slot, a) in walk:
            mapping[b] = t2[images[slot]][mapping[a]]
        if len(set(mapping)) == len(t1) and all(
            mapping[t1[i][j]] == t2[mi][mj]
            for i, mi in enumerate(mapping)
            for j, mj in enumerate(mapping)
        ):
            return True, tuple(mapping)
    return False, None


def _element_orders(table):
    """The order of each element, by repeated multiplication."""
    orders = []
    for i in range(len(table)):
        k, acc = 1, i
        while acc:
            acc, k = table[acc][i], k + 1
        orders.append(k)
    return orders


def _closure(table, gens):
    """Breadth-first closure of gens from the identity: each element
    reached maps to (slot, a), the word gens[slot] * a, in the order
    reached; the identity maps to None."""
    steps = {0: None}
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            for slot, g in enumerate(gens):
                b = table[g][a]
                if b not in steps:
                    steps[b] = (slot, a)
                    nxt.append(b)
        frontier = nxt
    return steps
