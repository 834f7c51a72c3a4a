"""Reducibility charts: polynomial alternatives to proof search.

The product-free left-rule fragments decide one relation: does a span of
positions, each offering candidate types (one for a type sequence, the
lexicon's for a word's symbol), reduce to a target?  In the /L-only slash
fragment a span reduces when its first candidate peels as
target-over-arguments and the rest splits into nonempty chunks reducing to
the arguments; with degree-one {/, \\} types also when its last candidate
is A\\target and the front reduces to A (the linear fragment).

``ReductionTable`` charts a type sequence in the slash fragment, memoized
top-down.  Over a word, each spine decomposition (head, args) of a type
for symbol a is the GNF rule head -> a args, so one ``sweep`` decides both
a GNF grammar and a /-only lexicon: right to left over end-position
bitmasks, on rules interned to ints and grouped by tail by
``group_rules``, each tail folded once per column.  Its two table
builders are ``compile_spines`` here, for a lexicon, and ``oracle``'s
``_gnf_tables``, for a grammar; ``SpineChart`` reads a lexicon word's
witness off the sweep's columns.
``LinearChart`` decides the linear fragment, word or sequence (and so the
regular fragment's sequences), by a goal-directed walk with its own stack
over int-interned tries that ``compile_linear`` builds once.  For a word
over degree-one /-only types ``nfa_member`` decides in one left-to-right
pass over an automaton ``compile_nfa`` builds once as int bitmasks, a
state being the mask of primitives still wanted: each call determinises
it as far as the word takes it, into plain dicts from symbol to next
state, so a move already computed costs one dict subscript.  Each chart
keeps nothing after its query, and records how a span reduced, not only
whether, so ``_derive`` reads the /L and \\L steps straight off it: every
chart gives a span's ``witness``, and the slash charts a split's end.
"""

from __future__ import annotations

from itertools import islice
from typing import Optional, Sequence

from .core import (
    Backslash,
    CalculusConfig,
    FragmentError,
    LambekType,
    Primitive,
    Proof,
    Rule,
    Sequent,
    Slash,
    _Budget,
    _outside,
    spine_decompositions,
    LINEAR_FRAGMENT,
    REGULAR_FRAGMENT,
    SLASH_FRAGMENT,
)


class _TypeKeyedChart:
    """``_derive``'s view of a chart whose memos are keyed by goal types:
    ``witness`` gives how a span reduced, (functor, args) or False, and
    ``split`` the end of the first chunk of a multi-argument split."""

    def witness(self, i: int, j: int, goal: LambekType):
        self.reduce(i, j, goal)
        return self.memo[i, j, goal]

    def split(self, i: int, j: int, args: tuple):
        self._split(i, j, args)
        return self._splits[i, j, args]


class ReductionTable(_TypeKeyedChart):
    """Memoized slash-fragment chart over one type sequence.

    ``reduce(i, j, target)`` says whether types i..j-1 reduce to target by
    /L; ``types`` holds the sequence as a tuple.  A table charts one query
    and keeps nothing after it; ``shared`` is accepted and ignored.  ``ops``
    counts chart expansions, which the tests use to bound the growth rate.

    An expansion walks the result spine of the type at i in place, trying
    its spine decompositions in ``spine_decompositions``' order, (t, ())
    first and then one more argument per step, and stops before the
    arguments would outnumber the rest of the span.  A head is matched by
    identity, then by hash, and only then by ``==``; the arguments become
    a tuple only when it matches.

    The memos are the witness ``_derive`` reads proofs off.  ``memo`` maps
    (i, j, target) to the first way found, (functor, args) when the type
    ``functor`` at i peels to target over ``args`` (() for an axiom), or
    False.  ``_splits`` maps (i, j, args) to the end of the first chunk of
    the leftmost split, or False.
    """

    def __init__(self, seq: Sequence, shared: Optional[dict] = None):
        self.types = tuple(seq)
        self.memo: dict = {}
        self._splits: dict = {}
        self.ops = 0

    def reduce(self, i: int, j: int, target: LambekType) -> bool:
        key = (i, j, target)
        hit = self.memo.get(key)
        if hit is not None:
            return hit is not False
        self.ops += 1
        # a direct call for one-argument spines keeps the recursion at one
        # frame per position on degree-one chains
        value = False
        width = j - i
        first = head = self.types[i]
        spine: list = []  # the arguments peeled off so far, outermost first
        while True:
            if head is target or (head._hash == target._hash and head == target):
                args = tuple(spine)
                if not args:
                    found = width == 1
                elif len(args) == 1:
                    found = self.reduce(i + 1, j, args[0])
                else:
                    found = self._split(i + 1, j, args)
                if found:
                    value = (first, args)
                    break
            if type(head) is not Slash or len(spine) + 1 >= width:
                break
            spine.append(head.arg)
            head = head.result
        self.memo[key] = value
        return value is not False

    def _split(self, i: int, j: int, args: tuple) -> bool:
        """Can positions i..j-1 split into len(args) nonempty chunks, the
        k-th reducing to args[k]?  Leftmost-first, memoized on the suffix."""
        if len(args) == 1:
            return j > i and self.reduce(i, j, args[0])
        key = (i, j, args)
        hit = self._splits.get(key)
        if hit is not None:
            return hit is not False
        self.ops += 1
        value = False
        first, rest = args[0], args[1:]
        for m in range(i + 1, j - len(rest) + 1):
            if self.reduce(i, m, first) and self._split(m, j, rest):
                value = m
                break
        self._splits[key] = value
        return value is not False


# --------------------------------------------------------------------------
# words over GNF rules


def compile_spines(lexicon, target: LambekType) -> tuple:
    """A /-only lexicon as GNF rules: each spine decomposition (head, args)
    of a symbol's type is a rule head -> symbol args.  A rule is kept when
    its head can be wanted: the target, or an argument of a kept rule, to a
    fixpoint.  Returns the sweep's tables, the kept rules by
    ``group_rules`` and the id count, as a grammar's are; then the wanted
    heads interned to ints (the target as 0), and per symbol its kept rules
    as (type, head, args, argument ids), in lexicon order, then spine
    order, which the witness readers walk."""
    rules = {
        sym: [(t, head, args) for t in types for head, args in spine_decompositions(t)]
        for sym, types in lexicon.items()
    }
    ids: dict = {target: 0}
    size = 0
    while size < len(ids):  # until a pass wants nothing new
        size = len(ids)
        for decompositions in rules.values():
            for _, head, args in decompositions:
                if head in ids:
                    for a in args:
                        ids.setdefault(a, len(ids))
    kept = {
        sym: tuple(
            (t, head, args, tuple(ids[a] for a in args))
            for t, head, args in decompositions
            if head in ids
        )
        for sym, decompositions in rules.items()
    }
    gnf = {
        sym: [(ids[head], arg_ids) for _, head, _, arg_ids in spines]
        for sym, spines in kept.items()
    }
    return group_rules(gnf), len(ids), ids, kept


def group_rules(rules: dict) -> dict:
    """GNF rules ``{symbol: [(head id, tail ids), ...]}`` as ``sweep``
    reads them: per symbol, its rule count and its rules grouped by tail,
    as (first tail id or None, the rest's ids, head ids)."""
    grouped = {}
    for sym, pairs in rules.items():
        groups: dict = {}
        for head, tail in pairs:
            groups.setdefault(tail, []).append(head)
        grouped[sym] = (
            len(pairs),
            tuple(
                (tail[0] if tail else None, tail[1:], tuple(heads))
                for tail, heads in groups.items()
            ),
        )
    return grouped


def sweep(word: Sequence, rules: dict, size: int, budget: _Budget) -> list:
    """GNF membership as a right-to-left sweep over bitmask columns, as in
    bit-vector CYK (Graham, Harrison & Ruzzo 1980), on ``group_rules``'s
    rules over ``size`` ids.  ``ends[i][h]`` is a bitmask of the ends e
    with word[i:e] derivable from head h, so the word derives from head 0
    when ``ends[0][0]`` has bit n.  A rule consumes its symbol first, so
    column i is built from later columns only: each distinct tail of
    word[i]'s rules is folded once, its first id's ends read straight off
    column i + 1, and the result ORed into every head sharing it.  The
    budget is charged once per column, a step per (position, rule)."""
    n = len(word)
    ends: list = [None] * n + [[0] * size]
    for i in range(n - 1, -1, -1):
        count, groups = rules[word[i]]
        budget.spend(count)
        col = [0] * size
        nxt = ends[i + 1]
        for first, rest, heads in groups:
            reach = 1 << (i + 1) if first is None else nxt[first]
            for a in rest:
                # every end of a from every position the prefix reaches,
                # inlined: a _fold call per group slows the grammar route
                step = 0
                while reach:
                    low = reach & -reach
                    step |= ends[low.bit_length() - 1][a]
                    reach ^= low
                reach = step
            if reach:
                for head in heads:
                    col[head] |= reach
        ends[i] = col
    return ends


def _fold(ends: list, reach: int, args: Sequence[int]) -> int:
    """The ends of consecutive nonempty chunks reducing to the heads
    ``args``, the first chunk starting at a position in the mask ``reach``."""
    for a in args:
        step = 0
        while reach:
            low = reach & -reach
            step |= ends[low.bit_length() - 1][a]
            reach ^= low
        reach = step
    return reach


class SpineChart(_TypeKeyedChart):
    """The witness reader over one word's ``sweep`` of ``compile_spines``'s
    rules, for ``_derive``.  ``reduce`` and ``_split`` read the witness off
    the ``ends`` masks in ``ReductionTable``'s shape and order: the first
    kept rule whose fold reaches j, and the least end of a first chunk
    from which the rest folds to j.
    """

    def __init__(self, word: Sequence, spines: tuple, budget: _Budget):
        rules, size, self._ids, self._kept = spines
        self.types = word
        self.memo: dict = {}
        self._splits: dict = {}
        self.ends = sweep(word, rules, size, budget)

    def reduce(self, i: int, j: int, target: LambekType) -> bool:
        key = (i, j, target)
        if key not in self.memo:
            self.memo[key] = next(
                (
                    (t, args)
                    for t, head, args, arg_ids in self._kept[self.types[i]]
                    if head == target and _fold(self.ends, 1 << (i + 1), arg_ids) >> j & 1
                ),
                False,
            )
        return self.memo[key] is not False

    def _split(self, i: int, j: int, args: tuple) -> bool:
        key = (i, j, args)
        if key not in self._splits:
            rest = [self._ids[a] for a in args[1:]]
            value, firsts = False, self.ends[i][self._ids[args[0]]]
            while firsts and value is False:
                low = firsts & -firsts
                if _fold(self.ends, low, rest) >> j & 1:
                    value = low.bit_length() - 1
                firsts ^= low
            self._splits[key] = value
        return self._splits[key] is not False


def compile_linear(lexicon, target: Primitive) -> tuple:
    """A degree-one {/, \\} lexicon as the linear walk's tries, over
    primitives interned to ints (the target as 0).  Returns the ids and,
    per symbol, lists indexed by goal id: the witness of a width-one span,
    (type, ()) for the first bare type equal to the goal, or False; the
    first-position tries, (1, argument id, (type, (argument,))) for each
    goal/A; and the last-position tries, (0, argument id, (type, None))
    for each A\\goal.  Tries keep lexicon order, and a try's leading d
    places the span it needs: (i + d, j + d - 1, argument id)."""
    ids: dict = {target: 0}
    for types in lexicon.values():
        for t in types:
            for p in (t,) if type(t) is Primitive else (t.result, t.arg):
                ids.setdefault(p, len(ids))
    units, first, last = {}, {}, {}
    for sym, types in lexicon.items():
        unit = [False] * len(ids)
        fronts: list = [[] for _ in ids]
        backs: list = [[] for _ in ids]
        for t in types:
            if type(t) is Slash:
                fronts[ids[t.result]].append((1, ids[t.arg], (t, (t.arg,))))
            elif type(t) is Backslash:
                backs[ids[t.result]].append((0, ids[t.arg], (t, None)))
            elif unit[ids[t]] is False:
                unit[ids[t]] = (t, ())
        units[sym] = unit
        first[sym] = [tuple(tries) for tries in fronts]
        last[sym] = [tuple(tries) for tries in backs]
    return ids, units, first, last


class LinearChart:
    """A word or sequence in the linear fragment, decided by a
    goal-directed walk over (i, j, goal id) on ``compile_linear``'s tries.

    A span of width one holds when its symbol offers the goal bare; a
    wider one tries, in lexicon order, its first position as goal/A before
    a span reducing to A, then its last position as A\\goal after one.
    The walk keeps its own stack and expands only the spans a try needs,
    one budget step each.  ``memo`` maps each decided (i, j, goal id) to
    its witness: (functor, args) as in ``ReductionTable``, (functor, None)
    for A\\goal at the end, or False.
    """

    def __init__(self, word: Sequence, tables: tuple, budget: _Budget):
        self.types, self._budget = word, budget
        self._ids, self._units, self._first, self._last = tables
        self.memo: dict = {}

    def reduce(self, i: int, j: int, target: LambekType) -> bool:
        return self.witness(i, j, target) is not False

    def witness(self, i: int, j: int, goal: LambekType):
        key = (i, j, self._ids[goal])
        return self.memo[key] if key in self.memo else self._walk(key)

    def _walk(self, root: tuple):
        """Decide the span ``root``, (i, j, goal id), and the spans it
        needs; returns its witness."""
        word, memo, spend = self.types, self.memo, self._budget.spend
        units, first, last = self._units, self._first, self._last
        spend()
        stack = [root]
        while stack:
            # spans only shrink, so a span the top needs is never below it
            i, j, goal = stack[-1]
            if j - i == 1:
                memo[stack.pop()] = units[word[i]][goal]
                continue
            for d, arg, witness in first[word[i]][goal] + last[word[j - 1]][goal]:
                span = (i + d, j + d - 1, arg)
                found = memo.get(span)
                if found is None:
                    spend()
                    stack.append(span)
                    break
                if found:
                    memo[stack.pop()] = witness
                    break
            else:
                memo[stack.pop()] = False
        return memo[root]


def compile_nfa(lexicon, target: Primitive) -> tuple:
    """The regular fragment's automaton, as ints: each primitive name gets
    a bit, a state is a mask of the primitives the rest of the word may have
    to produce, and p/q where p is wanted leaves q wanted.  Returns the
    start mask (the target's bit) and, per symbol of ``lexicon``, its
    (result bit, argument bit) moves and the mask of primitives it offers
    outright; then the lexicon and target themselves, since the automaton
    keeps no types and a proof is read off a sweep compiled from them.
    ``nfa_member`` determinises it per call, into plain dicts that it
    walks one subscript per symbol."""
    bits: dict = {}

    def bit(p: Primitive) -> int:
        return bits.setdefault(p.name, 1 << len(bits))

    start = bit(target)
    moves: dict = {}
    finals: dict = {}
    for key, types in lexicon.items():
        steps, offered = [], 0
        for t in types:
            if type(t) is Slash:
                steps.append((bit(t.result), bit(t.arg)))
            else:
                offered |= bit(t)
        moves[key], finals[key] = tuple(steps), offered
    return start, moves, finals, lexicon, target


def nfa_member(word: Sequence, nfa: tuple, budget: _Budget) -> bool:
    """Decide reducibility for degree-one /-only candidates in one pass over
    ``compile_nfa``'s automaton, determinised as the run reaches its states
    (Rabin & Scott 1959).  A state is a plain dict from symbol to next
    state, holding its want mask under None, which no symbol is, so a move
    already computed is one dict subscript and a missing one is computed
    where the subscript fails.  The states go with the call.  One budget
    step per position read before the last, so the walk stops after
    ``budget.left`` positions: a run that died within them is a verdict,
    one still alive there an overrun."""
    start, moves, finals = nfa[:3]
    read = len(word) - 1
    if budget.left is not None:
        read = max(0, min(read, budget.left))
    state = {None: start}
    states = {start: state}  # one run's states, by want mask
    for sym in islice(word, read):
        try:
            state = state[sym]
        except KeyError:
            want, nxt = state[None], 0
            for result, arg in moves[sym]:
                if want & result:
                    nxt |= arg
            if not nxt:
                # a mid-sequence primitive ends the spine with input left over
                return False
            state[sym] = states.setdefault(nxt, {None: nxt})
            state = state[sym]
    if read < len(word) - 1:
        budget.spend(len(word) - 1)  # alive where the budget ran out
    return bool(state[None] & finals[word[-1]])


def _query(
    seq: Sequence[LambekType], target: LambekType, fragment: CalculusConfig, shape: str
) -> tuple:
    """The query sequence as a tuple, once it and the target are checked
    against the fragment: degree-one fragments take primitive targets only."""
    seq = tuple(seq)
    restriction = fragment.type_restriction
    if not seq:
        raise FragmentError("reducibility query with empty sequence")
    if restriction.max_degree is not None and not isinstance(target, Primitive):
        raise FragmentError(f"target must be primitive, got {target}")
    bad = _outside((target, *seq), restriction)
    if bad is not None:
        raise FragmentError(f"{'target' if bad is target else 'type'} {bad} {shape}")
    return seq


def reduce_slash(
    seq: Sequence[LambekType], target: LambekType, table: Optional[ReductionTable] = None
) -> bool:
    """Decide whether the /-only sequence reduces to the target.  A
    ``table``, passed only so the caller can read its ``ops`` and ``memo``
    afterwards, must chart ``seq`` itself, or FragmentError."""
    seq = _query(seq, target, SLASH_FRAGMENT, "uses connectives other than /")
    table = table if table is not None else ReductionTable(seq)
    if table.types != seq:
        raise FragmentError("table charts a different sequence than the query")
    return table.reduce(0, len(seq), target)


def reduce_slash_proof(
    seq: Sequence[LambekType], target: LambekType
) -> Optional[Proof]:
    """Like reduce_slash, but reconstruct a checkable derivation on success."""
    seq = _query(seq, target, SLASH_FRAGMENT, "uses connectives other than /")
    tbl = ReductionTable(seq)
    return _derive(tbl, target) if tbl.reduce(0, len(seq), target) else None


def _derive(tbl, target: LambekType) -> Proof:
    """The derivation of all positions => target that a chart holding
    ``reduce(0, n, target)`` witnesses, read through its ``witness`` and,
    for a split over several arguments, ``split`` (a ``ReductionTable``,
    ``SpineChart`` or ``LinearChart``, which never splits).  The walk keeps
    its own stack: a proof as tall as the word needs no frame per level."""
    order, todo = [], [(0, len(tbl.types), target)]
    while todo:  # pre-order, leftmost argument span next
        i, j, goal = todo.pop()
        # a SpineChart reads a span's witness off its masks only when
        # asked; the other charts recorded it while deciding
        functor, args = tbl.witness(i, j, goal)
        if args is None:  # \L: the front reduces to A in A\goal
            functors, spans = [functor], [(i, j - 1, functor.arg)]
        else:  # /L once per argument, outermost first
            functors, spans, m = [], [], i + 1
            for k in range(len(args)):
                end = j
                if k + 1 < len(args):
                    end = tbl.split(m, j, args[k:])
                functors.append(functor)
                spans.append((m, end, args[k]))
                functor, m = functor.result, end
        order.append((goal, functors))
        todo.extend(reversed(spans))
    built: list = []
    for goal, functors in reversed(order):  # every span after its arguments
        minors = [built.pop() for _ in functors]
        proof = Proof(Sequent((goal,), goal), Rule.AXIOM)
        for functor, minor in zip(reversed(functors), reversed(minors)):
            arg_ant, rest = minor.conclusion.antecedent, proof.conclusion.antecedent[1:]
            if type(functor) is Backslash:
                ant, rule = arg_ant + (functor,) + rest, Rule.BACK_L
            else:
                ant, rule = (functor,) + arg_ant + rest, Rule.SLASH_L
            proof = Proof(Sequent(ant, goal), rule, (minor, proof), position=0)
        built.append(proof)
    return built[0]


# --------------------------------------------------------------------------
# degree-one fragments


def reduce_linear(seq: Sequence[LambekType], target: LambekType) -> bool:
    """Decide reducibility for degree-one {/, \\} types to a primitive target.

    A span works when it is the bare target, when its first type is
    target/A and the rest reduces to A, or when its last type is A\\target
    and the front reduces to A.
    """
    seq = _query(seq, target, LINEAR_FRAGMENT, "is not a degree-one {/, \\} type")
    tables = compile_linear({t: (t,) for t in seq}, target)
    return LinearChart(seq, tables, _Budget(None)).reduce(0, len(seq), target)


def reduce_regular(seq: Sequence[LambekType], target: LambekType) -> bool:
    """Decide reducibility for degree-one /-only types to a primitive target.

    The regular fragment is the linear fragment with no \\ type, so the
    linear walk decides it, independently of the NFA that decides words.
    """
    seq = _query(seq, target, REGULAR_FRAGMENT, "is not a degree-one /-only type")
    return reduce_linear(seq, target)
