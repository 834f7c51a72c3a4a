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
regular fragment's sequences), by a goal-directed walk with its own stack.
For a word over degree-one /-only types ``nfa_member`` decides in one
left-to-right pass over an automaton ``compile_nfa`` builds once as int
bitmasks, a state being the mask of primitives still wanted: each call
determinises it as far as the word takes it, and ``functools.reduce``
walks the states in C, entering Python only for a move not yet
computed.  Each chart keeps nothing after its query, and records how a
span reduced, not only whether, so ``_derive`` reads the /L and \\L
steps straight off it.
"""

from __future__ import annotations

import functools
from itertools import islice
from operator import getitem
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
    in_fragment,
    spine_decompositions,
    LINEAR_FRAGMENT,
    REGULAR_FRAGMENT,
    SLASH_FRAGMENT,
)


class ReductionTable:
    """Memoized slash-fragment chart over one type sequence.

    ``reduce(i, j, target)`` says whether types i..j-1 reduce to target by
    /L; ``types`` holds the sequence as a tuple.  A table charts one query
    and keeps nothing after it; ``shared`` is accepted and ignored.  ``ops``
    counts chart expansions, which the tests use to bound the growth rate.

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
        first = self.types[i]
        for head, args in spine_decompositions(first):
            if head != target or len(args) >= width:
                continue
            if not args:
                found = width == 1
            elif len(args) == 1:
                found = self.reduce(i + 1, j, args[0])
            else:
                found = self._split(i + 1, j, args)
            if found:
                value = (first, args)
                break
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
    fixpoint.  Returns the wanted heads interned to ints (the target as 0);
    per symbol, its kept rules as (type, head, args, argument ids), in
    lexicon order, then spine order, which the witness readers walk; and
    the sweep's tables: the kept rules by ``group_rules``, and the id
    count."""
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
    return ids, kept, (group_rules(gnf), len(ids))


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


class SpineChart:
    """The witness reader over one word's ``sweep`` of ``compile_spines``'s
    rules, for ``_derive``.  ``reduce`` and ``_split`` read the witness off
    the ``ends`` masks in ``ReductionTable``'s shape and order: the first
    kept rule whose fold reaches j, and the least end of a first chunk
    from which the rest folds to j.
    """

    def __init__(self, word: tuple, spines: tuple, budget: _Budget):
        self._ids, self._kept, (rules, size) = spines
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


class LinearChart:
    """A word or sequence in the linear fragment, decided by a
    goal-directed walk over (i, j, target).

    A span tries, in lexicon order: its first position as the target
    (width one) or as target/A before a span reducing to A, then its last
    position as A\\target after one.  The walk keeps its own stack and
    expands only the spans a try needs, one budget step each.  ``memo``
    holds each decided span's witness: (functor, args) as in
    ``ReductionTable``, (functor, None) for A\\target at the end, or False.
    """

    def __init__(self, word: tuple, lexicon, budget: _Budget):
        self.types, self._lexicon, self._budget = word, lexicon, budget
        self.memo: dict = {}

    def _tries(self, i: int, j: int, target: LambekType):
        # (functor, args, the span the try needs or None)
        for t in self._lexicon[self.types[i]]:
            if t == target and j - i == 1:
                yield t, (), None
            elif type(t) is Slash and t.result == target and j - i > 1:
                yield t, (t.arg,), (i + 1, j, t.arg)
        if j - i > 1:
            for t in self._lexicon[self.types[j - 1]]:
                if type(t) is Backslash and t.result == target:
                    yield t, None, (i, j - 1, t.arg)

    def reduce(self, i: int, j: int, target: LambekType) -> bool:
        memo, stack = self.memo, []
        if (i, j, target) not in memo:
            self._budget.spend()
            stack.append((i, j, target))
        while stack:
            # spans only shrink, so a span the top needs is never below it
            for functor, args, span in self._tries(*stack[-1]):
                found = True if span is None else memo.get(span)
                if found is None:
                    self._budget.spend()
                    stack.append(span)
                    break
                if found:
                    memo[stack.pop()] = (functor, args)
                    break
            else:
                memo[stack.pop()] = False
        return memo[i, j, target] is not False


def compile_nfa(lexicon, target: Primitive) -> tuple:
    """The regular fragment's automaton, as ints: each primitive name gets
    a bit, a state is a mask of the primitives the rest of the word may have
    to produce, and p/q where p is wanted leaves q wanted.  Returns the
    start mask (the target's bit) and, per symbol of ``lexicon``, its
    (result bit, argument bit) moves and the mask of primitives it offers
    outright.  ``nfa_member`` determinises it per call."""
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
    return start, moves, finals


class _Dead(Exception):
    """A run that wants nothing: no suffix completes it."""


class _State(dict):
    """A mask of wanted primitives, as a subset-automaton state: it maps a
    symbol to the next state, computing the move (Rabin & Scott 1959) the
    first time a run reads it.  ``_states`` interns the masks of one run."""

    __slots__ = ("want", "_moves", "_states")

    def __init__(self, want: int, moves: dict, states: dict):
        self.want, self._moves, self._states = want, moves, states
        states[want] = self

    def __missing__(self, sym):
        nxt = 0
        for result, arg in self._moves[sym]:
            if self.want & result:
                nxt |= arg
        if not nxt:
            # a mid-sequence primitive ends the spine with input left over
            raise _Dead
        state = self._states.get(nxt)
        if state is None:
            state = _State(nxt, self._moves, self._states)
        self[sym] = state
        return state


def nfa_member(word: Sequence, nfa: tuple, budget: _Budget) -> bool:
    """Decide reducibility for degree-one /-only candidates in one pass over
    ``compile_nfa``'s automaton, determinised as the run reaches its states
    and walked by ``functools.reduce``: a Python frame per move computed,
    not per symbol.  The states go with the call.  One budget step per
    position read before the last, so the walk stops after ``budget.left``
    positions: a run that died within them is a verdict, one still alive
    there an overrun."""
    start, moves, finals = nfa
    read = len(word) - 1
    if budget.left is not None:
        read = max(0, min(read, budget.left))
    try:
        state = functools.reduce(getitem, islice(word, read), _State(start, moves, {}))
    except _Dead:
        return False
    if read < len(word) - 1:
        budget.spend(len(word) - 1)  # alive where the budget ran out
    return bool(state.want & finals[word[-1]])


def _query(
    seq: Sequence[LambekType], target: LambekType, fragment: CalculusConfig, shape: str
) -> tuple:
    """The query sequence as a tuple, once it and the target are checked
    against the fragment: degree-one fragments take primitive targets only."""
    seq = tuple(seq)
    restriction = fragment.type_restriction
    if not seq:
        raise FragmentError("reducibility query with empty sequence")
    if restriction.max_degree is None:
        if not in_fragment(target, restriction):
            raise FragmentError(f"target {target} {shape}")
    elif not isinstance(target, Primitive):
        raise FragmentError(f"target must be primitive, got {target}")
    for t in seq:
        if not in_fragment(t, restriction):
            raise FragmentError(f"type {t} {shape}")
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
    ``reduce(0, n, target)`` witnesses, read off its memos (a
    ``ReductionTable``, ``SpineChart`` or ``LinearChart``).  The walk keeps
    its own stack: a proof as tall as the word needs no frame per level."""
    order, todo = [], [(0, len(tbl.types), target)]
    while todo:  # pre-order, leftmost argument span next
        i, j, goal = todo.pop()
        # a SpineChart reads a span's witness off its masks only when
        # asked; the other charts recorded it while deciding
        tbl.reduce(i, j, goal)
        functor, args = tbl.memo[i, j, goal]
        if args is None:  # \L: the front reduces to A in A\goal
            functors, spans = [functor], [(i, j - 1, functor.arg)]
        else:  # /L once per argument, outermost first
            functors, spans, m = [], [], i + 1
            for k in range(len(args)):
                end = j
                if k + 1 < len(args):
                    tbl._split(m, j, args[k:])
                    end = tbl._splits[m, j, args[k:]]
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
    chart = LinearChart(seq, {t: (t,) for t in seq}, _Budget(None))
    return chart.reduce(0, len(seq), target)


def reduce_regular(seq: Sequence[LambekType], target: LambekType) -> bool:
    """Decide reducibility for degree-one /-only types to a primitive target.

    The regular fragment is the linear fragment with no \\ type, so the
    linear walk decides it, independently of the NFA that decides words.
    """
    seq = _query(seq, target, REGULAR_FRAGMENT, "is not a degree-one /-only type")
    return reduce_linear(seq, target)
