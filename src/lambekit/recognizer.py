"""Reducibility charts: polynomial alternatives to proof search.

The product-free left-rule fragments decide one relation: does a span of
positions, each offering candidate types (one per position for a type
sequence, the lexicon's for each symbol of a word), reduce to a target?
``ReductionTable`` charts (span, target) pairs: a span reduces when a first
candidate peels as target-over-arguments and the rest splits into nonempty
chunks reducing to the arguments (the /L-only slash fragment), or, with
degree-one {/, \\} types, when its last candidate is A\\target and the front
reduces to A (the linear fragment).  For degree-one /-only types
``nfa_member`` decides in one left-to-right pass (the regular fragment),
over an automaton that ``compile_nfa`` builds once as int bitmasks: a
state is the mask of primitives still wanted.
A decided chart is also the derivation: each span's memo entry records how
it reduced, not only whether, so ``_derive`` reads the /L and \\L steps
straight off the memos.
"""

from __future__ import annotations

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
    """Memoized reducibility chart over candidate types per position.

    ``reduce(i, j, target)`` says whether positions i..j-1 reduce to target
    by the left rules.  Position k offers ``seq[k]`` alone or, when ``seq``
    is a word, the types ``lexicon[seq[k]]``; ``types`` holds ``seq`` as a
    tuple.  A table serves one query sequence; ``shared`` optionally points
    at a cross-query map keyed by (span-as-tuple, target) so separate
    tables can reuse results.  ``ops`` counts chart expansions, which the
    tests use to bound the growth rate; each is charged to ``budget`` when
    one is given.

    The memos are the witness ``_derive`` reads proofs off.  ``memo`` maps
    (i, j, target), and ``shared`` its span's contents, to the first way
    found: (functor, args) when the candidate ``functor`` at i peels to
    target over ``args`` (() for an axiom), (functor, None) when the last
    candidate is the degree-one ``functor`` = A\\target, or False.
    ``_splits`` maps (i, j, args) to the end of the first chunk of the
    leftmost split, or False.
    """

    def __init__(
        self,
        seq: Sequence,
        shared: Optional[dict] = None,
        lexicon=None,
        budget: Optional[_Budget] = None,
    ):
        self.types = tuple(seq)
        self._lexicon = lexicon
        self.memo: dict = {}
        self._splits: dict = {}
        self._shared = shared
        self._budget = budget
        self.ops = 0

    def reduce(self, i: int, j: int, target: LambekType) -> bool:
        key = (i, j, target)
        hit = self.memo.get(key)
        if hit is not None:
            return hit is not False
        if self._shared is not None:
            hit = self._shared.get((self.types[i:j], target))
            if hit is not None:
                self.memo[key] = hit
                return hit is not False
        self.ops += 1
        if self._budget is not None:
            self._budget.spend()
        # plain loops and a direct call for one-argument spines keep the
        # recursion at one frame per position on degree-one chains
        value = False
        width = j - i
        lex, first = self._lexicon, self.types[i]
        for t in (first,) if lex is None else lex[first]:
            for head, args in spine_decompositions(t):
                if head != target or len(args) >= width:
                    continue
                if not args:
                    found = width == 1
                elif len(args) == 1:
                    found = self.reduce(i + 1, j, args[0])
                else:
                    found = self._split(i + 1, j, args)
                if found:
                    value = (t, args)
                    break
            if value:
                break
        if not value and width > 1:
            last = self.types[j - 1]
            for t in (last,) if lex is None else lex[last]:
                if (
                    type(t) is Backslash
                    and t.degree == 1
                    and t.result == target
                    and self.reduce(i, j - 1, t.arg)
                ):
                    value = (t, None)
                    break
        self.memo[key] = value
        if self._shared is not None:
            self._shared[(self.types[i:j], target)] = value
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
        if self._budget is not None:
            self._budget.spend()
        value = False
        first, rest = args[0], args[1:]
        for m in range(i + 1, j - len(rest) + 1):
            if self.reduce(i, m, first) and self._split(m, j, rest):
                value = m
                break
        self._splits[key] = value
        return value is not False


def compile_nfa(lexicon, target: Primitive) -> tuple:
    """The regular fragment's automaton, as ints: each primitive name gets
    a bit, a state is a mask of the primitives the rest of the word may have
    to produce, and p/q where p is wanted leaves q wanted.  Returns the
    start mask (the target's bit) and, per key of ``lexicon`` (a symbol, or
    for a type sequence the type itself), its (result bit, argument bit)
    moves and the mask of primitives it offers outright."""
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


def nfa_member(word: Sequence, nfa: tuple, budget: Optional[_Budget] = None) -> bool:
    """Decide reducibility for degree-one /-only candidates in one pass over
    ``compile_nfa``'s automaton, one budget step per position read before
    the last."""
    want, moves, finals = nfa
    for sym in word[:-1]:
        if budget is not None:
            budget.spend()
        nxt = 0
        for result, arg in moves[sym]:
            if want & result:
                nxt |= arg
        if not nxt:
            # a mid-sequence primitive ends the spine with input left over
            return False
        want = nxt
    return bool(want & finals[word[-1]])


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
    """Decide whether the /-only sequence reduces to the target."""
    seq = _query(seq, target, SLASH_FRAGMENT, "uses connectives other than /")
    tbl = table if table is not None else ReductionTable(seq)
    return tbl.reduce(0, len(seq), target)


def reduce_slash_proof(
    seq: Sequence[LambekType], target: LambekType
) -> Optional[Proof]:
    """Like reduce_slash, but reconstruct a checkable derivation on success."""
    seq = _query(seq, target, SLASH_FRAGMENT, "uses connectives other than /")
    tbl = ReductionTable(seq)
    return _derive(tbl, target) if tbl.reduce(0, len(seq), target) else None


def _derive(tbl: ReductionTable, target: LambekType) -> Proof:
    """The derivation of all positions => target that a chart holding
    ``reduce(0, n, target)`` witnesses, read off its memos.  The walk keeps
    its own stack: a proof as tall as the word needs no frame per level."""
    order, todo = [], [(0, len(tbl.types), target)]
    while todo:  # pre-order, leftmost argument span next
        i, j, goal = todo.pop()
        # a no-op unless an enclosing span's result came from ``shared``:
        # then this span, and the splits below it, are not in this table yet
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
    return ReductionTable(seq).reduce(0, len(seq), target)


def reduce_regular(seq: Sequence[LambekType], target: LambekType) -> bool:
    """Decide reducibility for degree-one /-only types to a primitive target.

    One left-to-right pass suffices: track the primitive the remaining
    suffix must produce (a finite-state run over the primitives).
    """
    seq = _query(seq, target, REGULAR_FRAGMENT, "is not a degree-one /-only type")
    return nfa_member(seq, compile_nfa({t: (t,) for t in seq}, target))
