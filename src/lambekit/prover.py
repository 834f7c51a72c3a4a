"""Backward proof search, proof checking, and cut elimination.

The search is cut-free and exhaustive: every premise of every rule carries
exactly one connective fewer than its conclusion, so the recursion
terminates without a depth bound and memoizing failures is sound.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .core import (
    Backslash,
    CalculusConfig,
    FragmentError,
    LambekitError,
    Product,
    Proof,
    Rule,
    Sequent,
    Slash,
    _Budget,
    in_fragment,
    INFERENCE_RULES,
)


class InvalidProofError(LambekitError):
    """A proof handed to cut elimination failed validation."""


class CutEliminationError(LambekitError):
    """Cut-free re-derivation failed for a valid proof's endsequent.

    This should be impossible: cut is admissible in every fragment the
    precondition admits.  Raising loudly beats returning a wrong proof.
    """


@dataclass
class SearchStats:
    nodes_expanded: int = 0
    memo_hits: int = 0


@dataclass
class SearchResult:
    provable: bool
    proof: Optional[Proof]
    stats: SearchStats


# fixed exploration order: left rules before right rules, / before \
_RULE_ORDER = (
    Rule.SLASH_L,
    Rule.BACK_L,
    Rule.PROD_L,
    Rule.SLASH_R,
    Rule.BACK_R,
    Rule.PROD_R,
)

_MISS = object()


class ProofEngine:
    """Reusable search engine; memoizes proof-or-None per configuration and
    sequent, so the memo lives as long as the engine and no longer.

    Search never expands a sequent whose weights do not balance (see
    ``LambekType``): the query is checked once, and at every split the
    minor premise (of /L and \\L) or the left premise (of *R) is checked
    against a prefix sum before any ``Sequent`` is built.  The other
    premise then balances automatically.  Skipped splits are exactly ones
    that cannot succeed, so the proof found is the one exhaustive search
    finds.

    Results are deterministic, so concurrent use can at worst recompute an
    entry another thread is filling in; both arrive at the same value.
    """

    def __init__(self):
        self._memo = {}

    def prove(
        self, sequent: Sequent, config: CalculusConfig, max_steps: Optional[int] = None
    ) -> SearchResult:
        """Decide the sequent; ``max_steps`` bounds the node expansions.

        Running past the bound raises ``StepLimitExceeded``.  Only searches
        that finished are memoized, so the engine stays usable afterwards.
        """
        if not sequent.antecedent:
            raise FragmentError("provability query with empty antecedent")
        restriction = config.type_restriction
        for t in (*sequent.antecedent, sequent.consequent):
            if not in_fragment(t, restriction):
                raise FragmentError(
                    f"type {t} falls outside the configured restriction"
                )
        stats = SearchStats()
        if sum(t._pol for t in sequent.antecedent) != sequent.consequent._pol:
            return SearchResult(False, None, stats)
        memo = self._memo.setdefault(config, {})
        search = _Search(memo, config.enabled_rules, stats, _Budget(max_steps))
        proof = search.run(sequent)
        return SearchResult(proof is not None, proof, stats)


class _Search:
    """One prove call: the configuration's memo, its rules, the counters and
    the budget, shared by every node of the search."""

    __slots__ = ("memo", "rules", "stats", "budget")

    def __init__(self, memo: dict, rules: frozenset, stats: SearchStats, budget: _Budget):
        self.memo = memo
        self.rules = rules
        self.stats = stats
        self.budget = budget

    def run(self, seq: Sequent):
        hit = self.memo.get(seq, _MISS)
        if hit is not _MISS:
            self.stats.memo_hits += 1
            return hit
        self.stats.nodes_expanded += 1
        self.budget.spend()
        proof = self._expand(seq)
        self.memo[seq] = proof
        return proof

    def _expand(self, seq: Sequent):
        ant = seq.antecedent
        goal = seq.consequent
        n = len(ant)

        if n == 1 and ant[0] == goal:
            return Proof(seq, Rule.AXIOM)

        # pre[k] is the weight of ant[:k], so ant[i:j] weighs pre[j] - pre[i]
        pre = [0]
        for t in ant:
            pre.append(pre[-1] + t._pol)

        run = self.run
        rules = self.rules
        for rule in _RULE_ORDER:
            if rule not in rules:
                continue

            if rule is Rule.SLASH_L:
                for i in range(n):
                    t = ant[i]
                    if type(t) is not Slash:
                        continue
                    # conclusion ... (result/arg) G ... : minor G -> arg
                    want = pre[i + 1] + t.arg._pol
                    for j in range(i + 2, n + 1):
                        if pre[j] != want:
                            continue
                        minor = run(Sequent(ant[i + 1 : j], t.arg))
                        if minor is None:
                            continue
                        major = run(Sequent(ant[:i] + (t.result,) + ant[j:], goal))
                        if major is not None:
                            return Proof(seq, rule, (minor, major), position=i)

            elif rule is Rule.BACK_L:
                for i in range(n):
                    t = ant[i]
                    if type(t) is not Backslash:
                        continue
                    # conclusion ... G (arg\result) ... : minor G -> arg
                    want = pre[i] - t.arg._pol
                    for j in range(i - 1, -1, -1):
                        if pre[j] != want:
                            continue
                        minor = run(Sequent(ant[j:i], t.arg))
                        if minor is None:
                            continue
                        major = run(Sequent(ant[:j] + (t.result,) + ant[i + 1 :], goal))
                        if major is not None:
                            return Proof(seq, rule, (minor, major), position=j)

            elif rule is Rule.PROD_L:
                for i in range(n):
                    t = ant[i]
                    if type(t) is not Product:
                        continue
                    premise = run(Sequent(ant[:i] + (t.left, t.right) + ant[i + 1 :], goal))
                    if premise is not None:
                        return Proof(seq, rule, (premise,))

            elif rule is Rule.SLASH_R:
                if type(goal) is Slash:
                    premise = run(Sequent(ant + (goal.arg,), goal.result))
                    if premise is not None:
                        return Proof(seq, rule, (premise,))

            elif rule is Rule.BACK_R:
                if type(goal) is Backslash:
                    premise = run(Sequent((goal.arg,) + ant, goal.result))
                    if premise is not None:
                        return Proof(seq, rule, (premise,))

            elif rule is Rule.PROD_R:
                if type(goal) is Product:
                    want = goal.left._pol
                    for s in range(1, n):
                        if pre[s] != want:
                            continue
                        left = run(Sequent(ant[:s], goal.left))
                        if left is None:
                            continue
                        right = run(Sequent(ant[s:], goal.right))
                        if right is not None:
                            return Proof(seq, rule, (left, right), position=s)

        return None


def prove(
    sequent: Sequent, config: CalculusConfig, engine: Optional[ProofEngine] = None
) -> SearchResult:
    """Decide the sequent in the configured fragment, cut-free.

    Identical queries return structurally identical proofs.  Results are
    memoized per engine; without one, the call runs on a fresh engine, so
    nothing is kept between module-level calls.
    """
    return (engine or ProofEngine()).prove(sequent, config)


# --------------------------------------------------------------------------
# proof checking


@dataclass(frozen=True)
class Violation:
    """One schema failure: the node's path from the root and the reason."""

    path: tuple
    reason: str

    def __str__(self) -> str:
        where = "root" if not self.path else "node " + ".".join(map(str, self.path))
        return f"{where}: {self.reason}"


def validate(proof: Proof, config: CalculusConfig) -> list:
    """Check every node against its rule schema; returns all violations.

    An empty list means the proof is a correct derivation under the
    configuration (CUT nodes are accepted only when the configuration says
    so).
    """
    out: list[Violation] = []
    for path, node in proof.nodes():
        _check_node(node, config, path, out)
    return out


def _arity(rule: Rule) -> int:
    if rule is Rule.AXIOM:
        return 0
    if rule in (Rule.SLASH_R, Rule.BACK_R, Rule.PROD_L):
        return 1
    return 2


def _check_node(node: Proof, config: CalculusConfig, path, out) -> None:
    rule = node.rule
    conclusion = node.conclusion
    ant = conclusion.antecedent

    if rule in (Rule.SLASH_R, Rule.BACK_R):
        if not ant:
            out.append(Violation(path, f"({rule.value}) violates the nonempty-antecedent side condition"))
    elif not ant:
        out.append(Violation(path, "empty antecedent"))

    if rule is Rule.CUT:
        if not config.allow_cut_in_validation:
            out.append(Violation(path, "cut is not allowed by the configuration"))
    elif rule is not Rule.AXIOM and rule not in config.enabled_rules:
        out.append(Violation(path, f"rule {rule.value} is not enabled"))

    restriction = config.type_restriction
    for t in (*ant, conclusion.consequent):
        if not in_fragment(t, restriction):
            out.append(Violation(path, f"type {t} falls outside the restriction"))

    if len(node.premises) != _arity(rule):
        out.append(
            Violation(
                path,
                f"rule {rule.value} expects {_arity(rule)} premises, has {len(node.premises)}",
            )
        )
        return

    if rule is Rule.AXIOM:
        if len(ant) != 1 or ant[0] != conclusion.consequent:
            out.append(Violation(path, "axiom conclusion is not of the form T -> T"))
        return

    pos = node.position
    if rule is Rule.CUT:
        major, minor = node.premises
        if pos is None or not (0 <= pos < len(major.conclusion.antecedent)):
            out.append(Violation(path, "cut node lacks a valid position"))
            return
        mant = major.conclusion.antecedent
        if mant[pos] != minor.conclusion.consequent:
            out.append(Violation(path, "cut formula does not match the minor premise"))
            return
        expected = Sequent(
            mant[:pos] + minor.conclusion.antecedent + mant[pos + 1 :],
            major.conclusion.consequent,
        )
        if conclusion != expected:
            out.append(Violation(path, f"cut conclusion should be {expected}"))
        return

    if rule is Rule.SLASH_L:
        minor, major = node.premises
        mant = major.conclusion.antecedent
        if pos is None or not (0 <= pos < len(mant)):
            out.append(Violation(path, f"{rule.value} node lacks a valid position"))
            return
        active = Slash(mant[pos], minor.conclusion.consequent)
        expected = Sequent(
            mant[:pos] + (active,) + minor.conclusion.antecedent + mant[pos + 1 :],
            major.conclusion.consequent,
        )
        if conclusion != expected:
            out.append(Violation(path, f"{rule.value} conclusion should be {expected}"))
        return

    if rule is Rule.BACK_L:
        minor, major = node.premises
        mant = major.conclusion.antecedent
        if pos is None or not (0 <= pos < len(mant)):
            out.append(Violation(path, f"{rule.value} node lacks a valid position"))
            return
        active = Backslash(minor.conclusion.consequent, mant[pos])
        expected = Sequent(
            mant[:pos] + minor.conclusion.antecedent + (active,) + mant[pos + 1 :],
            major.conclusion.consequent,
        )
        if conclusion != expected:
            out.append(Violation(path, f"{rule.value} conclusion should be {expected}"))
        return

    if rule is Rule.SLASH_R:
        (premise,) = node.premises
        goal = conclusion.consequent
        if type(goal) is not Slash:
            out.append(Violation(path, "(/R) conclusion consequent is not a /"))
            return
        expected = Sequent(ant + (goal.arg,), goal.result)
        if premise.conclusion != expected:
            out.append(Violation(path, f"(/R) premise should be {expected}"))
        return

    if rule is Rule.BACK_R:
        (premise,) = node.premises
        goal = conclusion.consequent
        if type(goal) is not Backslash:
            out.append(Violation(path, "(\\R) conclusion consequent is not a \\"))
            return
        expected = Sequent((goal.arg,) + ant, goal.result)
        if premise.conclusion != expected:
            out.append(Violation(path, f"(\\R) premise should be {expected}"))
        return

    if rule is Rule.PROD_L:
        (premise,) = node.premises
        if premise.conclusion.consequent != conclusion.consequent:
            out.append(Violation(path, "(*L) changes the consequent"))
            return
        pant = premise.conclusion.antecedent
        for i, t in enumerate(ant):
            if (
                type(t) is Product
                and pant == ant[:i] + (t.left, t.right) + ant[i + 1 :]
            ):
                return
        out.append(Violation(path, "(*L) premise does not unfold any product in the conclusion"))
        return

    if rule is Rule.PROD_R:
        left, right = node.premises
        goal = conclusion.consequent
        if type(goal) is not Product:
            out.append(Violation(path, "(*R) conclusion consequent is not a *"))
            return
        if pos is None or not (1 <= pos <= len(ant) - 1):
            out.append(Violation(path, "(*R) node lacks a valid split position"))
            return
        if left.conclusion != Sequent(ant[:pos], goal.left) or right.conclusion != Sequent(
            ant[pos:], goal.right
        ):
            out.append(Violation(path, "(*R) premises do not split the conclusion"))
        return


# --------------------------------------------------------------------------
# cut elimination

_LEFT_SLASH_RULES = frozenset({Rule.SLASH_L, Rule.BACK_L})


def eliminate_cut(
    proof: Proof, config: CalculusConfig, engine: Optional[ProofEngine] = None
) -> Proof:
    """Return a cut-free proof of the same endsequent.

    Supported rule sets: any subset of the two left slash rules, or all six
    rules.  Rather than mechanizing the rewrite argument, the endsequent is
    re-derived by cut-free search, which the admissibility of cut
    guarantees must succeed; a search failure is raised loudly because it
    would mean the guarantee is wrong (or the search is).
    """
    rules = config.enabled_rules
    if not (rules <= _LEFT_SLASH_RULES or rules == INFERENCE_RULES):
        raise FragmentError(
            "cut elimination supports rule sets within {/L, \\L} or all six rules; "
            f"got {sorted(r.value for r in rules)}"
        )
    check_config = replace(config, allow_cut_in_validation=True)
    violations = validate(proof, check_config)
    if violations:
        raise InvalidProofError(
            f"refusing to eliminate cut from an invalid proof: {violations[0]}"
        )
    if proof.cut_free:
        return proof
    result = prove(proof.conclusion, config, engine)
    if not result.provable:
        raise CutEliminationError(
            f"no cut-free proof found for {proof.conclusion}; this contradicts "
            "the admissibility of cut for this fragment"
        )
    return result.proof
