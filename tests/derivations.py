"""A deliberately naive CFG membership oracle.

Independent of the deciders under test: no normal form, no chart, no
bitmask.  It expands leftmost derivations from the start symbol and keeps
every sentential form no longer than the bound; the grammars are
epsilon-free, so a form never shrinks and the pruning loses no derivation.
A set of forms already seen stops unit cycles.  Only usable on small
bounds, which is the point.
"""


def bounded_language(productions, start, nonterminals, max_len: int) -> set:
    """Every terminal string of length at most ``max_len`` that ``start``
    derives, as tuples; ``productions`` are (lhs, rhs) pairs or objects
    with ``lhs`` and ``rhs``."""
    bodies: dict = {}
    for p in productions:
        lhs, rhs = (p.lhs, p.rhs) if hasattr(p, "lhs") else p
        bodies.setdefault(lhs, []).append(tuple(rhs))
    nonterminals = set(nonterminals)
    seen = {(start,)}
    todo = [(start,)]
    words = set()
    while todo:
        form = todo.pop()
        k = next((i for i, sym in enumerate(form) if sym in nonterminals), None)
        if k is None:
            words.add(form)
            continue
        for body in bodies.get(form[k], ()):
            expanded = form[:k] + body + form[k + 1 :]
            if len(expanded) <= max_len and expanded not in seen:
                seen.add(expanded)
                todo.append(expanded)
    return words
