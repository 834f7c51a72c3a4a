"""The four workloads.

Each one generates its inputs from the seed (``gen``), sets up what its
timed phase reuses, runs rounds of the same operations as a closed loop
with one caller, and derives the verdicts it expects from ``check``, which
never calls lambekit.  Calls into lambekit go through an ``Api`` so that a
traced run can wrap each one in a span while an untraced run calls
lambekit's own functions.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, field
from time import perf_counter

import check
import gen

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SAMPLES = os.path.join(ROOT, "samples")


# --------------------------------------------------------------------------
# calls into lambekit, by layer


def _count_search(counts, result, args) -> None:
    stats = result.stats
    counts["prover.nodes_expanded"] += stats.nodes_expanded
    counts["prover.memo_hits"] += stats.memo_hits
    counts["prover.max_expanded"] = max(counts["prover.max_expanded"], stats.nodes_expanded)


def _count_chart(counts, result, args) -> None:
    counts["recognizer.chart_ops"] += args[2].ops


def _count_gnf(counts, result, args) -> None:
    counts["transform.gnf_productions"] += len(result.productions)


def _count_lexicon(counts, result, args) -> None:
    if hasattr(result, "lexicon"):
        counts["transform.lexicon_types"] += sum(len(ts) for ts in result.lexicon.values())


def _count_word(counts, result, args) -> None:
    counts["oracle.words_decided"] += 1


def lexicon_route(lg) -> str:
    """The chart a LambekDecider on this lexicon takes, from the lexicon's
    shape alone: degree-one /-only types run as an NFA, /-only types on the
    slash chart, degree-one {/, \\} types on the linear chart."""
    types = [check.from_lk(t) for t in lg.all_types()]
    conns = set().union(*(check.connectives(t) for t in types))
    low = all(check.degree(t) <= 1 for t in types)
    if conns <= {"/"}:
        return "oracle.nfa" if low else "oracle.slash_chart"
    if conns <= {"/", "\\"} and low:
        return "oracle.linear_chart"
    return "oracle.general"


class Api:
    """lambekit's public functions as the workloads call them."""

    def __init__(self, lk, tracer=None):
        self.tracer = tracer
        self._lk = lk
        table = {
            "parse_sequent": ("syntax.parse", lk.parse_sequent, None),
            "parse_type": ("syntax.parse", lk.parse_type, None),
            "format_proof": ("syntax.format", lk.format_proof, None),
            "proof_to_dict": ("syntax.format", lk.proof_to_dict, None),
            "sequent": ("core.sequent", lk.Sequent, None),
            "prove": ("prover.search", lk.ProofEngine.prove, _count_search),
            "table": ("recognizer.reduce", lk.ReductionTable, None),
            "reduce_slash": ("recognizer.reduce", lk.reduce_slash, _count_chart),
            "load": ("cli.load", lk.load_grammar_file, None),
            "parse_grammar": ("cli.load", lk.parse_grammar_file, None),
            "to_gnf": ("transform.to_gnf", lk.to_gnf, _count_gnf),
            "crosscheck": ("oracle.crosscheck", lk.crosscheck, None),
        }
        for name in (
            "cfg_to_lambek",
            "lambek_to_cfg",
            "lcfg_to_lambek",
            "lambek_to_lcfg",
            "reg_to_lambek",
            "lambek_to_reg",
        ):
            table[name] = ("transform.translate", getattr(lk, name), _count_lexicon)
        for name, (span, fn, count) in table.items():
            setattr(self, name, fn if tracer is None else tracer.wrap(span, fn, count))

    def lambek_decider(self, lg):
        if self.tracer is None:
            return self._lk.LambekDecider(lg)
        route = lexicon_route(lg)
        decider = self.tracer.wrap(route, self._lk.LambekDecider)(lg)
        return self.tracer.wrap(route, decider, _count_word)

    def cfg_decider(self, g):
        if self.tracer is None:
            return self._lk.CfgDecider(g)
        decider = self.tracer.wrap("oracle.build", self._lk.CfgDecider)(g)
        route = "oracle.gnf_search" if decider.method == "gnf" else "oracle.cyk"
        return self.tracer.wrap(route, decider, _count_word)


@dataclass
class Round:
    """What one pass over a workload's operations produced."""

    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    latencies_ms: list = field(default_factory=list)  # per completed operation
    batch_sizes: list = field(default_factory=list)  # operations per latency sample, if batched
    verdicts: list = field(default_factory=list)  # one entry per operation
    outputs: dict = field(default_factory=dict)  # index -> output to check


# --------------------------------------------------------------------------
# slash-sweep


class SlashSweep:
    """Criterion 4: every /-only sequent over the 22 degree-<=2 types with
    antecedents up to length 3, plus a seeded sample of length 4, both
    targets; one shared ProofEngine and one shared ReductionTable map per
    round."""

    SHARED_ENGINE = True
    BATCH = 200  # sequents per latency sample: one sequent is a few tens of us
    CHECKED = 3000  # sequents re-decided by the memo-free search

    def __init__(self, seed: int):
        self.seed = seed
        self.type_texts = gen.slash_types()
        self.items = gen.slash_sweep(seed)

    def setup(self, lk, api) -> None:
        self.config = lk.SLASH_FRAGMENT
        self.engine_class = lk.ProofEngine
        types = [api.parse_type(text) for text in self.type_texts]
        self.queries = [(tuple(types[i] for i in ant), types[t]) for ant, t in self.items]

    def run_round(self, api) -> Round:
        prove, sequent, table, reduce_slash = api.prove, api.sequent, api.table, api.reduce_slash
        config, queries, batch = self.config, self.queries, self.BATCH
        engine = self.engine_class()
        shared: dict = {}
        out = Round(attempted=len(queries))
        verdicts, lat = out.verdicts, out.latencies_ms
        started = perf_counter()
        for lo in range(0, len(queries), batch):
            t0 = perf_counter()
            for ant, target in queries[lo : lo + batch]:
                result = prove(engine, sequent(ant, target), config)
                charted = reduce_slash(ant, target, table(ant, shared))
                verdicts.append((result.provable, charted))
                if result.provable:
                    out.outputs[len(verdicts) - 1] = result.proof
            size = min(batch, len(queries) - lo)
            lat.append(1000.0 * (perf_counter() - t0) / size)
            out.batch_sizes.append(size)
        out.seconds = perf_counter() - started
        self.shared_entries = len(shared)
        return out

    def expected(self, first: Round):
        types = [check.parse_type(text) for text in self.type_texts]
        plain = [(tuple(types[i] for i in ant), types[t]) for ant, t in self.items]
        errors, want = [], {}
        rng = random.Random(self.seed + 1)
        picked = set(rng.sample(range(len(plain)), min(self.CHECKED, len(plain))))
        for k, (prover, chart) in enumerate(first.verdicts):
            if prover != chart:
                errors.append(f"prover says {prover}, chart says {chart} on {check.fmt_sequent(*plain[k])}")
            if prover and not check.balanced(*plain[k]):
                errors.append(f"unbalanced sequent reported provable: {check.fmt_sequent(*plain[k])}")
            if k in picked or prover:
                truth = check.provable(*plain[k], rules={"/L"})
                want[k] = (truth, truth)
        for k, proof in first.outputs.items():
            node = check.node_from_lk(proof)
            if (node[0], node[1]) != plain[k]:
                errors.append(f"proof concludes {check.fmt_sequent(node[0], node[1])}")
            errors.extend(check.check_proof(node, {"/L"}, frozenset("/")))
        return want, errors


# --------------------------------------------------------------------------
# full-prove


class FullProve:
    """What one ``lambekit prove --json`` call does, on sequent text: parse,
    prove with a fresh engine under all six rules, render the proof."""

    SHARED_ENGINE = False

    CHECKED = 25  # unprovable verdicts re-decided by the memo-free search
    CHECKED_MAX_CONNECTIVES = 10

    def __init__(self, seed: int):
        self.seed = seed
        self.items = gen.full_prove(seed)

    def setup(self, lk, api) -> None:
        self.config = lk.FULL_CALCULUS
        self.engine_class = lk.ProofEngine

    def run_round(self, api) -> Round:
        parse, prove = api.parse_sequent, api.prove
        format_proof, proof_to_dict = api.format_proof, api.proof_to_dict
        config, engine_class = self.config, self.engine_class
        out = Round(attempted=len(self.items))
        verdicts, lat, outputs = out.verdicts, out.latencies_ms, out.outputs
        started = perf_counter()
        for k, (text, _) in enumerate(self.items):
            t0 = perf_counter()
            result = prove(engine_class(), parse(text), config)
            if result.provable:
                outputs[k] = (format_proof(result.proof), proof_to_dict(result.proof))
            lat.append(1000.0 * (perf_counter() - t0))
            verdicts.append(result.provable)
        out.seconds = perf_counter() - started
        return out

    def expected(self, first: Round):
        errors, want = [], {}
        plain = [check.parse_sequent(text) for text, _ in self.items]
        for k, (_, known) in enumerate(self.items):
            if known is not None:
                want[k] = known
        small = [
            k
            for k, verdict in enumerate(first.verdicts)
            if not verdict
            and sum(map(check.degree, plain[k][0])) + check.degree(plain[k][1])
            <= self.CHECKED_MAX_CONNECTIVES
        ]
        for k in random.Random(self.seed + 1).sample(small, min(self.CHECKED, len(small))):
            want[k] = check.provable(*plain[k])
        for k, (text, tree) in first.outputs.items():
            node = check.node_from_dict(tree)
            if (node[0], node[1]) != plain[k]:
                errors.append(f"proof of {self.items[k][0]} concludes {tree['sequent']}")
            if not check.balanced(*plain[k]):
                errors.append(f"unbalanced sequent reported provable: {self.items[k][0]}")
            errors.extend(check.check_proof(node))
            lines = text.splitlines()
            if len(lines) != check.proof_size(node) or not lines[0].startswith(tree["sequent"]):
                errors.append(f"format_proof output does not match the proof of {self.items[k][0]}")
        return want, errors


# --------------------------------------------------------------------------
# long-words


class LongWords:
    """One long word per operation, with a fresh decider as one ``lambekit
    decide`` call has: aⁿbⁿ on the /-lexicon chart, on CYK and on the GNF
    route, Dyck words on the GNF route, aⁿbaⁿ on the linear chart and
    (ab)⁺ on the NFA."""

    SHARED_ENGINE = False

    def __init__(self, seed: int):
        self.seed = seed
        self.items = gen.long_words(seed)

    def setup(self, lk, api) -> None:
        def load(name):
            return api.load(os.path.join(SAMPLES, name))

        anbn_lex, anbn_cfg, dyck = load("anbn.lex"), load("anbn.cfg"), load("dyck.cfg")
        anban = api.lcfg_to_lambek(load("anban.lcfg"))
        abplus = api.reg_to_lambek(load("abplus.reg"))
        anbn_cyk = api.parse_grammar(gen.CORPUS["anbn_cyk"])
        self.grammars = {
            "lexicon_chart": (anbn_lex, api.lambek_decider),
            "cyk": (anbn_cyk, api.cfg_decider),
            "gnf_dyck": (dyck, api.cfg_decider),
            "linear_chart": (anban, api.lambek_decider),
            "nfa": (abplus, api.lambek_decider),
            "gnf_anbn": (anbn_cfg, api.cfg_decider),
        }

    def run_round(self, api) -> Round:
        out = Round(attempted=len(self.items))
        grammars, lat, verdicts = self.grammars, out.latencies_ms, out.verdicts
        started = perf_counter()
        for route, _, word in self.items:
            grammar, decider = grammars[route]
            t0 = perf_counter()
            try:
                verdict = decider(grammar)(word)
            except RecursionError:
                out.failed += 1
                verdicts.append(None)
                continue
            lat.append(1000.0 * (perf_counter() - t0))
            verdicts.append(verdict)
        out.seconds = perf_counter() - started
        return out

    def expected(self, first: Round):
        errors, want = [], {}
        for k, (route, lang, word) in enumerate(self.items):
            if first.verdicts[k] is None:
                if word not in gen.LONG_WORD_OVERFLOW:
                    errors.append(f"{route} failed on a word of length {len(word)}")
                continue
            want[k] = check.PREDICATES[lang](word)
        return want, errors


# --------------------------------------------------------------------------
# translate-crosscheck


class _Recorder:
    """A crosscheck arm that keeps every verdict it hands back."""

    def __init__(self, decider, verdicts: list):
        self.decider, self.verdicts = decider, verdicts

    def __call__(self, word):
        verdict = self.decider(word)
        self.verdicts.append(verdict)
        return verdict


class TranslateCrosscheck:
    """Criteria 1-3, one grammar per operation: to_gnf, GNF -> lexicon ->
    grammar, the linear and regular translations where the grammar
    qualifies, then crosscheck of the grammar against each translation over
    every string up to CROSSCHECK_MAX_LEN, one decider per grammar."""

    SHARED_ENGINE = False

    def __init__(self, seed: int):
        self.seed = seed
        self.texts = list(gen.CORPUS.values())
        for name in gen.SAMPLE_GRAMMARS:
            with open(os.path.join(SAMPLES, name)) as f:
                self.texts.append(f.read())
        self.texts += gen.random_grammars(seed)
        self.plain = [check.parse_cfg_text(text) for text in self.texts]

    def setup(self, lk, api) -> None:
        self.grammars = []
        for text, (_, terminals, prods) in zip(self.texts, self.plain):
            shapes = [_linear_shape(rhs, set(terminals)) for _, rhs in prods]
            self.grammars.append(
                (
                    api.parse_grammar(text),
                    tuple(sorted(terminals)),
                    all(shapes),
                    all(s == "right" or s == "terminal" for s in shapes),
                )
            )

    def run_round(self, api) -> Round:
        out = Round(attempted=len(self.grammars))
        max_len = gen.CROSSCHECK_MAX_LEN
        started = perf_counter()
        for k, (g, alphabet, linear, regular) in enumerate(self.grammars):
            t0 = perf_counter()
            gnf = api.to_gnf(g)
            lexicon = api.cfg_to_lambek(gnf)
            arms = [api.lambek_decider(lexicon), api.cfg_decider(api.lambek_to_cfg(lexicon))]
            if linear:
                lin = api.lcfg_to_lambek(g)
                api.lambek_to_lcfg(lin)
                arms.append(api.lambek_decider(lin))
            if regular:
                reg = api.reg_to_lambek(g)
                api.lambek_to_reg(reg)
                arms.append(api.lambek_decider(reg))
            reference = api.cfg_decider(g)
            verdicts, reports = [], []
            for arm in arms:
                a, b = [], []
                report = api.crosscheck(
                    _Recorder(reference, a), _Recorder(arm, b), alphabet, max_len, exhaustive=True
                )
                verdicts += a + b
                reports.append((report.strings_tested, report.agreements))
            out.latencies_ms.append(1000.0 * (perf_counter() - t0))
            out.verdicts.append(tuple(verdicts))
            out.outputs[k] = (gnf, reports)
        out.seconds = perf_counter() - started
        return out

    def expected(self, first: Round):
        errors, want = [], {}
        max_len = gen.CROSSCHECK_MAX_LEN
        for k, plain in enumerate(self.plain):
            _, terminals, _ = plain
            lang = check.bounded_language(plain, max_len)
            words = [
                w
                for n in range(1, max_len + 1)
                for w in itertools.product(sorted(terminals), repeat=n)
            ]
            truth = tuple(w in lang for w in words)
            gnf, reports = first.outputs[k]
            want[k] = truth * (2 * len(reports))
            if any(r != (len(words), len(words)) for r in reports):
                errors.append(f"crosscheck of grammar {k} reports {reports}, not {len(words)} agreements")
            bad = check.is_gnf(
                (gnf.start, gnf.terminals, tuple((p.lhs, p.rhs) for p in gnf.productions))
            )
            if bad:
                errors.append(f"to_gnf output has non-GNF productions, e.g. {bad[0]}")
        return want, errors


def _linear_shape(rhs: tuple, terminals: set):
    if len(rhs) == 1 and rhs[0] in terminals:
        return "terminal"
    if len(rhs) == 2 and rhs[0] in terminals and rhs[1] not in terminals:
        return "right"
    if len(rhs) == 2 and rhs[0] not in terminals and rhs[1] in terminals:
        return "left"
    return None


WORKLOADS = {
    "slash-sweep": SlashSweep,
    "full-prove": FullProve,
    "long-words": LongWords,
    "translate-crosscheck": TranslateCrosscheck,
}
