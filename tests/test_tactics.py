from __future__ import annotations

from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from berrykit import proofs as proofs_module
from berrykit import syntax as syntax_module
from berrykit.berry import enumerate_formulas
from berrykit.generators import _C0, LemmaBank, names_provable
from berrykit.proofs import Derivation, Step, is_valid, robinson_arithmetic, to_json_lines
from berrykit.syntax import (
    Add,
    And,
    BExists,
    BForall,
    Eq,
    Exists,
    Forall,
    Iff,
    Imp,
    Le,
    Mul,
    Not,
    Or,
    Succ,
    Var,
    Zero,
    expand_bounded,
    numeral,
    render,
    substitute,
)
from berrykit import tactics as T
from oracles import (
    compile_proof_reference,
    discharge_reference,
    full_postorder,
    proof_children,
)
from strategies import formulas

Q = robinson_arithmetic()
A = Eq(Zero(), Zero())
B = Le(Zero(), Succ(Zero()))


def concludes(p, f):
    """Compile, check against the base theory, and compare the last line."""
    d = T.compile_proof(p)
    assert is_valid(d, Q)
    assert render(d.conclusion) == render(f)


class TestLeaves:
    def test_ax(self):
        p = T.ax(Q, "q2")
        assert p.formula is Q.axiom("q2")

    def test_sch_validates_instance(self):
        with pytest.raises(T.TacticError):
            T.sch("eq_refl", Eq(Var(0), Var(1)))

    def test_mp_rejects_mismatch(self):
        k = T.s_imp_k(A, B)
        with pytest.raises(T.TacticError) as e:
            T.mp(k, T.eq_refl(Succ(Zero())))
        assert str(e.value) == "mp mismatch: antecedent '0 = 0' vs argument 's 0 = s 0'"

    def test_mp_rejects_non_implication(self):
        with pytest.raises(T.TacticError) as e:
            T.mp(T.eq_refl(Zero()), T.eq_refl(Zero()))
        assert str(e.value) == "mp on non-implication '0 = 0'"

    def test_mp_matches_the_antecedent_by_expansion(self):
        bounded = BForall(1, numeral(2), Eq(Var(1), Var(1)))
        for a, arg in ((bounded, expand_bounded(bounded)), (expand_bounded(bounded), bounded)):
            assert T.mp(T.hyp(Imp(a, A)), T.hyp(arg)).formula is A

    @pytest.mark.parametrize("name, build, args, formula", [
        ("imp_k", T.s_imp_k, (Zero(), A), Imp(Zero(), Imp(A, Zero()))),
        ("imp_k", T.s_imp_k, (A, Var(0)), Imp(A, Imp(Var(0), A))),
        ("imp_s", T.s_imp_s, (A, B, Zero()),
         Imp(Imp(A, Imp(B, Zero())), Imp(Imp(A, B), Imp(A, Zero())))),
        ("imp_s", T.s_imp_s, (Zero(), B, A),
         Imp(Imp(Zero(), Imp(B, A)), Imp(Imp(Zero(), B), Imp(Zero(), A)))),
    ], ids=["k-a", "k-b", "s-c", "s-a"])
    def test_k_and_s_refuse_a_term_as_sch_does(self, name, build, args, formula):
        with pytest.raises(T.TacticError) as direct:
            build(*args)
        with pytest.raises(T.TacticError) as via_sch:
            T.sch(name, formula)
        assert str(direct.value) == str(via_sch.value)
        assert str(direct.value).endswith(f": not an instance of {name}")

    def test_gen_wraps_in_universal(self):
        p = T.gen(0, T.eq_refl(Var(0)))
        assert render(p.formula) == "( A v0 ) ( v0 = v0 )"


class TestPropositional:
    def test_imp_refl(self):
        concludes(T.imp_refl(A), Imp(A, A))

    def test_k_lift(self):
        concludes(T.k_lift(T.eq_refl(Zero()), B), Imp(B, A))

    def test_and_round_trip(self):
        both = T.and_intro(T.eq_refl(Zero()), T.eq_refl(Succ(Zero())))
        concludes(both, And(A, Eq(Succ(Zero()), Succ(Zero()))))
        concludes(T.and_left(both), A)
        concludes(T.and_right(both), Eq(Succ(Zero()), Succ(Zero())))

    def test_or_injections(self):
        concludes(T.or_left(T.eq_refl(Zero()), B), Or(A, B))
        concludes(T.or_right(B, T.eq_refl(Zero())), Or(B, A))

    def test_or_elim(self):
        disj = T.or_left(T.eq_refl(Zero()), A)
        arm = T.imp_refl(A)
        concludes(T.or_elim(disj, arm, arm), A)

    def test_iff_round_trip(self):
        i = T.iff_intro(T.imp_refl(A), T.imp_refl(A))
        concludes(i, Iff(A, A))
        concludes(T.iff_left(i), Imp(A, A))
        concludes(T.iff_right(i), Imp(A, A))

    def test_contradiction_to(self):
        pos = T.hyp(A)
        neg = T.hyp(Not(A))
        p = T.contradiction_to(pos, neg, B)
        d = T.compile_proof(T.discharge(T.discharge(p, Not(A)), A))
        assert is_valid(d, Q)
        assert render(d.conclusion) == render(Imp(A, Imp(Not(A), B)))

    def test_contrapose(self):
        p = T.contrapose(T.s_imp_k(A, B), T.hyp(Not(Imp(B, A))))
        d = T.compile_proof(T.discharge(p, Not(Imp(B, A))))
        assert is_valid(d, Q)

    def test_double_negation(self):
        concludes(T.dn_intro(T.eq_refl(Zero())), Not(Not(A)))

    def test_excluded_middle(self):
        p = T.excluded_middle(B)
        assert T.open_hypotheses(p) == []
        concludes(p, Or(B, Not(B)))


class TestQuantifiers:
    def test_forall_elim(self):
        q4 = T.ax(Q, "q4")
        inst = T.forall_elim(q4, numeral(3))
        concludes(inst, Eq(Add(numeral(3), Zero()), numeral(3)))

    def test_forall_elim_needs_universal(self):
        with pytest.raises(T.TacticError):
            T.forall_elim(T.eq_refl(Zero()), Zero())

    def test_exists_intro(self):
        witness = T.eq_refl(numeral(2))
        p = T.exists_intro(0, Eq(Var(0), Var(0)), numeral(2), witness)
        concludes(p, Exists(0, Eq(Var(0), Var(0))))

    def test_forall_elim_takes_the_outermost_first(self):
        q5 = T.ax(Q, "q5")
        both = T.forall_elim(q5, numeral(2), Var(3))
        nested = T.forall_elim(T.forall_elim(q5, numeral(2)), Var(3))
        assert T.compile_proof(both) == T.compile_proof(nested)
        concludes(both, Eq(Add(numeral(2), Succ(Var(3))), Succ(Add(numeral(2), Var(3)))))

    def test_forall_elim_needs_a_universal_at_every_term(self):
        with pytest.raises(T.TacticError, match="forall_elim needs a universal"):
            T.forall_elim(T.ax(Q, "q4"), Zero(), Zero())

    def test_exists_elim_is_the_spelled_out_rule(self):
        # from v1 = s 0 conclude s 0 = v1, so (E v1)(v1 = s 0) -> (E v1)(s 0 = v1)
        a = Eq(Var(1), Succ(Zero()))
        body = Eq(Succ(Zero()), Var(1))
        p = T.exists_intro(1, body, Var(1), T.eq_sym(T.hyp(a)))
        spelled = T.mp(T.s_ex_shift(1, a, p.formula), T.gen(1, T.discharge(p, a)))
        got = T.exists_elim(1, a, p)
        assert T.compile_proof(got) == T.compile_proof(spelled)
        concludes(got, Imp(Exists(1, a), Exists(1, body)))

    def test_exists_elim_refuses_the_variable_free_in_the_conclusion(self):
        a = Eq(Var(1), Succ(Zero()))
        with pytest.raises(T.TacticError):
            T.exists_elim(1, a, T.eq_sym(T.hyp(a)))


def _sch_accepts(name, f) -> bool:
    try:
        T.sch(name, f)
    except T.TacticError:
        return False
    return True


class TestSchOnSugar:
    """`sch` accepts a schema instance written with bounded quantifiers
    exactly when `check` accepts it as a step, which reads the expansion."""

    def test_all_inst_through_a_bounded_quantifier(self):
        b = BForall(1, Var(0), Le(Var(1), Var(0)))
        f = Imp(Forall(0, b), substitute(b, 0, numeral(2)))
        assert is_valid(Derivation((Step(f, "schema", name="all_inst"),)), Q)
        assert T.sch("all_inst", f).formula is f

    def test_ex_shift_over_a_bounded_universal(self):
        a = Eq(Zero(), Zero())
        f = Imp(BForall(0, numeral(2), a), Imp(Exists(0, Le(Succ(Var(0)), numeral(2))), a))
        assert is_valid(Derivation((Step(f, "schema", name="ex_shift"),)), Q)
        assert T.sch("ex_shift", f).formula is f

    @settings(max_examples=100, deadline=None)
    @given(formulas(), st.integers(0, 3), st.sampled_from([Zero(), Var(1), numeral(2)]),
           st.sampled_from(["all_inst", "ex_intro", "all_shift", "ex_shift"]))
    def test_same_verdict_as_check(self, f, v, t, name):
        target = substitute(f, v, t)
        for body, inst in ((f, target), (expand_bounded(f), target), (f, expand_bounded(target)),
                           (f, f)):
            g = (Imp(Forall(v, body), inst) if name != "ex_intro"
                 else Imp(inst, Exists(v, body)))
            step = Derivation((Step(g, "schema", name=name),))
            assert _sch_accepts(name, g) == is_valid(step, Q)


class TestEquality:
    bank = LemmaBank()

    def test_eq_succ(self):
        p = self.bank.add_eq(1, 2)
        concludes(T.eq_succ(p), Eq(Succ(Add(numeral(1), numeral(2))), numeral(4)))

    def test_eq_sym(self):
        concludes(T.eq_sym(self.bank.add_eq(2, 2)), Eq(numeral(4), Add(numeral(2), numeral(2))))

    def test_eq_trans_and_chain(self):
        # 2 + 1 = 3 and 3 = 1 + 2 compose
        left = self.bank.add_eq(2, 1)
        right = T.eq_sym(self.bank.add_eq(1, 2))
        concludes(T.eq_trans(left, right), Eq(Add(numeral(2), numeral(1)), Add(numeral(1), numeral(2))))
        concludes(
            T.eq_chain(left, right, self.bank.add_eq(1, 2)),
            Eq(Add(numeral(2), numeral(1)), numeral(3)),
        )

    def test_eq_trans_mismatch(self):
        with pytest.raises(T.TacticError):
            T.eq_trans(self.bank.add_eq(1, 1), self.bank.add_eq(2, 2))

    def test_congruences(self):
        two = T.eq_refl(numeral(2))
        p = self.bank.add_eq(1, 1)
        concludes(
            T.eq_add_cong(p, two),
            Eq(Add(Add(numeral(1), numeral(1)), numeral(2)), Add(numeral(2), numeral(2))),
        )
        concludes(
            T.eq_mul_cong(p, two),
            Eq(Mul(Add(numeral(1), numeral(1)), numeral(2)), Mul(numeral(2), numeral(2))),
        )

    def test_transports(self):
        p = self.bank.add_eq(1, 1)  # 1+1 = 2
        le = T.sch("eq_le", Imp(
            p.formula, Imp(p.formula, Imp(
                Le(Add(numeral(1), numeral(1)), Add(numeral(1), numeral(1))),
                Le(numeral(2), numeral(2)),
            ))
        ))
        got = T.mp(T.mp(le, p), p)
        assert render(got.formula).startswith("(")


class TestDischarge:
    def test_used_hypothesis(self):
        h = Eq(Var(3), Zero())
        p = T.eq_succ(T.hyp(h))
        d = T.discharge(p, h)
        assert T.open_hypotheses(d) == []
        concludes(d, Imp(h, Eq(Succ(Var(3)), Succ(Zero()))))

    def test_unused_hypothesis_is_k_lifted(self):
        d = T.discharge(T.eq_refl(Zero()), B)
        concludes(d, Imp(B, A))

    def test_discharge_through_gen(self):
        h = Eq(Zero(), Zero())
        p = T.gen(0, T.contradiction_to(T.hyp(h), T.hyp(Not(h)), Eq(Var(0), Var(0))))
        d = T.discharge(T.discharge(p, Not(h)), h)
        assert T.open_hypotheses(d) == []
        assert is_valid(T.compile_proof(d), Q)

    def test_gen_over_hypothesis_variable_refused(self):
        h = Eq(Var(0), Zero())
        p = T.gen(0, T.eq_succ(T.hyp(h)))
        with pytest.raises(T.TacticError):
            T.discharge(p, h)

    def test_open_hypotheses_lists_leaves(self):
        p = T.and_intro(T.hyp(A), T.hyp(B))
        got = {render(f) for f in T.open_hypotheses(p)}
        assert got == {render(A), render(B)}


class TestCompile:
    def test_dedup_shrinks_shared_subtrees(self):
        bank = LemmaBank()
        p = T.eq_trans(bank.add_eq(2, 3), T.eq_sym(bank.add_eq(2, 3)))
        full = compile_proof_reference(p, dedup=False)
        slim = T.compile_proof(p)
        assert len(slim) < len(full)
        assert is_valid(slim, Q) and is_valid(full, Q)
        assert render(slim.conclusion) == render(full.conclusion)

    def test_hypothesis_cannot_compile(self):
        with pytest.raises(T.TacticError):
            T.compile_proof(T.hyp(A))


def _same_lines(tree) -> int:
    """The compiler and the render-keyed reference give byte-identical JSON
    lines; returns their length."""
    got = list(to_json_lines(T.compile_proof(tree)))
    assert got == list(to_json_lines(compile_proof_reference(tree)))
    return len(got)


def _args_to(name: str, run, monkeypatch) -> list[tuple]:
    """The positional arguments of every call to tactics.<name> while run()
    runs."""
    calls = []
    real = getattr(T, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(T, name, spy)
    run()
    monkeypatch.undo()
    return calls


def _trees_compiled_by(run, monkeypatch) -> list:
    """The proof trees handed to tactics.compile_proof while run() runs."""
    return [args[0] for args in _args_to("compile_proof", run, monkeypatch)]


class TestCompileByStructure:
    """Steps keyed by interned expansions compile exactly as steps keyed by
    rendered strings did."""

    def test_naming_evidence_matches_render_keyed(self, monkeypatch):
        bank = LemmaBank()
        mus = list(enumerate_formulas(7, 8))[::23] + [
            BExists(1, numeral(3), Eq(Var(0), Add(Var(1), Var(1)))),
            BForall(1, numeral(2), Not(Eq(Var(0), Var(1)))),
            Not(Le(numeral(2), Var(0))),
        ]

        kinds = []

        def run():
            for mu in mus:
                for i in (0, 1, 3):
                    kinds.append(names_provable(mu, i, 32, bank).kind)

        trees = _trees_compiled_by(run, monkeypatch)
        assert {"names", "refuted"} <= set(kinds)
        assert len(trees) == len(kinds) - kinds.count("unknown")
        for tree in trees:
            _same_lines(tree)

    @pytest.mark.parametrize("build", [
        lambda b: b.ne(2, 5), lambda b: b.ne(4, 1), lambda b: b.le(1, 4),
        lambda b: b.mul_eq(3, 4), lambda b: b.eval_closed(Mul(Add(numeral(2), numeral(1)), numeral(2))),
    ])
    def test_bank_lemmas_match_render_keyed(self, build):
        assert _same_lines(build(LemmaBank())) > 1

    @pytest.mark.parametrize("a", [A, B, BForall(1, numeral(2), Le(Var(1), numeral(1)))])
    def test_excluded_middle_matches_render_keyed(self, a):
        _same_lines(T.excluded_middle(a))

    def test_sugar_and_expansion_share_a_line(self):
        # a bounded formula and its expansion render alike, so they dedup
        f = BForall(1, numeral(2), Le(Var(1), numeral(1)))
        tree = T.and_intro(T.excluded_middle(f), T.excluded_middle(expand_bounded(f)))
        assert _same_lines(tree) < len(compile_proof_reference(tree, dedup=False))

    def test_open_hypothesis_message_unchanged(self):
        tree = T.and_intro(T.eq_refl(Zero()), T.hyp(BForall(1, Var(0), A)))
        with pytest.raises(T.TacticError) as new:
            T.compile_proof(tree)
        with pytest.raises(T.TacticError) as old:
            compile_proof_reference(tree)
        assert str(new.value) == str(old.value)

    def test_no_render_when_compiling_or_discharging(self, monkeypatch):
        bank = LemmaBank()
        h = Eq(numeral(2), numeral(5))
        closed = [bank.mul_eq(3, 4), bank.ne(2, 5), T.excluded_middle(B)]
        open_tree = T.eq_sym(T.hyp(h))
        calls = []

        def counting(e):
            calls.append(e)
            return render(e)

        for module in (T, syntax_module, proofs_module):
            monkeypatch.setattr(module, "render", counting)
        for tree in closed:
            T.compile_proof(tree)
        T.discharge(open_tree, h)
        assert calls == []

    def test_discharge_error_names_the_hypothesis(self):
        h = Eq(Var(0), Zero())
        p = T.gen(0, T.eq_succ(T.hyp(h)))
        with pytest.raises(T.TacticError) as err:
            T.discharge(p, h)
        assert str(err.value) == (
            "cannot discharge over generalization of v0, free in hypothesis 'v0 = 0'"
        )

    def test_open_hypotheses_dedup_by_structure(self):
        f = BForall(1, numeral(2), Le(Var(1), numeral(1)))
        p = T.and_intro(T.hyp(f), T.and_intro(T.hyp(expand_bounded(f)), T.hyp(A)))
        got = T.open_hypotheses(p)
        assert sorted(render(g) for g in got) == sorted([render(f), render(A)])


# ------------------------------------------------ closed nodes and walks

def _holds_hyp(root) -> dict[int, bool]:
    """Per node of root, by id: whether its subtree holds a Hyp leaf, found
    by a full walk."""
    holds: dict[int, bool] = {}
    for node in full_postorder(root):
        holds[id(node)] = type(node) is T.Hyp or any(
            holds[id(c)] for c in proof_children(node)
        )
    return holds


def _assert_closed_flags(root) -> None:
    holds = _holds_hyp(root)
    for node in full_postorder(root):
        assert node.closed is not holds[id(node)]


def _rebuild(d: Derivation) -> T.Proof:
    """Re-express a flat derivation as a proof tree."""
    nodes: list[T.Proof] = []
    for step in d.steps:
        match step.rule:
            case "axiom":
                nodes.append(T.Ax(step.name or "", step.formula))
            case "schema":
                nodes.append(T.Sch(step.name or "", step.formula))
            case "mp":
                a, b = step.premises
                nodes.append(T.MP(nodes[a], nodes[b], step.formula))
            case "gen":
                (a,) = step.premises
                nodes.append(
                    T.Gen(step.var if step.var is not None else 0, nodes[a], step.formula)
                )
    return nodes[-1]


_OPS = ("hyp", "mp", "gen", "k_lift", "discharge", "excluded_middle")


@st.composite
def _tactic_pools(draw) -> list:
    """A pool of proofs grown by random tactic steps from a few formulas."""
    fs = draw(st.lists(formulas(3), min_size=2, max_size=4))
    pool = [T.hyp(fs[0]), T.hyp(fs[1]), T.imp_refl(fs[-1])]
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        op = draw(st.sampled_from(_OPS))
        p = draw(st.sampled_from(pool))
        f = draw(st.sampled_from(fs))
        hs = T.open_hypotheses(p)
        h = draw(st.sampled_from(hs)) if hs else f
        try:
            if op == "hyp":
                pool.append(T.hyp(f))
            elif op == "mp":
                # an open implication applied to p
                pool.append(T.mp(T.hyp(Imp(p.formula, f)), p))
            elif op == "gen":
                pool.append(T.gen(draw(st.integers(min_value=0, max_value=3)), p))
            elif op == "k_lift":
                pool.append(T.k_lift(p, f))
            elif op == "discharge":
                pool.append(T.discharge(p, h))
            else:
                pool.append(T.excluded_middle(f))
        except T.TacticError:
            # discharge refuses a generalization over a variable free in the
            # hypothesis it discharges
            pass
    return pool


class TestClosedFlag:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_tactic_pools())
    def test_closed_iff_no_hypothesis_below(self, pool):
        for tree in pool:
            _assert_closed_flags(tree)
            if tree.closed:
                rebuilt = _rebuild(T.compile_proof(tree))
                assert rebuilt.closed
                _assert_closed_flags(rebuilt)

    def test_rebuilt_names_evidence_is_closed(self):
        bank = LemmaBank()
        rebuilt = _rebuild(names_provable(Eq(Var(0), numeral(2)), 2, 32, bank).derivation)
        assert rebuilt.closed
        _assert_closed_flags(rebuilt)

    def test_nodes_have_slots_and_are_frozen(self):
        leaf = T.eq_refl(Zero())
        nodes = [T.ax(Q, "q2"), leaf, T.hyp(A), T.k_lift(leaf, B), T.gen(0, leaf)]
        assert {type(n) for n in nodes} == {T.Ax, T.Sch, T.Hyp, T.MP, T.Gen}
        for node in nodes:
            assert not hasattr(node, "__dict__")
            for f in fields(node):
                with pytest.raises(FrozenInstanceError):
                    setattr(node, f.name, getattr(node, f.name))
        # leaves carry closed as a class constant, inner nodes as a field
        assert [T.Ax.closed, T.Sch.closed, T.Hyp.closed] == [True, True, False]
        assert all("closed" in {f.name for f in fields(c)} for c in (T.MP, T.Gen))

    @pytest.mark.parametrize("build", [
        lambda: T.Ax("q1", A, closed=True),
        lambda: T.Sch("eq_refl", A, closed=True),
        lambda: T.Hyp(A, closed=True),
        lambda: T.MP(T.s_imp_k(A, B), T.eq_refl(Zero()), Imp(B, A), closed=True),
        lambda: T.Gen(0, T.eq_refl(Zero()), Forall(0, A), closed=False),
    ])
    def test_closed_is_not_a_constructor_argument(self, build):
        with pytest.raises(TypeError, match="closed"):
            build()


    @pytest.mark.parametrize("build", [
        lambda: T.Ax("q1"),
        lambda: T.Ax("q1", A, A),
        lambda: T.Sch("eq_refl"),
        lambda: T.Sch("eq_refl", A, "imp_k"),
        lambda: T.Hyp(),
        lambda: T.Hyp(A, B),
        lambda: T.MP(T.eq_refl(Zero()), T.eq_refl(Zero())),
        lambda: T.MP(T.eq_refl(Zero()), T.eq_refl(Zero()), A, B),
        lambda: T.Gen(0, T.eq_refl(Zero())),
        lambda: T.Gen(0, T.eq_refl(Zero()), Forall(0, A), 1),
    ], ids=["ax-1", "ax-3", "sch-1", "sch-3", "hyp-0", "hyp-2", "mp-2", "mp-4", "gen-2",
            "gen-4"])
    def test_constructor_arity_is_checked(self, build):
        with pytest.raises(TypeError, match="argument"):
            build()


def _closed_lines(tree, discharge, hs) -> list[list[str]]:
    """Discharge hs in order with the given deduction theorem, then compile,
    and compile with every proof node on its own line."""
    for h in hs:
        tree = discharge(tree, h)
    return [list(to_json_lines(d)) for d in (
        T.compile_proof(tree), compile_proof_reference(tree, dedup=False))]


def _same_discharge(p, h) -> None:
    """The open-part discharge and the full-walk one give byte-identical
    derivations; hypotheses left open are discharged by each the same way."""
    new, old = T.discharge(p, h), discharge_reference(p, h)
    hs = []
    for node in full_postorder(old):
        if type(node) is T.Hyp and not any(
                expand_bounded(node.formula) is expand_bounded(g) for g in hs):
            hs.append(node.formula)
    assert _closed_lines(new, T.discharge, hs) == _closed_lines(old, discharge_reference, hs)


class TestDischargeMatchesFullWalk:
    def test_naming_evidence(self, monkeypatch):
        bank = LemmaBank()
        mus = list(enumerate_formulas(7, 8))[::46] + [
            BExists(1, numeral(3), Eq(Var(0), Add(Var(1), Var(1)))),
            Not(Le(numeral(2), Var(0))),
        ]

        def run():
            for mu in mus:
                for i in (0, 1, 3):
                    names_provable(mu, i, 32, bank)

        calls = _args_to("discharge", run, monkeypatch)
        assert len(calls) > 20
        for p, h in calls:
            _same_discharge(p, h)

    def test_refute(self, monkeypatch):
        bank = LemmaBank()
        hf = Eq(numeral(2), numeral(3))
        c0 = T.contradiction_to(T.hyp(hf), bank.ne(2, 3), _C0)
        calls = _args_to("discharge", lambda: bank._refute(hf, c0), monkeypatch)
        assert calls
        for p, h in calls:
            _same_discharge(p, h)

    def test_excluded_middle(self, monkeypatch):
        def run():
            T.excluded_middle(B)
            T.excluded_middle(BForall(1, numeral(2), Le(Var(1), numeral(1))))

        calls = _args_to("discharge", run, monkeypatch)
        assert len(calls) == 2
        for p, h in calls:
            _same_discharge(p, h)

    def test_nested_three_deep(self):
        h1, h2, h3 = Eq(Var(0), Zero()), Le(Var(1), Zero()), Eq(Zero(), Succ(Var(0)))
        bank = LemmaBank()
        inner = T.and_intro(T.eq_sym(T.hyp(h1)), T.and_intro(T.hyp(h2), bank.mul_eq(2, 3)))
        p = T.gen(2, T.and_intro(inner, T.and_intro(T.hyp(h3), T.hyp(h1))))
        for hs in ([h1, h2, h3], [h3, h2, h1], [h2, B, h1, h3]):
            _same_discharge(p, hs[0])
            assert _closed_lines(p, T.discharge, hs) == _closed_lines(p, discharge_reference, hs)

    def test_same_error_at_the_first_open_generalization(self):
        h = Eq(Var(0), Var(1))
        p = T.and_intro(T.gen(0, T.eq_sym(T.hyp(h))), T.gen(1, T.eq_sym(T.hyp(h))))
        with pytest.raises(T.TacticError) as new:
            T.discharge(p, h)
        with pytest.raises(T.TacticError) as old:
            discharge_reference(p, h)
        assert str(new.value) == str(old.value)
        assert "generalization of v1" in str(new.value)

    def test_closed_generalization_over_a_free_variable_is_kept(self):
        h = Eq(Var(0), Zero())
        closed = T.gen(0, T.eq_refl(Var(0)))
        p = T.and_intro(closed, T.eq_succ(T.hyp(h)))
        _same_discharge(p, h)
        assert is_valid(T.compile_proof(T.discharge(p, h)), Q)


class TestWalkGuards:
    def test_discharge_and_open_hypotheses_expand_only_open_nodes(self, monkeypatch):
        expanded = []
        real = T._children

        def recorder(node):
            expanded.append(node)
            return real(node)

        monkeypatch.setattr(T, "_children", recorder)
        bank = LemmaBank()
        h = Eq(numeral(2), numeral(5))
        closed = bank.mul_eq(3, 4)
        p = T.and_intro(closed, T.eq_sym(T.hyp(h)))
        assert [render(f) for f in T.open_hypotheses(p)] == [render(h)]
        T.discharge(p, h)
        T.discharge(closed, h)
        assert T.open_hypotheses(closed) == []
        for mu in (Eq(Var(0), numeral(2)), Not(Le(numeral(2), Var(0)))):
            for i in (0, 2, 3):
                names_provable(mu, i, 32, bank)
        assert len(expanded) > 100
        assert not any(node.closed for node in expanded)

    @pytest.mark.parametrize("build", [
        lambda b: b.mul_eq(3, 4),
        lambda b: T.excluded_middle(B),
        lambda b: _rebuild(names_provable(Eq(Var(0), numeral(2)), 2, 32, b).derivation),
    ])
    def test_compile_keys_each_distinct_node_once(self, build):
        # the lines are the render-keyed reference's, byte for byte
        _same_lines(build(LemmaBank()))

    def test_no_dedup_gives_each_node_its_line(self):
        # two proof nodes holding one formula share a line; the reference
        # compiler without dedup gives each its own
        p1, p2 = T.Sch("eq_refl", A), T.Sch("eq_refl", A)
        tree = T.and_intro(p1, p2)
        full = compile_proof_reference(tree, dedup=False)
        assert sum(step.formula is A for step in full.steps) == 2
        assert len(full) == len(full_postorder(tree))
        assert sum(step.formula is A for step in T.compile_proof(tree).steps) == 1
        assert is_valid(full, Q)
        _same_lines(tree)

    def test_deep_chain(self):
        def chain(p):
            # each round adds a Gen and an MP: 20,000 deep in all
            for _ in range(10_000):
                p = T.forall_elim(T.gen(0, p), Zero())
            return p

        closed, open_ = chain(T.eq_refl(Zero())), chain(T.hyp(A))
        assert closed.closed and not open_.closed
        assert len(compile_proof_reference(closed, dedup=False)) == 30_001
        assert T.compile_proof(closed).conclusion is A
        d = T.discharge(open_, A)
        assert d.closed
        assert T.open_hypotheses(d) == []
        assert is_valid(T.compile_proof(d), Q)
        assert T.discharge(closed, A).closed
