from __future__ import annotations

import pytest

from berrykit import proofs as proofs_module
from berrykit import syntax as syntax_module
from berrykit.berry import enumerate_formulas
from berrykit.generators import LemmaBank, names_provable
from berrykit.proofs import is_valid, robinson_arithmetic, to_json_lines
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
    expr_equal,
    numeral,
    render,
)
from berrykit import tactics as T
from oracles import compile_proof_reference

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
        assert expr_equal(p.formula, Q.axiom("q2"))

    def test_sch_validates_instance(self):
        with pytest.raises(T.TacticError):
            T.sch("eq_refl", Eq(Var(0), Var(1)))

    def test_mp_rejects_mismatch(self):
        k = T.s_imp_k(A, B)
        with pytest.raises(T.TacticError):
            T.mp(k, T.eq_refl(Succ(Zero())))

    def test_mp_rejects_non_implication(self):
        with pytest.raises(T.TacticError):
            T.mp(T.eq_refl(Zero()), T.eq_refl(Zero()))

    def test_gen_wraps_in_universal(self):
        p = T.gen(0, T.eq_refl(Var(0)))
        assert render(p.formula) == "( A v0 ) ( v0 = v0 )"


class TestPropositional:
    def test_imp_refl(self):
        concludes(T.imp_refl(A), Imp(A, A))

    def test_k_lift(self):
        concludes(T.k_lift(T.eq_refl(Zero()), B), Imp(B, A))

    def test_syllogism(self):
        ab = T.s_imp_k(A, B)  # A -> (B -> A)
        bc = T.s_imp_k(Imp(B, A), A)
        concludes(T.syllogism(ab, bc), Imp(A, Imp(A, Imp(B, A))))

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
        concludes(T.dn_elim(T.dn_intro(T.eq_refl(Zero()))), A)

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

    def test_exists_elim(self):
        ex = T.exists_intro(0, Eq(Var(0), Var(0)), Zero(), T.eq_refl(Zero()))
        side = T.gen(0, T.k_lift(T.eq_refl(Zero()), Eq(Var(0), Var(0))))
        concludes(T.exists_elim(ex, side), A)

    def test_exists_elim_variable_mismatch(self):
        ex = T.exists_intro(0, Eq(Var(0), Var(0)), Zero(), T.eq_refl(Zero()))
        side = T.gen(1, T.k_lift(T.eq_refl(Zero()), Eq(Var(1), Var(1))))
        with pytest.raises(T.TacticError):
            T.exists_elim(ex, side)


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
        refl = T.eq_refl(Add(numeral(1), numeral(1)))
        concludes(T.eq_transport_eq(p, p, refl), Eq(numeral(2), numeral(2)))
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
        full = T.compile_proof(p, dedup=False)
        slim = T.compile_proof(p, dedup=True)
        assert len(slim) < len(full)
        assert is_valid(slim, Q) and is_valid(full, Q)
        assert render(slim.conclusion) == render(full.conclusion)

    def test_hypothesis_cannot_compile(self):
        with pytest.raises(T.TacticError):
            T.compile_proof(T.hyp(A))


def _same_lines(tree) -> int:
    """Both compilers give byte-identical JSON lines, with and without
    dedup; returns the deduplicated length."""
    lengths = []
    for dedup in (True, False):
        got = list(to_json_lines(T.compile_proof(tree, dedup)))
        assert got == list(to_json_lines(compile_proof_reference(tree, dedup)))
        lengths.append(len(got))
    return lengths[0]


def _trees_compiled_by(run, monkeypatch) -> list:
    """The proof trees handed to tactics.compile_proof while run() runs."""
    trees = []
    real = T.compile_proof

    def spy(p, dedup=True):
        trees.append(p)
        return real(p, dedup)

    monkeypatch.setattr(T, "compile_proof", spy)
    run()
    monkeypatch.undo()
    return trees


class TestCompileByStructure:
    """Steps keyed by structure numbers compile exactly as steps keyed by
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
        assert _same_lines(tree) < len(T.compile_proof(tree, dedup=False))

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
