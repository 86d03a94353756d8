"""Derivation builders over Robinson's Q, the base arithmetic theory.

The LemmaBank caches proof trees for the arithmetic facts everything else
leans on: numeral evaluation, distinctness and ordering of numerals, case
analysis below a numeral bound, and order totality.  Each lemma is an
argument in derived rules: q8 is read right to left to introduce x <= y
from a witness w + x = y and left to right to eliminate it, and q3 is the
case split on a variable being 0 or a successor.  On top of the bank sit
the headline constructions: a provable uniqueness statement for least
witnesses, derivations of true bounded sentences and refutations of false
ones, and decision evidence for naming equivalences.

Everything returned to callers is a flat Derivation the independent checker
accepts; trees are internal.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

from . import tactics as T
from .errors import (
    BudgetExhaustedError,
    InputError,
    RefusedError,
)
from .proofs import Derivation, robinson_arithmetic
from .semantics import (
    DEFAULT_BUDGET,
    SIGMA_CLASSES,
    FormulaClass,
    SemanticNaming,
    Truth,
    Verdict,
    classify,
    decide,
    eval_term,
    guarded,
)
from .syntax import (
    Add,
    And,
    BINDERS,
    Eq,
    Exists,
    Forall,
    Formula,
    Iff,
    Imp,
    Le,
    Mul,
    Not,
    Or,
    Succ,
    Term,
    Var,
    Zero,
    all_var_indices,
    expand_bounded,
    fold,
    free_vars,
    numeral,
    numeral_value,
    render,
    substitute,
    succ_spine,
)

# the one equation every refutation funnels through
_C0 = Eq(Zero(), Succ(Zero()))


def _succs(t: Term, n: int) -> Term:
    for _ in range(n):
        t = Succ(t)
    return t


def _binders_of(node, kids: tuple) -> frozenset[int]:
    out = frozenset().union(*kids)
    return out | {node.var} if type(node) in BINDERS else out


def _lemma(build: Callable[..., T.Proof]) -> Callable[..., T.Proof]:
    """A LemmaBank method whose tree is built once per bank and arguments."""
    name = build.__name__

    @functools.wraps(build)
    def cached(self: LemmaBank, *args) -> T.Proof:
        key = (name, *args)
        got = self._cache.get(key)
        if got is None:
            got = self._cache[key] = build(self, *args)
        return got

    return cached


class LemmaBank:
    """Cached proof trees over Robinson's Q (the eight base axioms)."""

    def __init__(self) -> None:
        self.theory = robinson_arithmetic()
        self._cache: dict[tuple, T.Proof] = {}

    def _ax(self, label: str, *terms: Term) -> T.Proof:
        """The axiom, its quantifiers instantiated with terms, outermost first."""
        return T.forall_elim(T.ax(self.theory, label), *terms)

    def _le_intro(self, x: Term, y: Term, w: Term, p: T.Proof) -> T.Proof:
        """x <= y from p proving w + x = y: q8 read right to left."""
        ex = T.exists_intro(2, Eq(Add(Var(2), x), y), w, p)
        return T.mp(T.iff_right(self._ax("q8", x, y)), ex)

    def _le_elim(self, p_le: T.Proof, p: T.Proof) -> T.Proof:
        """p's conclusion from p_le proving x <= y, where p proves it under
        q8's witness hypothesis v2 + x = y: q8 read left to right."""
        x, y = p_le.formula.left, p_le.formula.right
        ex = T.mp(T.iff_left(self._ax("q8", x, y)), p_le)
        return T.mp(T.exists_elim(2, Eq(Add(Var(2), x), y), p), ex)

    def _zero_or_succ(self, x: int, zero: T.Proof, succ: T.Proof) -> T.Proof:
        """The conclusion zero proves under v_x = 0 and succ under
        v_x = s v1, by excluded middle and q3's successor below v_x."""
        e = Eq(Var(x), Zero())
        exb = T.mp(self._ax("q3", Var(x)), T.hyp(Not(e)))
        b_ne = T.mp(T.exists_elim(1, Eq(Var(x), Succ(Var(1))), succ), exb)
        return T.or_elim(T.excluded_middle(e), T.discharge(zero, e), T.discharge(b_ne, Not(e)))

    def _ladder(
        self,
        tag: tuple,
        n: int,
        zero: Callable[[], T.Proof],
        step: Callable[[int, T.Proof], T.Proof],
    ) -> T.Proof:
        """Rung n of a lemma proved for 0, then for each m from rung m-1;
        every rung up to n is cached, and no rung is built twice."""
        top = (*tag, n)
        if top not in self._cache:
            prev = None
            for m in range(n + 1):
                key = (*tag, m)
                if key not in self._cache:
                    self._cache[key] = zero() if m == 0 else step(m, prev)
                prev = self._cache[key]
        return self._cache[top]

    # -------------------------------------------------- numeral arithmetic

    def add_eq(self, i: int, j: int) -> T.Proof:
        """i + j = (i+j), on numerals."""

        def step(m: int, prev: T.Proof) -> T.Proof:
            return T.eq_trans(self._ax("q5", numeral(i), numeral(m - 1)), T.eq_succ(prev))

        return self._ladder(("add_eq", i), j, lambda: self._ax("q4", numeral(i)), step)

    def mul_eq(self, i: int, j: int) -> T.Proof:
        """i * j = (i*j), on numerals."""

        def step(m: int, prev: T.Proof) -> T.Proof:
            q7i = self._ax("q7", numeral(i), numeral(m - 1))
            cong = T.eq_add_cong(prev, T.eq_refl(numeral(i)))
            return T.eq_chain(q7i, cong, self.add_eq(i * (m - 1), i))

        return self._ladder(("mul_eq", i), j, lambda: self._ax("q6", numeral(i)), step)

    @_lemma
    def eval_closed(self, t: Term) -> T.Proof:
        """t = n for the closed term t with value n."""
        if numeral_value(t) is not None:
            p: T.Proof = T.eq_refl(t)
        else:
            succs, core = succ_spine(t)
            match core:
                case Add(l, r):
                    pl, pr = self.eval_closed(l), self.eval_closed(r)
                    vl, vr = _eq_value(pl), _eq_value(pr)
                    p = T.eq_chain(T.eq_add_cong(pl, pr), self.add_eq(vl, vr))
                case Mul(l, r):
                    pl, pr = self.eval_closed(l), self.eval_closed(r)
                    vl, vr = _eq_value(pl), _eq_value(pr)
                    p = T.eq_chain(T.eq_mul_cong(pl, pr), self.mul_eq(vl, vr))
                case _:
                    raise InputError(f"term is not closed: {render(t)!r}")
            for _ in range(succs):
                p = T.eq_succ(p)
        return p

    # ---------------------------------------------- numeral order facts

    @_lemma
    def ne(self, i: int, j: int) -> T.Proof:
        """~(i = j) for distinct numerals."""
        if i == j:
            raise InputError("the numerals must differ")
        h = Eq(numeral(i), numeral(j))
        if i > j:
            flipped, neg = T.eq_sym(T.hyp(h)), self.ne(j, i)
        else:
            cur: T.Proof = T.hyp(h)
            for k in range(i):
                cur = T.mp(self._ax("q1", numeral(i - k - 1), numeral(j - k - 1)), cur)
            flipped, neg = T.eq_sym(cur), self._ax("q2", numeral(j - i - 1))  # s^(j-i) 0 = 0
        # contrapose's tree; its shape checks hold here by construction
        s = T.s_neg_intro(h, flipped.formula)
        return T.mp(T.mp(s, T.discharge(flipped, h)), T.k_lift(neg, h))

    @_lemma
    def le(self, i: int, j: int) -> T.Proof:
        """i <= j on numerals, i at most j."""
        if i > j:
            raise InputError("the first numeral must not exceed the second")
        return self._le_intro(numeral(i), numeral(j), numeral(j - i), self.add_eq(j - i, i))

    def u_lemma(self, n: int) -> T.Proof:
        """(A v0)(v0 + n = s^n v0): adding a numeral is iterated successor."""
        return self._ladder(("u_lemma",), n, lambda: self._ax("q4"), self._u_step)

    def _u_step(self, m: int, prev: T.Proof) -> T.Proof:
        ih = T.eq_succ(T.forall_elim(prev, Var(0)))
        return T.gen(0, T.eq_trans(self._ax("q5", Var(0), numeral(m - 1)), ih))

    @_lemma
    def nle(self, j: int, n: int) -> T.Proof:
        """~(j <= n) for numerals with j > n."""
        if j <= n:
            raise InputError("the first numeral must exceed the second")
        a = Eq(Add(Var(2), numeral(j)), numeral(n))
        ui = T.forall_elim(self.u_lemma(j), Var(2))
        cur = T.eq_trans(T.eq_sym(ui), T.hyp(a))  # s^j v2 = n
        for k in range(n):
            cur = T.mp(self._ax("q1", _succs(Var(2), j - k - 1), numeral(n - k - 1)), cur)
        c0 = T.contradiction_to(cur, self._ax("q2", _succs(Var(2), j - n - 1)), _C0)
        notex = T.contrapose(T.exists_elim(2, a, c0), self.ne(0, 1))
        return T.contrapose(T.iff_left(self._ax("q8", numeral(j), numeral(n))), notex)

    @_lemma
    def g1(self) -> T.Proof:
        """(A v0)(0 <= v0)."""
        return T.gen(0, self._le_intro(Zero(), Var(0), Var(0), self._ax("q4", Var(0))))

    @_lemma
    def m2(self) -> T.Proof:
        """(A v0)(A v1)((s v0 <= s v1) -> (v0 <= v1))."""
        h = Le(Succ(Var(0)), Succ(Var(1)))
        ha = T.hyp(Eq(Add(Var(2), Succ(Var(0))), Succ(Var(1))))
        e1 = T.eq_trans(T.eq_sym(self._ax("q5", Var(2), Var(0))), ha)  # s (v2 + v0) = s v1
        e2 = T.mp(self._ax("q1", Add(Var(2), Var(0)), Var(1)), e1)  # v2 + v0 = v1
        c = self._le_elim(T.hyp(h), self._le_intro(Var(0), Var(1), Var(2), e2))
        return T.gen(0, T.gen(1, T.discharge(c, h)))

    # ------------------------------------ case analysis below a numeral

    def l7(self, n: int) -> T.Proof:
        """(A v0)((v0 <= n) -> (v0=0 | v0=1 | ... | v0=n)), right-nested."""
        return self._ladder(("l7",), n, self._l7_zero, self._l7_step)

    def _l7_zero(self) -> T.Proof:
        h = Le(Var(0), Zero())
        target = Eq(Var(0), Zero())
        hb = T.hyp(Eq(Var(0), Succ(Var(1))))
        ha = T.hyp(Eq(Add(Var(2), Var(0)), Zero()))
        e1 = T.eq_trans(T.eq_sym(T.eq_add_cong(T.eq_refl(Var(2)), hb)), ha)  # v2 + s v1 = 0
        e2 = T.eq_trans(T.eq_sym(self._ax("q5", Var(2), Var(1))), e1)  # s (v2 + v1) = 0
        cb = T.contradiction_to(e2, self._ax("q2", Add(Var(2), Var(1))), target)
        ca = self._zero_or_succ(0, T.hyp(target), cb)
        return T.gen(0, T.discharge(self._le_elim(T.hyp(h), ca), h))

    def _l7_step(self, m: int, prev: T.Proof) -> T.Proof:
        h = Le(Var(0), numeral(m))
        cs = [Eq(Var(0), numeral(k)) for k in range(m + 1)]
        hb = T.hyp(Eq(Var(0), Succ(Var(1))))
        sv1_le = T.le_transport(hb, T.eq_refl(numeral(m)), T.hyp(h))  # s v1 <= m
        v1_le = T.mp(T.forall_elim(self.m2(), Var(1), numeral(m - 1)), sv1_le)
        dprev = T.mp(T.forall_elim(prev, Var(1)), v1_le)
        cs_prev = [Eq(Var(1), numeral(k)) for k in range(m)]

        def branch(k: int, hek: T.Proof) -> T.Proof:
            return _inject(cs, k + 1, T.eq_trans(hb, T.eq_succ(hek)))

        dm = _elim_cases(dprev, cs_prev, branch)
        out = self._zero_or_succ(0, _inject(cs, 0, T.hyp(cs[0])), dm)
        return T.gen(0, T.discharge(out, h))

    @_lemma
    def l5(self, n: int) -> T.Proof:
        """(A v0)((n <= v0) -> ((s n <= v0) | (n = v0)))."""
        g_left = Le(Succ(numeral(n)), Var(0))
        g_right = Eq(numeral(n), Var(0))
        h = Le(numeral(n), Var(0))
        ui = T.forall_elim(self.u_lemma(n), Var(2))
        s = T.eq_trans(T.eq_sym(ui), T.hyp(Eq(Add(Var(2), numeral(n)), Var(0))))  # s^n v2 = v0
        cur: T.Proof = T.hyp(Eq(Var(2), Zero()))
        for _ in range(n):
            cur = T.eq_succ(cur)  # s^n v2 = n
        zero = T.or_right(g_left, T.eq_trans(T.eq_sym(cur), s))
        cur = T.hyp(Eq(Var(2), Succ(Var(1))))
        for _ in range(n):
            cur = T.eq_succ(cur)  # s^n v2 = s^(n+1) v1
        u2 = T.forall_elim(self.u_lemma(n + 1), Var(1))
        e = T.eq_chain(u2, T.eq_sym(cur), s)  # v1 + s n = v0
        succ = T.or_left(self._le_intro(Succ(numeral(n)), Var(0), Var(1), e), g_right)
        ch = self._le_elim(T.hyp(h), self._zero_or_succ(2, zero, succ))
        return T.gen(0, T.discharge(ch, h))

    def tot(self, n: int) -> T.Proof:
        """(A v0)((v0 <= n) | (n <= v0))."""
        return self._ladder(("tot",), n, self._tot_zero, self._tot_step)

    def _tot_zero(self) -> T.Proof:
        g1i = T.forall_elim(self.g1(), Var(0))
        return T.gen(0, T.or_right(Le(Var(0), Zero()), g1i))

    def _tot_step(self, m: int, prev: T.Proof) -> T.Proof:
        left = Le(Var(0), numeral(m))
        right = Le(numeral(m), Var(0))
        ti = T.forall_elim(prev, Var(0))
        h1 = Le(Var(0), numeral(m - 1))
        hh1 = T.hyp(h1)
        dis = T.mp(T.forall_elim(self.l7(m - 1), Var(0)), hh1)
        cs = [Eq(Var(0), numeral(k)) for k in range(m)]

        def low(k: int, hek: T.Proof) -> T.Proof:
            tr = T.le_transport(
                T.eq_sym(hek), T.eq_refl(numeral(m)), self.le(k, m)
            )
            return T.or_left(tr, right)

        b1 = T.discharge(_elim_cases(dis, cs, low), h1)
        h2 = Le(numeral(m - 1), Var(0))
        hh2 = T.hyp(h2)
        d2 = T.mp(T.forall_elim(self.l5(m - 1), Var(0)), hh2)
        s1 = Le(Succ(numeral(m - 1)), Var(0))
        s2 = Eq(numeral(m - 1), Var(0))
        bs1 = T.discharge(T.or_right(left, T.hyp(s1)), s1)
        tr2 = T.le_transport(
            T.hyp(s2), T.eq_refl(numeral(m)), self.le(m - 1, m)
        )
        bs2 = T.discharge(T.or_left(tr2, right), s2)
        b2 = T.discharge(T.or_elim(d2, bs1, bs2), h2)
        return T.gen(0, T.or_elim(ti, b1, b2))

    # --------------------------------------------------- indiscernibility

    def leib(self, phi: Formula, x: int, t: Term, u: Term) -> T.Proof:
        """(t = u) -> (phi[x:=t] -> phi[x:=u]), by recursion on phi.

        Binders in phi may not mention the free variables of t or u; a
        binder equal to x shadows it, which is fine.
        """
        phi = expand_bounded(phi)  # type: ignore[assignment]
        repl_free = free_vars(t) | free_vars(u)
        clash = (fold(phi, _binders_of) - {x}) & repl_free
        if clash:
            raise T.TacticError(f"binders would capture the terms: {sorted(clash)}")
        e = Eq(t, u)
        he = T.hyp(e)
        sym = T.eq_sym(he)
        memo: dict[tuple[int, bool], T.Proof] = {}

        def term_cong(s: Term, fwd: bool) -> T.Proof:
            p_ab = he if fwd else sym
            if x not in free_vars(s):
                return T.eq_refl(s)
            succs, s = succ_spine(s)
            match s:
                case Var(i) if i == x:
                    p: T.Proof = p_ab
                case Add(l, r):
                    p = T.eq_add_cong(term_cong(l, fwd), term_cong(r, fwd))
                case Mul(l, r):
                    p = T.eq_mul_cong(term_cong(l, fwd), term_cong(r, fwd))
                case _:
                    raise T.TacticError("unreachable term shape")
            for _ in range(succs):
                p = T.eq_succ(p)
            return p

        def rec(g: Formula, fwd: bool) -> T.Proof:
            """g[x:=a] -> g[x:=b] with (a, b) = (t, u) if fwd else (u, t)."""
            mkey = (id(g), fwd)
            if mkey in memo:
                return memo[mkey]
            a, b = (t, u) if fwd else (u, t)
            if x not in free_vars(g):
                out = T.imp_refl(g)
                memo[mkey] = out
                return out
            ga = substitute(g, x, a)
            gb = substitute(g, x, b)
            match g:
                case Eq(l, r) | Le(l, r):
                    pl, pr = term_cong(l, fwd), term_cong(r, fwd)
                    schema = T.sch(
                        "eq_eq" if type(g) is Eq else "eq_le",
                        Imp(pl.formula, Imp(pr.formula, Imp(ga, gb))),
                    )
                    out = T.mp(T.mp(schema, pl), pr)
                case Not(body):
                    back = rec(body, not fwd)
                    hn = T.hyp(ga)
                    out = T.discharge(T.contrapose(back, hn), ga)
                case And(l, r):
                    hc = T.hyp(ga)
                    both = T.and_intro(
                        T.mp(rec(l, fwd), T.and_left(hc)),
                        T.mp(rec(r, fwd), T.and_right(hc)),
                    )
                    out = T.discharge(both, ga)
                case Or(l, r):
                    hc = T.hyp(ga)
                    la, ra = substitute(l, x, a), substitute(r, x, a)
                    lb, rb = substitute(l, x, b), substitute(r, x, b)
                    bl = T.discharge(
                        T.or_left(T.mp(rec(l, fwd), T.hyp(la)), rb), la
                    )
                    br = T.discharge(
                        T.or_right(lb, T.mp(rec(r, fwd), T.hyp(ra))), ra
                    )
                    out = T.discharge(T.or_elim(hc, bl, br), ga)
                case Imp(l, r):
                    hc = T.hyp(ga)
                    lb = substitute(l, x, b)
                    hl = T.hyp(lb)
                    la_p = T.mp(rec(l, not fwd), hl)
                    rb_p = T.mp(rec(r, fwd), T.mp(hc, la_p))
                    out = T.discharge(T.discharge(rb_p, lb), ga)
                case Iff(l, r):
                    hc = T.hyp(ga)
                    lb = substitute(l, x, b)
                    rb = substitute(r, x, b)
                    hl = T.hyp(lb)
                    fwd_p = T.discharge(
                        T.mp(
                            rec(r, fwd),
                            T.mp(T.iff_left(hc), T.mp(rec(l, not fwd), hl)),
                        ),
                        lb,
                    )
                    hr = T.hyp(rb)
                    back_p = T.discharge(
                        T.mp(
                            rec(l, fwd),
                            T.mp(T.iff_right(hc), T.mp(rec(r, not fwd), hr)),
                        ),
                        rb,
                    )
                    out = T.discharge(T.iff_intro(fwd_p, back_p), ga)
                case Forall(v, body):
                    hc = T.hyp(ga)
                    inst = T.forall_elim(hc, Var(v))
                    stepped = T.mp(rec(body, fwd), inst)
                    out = T.discharge(T.gen(v, stepped), ga)
                case Exists(v, body):
                    ba = substitute(body, x, a)
                    stepped = T.mp(rec(body, fwd), T.hyp(ba))
                    wi = T.exists_intro(v, substitute(body, x, b), Var(v), stepped)
                    out = T.exists_elim(v, ba, wi)
                case _:
                    raise T.TacticError("unreachable formula shape")
            memo[mkey] = out
            return out

        return T.discharge(rec(phi, True), e)

    # --------------------------------------------- refutation plumbing

    def _refute(self, hf: Formula, c0_proof: T.Proof) -> T.Proof:
        """~hf, from a contradiction derived under hypothesis hf."""
        return T.contrapose(T.discharge(c0_proof, hf), self.ne(0, 1))

    # --------------------------------------- true/false bounded sentences

    def _lt(self, k: int, bound: Term, m: int) -> T.Proof:
        """s k <= bound, for the closed bound of value m above k."""
        return T.le_transport(
            T.eq_refl(numeral(k + 1)),
            T.eq_sym(self.eval_closed(bound)),
            self.le(k + 1, m),
        )

    def _below(
        self,
        v: int,
        bound: Term,
        m: int,
        p_guard: T.Proof,
        goal: Formula,
        branch: Callable[[int, T.Proof], T.Proof] | None,
    ) -> T.Proof:
        """The case split on v below a closed bound, from p_guard proving
        s v <= bound for the bound of value m.

        At m = 0 the guard is absurd, and goal follows from q2.  Otherwise
        v is one of 0..m-1, and branch(k, proof of v = k) proves goal in
        each case; with no branch the result is v <= m-1 itself.
        """
        up = T.le_transport(T.eq_refl(Succ(Var(v))), self.eval_closed(bound), p_guard)
        if m == 0:
            zi = T.forall_elim(self.l7(0), Succ(Var(v)))
            return T.contradiction_to(T.mp(zi, up), self._ax("q2", Var(v)), goal)
        below = T.mp(T.forall_elim(self.m2(), Var(v), numeral(m - 1)), up)
        if branch is None:
            return below
        dis = T.mp(T.forall_elim(self.l7(m - 1), Var(v)), below)
        return _elim_cases(dis, [Eq(Var(v), numeral(k)) for k in range(m)], branch)

    def prove(self, f: Formula, verdict: Verdict) -> T.Proof:
        """A proof of the closed sentence f when its verdict is true, and of
        ~f when it is false.

        f is read as its expansion, so a bounded quantifier is the guarded
        quantifier it stands for.  verdict is ``decide(f, budget)``, settled,
        and every choice is read off its parts: the left disjunct before the
        right, a false antecedent before a true consequent, the least
        witness, and the first failing instance, conjunct or side.  The
        tactics check every inference they build.
        """
        f = expand_bounded(f)
        true = verdict[0] is Truth.TRUE
        parts = verdict[1]
        got = guarded(f)
        if got is not None:
            v, bound, body = got
            m = eval_term(bound, {})
            if true is (type(f) is Exists):
                # the scan stopped at its witness or failing instance
                k = len(parts) - 1
                pk = self.prove(substitute(body, v, numeral(k)), parts[k])
                lt = self._lt(k, bound, m)
                if true:
                    return T.exists_intro(v, f.body, numeral(k), T.and_intro(lt, pk))
                pos = T.mp(T.forall_elim(T.hyp(f), numeral(k)), lt)
                return self._refute(f, T.contradiction_to(pos, pk, _C0))
            # a true universal or a false existential: every case below the bound
            if true:
                guard = Le(Succ(Var(v)), bound)

                def holds(k: int, hek: T.Proof) -> T.Proof:
                    pk = self.prove(substitute(body, v, numeral(k)), parts[k])
                    lb = self.leib(body, v, numeral(k), Var(v))
                    return T.mp(T.mp(lb, T.eq_sym(hek)), pk)

                c = self._below(v, bound, m, T.hyp(guard), body, holds)
                return T.gen(v, T.discharge(c, guard))
            conj = f.body
            hc = T.hyp(conj)

            def fails(k: int, hek: T.Proof) -> T.Proof:
                nk = self.prove(substitute(body, v, numeral(k)), parts[k])
                lb = self.leib(body, v, Var(v), numeral(k))
                pos = T.mp(T.mp(lb, hek), T.and_right(hc))
                return T.contradiction_to(pos, nk, _C0)

            c = self._below(v, bound, m, T.and_left(hc), _C0, fails)
            return T.contrapose(T.exists_elim(v, conj, c), self.ne(0, 1))
        match f:
            case Not(g):
                p = self.prove(g, parts[0])
                return p if true else T.dn_intro(p)
            case And(l, r):
                if true:
                    return T.and_intro(self.prove(l, parts[0]), self.prove(r, parts[1]))
                hc = T.hyp(f)
                if parts[0][0] is Truth.FALSE:
                    pos, neg = T.and_left(hc), self.prove(l, parts[0])
                else:
                    pos, neg = T.and_right(hc), self.prove(r, parts[1])
                return self._refute(f, T.contradiction_to(pos, neg, _C0))
            case Or(l, r):
                if true and parts[0][0] is Truth.TRUE:
                    return T.or_left(self.prove(l, parts[0]), r)
                if true:
                    return T.or_right(l, self.prove(r, parts[1]))
                nl, nr = self.prove(l, parts[0]), self.prove(r, parts[1])
                bl = T.discharge(T.contradiction_to(T.hyp(l), nl, _C0), l)
                br = T.discharge(T.contradiction_to(T.hyp(r), nr, _C0), r)
                return self._refute(f, T.or_elim(T.hyp(f), bl, br))
            case Imp(l, r):
                if true and parts[0][0] is Truth.FALSE:
                    nl = self.prove(l, parts[0])
                    return T.discharge(T.contradiction_to(T.hyp(l), nl, r), l)
                if true:
                    return T.k_lift(self.prove(r, parts[1]), l)
                pos = T.mp(T.hyp(f), self.prove(l, parts[0]))
                c = T.contradiction_to(pos, self.prove(r, parts[1]), _C0)
                return self._refute(f, c)
            case Iff(l, r):
                # both sides are proved or refuted, whichever case this is
                pl, pr = self.prove(l, parts[0]), self.prove(r, parts[1])
                left = parts[0][0] is Truth.TRUE
                if true and left:
                    return T.iff_intro(T.k_lift(pr, l), T.k_lift(pl, r))
                if true:
                    fwd = T.discharge(T.contradiction_to(T.hyp(l), pl, r), l)
                    back = T.discharge(T.contradiction_to(T.hyp(r), pr, l), r)
                    return T.iff_intro(fwd, back)
                hc = T.hyp(f)
                if left:
                    pos, neg = T.mp(T.iff_left(hc), pl), pr
                else:
                    pos, neg = T.mp(T.iff_right(hc), pr), pl
                return self._refute(f, T.contradiction_to(pos, neg, _C0))
            case Eq(t, u) | Le(t, u):
                pt, pu = self.eval_closed(t), self.eval_closed(u)
                vt, vu = eval_term(t, {}), eval_term(u, {})
                if true and type(f) is Eq:
                    return T.eq_trans(pt, T.eq_sym(pu))
                if true:
                    return T.le_transport(T.eq_sym(pt), T.eq_sym(pu), self.le(vt, vu))
                if type(f) is Eq:
                    pos, neg = T.eq_chain(T.eq_sym(pt), T.hyp(f), pu), self.ne(vt, vu)
                else:
                    pos, neg = T.le_transport(pt, pu, T.hyp(f)), self.nle(vt, vu)
                return self._refute(f, T.contradiction_to(pos, neg, _C0))
            case Exists(v, body) if true:  # the scan stopped at its witness
                k = len(parts) - 1
                inst = substitute(body, v, numeral(k))
                return T.exists_intro(v, body, numeral(k), self.prove(inst, parts[k]))
        if true:
            raise InputError(f"cannot establish {render(f)!r}")
        raise InputError(f"cannot refute {render(f)!r}")

    # --------------------------------------------------- bound extraction

    def find_bound(
        self, mu: Formula
    ) -> tuple[int, Callable[[T.Proof], T.Proof]] | None:
        """A numeral bound m with a transformer taking a proof of mu to a
        proof of v0 <= m.  None when no conjunct pins down v0."""
        match mu:
            case Eq(Var(0), t) | Eq(t, Var(0)) if not free_vars(t):
                m = eval_term(t, {})
                flip = mu.right is Var(0)  # mu is t = v0

                def fn_eq(p: T.Proof) -> T.Proof:
                    e = T.eq_trans(T.eq_sym(p) if flip else p, self.eval_closed(t))
                    return T.le_transport(
                        T.eq_sym(e), T.eq_refl(numeral(m)), self.le(m, m)
                    )

                return m, fn_eq
            case Le(Var(0), t) if not free_vars(t):
                m = eval_term(t, {})

                def fn_le(p: T.Proof) -> T.Proof:
                    return T.le_transport(
                        T.eq_refl(Var(0)), self.eval_closed(t), p
                    )

                return m, fn_le
            case Le(Succ(Var(0)), t) if not free_vars(t):
                m = eval_term(t, {})

                def fn_lt(p: T.Proof) -> T.Proof:
                    return self._below(0, t, m, p, Le(Var(0), Zero()), None)

                return (0 if m == 0 else m - 1), fn_lt
            case And(l, r):
                got = self.find_bound(l)
                if got is not None:
                    m, fn = got
                    return m, lambda p: fn(T.and_left(p))
                got = self.find_bound(r)
                if got is not None:
                    m, fn = got
                    return m, lambda p: fn(T.and_right(p))
        return None


def _eq_value(p: T.Proof) -> int:
    match p.formula:
        case Eq(_, r):
            n = numeral_value(r)
            if n is not None:
                return n
    raise T.TacticError("expected an evaluated equation")


# ------------------------------------------------- disjunction utilities

def _disj_tail(cs: list[Formula], k: int) -> Formula:
    out = cs[-1]
    for m in range(len(cs) - 2, k - 1, -1):
        out = Or(cs[m], out)
    return out


def _inject(cs: list[Formula], k: int, p: T.Proof) -> T.Proof:
    """Lift a proof of cs[k] to the full right-nested disjunction."""
    out = p if k == len(cs) - 1 else T.or_left(p, _disj_tail(cs, k + 1))
    for m in range(k - 1, -1, -1):
        out = T.or_right(cs[m], out)
    return out


def _elim_cases(
    p_disj: T.Proof,
    cs: list[Formula],
    branch: Callable[[int, T.Proof], T.Proof],
) -> T.Proof:
    """Case split on a right-nested disjunction; each branch proves the
    same conclusion from its hypothesis."""
    last = len(cs) - 1
    impl = T.discharge(branch(last, T.hyp(cs[last])), cs[last])
    for k in range(last - 1, -1, -1):
        tail = _disj_tail(cs, k)
        left_impl = T.discharge(branch(k, T.hyp(cs[k])), cs[k])
        impl = T.discharge(
            T.or_elim(T.hyp(tail), left_impl, impl), tail
        )
    return T.mp(impl, p_disj)


# -------------------------------------------------------- public builders

def prove_ne_numerals(i: int, j: int, bank: LemmaBank | None = None) -> Derivation:
    bank = bank or LemmaBank()
    return T.compile_proof(bank.ne(i, j))


def prove_le_numerals(i: int, j: int, bank: LemmaBank | None = None) -> Derivation:
    bank = bank or LemmaBank()
    return T.compile_proof(bank.le(i, j))


def prove_order_totality(n: int, bank: LemmaBank | None = None) -> Derivation:
    bank = bank or LemmaBank()
    return T.compile_proof(bank.tot(n))


def prove_least_unique(
    mu: Formula, i: int, bank: LemmaBank | None = None
) -> Derivation:
    """The least-witness uniqueness implication for mu at i.

    Concludes: if i falsifies mu while everything below i satisfies it,
    then any v0 doing the same equals i.  Provable outright, whatever mu
    says; the premises live inside the implication.
    """
    bank = bank or LemmaBank()
    if free_vars(mu) - {0}:
        raise InputError("the formula may only mention v0 free")
    if 2 in all_var_indices(mu):
        raise InputError("v2 is reserved for the bounded prefix")
    if i < 0:
        raise InputError("the index must be a natural number")
    mu_v2 = substitute(mu, 0, Var(2))
    mu_i = substitute(mu, 0, numeral(i))
    prefix_i = Forall(2, Imp(Le(Succ(Var(2)), numeral(i)), mu_v2))
    prefix_v = Forall(2, Imp(Le(Succ(Var(2)), Var(0)), mu_v2))
    outer = And(Not(mu_i), prefix_i)
    inner = And(Not(mu), prefix_v)
    target = Eq(Var(0), numeral(i))

    h_out = T.hyp(outer)
    h_in = T.hyp(inner)
    toti = T.forall_elim(bank.tot(i), Var(0))

    low = Le(Var(0), numeral(i))
    h_low = T.hyp(low)
    dis = T.mp(T.forall_elim(bank.l7(i), Var(0)), h_low)
    cs = [Eq(Var(0), numeral(k)) for k in range(i + 1)]

    def low_branch(k: int, hek: T.Proof) -> T.Proof:
        if k == i:
            return hek
        gi = T.forall_elim(T.and_right(h_out), numeral(k))
        pos = T.mp(gi, bank.le(k + 1, i))
        lb = bank.leib(Not(mu), 0, Var(0), numeral(k))
        neg = T.mp(T.mp(lb, hek), T.and_left(h_in))
        return T.contradiction_to(pos, neg, target)

    b_low = T.discharge(_elim_cases(dis, cs, low_branch), low)

    high = Le(numeral(i), Var(0))
    h_high = T.hyp(high)
    d2 = T.mp(T.forall_elim(bank.l5(i), Var(0)), h_high)
    strict = Le(Succ(numeral(i)), Var(0))
    equal = Eq(numeral(i), Var(0))
    h_strict = T.hyp(strict)
    gv = T.forall_elim(T.and_right(h_in), numeral(i))
    pos = T.mp(gv, h_strict)
    b_strict = T.discharge(
        T.contradiction_to(pos, T.and_left(h_out), target), strict
    )
    h_equal = T.hyp(equal)
    b_equal = T.discharge(T.eq_sym(h_equal), equal)
    b_high = T.discharge(T.or_elim(d2, b_strict, b_equal), high)

    core = T.or_elim(toti, b_low, b_high)
    closed = T.gen(0, T.discharge(core, inner))
    return T.compile_proof(T.discharge(closed, outer))


def prove_sigma(
    sentence: Formula,
    budget: int = DEFAULT_BUDGET,
    bank: LemmaBank | None = None,
) -> Derivation:
    """A derivation of the closed true sentence from the bounded-or-
    existential fragment.  False sentences are refused outright; sentences
    the budget cannot settle raise the budget error."""
    bank = bank or LemmaBank()
    if free_vars(sentence):
        raise InputError("the sentence must be closed")
    if classify(sentence) not in SIGMA_CLASSES:
        raise InputError("outside the supported fragment")
    verdict = decide(sentence, budget)
    if verdict[0] is Truth.FALSE:
        raise RefusedError("the sentence is false; refusing to derive it")
    if verdict[0] is Truth.UNKNOWN:
        raise BudgetExhaustedError(
            f"truth not settled at witness budget {budget}", budget=budget
        )
    return T.compile_proof(bank.prove(sentence, verdict))


def refute_delta0(
    sentence: Formula,
    budget: int = DEFAULT_BUDGET,
    bank: LemmaBank | None = None,
) -> Derivation:
    """A derivation of the negation of a false closed bounded sentence."""
    bank = bank or LemmaBank()
    if free_vars(sentence):
        raise InputError("the sentence must be closed")
    if classify(sentence) is not FormulaClass.DELTA0:
        raise InputError("only bounded sentences are refuted")
    verdict = decide(sentence, budget)
    if verdict[0] is not Truth.FALSE:
        raise RefusedError("the sentence is not false; nothing to refute")
    return T.compile_proof(bank.prove(sentence, verdict))


# ------------------------------------------------------ naming decisions

@dataclass(frozen=True)
class NamingEvidence:
    """Outcome of deciding whether a formula provably names a number,
    with the derivation a reader or the kernel can check.

    kind is "names", "refuted", or "unknown".  For "names" the derivation
    concludes the naming equivalence; for "refuted" it concludes the
    negation, and witness records the instance that broke it.  It is a
    NamingProof's tree flattened; a search that only needs the decision
    built keeps the NamingProof and flattens nothing.
    """

    kind: str
    number: int
    witness: int | None
    derivation: Derivation | None
    reason: str | None = None


@dataclass(frozen=True)
class NamingProof:
    """A naming decision with its proof tree, not yet flattened.

    The fields are NamingEvidence's, with the tree in place of the
    derivation.  Every tactic checks the inference it builds, so a closed
    tree is a proof by construction; an open one raises here, as compiling
    it would.
    """

    kind: str
    number: int
    witness: int | None
    tree: T.Proof | None
    reason: str | None = None

    def __post_init__(self) -> None:
        if self.tree is not None:
            T.require_closed(self.tree)


def naming_statement(mu: Formula, i: int) -> Formula:
    return Forall(0, Iff(mu, Eq(Var(0), numeral(i))))


class NamingTable:
    """One formula's naming decision for every number at once.

    Classification and the syntactic bound on v0 are settled on
    construction, and so are the instance truths from 0 up to the second
    true instance (two refute every number) or else up to scan_hi (the
    bound, or the budget when there is none), read from the formula's
    SemanticNaming table.  ``kind(i)`` then reads the verdict off the table;
    an instance past the scan is evaluated only when asked for, which
    happens only when the scan ran to scan_hi, and remembered there.
    ``proof(i)`` builds the closed proof tree behind that verdict, and
    ``evidence(i)`` flattens it into a derivation, which only what is shown
    to a reader or to the kernel needs.
    """

    def __init__(self, mu: Formula, budget: int, bank: LemmaBank):
        self.mu = mu
        self.budget = budget
        self.bank = bank
        self.table = SemanticNaming(mu, budget)
        # set when every number is unknown, saying why
        self.reason: str | None = None
        self.bound: tuple[int, Callable[[T.Proof], T.Proof]] | None = None
        # the first two numbers mu holds at; two refute every number, one
        # refutes all but itself
        self._true_at: list[int] = []
        if classify(mu) is not FormulaClass.DELTA0:
            self.reason = "only bounded formulas are decided"
            return
        got = bank.find_bound(mu)
        if got is None:
            scan_hi = budget
        elif got[0] > budget:
            self.reason = f"bound {got[0]} exceeds budget {budget}"
            return
        else:
            scan_hi = got[0]
            self.bound = got
        truth = self.table.truth
        for j in range(scan_hi + 1):
            if truth(j) is Truth.TRUE:
                self._true_at.append(j)
                if len(self._true_at) == 2:
                    break

    def kind(self, i: int) -> str:
        """"names", "refuted" or "unknown", as ``proof(i).kind``."""
        if i < 0:
            raise InputError("the number must be natural")
        if self.reason is not None:
            return "unknown"
        if any(j != i for j in self._true_at) or self.table.truth(i) is not Truth.TRUE:
            return "refuted"
        return "unknown" if self.bound is None else "names"

    def evidence(self, i: int) -> NamingEvidence:
        """``proof(i)`` with its tree compiled into a derivation."""
        p = self.proof(i)
        derivation = None if p.tree is None else T.compile_proof(p.tree)
        return NamingEvidence(p.kind, p.number, p.witness, derivation, p.reason)

    def proof(self, i: int) -> NamingProof:
        """The proof tree of the naming equivalence at i or of its negation,
        or an honest unknown."""
        if i < 0:
            raise InputError("the number must be natural")
        if self.reason is not None:
            return NamingProof("unknown", i, None, None, self.reason)
        mu, budget, bank = self.mu, self.budget, self.bank
        statement = naming_statement(mu, i)

        def at(k: int) -> tuple[Formula, Verdict]:
            """mu's instance at v0 = k, with its verdict; the table keeps
            truths only, so a proof decides each instance it proves."""
            return substitute(mu, 0, numeral(k)), decide(mu, budget, {0: k})

        # a true instance other than i refutes the equivalence immediately,
        # bound or no bound
        bad = next((j for j in self._true_at if j != i), None)
        if bad is not None:
            h = T.hyp(statement)
            inst = T.forall_elim(h, numeral(bad))
            eqd = T.mp(T.iff_left(inst), bank.prove(*at(bad)))
            c = T.contradiction_to(eqd, bank.ne(bad, i), _C0)
            return NamingProof("refuted", i, bad, bank._refute(statement, c))
        if self.table.truth(i) is not Truth.TRUE:
            h = T.hyp(statement)
            inst = T.forall_elim(h, numeral(i))
            back = T.mp(T.iff_right(inst), T.eq_refl(numeral(i)))
            c = T.contradiction_to(back, bank.prove(*at(i)), _C0)
            return NamingProof("refuted", i, i, bank._refute(statement, c))
        if self.bound is None:
            return NamingProof(
                "unknown", i, None, None,
                "no syntactic bound on the free variable",
            )

        # mu holds at i and nowhere else below its bound: prove the equivalence
        m, bound_fn = self.bound
        mux = expand_bounded(mu)
        target = Eq(Var(0), numeral(i))
        h_mu = T.hyp(mux)
        up = bound_fn(h_mu)  # v0 <= m
        dis = T.mp(T.forall_elim(bank.l7(m), Var(0)), up)
        cs = [Eq(Var(0), numeral(k)) for k in range(m + 1)]

        def branch(k: int, hek: T.Proof) -> T.Proof:
            if k == i:
                return hek
            lb = bank.leib(mux, 0, Var(0), numeral(k))
            pos = T.mp(T.mp(lb, hek), h_mu)
            neg = bank.prove(*at(k))
            return T.contradiction_to(pos, neg, target)

        fwd = T.discharge(_elim_cases(dis, cs, branch), mux)
        h_eq = T.hyp(target)
        pk = bank.prove(*at(i))
        lb = bank.leib(mux, 0, numeral(i), Var(0))
        back = T.discharge(T.mp(T.mp(lb, T.eq_sym(h_eq)), pk), target)
        return NamingProof("names", i, None, T.gen(0, T.iff_intro(fwd, back)))


def names_provable(
    mu: Formula,
    i: int,
    budget: int = DEFAULT_BUDGET,
    bank: LemmaBank | None = None,
) -> NamingEvidence:
    """Decide the naming equivalence for a bounded formula, with evidence.

    Either a derivation of (A v0)(mu <-> v0 = i), or a derivation of its
    negation, or an honest unknown when no bound on v0 can be read off
    the formula (or it exceeds the budget).  Callers asking about many
    numbers for one formula should keep a NamingTable instead."""
    return NamingTable(mu, budget, bank or LemmaBank()).evidence(i)
