"""Argument-skeleton reports for five limitative results.

Each report is an ordered claim list.  A claim is either Checked, with
machine-replayable evidence produced on the spot, or Asserted, a
meta-level step at a scale no desk can reach, labeled with a classical
citation.  The two kinds are never mixed: nothing here pretends to
verify the unverifiable.

Only demo 1 reads the backend: its Berry search runs on it.  Demos 2 to 5
record it in their report's params and run the same way on either.  The
enumeration cap bounds every demo's scale, and demos 1 and 4 search at it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .berry import (
    ConcretePhi,
    MockPhi,
    berry_number,
    certify_bounds,
    enumerate_formulas,
    refute_witnesses,
)
from .coding import encode
from .errors import InputError, RefusedError
from .generators import LemmaBank, prove_sigma, refute_delta0
from .parser import parse_formula
from .proofs import is_valid
from .relations import b_rel, lh, nm, prc
from .semantics import BACKENDS, DEFAULT_CAP, SEARCH_BUDGET, classify, eval_delta0
from .syntax import (
    And,
    BForall,
    Eq,
    Le,
    Succ,
    Var,
    Zero,
    is_closed,
    numeral,
    render,
)

_GODEL = "K. Godel (1931), Monatshefte Math. Phys. 38, 173-198"
_TARSKI = "A. Tarski (1936), Studia Philosophica 1, 261-405"
_CHURCH = "A. Church (1936), Amer. J. Math. 58, 345-363"
_ROSSER = "J. B. Rosser (1936), J. Symbolic Logic 1, 87-91"


@dataclass(frozen=True)
class Claim:
    statement: str
    status: str
    evidence: dict | None = None
    citation: str | None = None

    def to_json_obj(self) -> dict:
        out: dict = {"statement": self.statement, "status": self.status}
        if self.evidence is not None:
            out["evidence"] = self.evidence
        if self.citation is not None:
            out["citation"] = self.citation
        return out


@dataclass(frozen=True)
class DemoReport:
    corollary: int
    title: str
    backend: str
    budget: int
    scale: int
    claims: tuple[Claim, ...]
    summary: str

    def to_json_obj(self) -> dict:
        return {
            "v": 1,
            "corollary": self.corollary,
            "title": self.title,
            "params": {
                "backend": self.backend,
                "budget": self.budget,
                "scale": self.scale,
            },
            "claims": [c.to_json_obj() for c in self.claims],
            "summary": self.summary,
        }


# what a demo builds: its title, its claims and its summary
_Parts = tuple[str, tuple[Claim, ...], str]


def checked(statement: str, evidence: dict) -> Claim:
    return Claim(statement, "checked", evidence=evidence)


def asserted(statement: str, citation: str) -> Claim:
    return Claim(statement, "asserted", citation=citation)


def _closed_fragment(scale: int) -> list:
    return [f for f in enumerate_formulas(scale + 1, cap=scale + 1) if is_closed(f)]


def _demo1(backend: str, budget: int, scale: int, cap: int) -> _Parts:
    report = berry_number(scale, backend, budget, cap)
    n = report.n_value
    rel = b_rel(n, scale, budget, cap)
    cert_c = certify_bounds(ConcretePhi(Eq(Var(0), Var(1))))
    cert_m = certify_bounds(MockPhi(length=200, v1_occurrences=20))
    claims = (
        checked(
            f"the least number named by no formula shorter than {scale} is {n}",
            {
                "n": n,
                "formula_count": report.formula_count,
                "named_below": [list(r.witnesses[:2]) for r in report.records[:-1]],
            },
        ),
        checked(
            f"every naming candidate shorter than {scale} is refuted for {n}"
            " over the base theory",
            {"holds": rel.holds, "reason": rel.reason},
        ),
        checked(
            "the template instantiated at its own budget term stays strictly"
            " shorter than the budget value, at a concrete base formula and at"
            " the worst declared size",
            {
                "concrete": cert_c.to_json_obj(),
                "declared": cert_m.to_json_obj(),
            },
        ),
        asserted(
            "with the naming relation written inside arithmetic, the same"
            " construction yields a true sentence that no sound axiomatizable"
            " theory proves; soundness therefore forces incompleteness",
            _GODEL + "; via the Berry-paradox argument",
        ),
    )
    ok = rel.holds is False and cert_c.holds and cert_m.holds
    return (
        "soundness forces incompleteness",
        claims,
        f"desk-scale skeleton complete: n_{scale} = {n}, exhaustion and size"
        f" certificates {'hold' if ok else 'FAILED'}",
    )


def _demo2(backend: str, budget: int, scale: int, cap: int) -> _Parts:
    bank = LemmaBank()
    fragment = _closed_fragment(scale)
    rows = []
    agree = True
    for s in fragment:
        true = eval_delta0(s)
        provable = False
        refutable = False
        steps_p = steps_r = 0
        try:
            d = prove_sigma(s, budget, bank)
            provable = is_valid(d, bank.theory)
            steps_p = len(d)
        except RefusedError:
            pass
        try:
            d = refute_delta0(s, budget, bank)
            refutable = is_valid(d, bank.theory)
            steps_r = len(d)
        except RefusedError:
            pass
        if provable != true or refutable != (not true):
            agree = False
        rows.append(
            {
                "sentence": render(s),
                "true": true,
                "provable": provable,
                "refutable": refutable,
                "steps": steps_p or steps_r,
            }
        )
    claims = (
        checked(
            f"the decidable fragment (closed sentences shorter than {scale + 1})"
            f" has {len(fragment)} members",
            {"count": len(fragment)},
        ),
        checked(
            "on that fragment, provability coincides with truth and refutability"
            " with falsity, every verdict backed by a checked derivation",
            {"agree": agree, "rows": rows},
        ),
        asserted(
            "no formula of the language defines the set of codes of true"
            " sentences; a truth definition would make the coincidence global"
            " and contradict itself on a diagonal sentence",
            _TARSKI,
        ),
    )
    return (
        "truth is not definable",
        claims,
        f"fragment coincidence {'holds' if agree else 'FAILED'} on"
        f" {len(fragment)} sentences",
    )


def _demo3(backend: str, budget: int, scale: int, cap: int) -> _Parts:
    bank = LemmaBank()
    toy = BForall(2, numeral(5), Le(Var(2), numeral(7)))
    d_toy = prove_sigma(toy, budget, bank)
    toy_ok = is_valid(d_toy, bank.theory)
    mu = And(Eq(Succ(Var(2)), Var(0)), Le(Var(1), Var(1)))
    upto = 10
    ders = refute_witnesses(mu, 0, numeral(7), upto, budget, bank)
    wit_ok = all(is_valid(d, bank.theory) for d in ders)
    claims = (
        checked(
            "the bounded-universal toy instance lies in the provable-Σ class"
            " and carries a checked derivation",
            {
                "sentence": render(toy),
                "class": classify(toy).name,
                "steps": len(d_toy),
                "valid": toy_ok,
            },
        ),
        checked(
            f"every witness instance 0..{upto} of the chosen bounded formula"
            " is refuted, each with its own checked derivation",
            {
                "mu": render(mu),
                "count": len(ders),
                "steps": [len(d) for d in ders],
                "all_valid": wit_ok,
            },
        ),
        asserted(
            "a theory consistent in the omega sense cannot prove the"
            " existential claim while refuting every numeral instance of it;"
            " the target sentence therefore stays unprovable",
            _GODEL,
        ),
    )
    return (
        "omega-consistency blocks the witness route",
        claims,
        f"toy Σ derivation ({len(d_toy)} steps) and {len(ders)} witness"
        f" refutations {'check out' if toy_ok and wit_ok else 'FAILED'}",
    )


def _demo4(backend: str, budget: int, scale: int, cap: int) -> _Parts:
    bank = LemmaBank()
    candidates = [
        Eq(Var(0), Zero()),
        Eq(Var(0), numeral(2)),
        Eq(Var(0), Var(0)),
        Le(Var(0), Zero()),
    ]
    rows = []
    all_ok = True
    for i in range(3):
        for mu in candidates:
            v = nm(i, encode(mu), budget, bank)
            ok = v.holds is not None and (
                v.derivation is None or is_valid(v.derivation, bank.theory)
            )
            all_ok = all_ok and ok
            rows.append(
                {
                    "number": i,
                    "mu": render(mu),
                    "holds": v.holds,
                    "evidence_ok": ok,
                }
            )
    rel = b_rel(0, scale, budget, cap, bank)
    conj = (
        rel.holds is True
        and nm(0, encode_witness := _parse_witness(rel.witness), budget,
               bank).holds is True
        and lh(encode_witness, scale)
    )
    claims = (
        checked(
            "naming verdicts over a finite candidate table are all decided,"
            " every positive and negative carrying checked evidence",
            {"rows": rows, "all_decided": all_ok},
        ),
        checked(
            "a positive short-namer verdict re-verifies its defining"
            " conjunction: the witness formula names the number and is short",
            {
                "number": 0,
                "cutoff": scale,
                "witness": rel.witness,
                "conjunction_holds": conj,
            },
        ),
        asserted(
            "no algorithm decides provability for the full language; a"
            " decision procedure would decide these relations at every scale"
            " and solve the halting-style diagonal",
            _CHURCH,
        ),
    )
    return (
        "provability is undecidable",
        claims,
        f"{len(rows)} table entries decided with valid evidence:"
        f" {'yes' if all_ok and conj else 'FAILED'}",
    )


def _parse_witness(witness: str | int | None):
    if not isinstance(witness, str):
        raise InputError("expected a rendered witness formula")
    return encode(parse_formula(witness))


def _demo5(backend: str, budget: int, scale: int, cap: int) -> _Parts:
    bank = LemmaBank()
    fragment = _closed_fragment(scale)
    rows = []
    complementary = True
    for s in fragment:
        code = encode(s)
        v = prc(code, budget, bank)
        provable = False
        try:
            d = prove_sigma(s, budget, bank)
            provable = is_valid(d, bank.theory)
        except RefusedError:
            pass
        refut_ok = v.holds is True and v.derivation is not None and is_valid(
            v.derivation, bank.theory
        )
        if not (refut_ok ^ provable):
            complementary = False
        rows.append(
            {
                "sentence": render(s),
                "prc": v.holds,
                "provable": provable,
            }
        )
    claims = (
        checked(
            "on an exhaustively decidable fragment, every sentence is either"
            " certified refutable or certified provable, never both and never"
            " neither",
            {"count": len(fragment), "complementary": complementary, "rows": rows},
        ),
        asserted(
            "for consistent axiomatizable extensions the two sets cannot be"
            " separated by any recursive set, so refutability-together-with-"
            "non-sentences is undecidable as well",
            _ROSSER,
        ),
    )
    return (
        "refutability complements provability on decidable ground",
        claims,
        f"complementation {'holds' if complementary else 'FAILED'} on"
        f" {len(fragment)} sentences",
    )


_DEMOS = {1: _demo1, 2: _demo2, 3: _demo3, 4: _demo4, 5: _demo5}


def run_demo(
    corollary: int,
    backend: str = "semantic",
    budget: int = SEARCH_BUDGET,
    scale: int = 6,
    cap: int = DEFAULT_CAP,
) -> DemoReport:
    """Build one report, executing every desk-checkable step now.  `scale`
    may not pass `cap`, the enumeration cap its searches run at; the report
    does not record it."""
    if corollary not in _DEMOS:
        raise InputError("demos are numbered 1 through 5")
    if scale < 0:
        raise InputError(f"scale {scale} is negative; it must be a natural number")
    if scale > cap:
        raise InputError(
            f"scale {scale} is past the feasibility cap; the fragment explodes"
            f" combinatorially, stay at {cap} or below"
        )
    if backend not in BACKENDS:
        raise InputError(f"unknown backend {backend!r}")
    title, claims, summary = _DEMOS[corollary](backend, budget, scale, cap)
    return DemoReport(corollary, title, backend, budget, scale, claims, summary)


def replay_demo(obj: dict, cap: int = DEFAULT_CAP) -> tuple[bool, list[str]]:
    """Re-run a serialized report's demo, at `cap`, and diff the claims.

    Every checked claim must reproduce exactly; asserted claims must match
    verbatim.  Returns the mismatch descriptions, empty on success.
    """
    if not isinstance(obj, dict) or obj.get("v") != 1 or type(obj["v"]) is not int:
        raise InputError("not a version-1 report object")
    try:
        cor, params = obj["corollary"], obj["params"]
        if not isinstance(params, dict):
            raise InputError("report field 'params' must be an object")
        backend, budget, scale = params["backend"], params["budget"], params["scale"]
    except KeyError as err:
        raise InputError(f"report object missing field {err}") from err
    # type(), not isinstance: a JSON true is not the integer 1
    for name, value, want in (
        ("corollary", cor, int),
        ("backend", backend, str),
        ("budget", budget, int),
        ("scale", scale, int),
    ):
        if type(value) is not want:
            kind = "an integer" if want is int else "a string"
            raise InputError(f"report field {name!r} must be {kind}")
    old_claims = obj.get("claims", [])
    if not isinstance(old_claims, list) or not all(
        isinstance(a, dict) for a in old_claims
    ):
        raise InputError("report field 'claims' must be a list of objects")
    new = run_demo(cor, backend, budget, scale, cap).to_json_obj()
    mismatches: list[str] = []
    if len(old_claims) != len(new["claims"]):
        mismatches.append(
            f"claim count {len(old_claims)} differs from fresh {len(new['claims'])}"
        )
    for pos, (a, b) in enumerate(zip(old_claims, new["claims"])):
        if a != b:
            mismatches.append(f"claim {pos} differs: {a.get('statement', '?')!r}")
    if obj.get("summary") != new["summary"]:
        mismatches.append("summary differs")
    return (not mismatches, mismatches)
