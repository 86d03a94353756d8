"""Grammar round-trips and rejection behavior."""

from __future__ import annotations

import gzip
import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import strategies as gen
from berrykit import parser
from berrykit.errors import InputError
from berrykit.parser import ParseError, _tokenize, parse, parse_formula, parse_term
from berrykit.proofs import from_json_lines, to_json_lines
from berrykit.cli import main
from berrykit.coding import decode, encode
from berrykit.syntax import Add, And, Eq, Iff, Imp, Or, Zero, expand_bounded, render


@settings(max_examples=120, deadline=None)
@given(gen.formulas())
def test_formula_round_trip(f):
    assert render(parse_formula(render(f))) == render(f)


@settings(max_examples=120, deadline=None)
@given(gen.terms())
def test_term_round_trip(t):
    assert render(parse_term(render(t))) == render(t)


def test_bulk_round_trip_seeded():
    rng = random.Random(20260822)
    for _ in range(500):
        f = gen.random_formula(rng)
        assert render(parse_formula(render(f))) == render(f)


def test_successor_grouping_regression():
    # "s s 0 + 0" is an addition of a numeral, not a successor of one
    t = parse_term("s s 0 + 0")
    assert render(t) == "s s 0 + 0"
    u = parse_term("s ( s 0 + 0 )")
    assert render(u) == "s ( s 0 + 0 )"
    assert render(t) != render(u)


def test_parse_dispatches_on_shape():
    assert render(parse("0 + 0")) == "0 + 0"
    assert render(parse("0 = 0")) == "0 = 0"


def test_parsed_bounded_forms_match_expansion():
    f = parse_formula("( A v0 ) ( ( s v0 <= s s s 0 ) -> ( v0 = 0 ) )")
    assert render(expand_bounded(f)) == render(f)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "0 =",
        "= 0",
        "0 = = 0",
        "( 0 = 0",
        "0 = 0 )",
        "v 0 = 0",
        "vx = 0",
        "0 <= <= 0",
        "A v0 ( 0 = 0 )",
        "( A v0 ) 0 = 0 )",
        "s = 0",
    ],
)
def test_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_formula(text)


def test_parse_error_is_input_error():
    with pytest.raises(InputError):
        parse_term("+ 0 0")


def test_error_position_points_at_offender():
    with pytest.raises(ParseError) as exc:
        parse_formula("0 = 0 & ( 0 = 0 )")
    # connectives demand parenthesized operands; the bare left side trips first
    assert "token" in str(exc.value).lower() or "expected" in str(exc.value).lower()


# --------------------------------------------------------- entry points

OPERAND, RELATION, END = ("(", "0", "s", "v<i>"), ("<=", "="), ("end of input",)


def _entry_outcome(fn, text):
    try:
        return repr(fn(text))
    except ParseError as err:
        return (err.position, str(err), err.expected)


def _error(position, message, expected=()):
    err = ParseError(position, message, expected)
    return (err.position, str(err), err.expected)


NO_END = _error(1, "unexpected 'end of input'", OPERAND)
ZERO = "Zero()"
EQ00 = "Eq(left=Zero(), right=Zero())"
SUM00 = "Add(left=Zero(), right=Zero())"

# text: what parse, parse_term and parse_formula give it
ENTRY_POINTS = {
    "": (_error(1, "empty input"), NO_END, NO_END),
    "   ": (_error(1, "empty input"), NO_END, NO_END),
    "0": (ZERO, ZERO, _error(2, "unexpected 'end of input'", RELATION)),
    "( 0 + 0 )": (SUM00, SUM00, _error(6, "unexpected 'end of input'", RELATION)),
    "0 = 0": (EQ00, _error(2, "unexpected '='", END), EQ00),
    "0 = 0 )": (_error(4, "unexpected ')'", END), _error(2, "unexpected '='", END),
                _error(4, "unexpected ')'", END)),
    "( 0 = 0": (_error(5, "unexpected 'end of input'", (")",)), _error(3, "unexpected '='", (")",)),
                _error(5, "unexpected 'end of input'", (")",))),
    "0 + + 0": (_error(2, "unexpected '+'", RELATION), _error(2, "unexpected '+'", END),
                _error(2, "unexpected '+'", RELATION)),
    "~ 0": (_error(2, "unexpected '0'", ("(",)), _error(1, "unexpected '~'", OPERAND),
            _error(2, "unexpected '0'", ("(",))),
    "( A v0 ) v0 = 0": (_error(5, "unexpected 'v0'", ("(",)), _error(2, "unexpected 'A'", OPERAND),
                        _error(5, "unexpected 'v0'", ("(",))),
    "( 0 = 0 ) <-> ( 0 + 0 )": (_error(11, "unexpected ')'", RELATION),
                                _error(3, "unexpected '='", (")",)),
                                _error(11, "unexpected ')'", RELATION)),
    "v0 = $": (_error(3, "unknown token '$'"),) * 3,
}


@pytest.mark.parametrize("text", list(ENTRY_POINTS))
def test_entry_points_keep_their_results(text):
    memo: dict = {}
    parse_formula("( 0 = 0 ) & ( v1 <= 0 )", memo)
    got = [_entry_outcome(fn, text) for fn in (parse, parse_term, parse_formula)]
    assert got == list(ENTRY_POINTS[text])
    assert _entry_outcome(lambda t: parse_formula(t, memo), text) == got[2]


# every token, one that does not tokenize, and two variables
ENTRY_TOKENS = ["0", "s", "v0", "v1", "+", "*", "=", "<=", "~", "&", "|", "->", "<->",
                "(", ")", "A", "E", "x"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(ENTRY_TOKENS), max_size=14))
def test_parse_is_a_formula_else_a_term_else_the_formula_error(toks):
    # the term parser never fails deeper than the formula parser: a text
    # that does not start with `~` or a quantifier prefix is tried as an
    # atom, which starts with a term, and one that does fails as a term at
    # its first or second token
    text = " ".join(toks)
    formula = _entry_outcome(parse_formula, text)
    term = _entry_outcome(parse_term, text)
    if not toks:
        expected = _error(1, "empty input")
    else:
        expected = term if isinstance(formula, tuple) and isinstance(term, str) else formula
    assert _entry_outcome(parse, text) == expected


# ------------------------------------------------ tokenizer and shared memo

def _scan_outcome(fn, text):
    try:
        return fn(text)
    except ParseError as err:
        return ("error", str(err), err.position)


UNSPACED = ["v0=0", "ss0=s0", "(A v1)(v1=v1)", "(v0+v1)*s0<=v12", "~(0=0)->(0=0)"]
UNKNOWN = ["0 = x", "v = 0", "0 < 0", "0 <- 0", "0 = 0 $$$$$$$$$$$$$$$$", "vv1 = 0",
           "0 = 0", "0 = 0 -", "٣ = 0", "v٣ = 0"]


@pytest.mark.parametrize("text", UNSPACED + UNKNOWN + ["", "   ", "0 = 0"])
def test_tokenizer_matches_character_loop(text):
    assert _scan_outcome(_tokenize, text) == _scan_outcome(oracles.scan_tokens, text)


@settings(max_examples=120, deadline=None)
@given(gen.formulas())
def test_tokenizer_matches_character_loop_on_rendered(f):
    text = render(f)
    assert _tokenize(text) == oracles.scan_tokens(text)
    unspaced = text.replace(" ", "")
    assert _scan_outcome(_tokenize, unspaced) == _scan_outcome(oracles.scan_tokens, unspaced)


def test_memo_shares_equal_subformulas():
    memo: dict = {}
    a = parse_formula("( 0 = 0 ) -> ( ( v0 = 0 ) & ( 0 = 0 ) )", memo)
    b = parse_formula("( v0 = 0 ) & ( 0 = 0 )", memo)
    assert a.right is b
    assert a.left is b.right
    assert parse_formula("0 = 0", memo) is a.left


def test_memo_gives_the_parse_without_it():
    rng = random.Random(20261018)
    memo: dict = {}
    for _ in range(300):
        text = render(gen.random_formula(rng))
        assert render(parse_formula(text, memo)) == text
        assert parse_formula(text, memo) is parse_formula(text)


@pytest.mark.parametrize(
    "text",
    [
        "( 0 = 0 ) & ( 0 = 0",
        "( 0 = 0 ) & ( 0 = 0 ) )",
        "( ( 0 = 0 ) & ( 0 = 0 ) ) |",
        "( v0 = 0 ) = 0",
        "( 0 + 0 ) & ( 0 = 0 )",
        "( A v0 ) ( 0 = 0 ) ( 0 = 0 )",
        ") 0 = 0 (",
    ],
)
def test_memo_keeps_error_text(text):
    memo: dict = {}
    parse_formula("( ( 0 = 0 ) & ( 0 = 0 ) ) -> ( v0 = 0 )", memo)
    assert _scan_outcome(lambda t: parse_formula(t, memo), text) == _scan_outcome(
        parse_formula, text
    )
    assert text not in memo


# ------------------------------------------ reading by raw slices (memo path)

FIXTURES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"


@pytest.mark.parametrize("name", ["naming_v0_5", "naming_v0_10"])
def test_fixture_lines_read_as_without_memo(name):
    with gzip.open(FIXTURES / f"{name}.jsonl.gz", "rt", encoding="utf-8") as fh:
        data = fh.read()
    lines = data.splitlines()
    d = from_json_lines(lines)
    assert len(d) == len(lines)
    for line, step in zip(lines, d.steps):
        assert step.formula is parse_formula(json.loads(line)["f"])
    assert "".join(line + "\n" for line in to_json_lines(d)) == data


def _split_key(m):
    return None if m is None else (m.start(), m.group(1))


def _assert_split_agrees(text):
    """`_split` and the candidate loop agree on text and on every operand
    slice the reading path would cut from it."""
    todo = [text]
    while todo:
        text = todo.pop()
        m = parser._split(text)
        assert _split_key(m) == _split_key(oracles.split_reference(text)), text
        if m is not None:
            todo += [text[2:m.start()], text[m.end():-2]]


def test_split_agrees_on_fixture_texts(monkeypatch):
    seen = []
    split = parser._split
    monkeypatch.setattr(parser, "_split", lambda text: seen.append(text) or split(text))
    for name in ("naming_v0_5", "naming_v0_10"):
        with gzip.open(FIXTURES / f"{name}.jsonl.gz", "rt", encoding="utf-8") as fh:
            from_json_lines(fh)
    monkeypatch.undo()
    assert len(seen) > 10_000
    for text in seen:
        assert _split_key(parser._split(text)) == _split_key(oracles.split_reference(text))


@settings(max_examples=300, deadline=None)
@given(gen.formulas(24))
def test_split_agrees_on_renderings(f):
    _assert_split_agrees(render(f))


def _deep_chains(depth):
    """A left-nested and a right-nested `->` chain, depth connectives each."""
    atom = "v0 = 0"
    return ("( " * depth + atom + f" ) -> ( {atom} )" * depth,
            f"( {atom} ) -> ( " * depth + atom + " )" * depth)


def test_split_of_deep_chains_is_linear():
    for depth in (5_000, 50_000):
        left, right = _deep_chains(depth)
        assert _split_key(parser._split(left)) == (len(left) - 16, "->")
        assert _split_key(parser._split(right)) == (8, "->")
        for text in (left, right):
            assert _split_key(parser._split(text)) == _split_key(oracles.split_reference(text))
    # best of several interleaved runs, so a stall of the host is not counted
    best = {5_000: float("inf"), 50_000: float("inf")}
    for _ in range(5):
        for depth in best:
            texts = _deep_chains(depth)
            start = time.perf_counter()
            for text in texts:
                parser._split(text)
            best[depth] = min(best[depth], time.perf_counter() - start)
    assert best[50_000] <= 15 * best[5_000], best


def _outcome(text, memo=None):
    try:
        return parse_formula(text, memo)
    except ParseError as err:
        return ("error", str(err), err.position)


def _malformed(text: str, rng: random.Random) -> list[str]:
    """Variants of a rendered formula, most of them malformed."""
    toks = text.split(" ")
    out = []
    for paren in "()":
        spots = [i for i, t in enumerate(toks) if t == paren]
        if spots:
            i = rng.choice(spots)
            out.append(" ".join(toks[:i] + toks[i + 1:]))
            out.append(" ".join(toks[:i] + [paren] + toks[i:]))
    conns = [i for i, t in enumerate(toks) if t in ("&", "|", "->", "<->")]
    if conns:
        i = rng.choice(conns)
        for other in ("&", "<->", "=", "~", "A"):
            out.append(" ".join(toks[:i] + [other] + toks[i + 1:]))
    i = rng.randrange(len(toks) + 1)
    out.append(" ".join(toks[:i] + [rng.choice(["x", "v", "<", "-", "$"])] + toks[i:]))
    for cut in (1, 2, 3, len(toks) // 3):
        out.append(" ".join(toks[:-cut] + [")"]))
        out.append(" ".join(toks[:-cut]))
    return out


def _respaced(text: str, rng: random.Random) -> list[str]:
    return [
        "  ".join(text.split(" ")),
        "\t".join(text.split(" ")),
        " " + text + " ",
        "( " + text + " )",
        "( ( " + text + " ) )",
        "".join(rng.choice((" ", "  ", "\t")) + t for t in text.split(" ")),
    ]


@settings(max_examples=150, deadline=None)
@given(gen.formulas(), gen.formulas(), st.sampled_from([And, Or, Imp, Iff]),
       st.randoms(use_true_random=False))
def test_known_left_operand_reads_as_without_memo(a, b, conn, rng):
    a, b = expand_bounded(a), expand_bounded(b)  # what their texts read as
    f = conn(a, b)
    text = render(f)
    memo: dict = {}
    assert parse_formula(render(a), memo) is a
    assert parse_formula(text, memo) is f
    for variant in _malformed(text, rng) + _respaced(text, rng):
        for fresh in ({render(a): a}, {render(a): a, render(b): b}, memo):
            got = _outcome(variant, fresh)
            assert got == _outcome(variant), variant
            if isinstance(got, tuple):
                assert variant not in fresh
                try:
                    oracles.scan_tokens(variant)
                except ParseError as err:
                    assert got == ("error", str(err), err.position)


@settings(max_examples=150, deadline=None)
@given(gen.formulas(12), st.randoms(use_true_random=False))
def test_split_of_a_malformed_text_is_a_reference_split(f, rng):
    # the candidate loop may split a malformed text after its first group
    # has closed, where `_split` does not; a split `_split` finds with a
    # nonempty X, the loop finds too
    text = render(f)
    for variant in _malformed(text, rng) + _respaced(text, rng):
        m = parser._split(variant)
        if m is not None and m.start() >= 2:
            assert _split_key(m) == _split_key(oracles.split_reference(variant)), variant


def test_deep_negation_nest_reads_with_a_memo():
    # the memo holds raw texts only, so a deep `~` nest is tokenized once and
    # read in the negation loop, whatever the memo already knows
    depth = 50_000
    body = "( v0 = 0 ) -> ( 0 = 0 )"
    text = "~ ( " * depth + body + " )" * depth
    memo: dict = {}
    inner = parse_formula(body, memo)
    f = parse_formula(text, memo)
    assert f is parse_formula(text)
    for _ in range(depth):
        f = f.body
    assert f is inner


def test_deep_right_nested_chain_reads_without_recursion():
    depth = 3000
    last = "v0 = 0"

    def lines():
        nonlocal last
        yield json.dumps({"i": 0, "f": last, "rule": "axiom"})
        for i in range(1, depth + 1):
            last = f"( v0 = 0 ) -> ( {last} )"
            yield json.dumps({"i": i, "f": last, "rule": "axiom"})

    d = from_json_lines(lines())
    assert len(d) == depth + 1
    assert render(d.conclusion) == last
    f = left = d.steps[0].formula
    for _ in range(depth):
        f = Imp(left, f)
    assert d.conclusion is f
    # the last line alone: its right spine is walked, not recursed into
    alone = from_json_lines([json.dumps({"f": "v0 = 0", "rule": "axiom"}),
                             json.dumps({"f": last, "rule": "axiom"})])
    assert alone.conclusion is f


# ------------------------------------------------------ parsing time by depth

POLY_DEPTH = 24


def _left_nested_sum_equation(depth):
    s = Zero()
    for _ in range(depth):
        s = Add(s, Zero())
    return Eq(s, s)


def _run_eq_refl_check(text, tmp_path):
    path = tmp_path / "eq_refl.jsonl"
    path.write_text(json.dumps({"i": 0, "f": text, "rule": "schema", "name": "eq_refl"}) + "\n")
    return main(["check-proof", str(path)])


@pytest.mark.parametrize("reader", ["parse_formula", "parse", "redundant", "decode", "check-proof"])
def test_parsing_is_polynomial_in_the_nesting_depth(reader, monkeypatch, tmp_path, capsys):
    # each parenthesized group is parsed as a formula once, so the parser
    # makes few formula calls; an exponential one fails at the bound fast
    f = _left_nested_sum_equation(POLY_DEPTH)
    text = render(f)
    bound, calls = 8 * POLY_DEPTH ** 2, 0
    formula = parser._Parser.formula

    def counted(p):
        nonlocal calls
        calls += 1
        if calls > bound:
            raise AssertionError(f"more than {bound} formula calls")
        return formula(p)

    monkeypatch.setattr(parser._Parser, "formula", counted)
    start = time.perf_counter()
    match reader:
        case "parse_formula":
            assert parse_formula(text) is f
        case "parse":
            assert parse(text) is f
        case "redundant":
            assert parse_formula("( " * POLY_DEPTH + "0 = 0" + " )" * POLY_DEPTH) is Eq(Zero(), Zero())
        case "decode":
            assert decode(encode(f)) is f
        case "check-proof":
            assert _run_eq_refl_check(text, tmp_path) == 0
            assert capsys.readouterr().out.startswith("valid  (1 steps")
    assert calls > 0
    assert time.perf_counter() - start < 1.0
