"""Grammar, parser, printer: examples, precedence, errors, roundtrip."""

import json
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ladder_forge import opalgebra as oa
from ladder_forge import opdsl
from ladder_forge.generators import build_T, casimir, sp4_bilinears

from _gen import operators, random_operator
from test_golden_render import GOLDEN_PATH, corpus


class TestParseExamples:
    def test_ladder_display_matches_builder(self):
        text = "exp(i*eta)*(-r*d/dr + i*d/deta + s*r)"
        assert opdsl.parse(text) == build_T()["Tplus"]

    def test_weyl_relation_from_text(self):
        assert opdsl.parse("d/dr*r - r*d/dr") == oa.identity()

    def test_sqrt_square(self):
        assert opdsl.parse("sqrt(r)*sqrt(r)") == oa.r_power(1)

    def test_rational_literal(self):
        assert opdsl.parse("2/3*r") == Fraction(2, 3) * oa.r_power(1)

    def test_formal_unit(self):
        assert opdsl.parse("u*u") == Fraction(1, 2) * oa.s_sym(-1)


class TestRenderExamples:
    def test_canonical_fixed_point(self):
        assert opdsl.render(opdsl.parse("r*d/dr")) == "r*d/dr"

    def test_zero(self):
        assert opdsl.render(oa.zero()) == "0"

    def test_number_generator(self):
        assert opdsl.render(build_T()["T0"]) == "-i*d/deta"


class TestPrecedence:
    def test_power_binds_tighter_than_unary_minus(self):
        assert opdsl.parse("-r^2") == -oa.r_power(2)

    def test_power_binds_tighter_than_product(self):
        assert opdsl.parse("2*r^3") == 2 * oa.r_power(3)

    def test_unary_minus_inside_product(self):
        assert opdsl.parse("r*-s") == -(oa.s_sym() * oa.r_power(1))

    def test_unary_minus_before_parenthesised_sum(self):
        value = opdsl.parse("-(r + d/dr)")
        assert value == -(oa.r_power(1) + oa.deriv("r"))
        assert opdsl.parse(opdsl.render(value)) == value

    def test_product_before_sum(self):
        expected = oa.s_sym() * oa.r_power(1) + oa.imag()
        assert opdsl.parse("s*r + i") == expected

    def test_negative_exponent(self):
        assert opdsl.parse("r^-2") == oa.r_power(-2)

    @pytest.mark.parametrize("base,exponent,expected", [
        ("u", -1, 2 * oa.s_sym() * oa.u_sym()),
        ("(2*s*sqrt(r))", -2, Fraction(1, 4) * oa.s_sym(-2) * oa.r_power(-1)),
        ("exp(i*eta)", -1, oa.phase("eta", -1)),
    ])
    def test_negative_exponent_inverts(self, base, exponent, expected):
        value = opdsl.parse(f"{base}^{exponent}")
        assert value == expected
        assert value * opdsl.parse(base) ** -exponent == oa.identity()

    @pytest.mark.parametrize("base", [
        "3*s^2*u*sqrt(r)*exp(i*eta)",
        "2/3*i*u*s^-1*r^-3*exp(-2*i*alpha)*exp(i*beta)",
        "(1/2 - 5*i)*sqrt(r)^-1*exp(3*i*beta)",
        "u",
    ])
    def test_atom_power_closed_form(self, base):
        atom, inverse = opdsl.parse(base), opdsl.parse(f"({base})^-1")
        assert atom * inverse == oa.identity()
        for e in range(-9, 10):
            expected = oa.identity()
            for _ in range(abs(e)):
                expected = expected * (atom if e > 0 else inverse)
            assert opdsl.parse(f"({base})^{e}") == expected, e

    def test_parenthesized_power(self):
        expected = (oa.deriv("r") + oa.identity()) ** 2
        assert opdsl.parse("(d/dr + 1)^2") == expected

    def test_phase_windings(self):
        assert opdsl.parse("exp(i*2*eta)") == oa.phase("eta", 2)
        assert opdsl.parse("exp(-i*beta)") == oa.phase("beta", -1)


# Each entry seeds one error; the reported offset must fall inside the
# offending lexeme.
ERROR_CORPUS = [
    ("r ** 2", opdsl.OperatorSyntaxError, 3, "*"),
    ("r $ s", opdsl.OperatorLexError, 2, "$"),
    ("exp(eta)", opdsl.OperatorSyntaxError, 4, "eta"),
    ("exp(i*gamma)", opdsl.OperatorSyntaxError, 6, "gamma"),
    ("exp(i*eta*eta)", opdsl.OperatorSyntaxError, 10, "eta"),
    ("r +", opdsl.OperatorSyntaxError, 3, ""),
    ("(r", opdsl.OperatorSyntaxError, 2, ""),
    ("2r", opdsl.OperatorSyntaxError, 1, "r"),
    ("q*r", opdsl.OperatorSyntaxError, 0, "q"),
    ("d/dx", opdsl.OperatorLexError, 1, "/"),
    ("", opdsl.OperatorSyntaxError, 0, ""),
    ("1/0*r", opdsl.OperatorSyntaxError, 0, "1/0"),
    ("r^1/2", opdsl.OperatorSyntaxError, 2, "1/2"),
    ("sqrt(s)", opdsl.OperatorSyntaxError, 5, "s"),
    ("exp(2*3*i*eta)", opdsl.OperatorSyntaxError, 6, "3"),
    ("exp(1/2*i*eta)", opdsl.OperatorSyntaxError, 4, "1/2"),
    ("exp(i*i*eta)", opdsl.OperatorSyntaxError, 6, "i"),
    # past the interpreter's 4300-digit int string limit
    pytest.param("1" * 5000 + "*r", opdsl.OperatorSyntaxError, 0, "1" * 5000, id="5000-digit-number"),
    pytest.param("r^" + "1" * 5000, opdsl.OperatorSyntaxError, 2, "1" * 5000, id="5000-digit-exponent"),
    # around a factor lexeme such as r^2 or exp(i*eta), read in one scan match
    ("r^2^3", opdsl.OperatorSyntaxError, 3, "^"),
    ("r^2 ^3", opdsl.OperatorSyntaxError, 4, "^"),
    ("exp(i*eta)^2^2", opdsl.OperatorSyntaxError, 12, "^"),
    ("sqrt(r)^1/2", opdsl.OperatorSyntaxError, 8, "1/2"),
    ("d/dr^-2", opdsl.OperatorSyntaxError, 4, "^"),
    ("u^-1*d/deta^-1", opdsl.OperatorSyntaxError, 11, "^"),
    ("exp(i*eta) exp(i*eta)", opdsl.OperatorSyntaxError, 11, "exp"),
    ("exp(i*eta", opdsl.OperatorSyntaxError, 9, ""),
    ("d/dr^-1000", opdsl.OperatorSyntaxError, 4, "^"),
    ("sqrt(r^2)", opdsl.OperatorSyntaxError, 6, "^"),
    ("exp(i*eta*r^2)", opdsl.OperatorSyntaxError, 10, "r"),
    ("r^s^2", opdsl.OperatorSyntaxError, 2, "s"),
]


@pytest.mark.parametrize("text,exc_type,position,lexeme", ERROR_CORPUS)
def test_error_positions(text, exc_type, position, lexeme):
    with pytest.raises(exc_type) as info:
        opdsl.parse(text)
    err = info.value
    assert err.position == position
    if lexeme:
        assert text[err.position : err.position + len(lexeme)] == lexeme


@pytest.mark.parametrize("text,message", [
    ("1/0*r", "number '1/0' has a zero denominator at position 0"),
    ("2*0/00", "number '0/00' has a zero denominator at position 2"),
    ("r^1/2", "power exponent '1/2' is not an integer at position 2"),
    ("sqrt(s)", "found 's' at position 5 (expected 'r')"),
    ("exp(2*3*i*eta)", "repeated integer factor in phase argument at position 6"),
    ("exp(1/2*i*eta)", "phase winding '1/2' is not an integer at position 4"),
    ("exp(i*i*eta)", "repeated i in phase argument at position 6"),
    ("exp(i*eta*eta)", "repeated angle name in phase argument at position 10"),
    ("exp(-2*eta)", "phase argument must contain i times one angle name at position 4"),
    ("r^-x", "found 'x' at position 3 (expected integer exponent)"),
    ("x", "unknown symbol 'x' at position 0 (expected i or s or u or r or sqrt or exp)"),
    ("r)", "trailing input ')' at position 1 (expected '+' or '-' or '*' or end of input)"),
    ("d/deta^-1", "cannot invert an operator containing derivatives at position 6"),
    ("0^-3", "cannot invert zero at position 1"),
    ("r^2^3", "trailing input '^' at position 3 (expected '+' or '-' or '*' or end of input)"),
    ("r^2 ^3", "trailing input '^' at position 4 (expected '+' or '-' or '*' or end of input)"),
    ("exp(i*eta)^2^2", "trailing input '^' at position 12 (expected '+' or '-' or '*' or end of input)"),
    ("sqrt(r)^1/2", "power exponent '1/2' is not an integer at position 8"),
    ("d/dr^-2", "cannot invert an operator containing derivatives at position 4"),
    ("u^-1*d/deta^-1", "cannot invert an operator containing derivatives at position 11"),
    ("exp(i*eta) exp(i*eta)", "trailing input 'exp' at position 11 (expected '+' or '-' or '*' or end of input)"),
    ("exp(i*eta", "found end of input at position 9 (expected ')')"),
    ("d/dr^-1000", "cannot invert an operator containing derivatives at position 4"),
    ("sqrt(r^2)", "found '^' at position 6 (expected ')')"),
    ("exp(i*eta*r^2)", "found 'r' at position 10 (expected integer or 'i' or 'eta' or 'alpha' or 'beta')"),
    ("r^s^2", "found 's' at position 2 (expected integer exponent)"),
])
def test_error_messages(text, message):
    with pytest.raises(opdsl.OperatorSyntaxError) as info:
        opdsl.parse(text)
    assert str(info.value) == message


def test_parens_lex_as_operators():
    kinds = [tok.kind for tok in opdsl.tokenize("exp(i*eta) + d/dr^2 * 1/2")]
    assert kinds == ["symbol", "op", "symbol", "op", "symbol", "op", "op",
                     "deriv", "op", "number", "op", "number", "end"]


@pytest.mark.parametrize("text,position", [("r^(1/2)", 2), ("r^s", 2), ("s^u", 2)])
def test_non_integer_power_rejected(text, position):
    with pytest.raises(opdsl.OperatorSyntaxError) as info:
        opdsl.parse(text)
    assert info.value.position == position
    assert "integer" in str(info.value)


@pytest.mark.parametrize("text,reason", [
    ("(r + 1)^-1", "a sum of operator terms"),
    ("(s + s^2)^-1", "a sum of operator terms"),
    ("(d/dr)^-1", "containing derivatives"),
    ("0^-1", "cannot invert zero"),
    ("(2-2)^-1", "cannot invert zero"),
])
def test_uninvertible_power_rejected(text, reason):
    with pytest.raises(ValueError, match=reason):
        opdsl.parse(text)


def test_syntax_error_carries_expected_set():
    with pytest.raises(opdsl.OperatorSyntaxError) as info:
        opdsl.parse("r +")
    assert info.value.expected  # non-empty tuple of alternatives


def test_roundtrip_seeded_batch():
    rng = random.Random(424242)
    for _ in range(250):
        e = random_operator(rng)
        assert opdsl.parse(opdsl.render(e)) == e


def test_roundtrip_long_sum():
    # about 1200 terms and 29 kB of text: parsing must not recurse per term
    e = oa.OperatorExpr({
        (oa.Mono(k - 600, k % 3 - 1, 0, 0, 0, 0, 0, 0), 0, 0): Fraction(k + 1, 7)
        for k in range(1200)
    })
    assert opdsl.parse(opdsl.render(e)) == e


def test_parse_work_is_linear_in_terms(monkeypatch):
    # every sum is reduced to lowest terms once: a fold of binary + would
    # reduce the running sum at each term, about n**2/2 atom visits
    n = 2000
    e = oa.OperatorExpr({
        (oa.Mono(k - n // 2, k % 3 - 1, 0, 0, k % 2, 0, 0, 0), k % 5 - 2, k % 2): Fraction(k + 1, k % 4 + 1)
        for k in range(n)
    })
    text = opdsl.render(e)
    lowest, visits = oa._lowest, []
    monkeypatch.setattr(oa, "_lowest", lambda acc, den: visits.append(len(acc)) or lowest(acc, den))
    assert opdsl.parse(text) == e
    assert sum(visits) <= 20 * n


def _canonical_texts():
    # the golden renders, the sp4 bilinears and the Casimir: 54 texts
    golden = json.loads(Path(__file__).with_name("golden_renders.json").read_text())
    texts = [text for key, text in golden.items() if key != "c13/sha256"]
    return texts + [opdsl.render(e) for e in (*sp4_bilinears().values(), casimir()[0])]


def test_canonical_text_parses_without_the_product_loop(monkeypatch):
    # the factors of a canonical term are free in render order, so each term
    # folds to one atom; an atom power such as d/dr^2 takes the closed form
    rng = random.Random(13131313)  # the c13 seed set of the golden file
    texts = _canonical_texts()
    texts += [opdsl.render(random_operator(rng)) for _ in range(1000)]
    normal_order, calls = oa._normal_order, []
    monkeypatch.setattr(oa, "_normal_order", lambda *args: calls.append(1) or normal_order(*args))
    opdsl._factor.cache_clear()
    for cache in ("cold", "warm"):  # a factor lexeme's cache fills without the product loop
        for text in texts:
            assert opdsl.render(opdsl.parse(text)) == text
        assert len(calls) == 0, cache


def test_canonical_text_builds_one_operator_per_term_and_sum(monkeypatch):
    # every factor of a term is an atom form, so a term builds one operator in
    # its product and a sum one more; a parenthesised coefficient such as
    # (1/2-5*i) is a sum of two terms
    texts = _canonical_texts()
    assert len(texts) == 54
    wrap, calls = oa.OperatorExpr._wrap, []
    monkeypatch.setattr(oa.OperatorExpr, "_wrap", lambda *args: calls.append(1) or wrap(*args))
    budget = 0
    for text in texts:
        coeffs = text.count("(") - text.count("sqrt(") - text.count("exp(")
        budget += 1 + text.count(" + ") + text.count(" - ") + 2 * coeffs + 1 + coeffs
    opdsl._factor.cache_clear()
    for cache in ("cold", "warm"):  # a factor lexeme's cache fills without building operators
        calls.clear()
        for text in texts:
            opdsl.parse(text)
        assert len(calls) <= budget, cache


def test_factor_cache_stays_bounded():
    # a bound on memory: 10,000 distinct factors of plain terms leave at most
    # maxsize entries, and a power of 4 digits makes no plain term, so such a
    # text goes whole to the descent and caches nothing
    opdsl._factor.cache_clear()
    for k in range(10_000):
        q, winding = divmod(k, 1000)
        axis = oa.PHASE_AXES[q % 3]
        assert opdsl.parse(f"exp({winding}*i*{axis})^{q // 3}") == oa.phase(axis, winding * (q // 3))
    info = opdsl._factor.cache_info()
    assert info.misses == 10_000 and info.currsize <= info.maxsize == 4096
    opdsl._factor.cache_clear()
    assert opdsl.parse("r^1000*s^-1000*d/dr^1000") == oa.r_power(1000) * oa.s_sym(-1000) * oa.deriv("r", 1000)
    assert opdsl.parse("sqrt(r)^1000 + sqrt(r)^-1000") == oa.r_power(500) + oa.r_power(-500)
    assert opdsl._factor.cache_info().currsize == 0


# a deletion, an insertion or a swap of two characters; an insertion may
# also be a power, so that powers meet factors that carry one
_INSERTS = (*"rsuid/()^-+*0123456789 ", "^2", "^-1", "^12/5")


@st.composite
def _edited_renders(draw):
    text = opdsl.render(draw(operators(max_terms=3, wide=True)))
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(text) - 1))
        edit = draw(st.sampled_from(("delete", "insert", "swap")))
        if edit == "delete":
            text = text[:k] + text[k + 1:]
        elif edit == "insert":
            text = text[:k] + draw(st.sampled_from(_INSERTS)) + text[k:]
        else:
            j = draw(st.integers(0, len(text) - 1))
            chars = list(text)
            chars[j], chars[k] = chars[k], chars[j]
            text = "".join(chars)
        if not text:
            break
    return text


# canonical factors, powered and joined well or badly; no sum, so that no
# power is costly
_CHAIN_FACTORS = ("r", "s", "u", "i", "d/deta", "sqrt(r)", "exp(-2*i*alpha)", "2/3", "(1-i)")
_CHAIN_POWERS = ("", "^2", "^-1", "^-12", "^1000", "^2^3", "^2 ^3", " ^2", "^1/2")


@st.composite
def _factor_chains(draw):
    factors = st.tuples(st.sampled_from(_CHAIN_FACTORS), st.sampled_from(_CHAIN_POWERS))
    parts = draw(st.lists(factors, min_size=1, max_size=4))
    return draw(st.sampled_from(("*", " + ", "", " ", "^"))).join(factor + power for factor, power in parts)


def _parse_outcome(text):
    try:
        return opdsl.parse(text), None
    except opdsl.OperatorSyntaxError as err:
        return None, err


@settings(max_examples=300, deadline=None)
@given(st.one_of(_edited_renders(), _factor_chains()))
def test_factor_lexemes_parse_as_their_fine_lexemes(text):
    # a factor spelled without blanks (r^2, sqrt(r)^-1, exp(-2*i*alpha)) may be
    # read by the plain-sum reader; with a blank between every fine lexeme the
    # text goes to the descent: the value, or the error's message at the same
    # lexeme, must be the same
    try:
        tokens = opdsl.tokenize(text)
    except opdsl.OperatorLexError as err:
        with pytest.raises(opdsl.OperatorLexError, match=f"^{re.escape(str(err))}$"):
            opdsl.parse(text)
        return
    spaced = " ".join(token.lexeme for token in tokens[:-1])
    value, err = _parse_outcome(text)
    spaced_value, spaced_err = _parse_outcome(spaced)
    assert spaced_value == value
    if err is not None:
        lexeme = [token.pos for token in tokens].index(err.position)
        assert spaced_err.position == opdsl.tokenize(spaced)[lexeme].pos
        assert (spaced_err.message, spaced_err.expected) == (err.message, err.expected)


# pieces of plain terms, spelled well or badly: numbers, then factors with powers
# inside and past 3 digits, and contexts where a term may stand and where it may
# not (a power, a phase argument, sqrt's argument)
_TERM_COEFFS = ("", "3", "2/4", "0", "1/0", "2*i", "2/3*i", "i", "(1/2-5*i)", "(-1/2+3*i)", "(2+i)", "(1/0+i)",
                "(1/2+3/0*i)", "007", "1" * 5000)
_TERM_SLOTS = ("s", "s^-1", "s^1000", "u", "u^3", "u^-1", "r", "r^007", "r^-2", "sqrt(r)", "sqrt(r)^3", "exp(i*eta)",
               "exp(-2*i*alpha)^2", "exp(3*i*beta)", "exp(1000*i*beta)", "d/dr", "d/dr^0", "d/dr^-1", "d/deta^2",
               "d/dalpha", "d/dbeta^12", "i", "2", "1/0", "(1/2+i)")
_TERM_CONTEXTS = (("", ""), ("-", ""), ("(r)^", ""), ("(r)^-", ""), ("(r)^ - ", ""), ("r ^ ", ""), ("exp(", ")"),
                  ("exp( ", ")"), ("exp(i*", ")"), ("sqrt(", ")"), ("sqrt( ", ")"), ("s + ", " - r"), ("(", ")^2"),
                  ("2*", "*s"), ("", "^2"), ("", " ^ 2"), ("", "*d/dr"), ("", ")"), ("exp (", ")"), (" + ", ""),
                  ("*", ""), ("- ", ""), ("r +", ""), ("", " +"), ("r  - ", ""), ("r -", ""), ("r+", ""),
                  ("(r + ", ")^3*s"), ("((d/dr + ", ")^2 - u)*r"), ("(r + ", ")^-1"))
_TERM_SHAPES = (
    "d/dr*r", "u*u", "s*u*s", "r^007", "d/dr^0", "d/dr^-1*r", "1/0*r", "0*r", "2/4*r", "1" * 5000 + "*r",
    "2 * r", "2* r^2", "2*r ^ 2", "r ^2*s", "2*r ^2*d/dr", "(r)^-2*s", "(r)^ - 2*s", "r ^ 2*s", "exp( 2*i*eta)",
    "exp(2*i*eta", "exp(i*2*s)", "sqrt(r*s)", "sqrt( r^2)", "sqrt (1/2+i)", "exp (1/2+i)", "4/6^-4", "2*r^2^3",
    "(1/2-5*i)*sqrt(r)^-1*exp(3*i*beta)*d/dr^2", "-2*s*u - i*d/dbeta^2 + 1", "2*ix", "2*d/dr2", "u^3*r",
    "2*exp(i*eta)exp(i*alpha)", "(1/0+i)*r", "2/3/4*r", "(r)s*u", "d/dr *r",
    # an i factor is multiplied into the coefficient once, also on the product route
    "3/2*i*d/dr*r^2", "i*i*d/deta*exp(i*eta)",
    # a term after a blank needs a sign, and the first term stands at the text's start
    " + r", " - r", "*r", " r", "r + ", "r +  s", "r+s", "r - -s", "-", "",
    "u*u*u*u", "u^-1*u^-1*r", "sqrt(r)^1000", "r^1000*s", "2*0/00", "r*1/0", "d/deta*r*exp(i*eta)",
    # a parenthesised plain sum with a power of at most 3 digits, one sum deep inside another at most
    "(r + 1)*s", "2*(1/2*r + d/dr)^3*s - u", "((r + s)^2 + u)*d/dr", "2*(1*r + 2*d/dr)^5*sqrt(r)^3",
    "(((r + s)^2 + u)^2 + r)*s", "(r + s)^1000", "(r + s)(r)", "(r + s)^-1", "(d/dr + r)^8 +", "(r + s",
    "(r + s)^2^2", "-(r - s)^0*(s)", "(2+i)^2*r", "(r+s)*s", "((sqrt(r) + s)^2 + exp(i*eta))^2",
    "rr*(r + 1)", "*(r + 1)*s", "() + r", "(r + 1) (s)",
)


@st.composite
def _term_shaped_texts(draw):
    slots = draw(st.lists(st.sampled_from(_TERM_SLOTS), max_size=4))
    if draw(st.booleans()):  # in render order, as a canonical term has them
        slots.sort(key=_TERM_SLOTS.index)
    coeff = draw(st.sampled_from(_TERM_COEFFS))
    text = draw(st.sampled_from(("*", "*", "*", " * ", "* "))).join(([coeff] if coeff else []) + slots) or "1"
    if draw(st.integers(0, 3)) == 0:
        text = text.replace("^", draw(st.sampled_from((" ^ ", "^ ", " ^"))))
    prefix, suffix = draw(st.sampled_from(_TERM_CONTEXTS))
    return prefix + text + suffix


def _outcome(read, text):
    try:
        return read(text), None
    except ValueError as err:
        return None, (type(err), str(err))


@settings(max_examples=600, deadline=None)
@given(st.one_of(_term_shaped_texts(), _edited_renders(), _factor_chains()))
def test_canonical_terms_parse_as_their_fine_lexemes(text):
    # the plain-sum reader takes texts of plain terms and hands any other text,
    # or a ValueError, to the descent over the fine lexemes: either way parse must
    # give the descent's value, or its error type, message and position
    assert _outcome(opdsl.parse, text) == _outcome(lambda text: opdsl._Parser(text).parse(), text)


for _shape in _TERM_SHAPES:  # every listed shape runs, besides the drawn texts
    test_canonical_terms_parse_as_their_fine_lexemes = example(_shape)(test_canonical_terms_parse_as_their_fine_lexemes)


@pytest.mark.parametrize("text,plain", [
    ("-2*r + 3/2*i*d/dr*r^2", True),  # a function after a derivative: the term is one product
    ("d/dr*u*s*exp(-2*i*alpha)^3*u", True),  # u twice: one product
    ("(1/2-5*i)*sqrt(r)^-1*exp(3*i*beta)*d/dr^2 - 7", True),
    ("r*2*i - s^-999*0/5", True),
    ("(r + 1)*s", True), ("2*(1/2*r + d/dr)^3*s - u", True), ("((r + s)^2 + u)*d/dr", True),
    ("r^1000", False), (" + r", False), ("2 * r", False), ("r - -s", False), ("1/0*r", False),
    ("(((r + s)^2 + u)^2 + r)*s", False), ("(r + s)^1000", False), ("(r + s)(r)", False),
])
def test_plain_sums_are_read_without_the_descent(text, plain):
    # the plain-sum reader takes a plain sum in any factor order, with the
    # descent's value, and leaves any other text to the descent
    terms = opdsl._plain_sum(text)
    assert (terms is not None) == plain
    if plain:
        assert opdsl._plain_value(terms) == opdsl._Parser(text).parse()


@pytest.mark.parametrize("text", [
    "(d/dr + r)^8 +", "(d/dr + r)^8*(r + s)^-1", "(d/dr + r)^8*1/0", "(d/dr + r)^8*(d/dr^-1 + r)",
    "((d/dr + r)^8 + s)*(((r)))", "(d/dr + r)^8*(r + s)^1000", "(d/dr + r)^8 - (r + 1/0)",
])
def test_rejected_plain_texts_raise_no_power(monkeypatch, text):
    # the plain-sum reader reads the whole text before it raises any power, so a
    # text it leaves to the descent costs exactly the descent's powers and products
    calls = []
    for owner, name in ((oa.OperatorExpr, "__pow__"), (oa, "product")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    counted = []
    for read in (opdsl.parse, lambda text: opdsl._Parser(text).parse()):
        calls.clear()
        counted.append((_outcome(read, text), sorted(calls)))
    assert counted[0] == counted[1]
    assert "__pow__" in counted[0][1]


def test_warm_canonical_terms_make_no_product(monkeypatch):
    # each canonical term whose powers have at most 3 digits is one lexeme, and its
    # atom form is the sum of its factors' cached keys: a warm re-parse of canonical
    # renders runs no product loop (_normal_order) and multiplies nothing (product)
    rng = random.Random(32323232)
    texts = _canonical_texts() + [opdsl.render(random_operator(rng, wide=k % 2)) for k in range(600)]
    texts = [text for text in texts if all(len(digits) <= 3 for digits in re.findall(r"[\^(]-?(\d+)", text))]
    assert len(texts) > 600
    for text in texts:
        opdsl.parse(text)
    calls = []
    for name in ("product", "_normal_order"):
        real = getattr(oa, name)
        monkeypatch.setattr(oa, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    for text in texts:
        assert opdsl.render(opdsl.parse(text)) == text
    assert calls == []


_PHASE_FACTORS =[(f"exp({k}*i*{axis})", oa.phase(axis, k)) for axis in ("eta", "alpha", "beta") for k in range(-2, 3)]
_ATOM_FACTORS = [
    ("i", oa.imag()), ("s", oa.s_sym()), ("u", oa.u_sym()), ("r", oa.r_power(1)), ("sqrt(r)", oa.sqrt_r()),
    *[(f"d/d{axis}", oa.deriv(axis)) for axis in ("r", "eta", "alpha", "beta")],
    ("0", oa.scalar(0)), ("7", oa.scalar(7)), ("4/6", oa.scalar(Fraction(2, 3))), *_PHASE_FACTORS,
]


@pytest.mark.parametrize("text,op", _ATOM_FACTORS, ids=[text for text, _ in _ATOM_FACTORS])
def test_atom_factor_powers_match_the_operator_powers(text, op):
    # the parser raises an atom factor in closed form; it must agree with **
    # on every exponent, or refuse it with the same message at the "^"
    for e in range(-4, 7):
        try:
            power = op**e
        except ValueError as err:
            for source in (f"{text}^{e}", f"-{text}^{e}", f"{text}^{e}*r"):
                with pytest.raises(opdsl.OperatorSyntaxError) as info:
                    opdsl.parse(source)
                assert str(info.value) == f"{err} at position {source.index('^')}"
            continue
        assert opdsl.parse(f"{text}^{e}") == power, e
        assert opdsl.parse(f"-{text}^{e}") == -power, e
        assert opdsl.parse(f"{text}^{e}*r") == power * oa.r_power(1), e


@pytest.mark.parametrize("text,expected", [
    ("0^0", oa.identity()),
    ("u^-3", 4 * oa.s_sym(2) * oa.u_sym()),
    ("i^-1", -oa.imag()),
    ("0^-1", "cannot invert zero at position 1"),
    ("d/dr^-1", "cannot invert an operator containing derivatives at position 4"),
])
def test_atom_factor_power_edges(text, expected):
    if isinstance(expected, str):
        with pytest.raises(opdsl.OperatorSyntaxError, match=f"^{expected}$"):
            opdsl.parse(text)
    else:
        assert opdsl.parse(text) == expected


def _reference_fmt_gauss(real: Fraction, imag: Fraction) -> tuple[str, str]:
    if not imag:
        sign = "-" if real < 0 else "+"
        mag = abs(real)
        return sign, "" if mag == 1 else str(mag)
    if not real:
        sign = "-" if imag < 0 else "+"
        mag = abs(imag)
        return sign, "i" if mag == 1 else f"{mag}*i"
    im_mag = abs(imag)
    im_body = "i" if im_mag == 1 else f"{im_mag}*i"
    im_sign = "-" if imag < 0 else "+"
    return "+", f"({real}{im_sign}{im_body})"


def _reference_render(expr: oa.OperatorExpr) -> str:
    """The render of ``Fraction`` coefficients read from ``terms()``, kept as the reference."""
    def key(item):
        m, sp, up = item[0]
        return (m.dr + m.de + m.da + m.db, m.dr, m.de, m.da, m.db, m.r2, m.ke, m.ka, m.kb, sp, up)

    atoms = sorted(expr.terms(), key=key)
    if not atoms:
        return "0"
    pieces = []
    for (mono, sp, up), (real, imag) in atoms:
        try:
            sign, coeff_body = _reference_fmt_gauss(real, imag)
        except ValueError:
            raise ValueError(f"a result coefficient has more than {sys.get_int_max_str_digits()} digits") from None
        parts = [coeff_body] if coeff_body else []
        if sp:
            parts.append("s" if sp == 1 else f"s^{sp}")
        if up:
            parts.append("u")
        if mono.r2:
            base, e = ("r", mono.r2 // 2) if mono.r2 % 2 == 0 else ("sqrt(r)", mono.r2)
            parts.append(base if e == 1 else f"{base}^{e}")
        for axis, k in zip(("eta", "alpha", "beta"), (mono.ke, mono.ka, mono.kb)):
            if k:
                parts.append(f"exp(i*{axis})" if k == 1 else f"exp(-i*{axis})" if k == -1 else f"exp({k}*i*{axis})")
        for axis, d in zip(("r", "eta", "alpha", "beta"), (mono.dr, mono.de, mono.da, mono.db)):
            if d:
                parts.append(f"d/d{axis}" if d == 1 else f"d/d{axis}^{d}")
        pieces.append((sign, "*".join(parts) if parts else (coeff_body or "1")))
    out = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


@settings(max_examples=200, deadline=None)
@given(operators(max_terms=4, wide=True))
def test_render_matches_the_fraction_reference(e):
    assert opdsl.render(e) == _reference_render(e)


_BIG = 3**628  # 300 digits
_PARTS = [Fraction(0), Fraction(1), Fraction(-1), Fraction(5, 3), Fraction(-7, 12), Fraction(_BIG), Fraction(-_BIG, 7),
          Fraction(11, _BIG)]


@pytest.mark.parametrize("real", _PARTS, ids=range(len(_PARTS)))
def test_render_coefficients_match_the_fraction_reference(real):
    # real only, imaginary only and both, each next to a second atom over
    # another denominator, so the shared denominator differs from each part's
    mono = oa.Mono(2, 1, 0, 0, 1, 0, 0, 0)
    for imag in _PARTS:
        if real or imag:
            e = oa.OperatorExpr({(mono, 1, 1): (real, imag), (oa.Mono(0, 0, 0, 0, 0, 0, 0, 0), 0, 0): Fraction(1, 13)})
            assert opdsl.render(e) == _reference_render(e)
            single = oa.OperatorExpr({(mono, 0, 0): (real, imag)})
            assert opdsl.render(single) == _reference_render(single)


def test_render_refuses_a_coefficient_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    for e in (oa.scalar(10**4000) * oa.scalar(10**4000), oa.imag() * oa.scalar(Fraction(1, 10**(limit + 1)))):
        with pytest.raises(ValueError, match=f"^a result coefficient has more than {limit} digits$"):
            opdsl.render(e)


def test_key_text_cache_stays_bounded():
    # a bound on memory: 10,000 distinct atoms leave at most maxsize entries, and
    # every golden render comes out byte for byte after a clear and once the cache is full
    golden = json.loads(GOLDEN_PATH.read_text())
    opdsl._key_text.cache_clear()
    assert corpus() == golden
    for k in range(10_000):
        q, winding = divmod(k, 1000)
        e = oa.OperatorExpr({(oa.Mono(q - 5, winding - 500, 0, q % 3, k % 2, 0, 0, 0), q % 4 - 2, k % 2): k + 1})
        assert opdsl.render(e) == _reference_render(e)
    info = opdsl._key_text.cache_info()
    assert info.misses >= 10_000 and info.currsize <= info.maxsize == 4096
    assert corpus() == golden


# fragments that never build a large value; glued together, as in "d/dreta",
# or with "/", "$" or "d/dx" inserted, a text fails to lex
_FRAGMENTS = ("r", "s", "u", "i", "d/dr", "d/deta", "sqrt(r)", "exp(i*eta)", "exp(-2*i*alpha)", "(r + 1)", "exp(",
              "sqrt(", "(", ")", "^-1", "*", "+", "-", " ", "5/2", "1/0", "x", "eta")


@st.composite
def _dsl_texts(draw):
    parts = draw(st.lists(st.sampled_from(_FRAGMENTS), max_size=12))
    if draw(st.integers(0, 3)) == 0:
        parts.insert(draw(st.integers(0, len(parts))), draw(st.sampled_from(("/", "$", "d/dx"))))
    return draw(st.sampled_from(("", " "))).join(parts)


@settings(max_examples=300, deadline=None)
@given(_dsl_texts())
def test_error_positions_are_token_positions(text):
    # a position is found only on an error, by scanning the text again; it
    # must name the lexeme the one scanner sees there
    try:
        opdsl.parse(text)
    except opdsl.OperatorLexError as err:
        assert text[err.position] == err.lexeme and not err.lexeme.isspace()
        with pytest.raises(opdsl.OperatorLexError, match=f"at position {err.position}$"):
            opdsl.tokenize(text)
    except opdsl.OperatorSyntaxError as err:
        assert err.position in {tok.pos for tok in opdsl.tokenize(text)}


@settings(max_examples=150, deadline=None)
@given(operators(max_terms=3))
def test_roundtrip_property(e):
    assert opdsl.parse(opdsl.render(e)) == e


def test_render_deterministic():
    rng = random.Random(5)
    e = random_operator(rng, max_terms=4)
    assert opdsl.render(e) == opdsl.render(oa.OperatorExpr(dict(e.terms())))
