import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sftselect as ss
from sftselect.alphabet import word_token
from sftselect.cli import main
from sftselect.formats import parse_measure_text


class TestAlphabet:
    def test_order_is_declaration_order(self):
        alpha = ss.Alphabet(["b", "a"])
        assert alpha.symbols == ("b", "a")
        assert alpha.index("b") == 0
        assert list(alpha.words(2))[0] == ("b", "b")

    def test_duplicates_rejected(self):
        with pytest.raises(ss.ValidationError):
            ss.Alphabet(["0", "0"])

    def test_eps_reserved(self):
        with pytest.raises(ss.ValidationError):
            ss.Alphabet(["eps"])

    def test_whitespace_tokens_rejected(self):
        with pytest.raises(ss.ValidationError):
            ss.Alphabet(["a b"])
        with pytest.raises(ss.ValidationError):
            ss.Alphabet([""])

    def test_encode_decode_round_trip(self, binary):
        idx = binary.encode("0110")
        assert idx.tolist() == [0, 1, 1, 0]
        assert binary.decode(idx) == ("0", "1", "1", "0")
        assert binary.text(idx) == "0110"

    def test_unknown_symbol(self, binary):
        with pytest.raises(ss.UnknownSymbol):
            binary.encode("012")
        with pytest.raises(ss.UnknownSymbol):
            binary.encode("01λ")  # non-latin char in the input text

    def test_non_latin_single_char_alphabet(self):
        alpha = ss.Alphabet(["α", "β"])
        idx = alpha.encode("αββ")
        assert idx.tolist() == [0, 1, 1]
        assert alpha.text(idx) == "αββ"
        assert alpha.word_label(("α", "β")) == "αβ"

    def test_multichar_tokens(self):
        alpha = ss.Alphabet(["aa", "b"])
        assert not alpha.single_char
        idx = alpha.encode(["aa", "b", "aa"])
        assert alpha.text(idx) == "aa b aa"

    def test_words_enumeration_count(self, binary):
        assert len(list(binary.words(0))) == 1
        assert len(list(binary.words(5))) == 32

    def test_word_label_empty_is_eps(self, binary):
        assert binary.word_label(()) == ss.EPSILON_TOKEN


def _recursive_words(alpha, length):
    """The recursive enumeration ``Alphabet.words`` used to be."""
    if length == 0:
        yield ()
        return
    for prefix in _recursive_words(alpha, length - 1):
        for s in alpha.symbols:
            yield prefix + (s,)


@pytest.mark.parametrize("symbols", [["0"], ["b", "a"], ["x", "yy", "α"]])
def test_words_match_recursive_enumeration(symbols):
    alpha = ss.Alphabet(symbols)
    for length in range(6):
        assert list(alpha.words(length)) == list(_recursive_words(alpha, length))


@given(token=st.text(st.characters(), max_size=6))
@example(token="")
@example(token="\x1c")
@example(token="a\x85")
@example(token="\u2028b")
@example(token="\u3000")
@example(token="\u200b")
def test_whitespace_check_matches_per_character_scan(token):
    """``s.split() != [s]`` refuses exactly the empty token and the tokens
    with a character for which ``str.isspace`` holds."""
    old = not token or any(c.isspace() for c in token)
    assert (token.split() != [token]) == old
    if token == ss.EPSILON_TOKEN:
        return
    if old or token.startswith("#"):
        with pytest.raises(ss.ValidationError, match="invalid symbol token"):
            ss.Alphabet([token])
    else:
        assert ss.Alphabet([token]).symbols == (token,)


def _split_token(token):
    """The word a multi-character ``word_token`` was made from: ``\\``
    escapes the next character, and an unescaped ``.`` ends a symbol."""
    if token == ss.EPSILON_TOKEN:
        return ()
    word, symbol, chars = [], "", iter(token)
    for c in chars:
        if c == ".":
            word, symbol = word + [symbol], ""
        else:
            symbol += next(chars) if c == "\\" else c
    return tuple(word + [symbol])


dotted_words = st.lists(st.text("ab.\\", min_size=1, max_size=4), max_size=5).map(tuple)


@settings(max_examples=300)
@given(word=dotted_words, other=dotted_words)
def test_word_token_is_injective_over_dots_and_backslashes(word, other):
    token = word_token(word, single_char=False)
    assert token.split() == [token]
    assert _split_token(token) == word
    assert (token == word_token(other, single_char=False)) == (word == other)


def test_word_token_keeps_plain_bytes():
    assert word_token(("0", "1", "1"), single_char=True) == "011"
    assert word_token((".", "\\"), single_char=True) == ".\\"
    assert word_token(("lo", "hi"), single_char=False) == "lo.hi"
    assert word_token((), single_char=False) == ss.EPSILON_TOKEN


DOTTED = "alphabet a b a.b b.a\nstates s\ninitial s\n" + "".join(
    f"trans s {a} keep s\n" for a in ("a", "b", "a.b", "b.a")
)


def test_lemma_words_over_a_dotted_alphabet_are_distinct(tmp_path, capsys):
    """(a, b) and (a.b,) once both printed ``w=a.b``."""
    path = tmp_path / "dotted.sel"
    path.write_text(DOTTED)
    assert main(["lemma-check", "--selector", str(path), "--n-max", "2", "--w-max", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for n in (1, 2):
        words = [line.split()[4] for line in lines if line.split()[3] == f"n={n}"]
        assert len(words) == len(set(words)) == sum(4**j for j in range(n + 1))
    assert "w=a.b" in words and "w=a\\.b" in words


def test_snake_over_a_dotted_alphabet_reads_back_as_a_measure(tmp_path, capsys):
    """Snake states are named p*w; (a, b.a) and (a.b, a) once shared a name."""
    path = tmp_path / "dotted.sel"
    path.write_text(DOTTED)
    assert main(["snake", "--selector", str(path), "-n", "2"]) == 0
    mu = parse_measure_text(capsys.readouterr().out)
    assert len(mu.alphabet) == 4**2
    assert {"s*a.b\\.a", "s*a\\.b.a"} <= set(mu.alphabet.symbols)
