import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import sftselect as ss


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
