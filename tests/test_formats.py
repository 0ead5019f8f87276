import hashlib
import io
import os
import re
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pigeonproof import (
    CnfFormula,
    Proof,
    ProofLine,
    emit_dimacs,
    emit_drat,
    encodings,
    generate_cook,
    generate_ours,
    parse_dimacs,
    parse_drat,
    php_amo,
    php_standard,
    proof_cook,
    proof_ours,
)
from pigeonproof.formats import iter_drat_lines, write_dimacs, write_drat_blocks

# SHA-256 of the concatenated output for n = 2..8 (proofs) and n = 1..6
# (formulas), as the line-by-line writer emitted it before proofs were
# written block by block.
DRAT_DIGESTS = {
    ("ours", False): "433e9545d79816c37276287eb5ffc3993dbfae5f83512909de1f5082621c559a",
    ("ours", True): "123ea3122b7c0afe25922c3cb58392565a98bec40081128155047bbad019d1c4",
    ("cook", False): "389c8f74847b9c87acd41cbe9c5da5f5aa5de8981819874170d71de4719f1366",
    ("cook", True): "e88b2b23729fe4d7e98df830028893548e27ce5edcf70dfe1641d9b42743a938",
}
DIMACS_DIGESTS = {
    php_standard: "8241ad1920914be492c5848ab1fcd2b44e6c00295034f0f9ff14f94499251905",
    php_amo: "26fc73b72a645fc7fbdf249df168bbdfcf017be770b3f9e32b323c9b52203be3",
}

# SHA-256 of write_drat_blocks(iter_blocks(n, family, deletions)) for sizes
# past the golden files, whose layers hold at most two groups; recorded
# before the group builders bound members to ranges over the holes.
BUILDER_DIGESTS = {
    ("ours", 5, False): "f7ddaaee4473aab57c7b715dd1454cad314caad24a828930e7fecd3a1c21dd59",
    ("ours", 5, True): "13283a74eb8149792a8fa5bbded1c5244bf76e75639c61e8eb26feff7f51dc35",
    ("ours", 9, False): "eebbf66fbd8f98f820e786c004241888483257bc99b2beb1d23c2bd75358da9e",
    ("ours", 9, True): "3338c78a8150986f06f6ce991a1125bce270bcc17a7779098c2868f237fcb556",
    ("ours", 17, False): "39e909e88a01a7e47ebe585926292331f6c9dc5daf5529602b6929c79e16db65",
    ("ours", 17, True): "e94a049f38a19875ab48cc09dff14022e794d08c1068c1d81e1c1868ac38e7c1",
    ("ours", 33, False): "5eaa95fa88605fec16d6d7d90da3d7b9c91fc2c615292c1dcbf0fa1d7e58cafd",
    ("ours", 33, True): "d692e4f458d62c6322923a05888c83a7b513e926214efcc329f64d6d47a0a0e5",
    ("cook", 5, False): "1f02905c354d0f1b0e73a7db49606798c7fa7baa57fb05042fd01f541b253682",
    ("cook", 5, True): "0ce2fd5bd430bc24863503c6ed9ff530dc1c35b9418f0016bb1651c27f961cab",
    ("cook", 9, False): "15873be597fa36bce3bec0af1746a6fae079f71b2911fd4b42b67d78e6c6e119",
    ("cook", 9, True): "553aee69604284ac46a25e30c999395f7359361236759f04d7129f2fc84b80f2",
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_parse_minimal():
    formula = parse_dimacs("p cnf 2 1\n1 -2 0\n")
    assert formula == CnfFormula(2, ((1, -2),))


def test_parse_accepts_comments_and_multiline_clauses():
    text = "c a comment\np cnf 3 2\n1 2\n3 0\nc mid\n-1 -2 -3 0\n"
    formula = parse_dimacs(text)
    assert formula.clauses == ((1, 2, 3), (-1, -2, -3))


def test_parse_literal_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        parse_dimacs("p cnf 1 1\n2 0\n")
    # proof literals may name fresh variables, up to |literal| = 2**31 - 1
    assert parse_drat("2147483647 -2147483647 0\n").lines[0].lits[0] == 2**31 - 1
    with pytest.raises(ValueError, match="out of range"):
        parse_drat("-2147483648 0\n")


def test_parse_drat_names_the_line_of_a_literal_error():
    with pytest.raises(ValueError, match=r"^line 2: duplicate literal 3 in clause \(3, 3\)$"):
        parse_drat("1 0\n3 3 0\n")
    with pytest.raises(ValueError, match=r"^line 3: literal -2147483648 out of range"):
        parse_drat("1 0\nc\nd -2147483648 0\n")


def test_parse_missing_terminator():
    with pytest.raises(ValueError, match="terminating 0"):
        parse_dimacs("p cnf 2 1\n1 -2\n")


def test_parse_malformed_header():
    with pytest.raises(ValueError, match="header"):
        parse_dimacs("p dnf 2 1\n1 0\n")
    with pytest.raises(ValueError, match="header"):
        parse_dimacs("1 0\n")


@pytest.mark.parametrize(
    "token",
    ["+1", "1_0", "\u0663", "-\uff15", "+0", "0x1", "--1", "1.0", "1\xa02", "-3\u20032"],
)
def test_parse_dimacs_rejects_tokens_beyond_ascii_digits(token):
    # int() would take the first five, and str.split() would split the next
    # two at their Unicode spaces; the proof grammar takes none of them.
    with pytest.raises(ValueError, match=re.escape(f"line 2: bad token {token!r}")):
        parse_dimacs(f"p cnf 12 1\n2 {token} 0\n")


@pytest.mark.parametrize("header", ["p cnf +3 1", "p cnf 3 1_0", "p cnf \u0663 1"])
def test_parse_dimacs_header_takes_ascii_digits_only(header):
    with pytest.raises(ValueError, match="line 1: malformed header"):
        parse_dimacs(header + "\n1 0\n")


# Breaks that str.splitlines() knows and a file reader does not.
_ODD_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_SPLIT_TEXTS = {
    parse_dimacs: [
        "p cnf 2 2\n1\x0b2 0\n-1 0\n",
        "p cnf 2 1\r1\x0c-2 0\r\n",
        f"p cnf 2 1\n1 {_ODD_BREAKS} 2 0{_ODD_BREAKS}\n",
        "p cnf 2 2\n1 0\n\n-1\r\n0\r",
        "p cnf 2 1\n1\x0b2\n",
    ],
    parse_drat: [
        "1\x0b2 0\n0\n",
        "1\x0c-2 0\r0\r\n",
        f"1 {_ODD_BREAKS} 2 0{_ODD_BREAKS}\nd 1\u20282 0\n",
        "1 0\n\n-1\r\n0\r",
        "1\x0b0\n",
    ],
}
_FILE_READERS = {
    parse_dimacs: parse_dimacs,
    parse_drat: lambda handle: Proof(tuple(iter_drat_lines(handle))),
}


@pytest.mark.parametrize(
    "parse, text",
    [(parse, text) for parse, texts in _SPLIT_TEXTS.items() for text in texts],
)
def test_text_splits_lines_as_a_file_does(parse, text, tmp_path):
    path = tmp_path / "text"
    path.write_bytes(text.encode("utf-8"))

    def outcome(parse, source):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                return parse(source)
        except ValueError as exc:
            return str(exc)

    with open(path, encoding="utf-8") as handle:
        from_file = outcome(_FILE_READERS[parse], handle)
    assert outcome(parse, text) == outcome(parse, text.encode("utf-8")) == from_file


def test_parse_drat_keeps_vertical_tab_inside_a_line():
    assert parse_drat("1\x0b2 0\n0\n").lines == (
        ProofLine(False, (1, 2)),
        ProofLine(False, ()),
    )


def test_parse_duplicate_literal_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        parse_dimacs("p cnf 2 1\n1 1 0\n")


def test_parse_tautology_permitted():
    formula = parse_dimacs("p cnf 1 1\n1 -1 0\n")
    assert formula.clauses == ((1, -1),)


def test_parse_clause_count_mismatch_warns():
    with pytest.warns(UserWarning, match="declares 2"):
        formula = parse_dimacs("p cnf 2 2\n1 0\n")
    assert len(formula.clauses) == 1


def test_emit_empty_formula():
    assert emit_dimacs(CnfFormula(0, ())) == "p cnf 0 0\n"


def test_emit_preserves_literal_order():
    text = emit_dimacs(CnfFormula(3, ((-3, 1),)))
    assert text == "p cnf 3 1\n-3 1 0\n"


def test_dimacs_round_trip_on_generator_outputs():
    for n in range(1, 8):
        for formula in (php_standard(n), php_amo(n)):
            assert parse_dimacs(emit_dimacs(formula)) == formula


@pytest.mark.parametrize(
    "text",
    [
        "p cnf 2 1\n1 -2 0\n",
        "c a comment\np cnf 3 2\n1 2\n3 0\nc mid\n-1 -2 -3 0\n",
        "p cnf 2 1\r\n1 -2 0\r\n",
        "p cnf 2 2\n1 0\n",
        "p cnf 1 1\n\n2 0\n",
        "p cnf 2 1\n1 x 0\n",
        "p cnf 2 1\np cnf 2 1\n",
        "1 0\n",
        "p cnf 2 1\n1 -2",
        "",
    ],
)
def test_parse_dimacs_streams_text_lines(text):
    def outcome(source):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = parse_dimacs(source)
            except ValueError as exc:
                result = str(exc)
        return result, [str(w.message) for w in caught]

    assert outcome(io.StringIO(text)) == outcome(text)


@pytest.mark.parametrize("encode", sorted(DIMACS_DIGESTS, key=lambda f: f.__name__))
def test_emit_dimacs_is_unchanged(encode):
    text = "".join(emit_dimacs(encode(n)) for n in range(1, 7))
    assert sha256(text) == DIMACS_DIGESTS[encode]


def written_both_ways(write):
    """The text ``write(out)`` writes to a ``StringIO``, after checking that
    it writes the same to a UTF-8 file that translates no newlines, as the
    CLI opens ``--out``."""
    out = io.StringIO()
    write(out)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.txt")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            write(handle)
        with open(path, "rb") as handle:
            assert handle.read() == out.getvalue().encode()
    return out.getvalue()


@pytest.mark.parametrize("encode", sorted(DIMACS_DIGESTS, key=lambda f: f.__name__))
def test_row_dimacs_emission_is_unchanged(encode):
    rows_of = getattr(encodings, f"iter_{encode.__name__}_clauses")
    texts = []
    for n in range(1, 7):
        formula = encode(n)
        assert tuple(rows_of(n)) == formula.clauses
        texts.append(written_both_ways(
            lambda out: write_dimacs(out, formula.num_vars, rows_of(n), len(formula.clauses))
        ))
    assert sha256("".join(texts)) == DIMACS_DIGESTS[encode]


@pytest.mark.parametrize("deletions", [False, True])
@pytest.mark.parametrize("style", ["ours", "cook"])
def test_block_emission_matches_line_emission(style, deletions):
    module, family = {
        "ours": (proof_ours, proof_ours.OURS),
        "cook": (proof_cook, proof_cook.COOK),
    }[style]
    texts = []
    for n in range(2, 9):
        text = written_both_ways(
            lambda out: write_drat_blocks(out, proof_ours.iter_blocks(n, family, deletions))
        )
        assert text == emit_drat(module.iter_proof_lines(n, deletions)), n
        texts.append(text)
    assert sha256("".join(texts)) == DRAT_DIGESTS[style, deletions]


@pytest.mark.parametrize("style, n, deletions", sorted(BUILDER_DIGESTS))
def test_block_emission_beyond_golden_sizes_is_unchanged(style, n, deletions):
    family = {"ours": proof_ours.OURS, "cook": proof_cook.COOK}[style]
    text = written_both_ways(
        lambda out: write_drat_blocks(out, proof_ours.iter_blocks(n, family, deletions))
    )
    assert sha256(text) == BUILDER_DIGESTS[style, n, deletions]


def test_parse_drat_trivial():
    proof = parse_drat("1 2 0\nd 1 2 0\n0\n")
    assert proof.lines == (
        ProofLine(False, (1, 2)),
        ProofLine(True, (1, 2)),
        ProofLine(False, ()),
    )


def test_parse_drat_rejects_deleted_empty_clause():
    with pytest.raises(ValueError, match="empty clause"):
        parse_drat("d 0\n")


def test_parse_drat_missing_terminator():
    with pytest.raises(ValueError, match="terminating 0"):
        parse_drat("1 2\n")


@pytest.mark.parametrize(
    "text", ["+5 0", "1_0 0", "\u0663 0", "1 -\uff15 0", "5 +0", "d +5 0", "0x1 0", "--1 0"]
)
def test_parse_drat_rejects_tokens_beyond_ascii_digits(text):
    # int() would take each of these tokens; int(" 5") takes the space too.
    with pytest.raises(ValueError, match="line 1: bad token"):
        parse_drat(text + "\n")
    assert parse_drat(" 5\t-3 0 \n").lines == (ProofLine(False, (5, -3)),)


_ONE = (ProofLine(False, (1,)),)


# The DRAT grammar beyond ASCII, with the lines or the error parse_drat gives:
# a comment may hold any bytes, and any other byte beyond ASCII, UTF-8 or
# not, is a bad token; Unicode whitespace and digits are not ASCII.
@pytest.mark.parametrize(
    "data, expected",
    [
        (b"c caf\xc3\xa9\n1 0\n", _ONE),
        (b"1 0\nc \xff\n", _ONE),
        (b" \tc \xed\xa0\x80\r1 0\r\n", _ONE),
        (b"\xc2\xa01 0\n", "line 1: bad token in '\\xa01 0\\n'"),
        (b"1 \xd9\xa3 0\n", "line 1: bad token in '1 ٣ 0\\n'"),
        (b"1 0\n1 \xff 0\n", "line 2: bad token in '1 \\udcff 0\\n'"),
        (b"\xe3\x80\x80c x\n", "line 1: bad token in '\\u3000c x\\n'"),
        (b"d 1 0\xc2\x85\n", "line 1: bad token in 'd 1 0\\x85\\n'"),
    ],
)
def test_parse_drat_of_bytes_reads_as_a_file_does(data, expected, tmp_path):
    path = tmp_path / "p.drat"
    path.write_bytes(data)

    def outcome(read):
        try:
            return tuple(read())
        except ValueError as exc:
            return str(exc)

    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        from_file = outcome(lambda: iter_drat_lines(handle))
    assert outcome(lambda: parse_drat(data).lines) == from_file == expected


_UNIT = CnfFormula(2, ((1,),))


# The DIMACS grammar beyond ASCII is the DRAT grammar: a comment may hold any
# bytes, and any other byte beyond ASCII, UTF-8 or not, is a bad token.
@pytest.mark.parametrize(
    "data, expected",
    [
        (b"p cnf 2 1\nc caf\xc3\xa9\n1 0\n", _UNIT),
        (b"p cnf 2 1\n1 0\nc \xff\n", _UNIT),
        (b"c \xff\np cnf 2 1\n \tc \xed\xa0\x80\r1 0\r\n", _UNIT),
        (b"p cnf 2 1\n\xc2\xa01 0\n", "line 2: bad token '\\xa01'"),
        (b"p cnf 2 1\n1\xc2\xa02 0\n", "line 2: bad token '1\\xa02'"),
        (b"p cnf 2 1\n1 0\n1 \xff 0\n", "line 3: bad token '\\udcff'"),
        (b"p cnf 2 1\n\xe3\x80\x80c x\n", "line 2: bad token '\\u3000c'"),
        (b"p cnf\xc2\xa02 1\n1 0\n", "line 1: malformed header 'p cnf\\xa02 1'"),
    ],
)
def test_parse_dimacs_of_bytes_reads_as_a_file_does(data, expected, tmp_path):
    path = tmp_path / "f.cnf"
    path.write_bytes(data)

    def outcome(source):
        try:
            return parse_dimacs(source)
        except ValueError as exc:
            return str(exc)

    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        from_file = outcome(handle)
    assert outcome(data) == from_file == expected


def test_emit_drat_empty_clause_only():
    assert emit_drat(Proof((ProofLine(False, ()),))) == "0\n"


def test_emit_drat_ours_2():
    text = emit_drat(generate_ours(2))
    lines = text.splitlines()
    assert len(lines) == 10
    assert lines[-1] == "0"
    assert text.endswith("0\n")


def test_drat_round_trip_on_generator_outputs():
    for n in range(2, 7):
        for generator in (generate_ours, generate_cook):
            for deletions in (False, True):
                proof = generator(n, deletions)
                assert parse_drat(emit_drat(proof)) == proof


def test_no_deleted_empty_clause_in_generated_proofs():
    for n in range(2, 6):
        for line in generate_ours(n, emit_deletions=True).lines:
            assert not (line.delete and not line.lits)


_clauses = st.lists(
    st.lists(
        st.integers(min_value=1, max_value=8).flatmap(
            lambda v: st.sampled_from([v, -v])
        ),
        min_size=0,
        max_size=5,
        unique_by=abs,
    ).map(tuple),
    max_size=12,
).map(tuple)


@settings(max_examples=60, deadline=None)
@given(_clauses)
def test_dimacs_round_trip_random(clauses):
    formula = CnfFormula(8, clauses)
    assert parse_dimacs(emit_dimacs(formula)) == formula


@settings(max_examples=60, deadline=None)
@given(_clauses, st.lists(st.booleans(), max_size=12))
def test_drat_round_trip_random(clauses, deletes):
    lines = tuple(
        ProofLine(delete and bool(lits), lits)
        for delete, lits in zip(deletes + [False] * len(clauses), clauses)
    )
    proof = Proof(lines)
    assert parse_drat(emit_drat(proof)) == proof
