import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from worked_examples import SEQ_G1, SET_G1, TWO_CLAUSE_FORMULA
from zedkit import CnfFormula, ParseError, SeqGenome, SetGenome
from zedkit.formats import (
    BAD_HEADER,
    CLAUSE_COUNT_MISMATCH,
    CLAUSE_NOT_TERNARY,
    DUPLICATE_FAMILY,
    DUPLICATE_IN_CHROMOSOME,
    EMPTY_INPUT,
    MALFORMED_TOKEN,
    VAR_OUT_OF_RANGE,
    ZERO_GENE,
    emit_dimacs3,
    emit_name_table,
    emit_seq_genome,
    emit_set_genome,
    parse_dimacs3,
    parse_family_ids,
    parse_name_table,
    parse_seq_genome,
    parse_set_genome,
)
from zedkit.sat import GeneNameTable, reduce_3sat_to_seq_zed


def diagnostic(parse, text):
    with pytest.raises(ParseError) as err:
        parse(text)
    return err.value.diagnostic


def test_parse_seq_worked_genome():
    assert parse_seq_genome("-4 +1 +2 +3 -5 +1 +2 +3 -6") == SEQ_G1
    assert parse_seq_genome(b"-4 1 2 3 -5 1 2 3 -6") == SEQ_G1


def test_parse_seq_comments_and_blanks():
    assert parse_seq_genome("# comment\n\n+1") == SeqGenome.of(1)
    assert parse_seq_genome("1 2\n# mid comment\n3") == SeqGenome.of(1, 2, 3)


def test_parse_seq_errors():
    d = diagnostic(parse_seq_genome, "3 0 2")
    assert (d.line, d.column, d.code) == (1, 3, ZERO_GENE)
    d = diagnostic(parse_seq_genome, "1\nx 2")
    assert (d.line, d.column, d.code) == (2, 1, MALFORMED_TOKEN)
    assert diagnostic(parse_seq_genome, "").code == EMPTY_INPUT
    assert diagnostic(parse_seq_genome, "# only comments\n").code == EMPTY_INPUT
    assert diagnostic(parse_seq_genome, str(2**31)).code == MALFORMED_TOKEN


def test_parse_set_worked_genome():
    assert parse_set_genome("1 2 3\n2 3 4\n4 5") == SET_G1


def test_parse_set_empty_chromosome_marker():
    g = parse_set_genome("-\n1 2")
    assert g.chromosomes == (frozenset(), frozenset({1, 2}))


def test_parse_set_errors():
    d = diagnostic(parse_set_genome, "1 1 2")
    assert (d.line, d.column, d.code) == (1, 3, DUPLICATE_IN_CHROMOSOME)
    assert diagnostic(parse_set_genome, "1 0").code == ZERO_GENE
    assert diagnostic(parse_set_genome, "-5 1").code == MALFORMED_TOKEN
    assert diagnostic(parse_set_genome, "1 - 2").code == MALFORMED_TOKEN


def test_parse_dimacs_worked_formula(data_dir):
    assert parse_dimacs3((data_dir / "example1.cnf").read_text()) == TWO_CLAUSE_FORMULA


def test_parse_dimacs_trivial():
    phi = parse_dimacs3("p cnf 1 0\n")
    assert phi.n_vars == 1 and phi.clauses == ()


def test_parse_dimacs_errors():
    assert diagnostic(parse_dimacs3, "p cnf 2 1\n1 -2 0").code == CLAUSE_NOT_TERNARY
    assert diagnostic(parse_dimacs3, "p cnf 2 1\n1 2 3 0").code == VAR_OUT_OF_RANGE
    assert diagnostic(parse_dimacs3, "p cnf 2 2\n1 1 2 0").code == CLAUSE_COUNT_MISMATCH
    assert diagnostic(parse_dimacs3, "p wrong 2 1").code == BAD_HEADER
    assert diagnostic(parse_dimacs3, "1 2 3 0").code == BAD_HEADER
    assert diagnostic(parse_dimacs3, "").code == BAD_HEADER
    assert diagnostic(parse_dimacs3, "p cnf 2 1\np cnf 2 1").code == BAD_HEADER
    assert diagnostic(parse_dimacs3, "p cnf 3 1\n1 2 3").code == CLAUSE_NOT_TERNARY
    assert diagnostic(parse_dimacs3, "p cnf 3 1\n1 x 3 0").code == MALFORMED_TOKEN
    assert diagnostic(parse_dimacs3, "p cnf ٣ 0").code == BAD_HEADER  # ASCII digits only
    assert diagnostic(parse_dimacs3, "p cnf 3 " + "9" * 4301).code == BAD_HEADER


def test_name_table_round_trip_and_line_count():
    _, _, table = reduce_3sat_to_seq_zed(TWO_CLAUSE_FORMULA)
    text = emit_name_table(table)
    assert len(text.splitlines()) == 21  # 2n + 6m + 1 families
    assert parse_name_table(text) == table


def test_name_table_empty_and_errors():
    assert emit_name_table(GeneNameTable({})) == ""
    assert parse_name_table("") == GeneNameTable({})
    assert diagnostic(parse_name_table, "1\tx_1\n1\ty_1").code == DUPLICATE_FAMILY
    assert diagnostic(parse_name_table, "1\tx_1\n2\tx_1").code == DUPLICATE_FAMILY
    assert diagnostic(parse_name_table, "zap").code == MALFORMED_TOKEN
    with pytest.raises(ValueError, match="unique"):
        GeneNameTable({1: "x_1", 2: "x_1"})


def test_name_table_refuses_family_ids_the_genome_parsers_refuse():
    assert diagnostic(parse_name_table, "0\tx_1").code == ZERO_GENE
    assert diagnostic(parse_name_table, "2147483648\tx_1").code == MALFORMED_TOKEN


@pytest.mark.parametrize(
    "text, column, code",
    [("  x\tr_1", 3, MALFORMED_TOKEN), (" 0\tz", 2, ZERO_GENE)],
)
def test_name_table_names_the_column_of_a_bad_family_id(text, column, code):
    d = diagnostic(parse_name_table, text)
    assert ((d.line, d.column), d.code) == ((1, column), code)


@pytest.mark.parametrize(
    "parse, text, where, code",
    [
        (parse_name_table, "1\tx_1\n2\tx_1", (2, 3), DUPLICATE_FAMILY),  # the repeated role
        (parse_name_table, "1\tx_1\n  1\ty_1", (2, 3), DUPLICATE_FAMILY),  # the repeated id
        (parse_name_table, "1\t", (1, 3), MALFORMED_TOKEN),  # an empty role
        (parse_name_table, "1\tx_1\n \t \n2\tx_1", (3, 3), DUPLICATE_FAMILY),  # a blank line
        (parse_dimacs3, "p cnf -1 0", (1, 1), BAD_HEADER),
    ],
)
def test_table_and_header_faults_name_the_offending_field(parse, text, where, code):
    d = diagnostic(parse, text)
    assert ((d.line, d.column), d.code) == (where, code)


def test_canonical_seq_emission():
    assert emit_seq_genome(SeqGenome.of(-4, 1, 2)) == "-4 1 2\n"
    assert emit_seq_genome(SeqGenome(())) == ""


def test_canonical_set_emission():
    assert emit_set_genome(SetGenome.of({2, 1}, set())) == "1 2\n-\n"
    assert emit_set_genome(SetGenome(())) == ""


signed_genes = st.builds(
    lambda f, s: f * s, st.integers(1, 50), st.sampled_from([1, -1])
)
seq_genomes = st.lists(signed_genes, min_size=1, max_size=30).map(
    lambda l: SeqGenome(tuple(l))
)
set_genomes = st.lists(
    st.sets(st.integers(1, 30), max_size=6), min_size=0, max_size=6
).map(lambda cs: SetGenome(tuple(frozenset(c) for c in cs)))


@given(seq_genomes)
def test_seq_round_trip(g):
    assert parse_seq_genome(emit_seq_genome(g)) == g


@given(set_genomes)
def test_set_round_trip(g):
    text = emit_set_genome(g)
    if g.chromosomes:
        parsed = parse_set_genome(text)
        assert parsed.chromosomes == g.chromosomes
    else:
        assert text == ""


cnf_formulas = st.builds(
    lambda n, cls: CnfFormula.of(
        n, *[tuple(((abs(v) % n) + 1) * (1 if v >= 0 else -1) for v in cl) for cl in cls]
    ),
    st.integers(1, 6),
    st.lists(
        st.tuples(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20)),
        max_size=4,
    ),
)


@given(cnf_formulas)
@settings(max_examples=60)
def test_dimacs_round_trip(phi):
    assert parse_dimacs3(emit_dimacs3(phi)) == phi


LONG = "9" * 4301  # more digits than int() converts


@pytest.mark.parametrize(
    "parse, data, where",
    [
        (parse_seq_genome, "1 " + LONG, (1, 3)),
        (parse_set_genome, "1\n" + LONG, (2, 1)),
        (parse_dimacs3, "p cnf 3 1\n1 2 " + LONG + " 0", (2, 5)),
        (parse_name_table, LONG + "\tx_1", (1, 1)),
        (parse_seq_genome, "٣ 1", (1, 1)),  # ARABIC-INDIC DIGIT THREE
        (parse_set_genome, "2 ٣", (1, 3)),
        (parse_dimacs3, "p cnf 3 1\n1 2 ٣ 0", (2, 5)),
        (parse_seq_genome, b"1 2\n3 \xff 4", (2, 3)),
        (parse_set_genome, b"1\r\n2 \x80", (2, 3)),
        (parse_dimacs3, b"\xc3", (1, 1)),
        (parse_family_ids, "1," + LONG, (1, 3)),
        (parse_family_ids, "1, ٣", (1, 4)),
    ],
)
def test_long_non_ascii_and_undecodable_tokens_are_malformed(parse, data, where):
    d = diagnostic(parse, data)
    assert ((d.line, d.column), d.code) == (where, MALFORMED_TOKEN)


def test_family_ids_are_split_on_commas_and_spaces():
    assert parse_family_ids("3,1 2\t3") == [3, 1, 2, 3]
    assert parse_family_ids(" ") == []


@pytest.mark.parametrize(
    "text, column, code",
    [("-3", 1, MALFORMED_TOKEN), ("1,0", 3, ZERO_GENE), ("2.0", 1, MALFORMED_TOKEN),
     ("1 4294967296", 3, MALFORMED_TOKEN)],
)
def test_family_ids_the_genome_parsers_refuse(text, column, code):
    d = diagnostic(parse_family_ids, text)
    assert ((d.line, d.column), d.code) == ((1, column), code)


fragments = st.sampled_from(
    ["1", "-2", "+3", "0", "12", "-", " ", "\t", "\n", "\r\n", "#", "c", "p", "cnf",
     "p cnf 3 1\n", "٣", "x", "\u00a0", "\u2028"]
)
parser_inputs = st.one_of(st.text(), st.binary(), st.lists(fragments, max_size=30).map("".join))


@pytest.mark.parametrize("parse", [parse_seq_genome, parse_set_genome, parse_dimacs3])
@given(data=parser_inputs)
@settings(max_examples=150)
def test_parsers_accept_or_raise_a_located_diagnostic(parse, data):
    try:
        parse(data)
    except ParseError as err:
        assert err.diagnostic.line >= 1 and err.diagnostic.column >= 1


# Fragments that probe the line check of the genome parsers: tokens it must
# leave to _walk_line (a signed token inside a .set line among them),
# separators that are white space to str.split() but not to an ASCII pattern
# (U+001F, which str.splitlines() does not break on, and non-ASCII white
# space between ASCII tokens), and characters that str.splitlines() breaks on.
line_probes = st.sampled_from(
    ["1-2", "1+2", "1_0", "٣", "１", "00000000001", "2147483648", "-2147483647",
     "2147483647", "\x0b", "\x1c", "\x1f", "\u00a0", "\u2003", "\u3000", "\u2028", "1 # 2",
     "\n  # note\n", "\n-\n", " - ", " +1 ", " -1 ", "7", "8 9", "3 3", "\n"]
)
genome_lines = st.lists(
    st.lists(st.sampled_from(["1", "2", "3", "45", "7", "8", "9", "10", "2147483647", "0000000006"]),
             min_size=1, max_size=5).map(" ".join),
    max_size=4,
).map("\n".join)
# Well-formed tokens whose gene the line check refuses after the tokens
# before it: 0, a family past the 32-bit bound, or a family repeated in a
# .set line; the diagnostic must name the first of them.
bad_genes = st.sampled_from(
    [" 0", " -0", " 00", " 2147483648", " -2147483648", " 1", " 7 7", " 8 0", " 9 0 x"]
)
# .set texts of rows of ASCII tokens separated by spaces and tabs, some with
# a comment, a " - " line, "\r" line ends, a repeated family, a 0 or an
# 11-digit token inserted; the .set parser reads each with "\n" and with
# "\r\n" line breaks.
set_rows = st.lists(
    st.tuples(
        st.lists(st.sampled_from(["1", "2", "3", "45", "7", "2147483647", "0000000006"]),
                 min_size=1, max_size=4, unique=True),
        st.sampled_from([" ", "\t", "  ", " \t"]),
    ).map(lambda t: t[1].join(t[0])),
    min_size=1, max_size=4,
)
SET_ROW_EDITS = {
    "none": lambda rows, at: rows,
    "comment": lambda rows, at: rows[:at] + ["# note 0 x"] + rows[at:],
    "dash": lambda rows, at: rows[:at] + [" - "] + rows[at:],
    "cr": lambda rows, at: [row + "\r" for row in rows],
    "repeat": lambda rows, at: rows[:-1] + [rows[-1] + " " + rows[-1].split()[0]],
    "zero": lambda rows, at: rows[:at] + [rows[at % len(rows)] + " 0"] + rows[at + 1:],
    "eleven": lambda rows, at: rows[:-1] + [rows[-1] + " 21474836470"],
}
set_texts = st.tuples(
    set_rows, st.sampled_from(list(SET_ROW_EDITS)), st.integers(0, 3), st.sampled_from(["", "\n"])
).map(lambda t: "\n".join(SET_ROW_EDITS[t[1]](t[0], t[2])) + t[3])
genome_inputs = st.one_of(
    parser_inputs,
    st.lists(st.one_of(fragments, line_probes), max_size=30).map("".join),
    st.tuples(genome_lines, line_probes, genome_lines).map("".join),
    st.tuples(genome_lines, bad_genes, genome_lines).map("".join),
)


def _outcome(parse, data, ordered: bool):
    """What parse makes of data, in parse_genome_reference's terms."""
    try:
        genome = parse(data)
    except ParseError as err:
        d = err.diagnostic
        return (d.line, d.column, d.code)
    return genome.genes if ordered else genome.chromosomes


@pytest.mark.parametrize("parse, ordered", [(parse_seq_genome, True), (parse_set_genome, False)])
@given(data=genome_inputs)
@settings(max_examples=300)
def test_genome_parsers_match_the_reference_parser(parse, ordered, data):
    assert _outcome(parse, data, ordered) == oracles.parse_genome_reference(data, ordered)


@given(text=set_texts)
@settings(max_examples=300)
def test_both_set_parser_paths_match_the_reference_parser(text):
    expected = oracles.parse_genome_reference(text, False)
    assert _outcome(parse_set_genome, text, False) == expected
    # the same lines with "\r\n" breaks
    crlf = text.replace("\r\n", "\n").replace("\n", "\r\n") + "\r\n"
    assert _outcome(parse_set_genome, crlf, False) == expected
