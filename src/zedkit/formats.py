"""Plain-text parsers and canonical emitters.

Formats by convention: .seq (ordered genome, signed integer tokens), .set
(one chromosome per line, positive integer tokens, "-" for an explicitly
empty chromosome), .cnf (DIMACS subset restricted to three-literal clauses),
.tsv (gene name table).  Every rejection raises ParseError carrying one
diagnostic with a stable code plus 1-based line and column.
"""

from __future__ import annotations

import re

from .errors import ParseDiagnostic, ParseError
from .model import MAX_FAMILY, SeqGenome, SetGenome
from .sat import CnfFormula, GeneNameTable, Literal

# Stable diagnostic codes.
ZERO_GENE = "ZeroGene"
MALFORMED_TOKEN = "MalformedToken"
EMPTY_INPUT = "EmptyInput"
DUPLICATE_IN_CHROMOSOME = "DuplicateInChromosome"
BAD_HEADER = "BadHeader"
CLAUSE_NOT_TERNARY = "ClauseNotTernary"
VAR_OUT_OF_RANGE = "VarOutOfRange"
CLAUSE_COUNT_MISMATCH = "ClauseCountMismatch"
DUPLICATE_FAMILY = "DuplicateFamily"

_TOKEN = re.compile(r"\S+")
_SIGNED_INT = re.compile(r"[+-]?[0-9]+\Z")
_UNSIGNED_INT = re.compile(r"[0-9]+\Z")
# The longest prefix of a data line made of ASCII integer tokens of at most
# 10 digits (as many as MAX_FAMILY has), each followed by white space or the
# end, so that int() takes every one of them as it is.  The match stops at
# the first other token and never backtracks into the tokens before it.
_SEQ_TOKENS = re.compile(r"(?:\s*[+-]?[0-9]{1,10}(?=\s|\Z))*\s*", re.ASCII)
_SET_TOKENS = re.compile(r"(?:\s*[0-9]{1,10}(?=\s|\Z))*\s*", re.ASCII)
# A .set text of ASCII digits, spaces, tabs and newlines alone: no comment,
# "-" line, sign or other character, and str.split("\n") breaks it into the
# lines str.splitlines() gives.
_CLEAN_SET = re.compile(r"[0-9 \t\n]*\Z")


def _fail(line: int, column: int, code: str, message: str):
    raise ParseError(ParseDiagnostic(line, column, code, message))


def _integer(tok: str, pattern: re.Pattern, line: int, column: int, what: str) -> int:
    """tok as an int; a MalformedToken when it does not match the ASCII
    pattern or has more digits than int() converts."""
    if not pattern.match(tok):
        _fail(line, column, MALFORMED_TOKEN, f"expected {what}, got {tok!r}")
    try:
        return int(tok)
    except ValueError:
        _fail(line, column, MALFORMED_TOKEN, f"integer of {len(tok)} characters is too long")


def _gene(tok: str, pattern: re.Pattern, line: int, column: int, what: str) -> int:
    """tok as a gene: an integer matching pattern whose family is 1..MAX_FAMILY."""
    value = _integer(tok, pattern, line, column, what)
    if value == 0:
        _fail(line, column, ZERO_GENE, "gene 0 is reserved")
    if abs(value) > MAX_FAMILY:
        _fail(line, column, MALFORMED_TOKEN, f"family {abs(value)} exceeds the 32-bit bound")
    return value


def _line_genes(line: str, lineno: int, fast: re.Pattern, pattern: re.Pattern, what: str,
                *, distinct: bool = False):
    """The genes of one data line: a list in reading order, or with distinct
    a frozenset in which no family may repeat.

    The tokens of the prefix that fast matches are converted and checked by
    builtins.  The token walk takes the rest of the line, or the line from
    the first prefix gene that is out of range or repeats a family; it
    raises the diagnostic of the first offending token."""
    end = fast.match(line).end()
    tokens = line[:end].split()
    genes, k = _checked_genes(tokens, distinct)
    if k < len(tokens):
        # maxsplit leaves the line from token k on, its lead stripped
        end = len(line) - len(line.split(None, k)[-1])
    if end == len(line):
        return genes
    walked = list(genes)
    seen = set(genes) if distinct else None
    for match in _TOKEN.finditer(line, end):
        col = match.start() + 1
        value = _gene(match.group(), pattern, lineno, col, what)
        if distinct:
            if value in seen:
                _fail(lineno, col, DUPLICATE_IN_CHROMOSOME, f"family {value} repeated in one chromosome")
            seen.add(value)
        walked.append(value)
    return frozenset(walked) if distinct else walked


def _checked_genes(tokens: list[str], distinct: bool):
    """(genes, k): the first k tokens as genes (with distinct a frozenset,
    else a list), k being the index of the first token that is 0, beyond
    MAX_FAMILY or, with distinct, repeats a family (len(tokens) if none is).
    A line of good genes is checked by builtins alone."""
    values = list(map(int, tokens))
    genes = frozenset(values) if distinct else values
    if not values or (len(genes) == len(values) and 0 not in genes
                      and min(genes) >= -MAX_FAMILY and max(genes) <= MAX_FAMILY):
        return genes, len(values)
    seen: set[int] = set()
    for k, g in enumerate(values):
        if not 0 < abs(g) <= MAX_FAMILY or distinct and g in seen:
            break
        seen.add(g)
    return values[:k], k


def _text(data) -> str:
    if not isinstance(data, (bytes, bytearray)):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = (data[: exc.start].decode("utf-8") + "?").splitlines()
        _fail(len(lines), len(lines[-1]), MALFORMED_TOKEN,
              f"byte 0x{data[exc.start]:02x} is not valid UTF-8")


def _data_lines(text: str, comment: str = "#"):
    """(lineno, line) for non-blank, non-comment lines."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(comment):
            continue
        yield lineno, line


def parse_seq_genome(data) -> SeqGenome:
    """Signed integer tokens over any number of lines; '#' starts a comment
    line; token 0 is rejected; empty input is rejected."""
    genes: list[int] = []
    for lineno, line in _data_lines(_text(data)):
        genes += _line_genes(line, lineno, _SEQ_TOKENS, _SIGNED_INT, "a signed integer")
    if not genes:
        _fail(1, 1, EMPTY_INPUT, "no genes in input")
    return SeqGenome._trusted(tuple(genes))


def emit_seq_genome(genome: SeqGenome) -> str:
    """Canonical form: single line, single spaces, no '+' on positive genes."""
    if not genome.genes:
        return ""
    return " ".join(str(g) for g in genome.genes) + "\n"


def parse_set_genome(data) -> SetGenome:
    """One chromosome per non-comment line of positive integer tokens; a line
    holding only '-' is an explicitly empty chromosome."""
    text = _text(data)
    chromosomes = _clean_set_chromosomes(text)
    if chromosomes is None:
        chromosomes = []
        for lineno, line in _data_lines(text):
            if line.strip() == "-":
                chromosomes.append(frozenset())
            else:
                chromosomes.append(_line_genes(line, lineno, _SET_TOKENS, _UNSIGNED_INT,
                                               "a positive integer", distinct=True))
    return SetGenome._trusted(tuple(chromosomes))


def _clean_set_chromosomes(text: str) -> list[frozenset[int]] | None:
    """The chromosomes of a .set text of ASCII digits, spaces, tabs and
    newlines, converted in one pass.  None when the text holds any other
    character, or a line repeats a family or holds 0, a family past
    MAX_FAMILY or a token too long for int(): the line walk then reads the
    text and raises the diagnostic."""
    if not _CLEAN_SET.match(text):
        return None
    chromosomes = []
    for line in text.split("\n"):
        tokens = line.split()
        if not tokens:
            continue
        try:
            c = frozenset(map(int, tokens))
        except ValueError:
            return None
        if len(c) != len(tokens) or 0 in c or max(c) > MAX_FAMILY:
            return None
        chromosomes.append(c)
    return chromosomes


def parse_family_ids(text: str) -> list[int]:
    """Family ids separated by commas or white space, each written as the
    genome parsers accept it: ASCII digits, 1..MAX_FAMILY."""
    return [_gene(m.group(), _UNSIGNED_INT, 1, m.start() + 1, "a positive family id")
            for m in _TOKEN.finditer(text.replace(",", " "))]


def emit_set_genome(genome: SetGenome) -> str:
    """Canonical form: one chromosome per line, members ascending, '-' when empty."""
    lines = [
        " ".join(str(f) for f in sorted(c)) if c else "-"
        for c in genome.chromosomes
    ]
    return "\n".join(lines) + "\n" if lines else ""


def parse_dimacs3(data) -> CnfFormula:
    """DIMACS CNF subset: 'c' comment lines, one 'p cnf <n> <m>' header,
    0-terminated clauses of exactly three nonzero literals within 1..n."""
    header: tuple[int, int] | None = None
    clauses: list[tuple[Literal, Literal, Literal]] = []
    pending: list[Literal] = []
    pending_at: tuple[int, int] | None = None
    last_line = 1
    for lineno, line in _data_lines(_text(data), comment="c"):
        last_line = lineno
        stripped = line.strip()
        if stripped.startswith("p"):
            if header is not None:
                _fail(lineno, line.find("p") + 1, BAD_HEADER, "duplicate header")
            parts = stripped.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                _fail(lineno, line.find("p") + 1, BAD_HEADER, "expected 'p cnf <vars> <clauses>'")
            try:
                if not (_SIGNED_INT.match(parts[2]) and _SIGNED_INT.match(parts[3])):
                    raise ValueError
                n, m = int(parts[2]), int(parts[3])
            except ValueError:  # not ASCII integers, or too long for int()
                _fail(lineno, line.find("p") + 1, BAD_HEADER, "non-integer header counts")
            if n < 0 or m < 0:
                _fail(lineno, line.find("p") + 1, BAD_HEADER, "negative header counts")
            header = (n, m)
            continue
        if header is None:
            _fail(lineno, _TOKEN.search(line).start() + 1, BAD_HEADER, "clause data before header")
        for match in _TOKEN.finditer(line):
            tok, col = match.group(), match.start() + 1
            value = _integer(tok, _SIGNED_INT, lineno, col, "an integer")
            if value == 0:
                if len(pending) != 3:
                    _fail(lineno, col, CLAUSE_NOT_TERNARY,
                          f"clause has {len(pending)} literals, expected 3")
                clauses.append(tuple(pending))
                pending = []
                pending_at = None
                continue
            if abs(value) > header[0]:
                _fail(lineno, col, VAR_OUT_OF_RANGE,
                      f"variable {abs(value)} out of range 1..{header[0]}")
            if not pending:
                pending_at = (lineno, col)
            pending.append(Literal(abs(value), value > 0))
    if header is None:
        _fail(1, 1, BAD_HEADER, "missing 'p cnf' header")
    if pending:
        _fail(pending_at[0], pending_at[1], CLAUSE_NOT_TERNARY, "unterminated clause at end of input")
    if len(clauses) != header[1]:
        _fail(last_line, 1, CLAUSE_COUNT_MISMATCH,
              f"header declares {header[1]} clauses, found {len(clauses)}")
    return CnfFormula(header[0], tuple(clauses))


def emit_dimacs3(phi: CnfFormula) -> str:
    lines = [f"p cnf {phi.n_vars} {len(phi.clauses)}"]
    for cl in phi.clauses:
        lines.append(" ".join(str(l.variable if l.positive else -l.variable) for l in cl) + " 0")
    return "\n".join(lines) + "\n"


def parse_name_table(data) -> GeneNameTable:
    """Tab-separated 'family<TAB>role' lines; both columns must be unique."""
    roles: dict[int, str] = {}
    seen_roles: set[str] = set()
    for lineno, raw in enumerate(_text(data).splitlines(), start=1):
        if not raw.strip():
            continue
        parts = raw.split("\t")
        if len(parts) != 2:
            _fail(lineno, 1, MALFORMED_TOKEN, "expected 'family<TAB>role'")
        fam_str, role = parts
        fam = _gene(fam_str.strip(), _UNSIGNED_INT, lineno, 1, "a family id")
        if not role:
            _fail(lineno, len(fam_str) + 2, MALFORMED_TOKEN, "empty role name")
        if fam in roles or role in seen_roles:
            _fail(lineno, 1, DUPLICATE_FAMILY, f"duplicate entry for {fam}/{role}")
        roles[fam] = role
        seen_roles.add(role)
    return GeneNameTable(roles)


def emit_name_table(table: GeneNameTable) -> str:
    lines = [f"{fam}\t{table.role_of[fam]}" for fam in sorted(table.role_of)]
    return "\n".join(lines) + "\n" if lines else ""


def render_seq_roles(genome: SeqGenome, table: GeneNameTable) -> str:
    """Genome as space-separated role tokens ('-' prefix for reversed genes)."""
    toks = [
        table.role(abs(g)) if g > 0 else "-" + table.role(abs(g))
        for g in genome.genes
    ]
    return " ".join(toks) + "\n" if toks else ""


def render_set_roles(genome: SetGenome, table: GeneNameTable) -> str:
    """One chromosome per line as role tokens, members ascending by family id."""
    lines = [
        " ".join(table.role(f) for f in sorted(c)) if c else "-"
        for c in genome.chromosomes
    ]
    return "\n".join(lines) + "\n" if lines else ""
