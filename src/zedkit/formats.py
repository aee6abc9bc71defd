"""Plain-text parsers and canonical emitters.

Formats by convention: .seq (ordered genome, signed integer tokens), .set
(one chromosome per line, positive integer tokens, "-" for an explicitly
empty chromosome), .cnf (DIMACS subset restricted to three-literal clauses),
.tsv (gene name table).  Every rejection raises ParseError carrying one
diagnostic with a stable code plus 1-based line and column.

Both genome parsers share one line reader: a line that is ASCII, holds no
"_" and, in .set, no sign is converted by int() and checked by builtins;
any other line, or one that fails the check, is converted up to its first
offending token, which is the one the diagnostic names.
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


def _text(data) -> str:
    if not isinstance(data, (bytes, bytearray)):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = (data[: exc.start].decode("utf-8") + "?").splitlines()
        _fail(len(lines), len(lines[-1]), MALFORMED_TOKEN,
              f"byte 0x{data[exc.start]:02x} is not valid UTF-8")


def _plain(s: str, ordered: bool) -> bool:
    """Whether s is ASCII with no "_" and, in .set, no sign: int() then reads
    each token of s exactly as _SIGNED_INT (.seq) or _UNSIGNED_INT (.set)
    would, or refuses it.  _genome_lines inlines this test for its lines: a
    call per line costs about 2% of a .set parse."""
    return s.isascii() and "_" not in s and (ordered or "+" not in s and "-" not in s)


def _genome_lines(data, ordered: bool):
    """The genes of each data line of a .seq text (ordered) as a list, or
    the chromosome of each data line of a .set text as a frozenset.

    Each line is split once.  A plain line (see _plain; every line is when
    the whole text is) is converted by int() and its genes are checked by
    builtins.  Any other line is skipped when blank or when its first token
    starts with "#" (which int() never converts); in .set a line holding
    only "-" is an empty chromosome; _walk_line reads the rest."""
    text = _text(data)
    all_plain = _plain(text, ordered)
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        plain = all_plain or (line.isascii() and "_" not in line
                              and (ordered or "+" not in line and "-" not in line))
        try:
            if plain and ordered:
                values = []  # on ValueError, the genes before the refused token
                values.extend(map(int, tokens))
                if 0 not in values and min(values) >= -MAX_FAMILY and max(values) <= MAX_FAMILY:
                    yield values
                    continue
            elif plain:
                genes = frozenset(map(int, tokens))
                if len(genes) == len(tokens) and 0 not in genes and max(genes) <= MAX_FAMILY:
                    yield genes
                    continue
        except ValueError:
            pass
        if tokens[0][0] == "#":
            continue
        if not ordered and tokens == ["-"]:
            yield frozenset()
            continue
        yield _walk_line(line, lineno, tokens, values if plain and ordered else [], ordered)


def _walk_line(line: str, lineno: int, tokens: list[str], values: list[int], ordered: bool):
    """The genes of a data line that _genome_lines refused; values holds the
    genes it converted from the line's first tokens (a plain .seq line).

    The tokens before the first one that is not plain, that int() refuses,
    or whose gene is 0, beyond MAX_FAMILY or (in .set) a repeat are kept as
    converted.  Any token left is the line's first offending one: _gene
    refuses it, or else it is a .set repeat.  A line with none (one with
    non-ASCII white space) gives its genes."""
    k = len(tokens) if _plain(line, ordered) else next(
        (i for i, tok in enumerate(tokens) if not _plain(tok, ordered)), len(tokens))
    try:
        # CPython's list.extend keeps the items appended before its iterator
        # raised, so values ends before the first token int() refuses
        values.extend(map(int, tokens[len(values):k]))
    except ValueError:
        pass
    seen: set[int] = set()
    for k, g in enumerate(values):
        if not 0 < abs(g) <= MAX_FAMILY or g in seen:
            break
        if not ordered:
            seen.add(g)
    else:
        k = len(values)
    if k == len(tokens):
        return values if ordered else frozenset(values)
    # the line up to the end of token k - 1: rsplit splits only the tokens
    # after it, so a bad last token costs no second split
    start = len(line.rsplit(None, len(tokens) - k)[0]) if k else 0
    match = _TOKEN.search(line, start)
    col = match.start() + 1
    pattern = _SIGNED_INT if ordered else _UNSIGNED_INT
    what = "a signed integer" if ordered else "a positive integer"
    value = _gene(match.group(), pattern, lineno, col, what)
    _fail(lineno, col, DUPLICATE_IN_CHROMOSOME, f"family {value} repeated in one chromosome")


def parse_seq_genome(data) -> SeqGenome:
    """Signed integer tokens over any number of lines; '#' starts a comment
    line; token 0 is rejected; empty input is rejected."""
    genes: list[int] = []
    for line_genes in _genome_lines(data, ordered=True):
        genes += line_genes
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
    return SetGenome._trusted(tuple(_genome_lines(data, ordered=False)))


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
    for lineno, line in enumerate(_text(data).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        last_line = lineno
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
        column = len(fam_str) - len(fam_str.lstrip()) + 1
        fam = _gene(fam_str.strip(), _UNSIGNED_INT, lineno, column, "a family id")
        if not role:
            _fail(lineno, len(fam_str) + 2, MALFORMED_TOKEN, "empty role name")
        if fam in roles or role in seen_roles:
            _fail(lineno, column if fam in roles else len(fam_str) + 2, DUPLICATE_FAMILY,
                  f"duplicate entry for {fam}/{role}")
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
