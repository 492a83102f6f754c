"""DIMACS CNF/WCNF instances: parsing, classification, generation, serialization.

Accepted dialects: comment lines start with "c", one "p cnf <n> <m>" or
"p wcnf <n> <m> [top]" header with nothing after it on its line, clauses as
whitespace-separated integers terminated by 0 (clauses may span lines).  WCNF
clause lines start with the clause weight; when the optional top weight is
present, weight == top marks a hard clause.  A trailing "%" / "0" pair after
the final clause (SATLIB convention) is ignored.  A header that declares no
variables is refused: there is nothing to search.

WCNF also comes in the MaxSAT Evaluation 2022+ dialect, with no "p" line: a
clause starts with its weight, or with "h" for a hard clause.  Then n is the
largest variable used, and every hard clause gets the top weight, the total
soft weight + 1, as ``generate_random`` sets it.  ``write_dimacs`` always
writes the header dialect, which reads back to the same ``Formula``.

``generate_random`` repeats inline the ``getrandbits`` and ``random`` calls
of CPython's ``Random.sample``, ``random`` and ``randint``, so a seed gives the
same formula as those calls did, on every supported Python version.

Formulas share frozen ``Literal``s.  A table built at import holds the 64
literals of variables 1..32, and no call adds to it.  The parser's per-call
map from DIMACS code to ``Literal`` starts as a copy of the table's.
``generate_random``'s pool branch takes the pairs of v <= 32 from the table
and builds those beyond it; the rejection branch keeps its per-call dict and
builds a variable's pair when a clause first draws it, so a call over many
variables and few clauses builds only the literals it uses.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum


class ProblemClass(Enum):
    """The four supported problem flavors, named by their CLI token."""

    MAXSAT = "maxsat"
    WEIGHTED_MAXSAT = "wmaxsat"
    PARTIAL_MAXSAT = "pms"
    WEIGHTED_PARTIAL_MAXSAT = "wpms"


class ParseError(ValueError):
    """Malformed DIMACS input, pinned to a 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True, slots=True, init=False)
class Literal:
    """A variable (1-based index) or its negation.

    Validation lives in ``__init__``, which refuses an index below 1.  Like
    ``Clause``'s, it writes the slots directly, cheaper than a generated
    frozen ``__init__`` and ``__post_init__``.
    """

    var: int
    negated: bool = False

    def __init__(self, var: int, negated: bool = False):
        if var < 1:
            raise ValueError(f"variable index must be >= 1, got {var}")
        _set_var(self, var)
        _set_negated(self, negated)

    @classmethod
    def from_dimacs(cls, code: int) -> "Literal":
        if code == 0:
            raise ValueError("0 is the clause terminator, not a literal")
        return cls(abs(code), code < 0)

    def to_dimacs(self) -> int:
        return -self.var if self.negated else self.var


@dataclass(frozen=True, slots=True, init=False)
class Clause:
    """Disjunction of literals with a non-negative weight.

    Duplicate and complementary literals are preserved as written.
    Validation lives in ``__init__``, which refuses an empty clause and a
    negative weight.
    """

    literals: tuple[Literal, ...]
    weight: int = 1
    hard: bool = False

    def __init__(self, literals: tuple[Literal, ...], weight: int = 1, hard: bool = False):
        if not literals:
            raise ValueError("clause must contain at least one literal")
        if weight < 0:
            raise ValueError(f"clause weight must be non-negative, got {weight}")
        _set_literals(self, literals)
        _set_weight(self, weight)
        _set_hard(self, hard)


# the slot setters that the __init__s write the frozen fields with
_set_var, _set_negated = Literal.var.__set__, Literal.negated.__set__
_set_literals, _set_weight = Clause.literals.__set__, Clause.weight.__set__
_set_hard = Clause.hard.__set__

# (Literal(v), Literal(v, True)) at index v - 1, for v = 1..32; never grows
_LITERAL_PAIRS = tuple((Literal(v), Literal(v, True)) for v in range(1, 33))
_LITERAL_CODES = {lit.to_dimacs(): lit for pair in _LITERAL_PAIRS for lit in pair}


@dataclass(frozen=True)
class Formula:
    """A conjunction of weighted clauses over variables 1..num_vars."""

    num_vars: int
    clauses: tuple[Clause, ...]
    top_weight: int | None = None

    def __post_init__(self):
        num_vars, top = self.num_vars, self.top_weight
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        for idx, clause in enumerate(self.clauses):
            for lit in clause.literals:
                if lit.var > num_vars:
                    raise ValueError(
                        f"clause {idx} uses variable {lit.var} "
                        f"beyond num_vars={num_vars}"
                    )
            if top is None:
                if clause.hard:
                    raise ValueError(f"clause {idx} is hard but no top weight is set")
            elif clause.hard != (clause.weight == top):
                raise ValueError(
                    f"clause {idx}: hard flag must match weight == top_weight"
                )

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def _numbered_tokens(source: str | bytes) -> list[tuple[str, int]]:
    """Whitespace tokens paired with their 1-based line number, comments and
    a leading byte order mark dropped.  Lines end at \\n, \\r\\n and \\r only,
    so a form feed, U+0085 or U+2028 inside a comment does not end it."""
    if isinstance(source, bytes):
        source = source.decode("utf-8", errors="replace")
    lines = source.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    out = []
    for line_no, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        for tok in stripped.split():
            out.append((tok, line_no))
    return out


def _to_int(token: str, line: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"invalid {what} {token!r}", line) from None


def _parse_header(tokens: list[tuple[str, int]], kind: str):
    """Return (num_vars, num_clauses, top, body_start_index)."""
    if not tokens:
        raise ParseError("empty input", 1)
    tok, line = tokens[0]
    if tok != "p":
        raise ParseError(f"expected 'p {kind}' header, found {tok!r}", line)
    if len(tokens) < 4:
        raise ParseError("incomplete header", line)
    fmt, fmt_line = tokens[1]
    if fmt != kind:
        raise ParseError(f"expected 'p {kind}' header, found 'p {fmt}'", fmt_line)
    num_vars = _to_int(*tokens[2], "variable count")
    num_clauses = _to_int(*tokens[3], "clause count")
    if num_vars < 0 or num_clauses < 0:
        raise ParseError("header counts must be non-negative", line)
    if num_vars == 0:  # nothing to search; the search and the oracle refuse it
        raise ParseError("header declares no variables", line)
    top = None
    body = 4
    header_line = tokens[3][1]
    if kind == "wcnf" and len(tokens) > 4 and tokens[4][1] == header_line:
        top = _to_int(*tokens[4], "top weight")
        if top < 0:
            raise ParseError("top weight must be non-negative", header_line)
        body = 5
    if len(tokens) > body and tokens[body][1] == header_line:
        extra = tokens[body][0]
        raise ParseError(f"extra token {extra!r} on the header line", header_line)
    return num_vars, num_clauses, top, body


def _check_tail(tokens: list[tuple[str, int]], start: int) -> None:
    """After the final declared clause only '%' / '0' filler lines may follow."""
    for tok, line in tokens[start:]:
        if tok not in ("%", "0"):
            raise ParseError("content after the declared number of clauses", line)


def _parse(tokens: list[tuple[str, int]], kind: str) -> Formula:
    """The clause loop of both kinds and both WCNF dialects: a WCNF clause
    reads its weight first ("h" for a hard one in the headerless dialect), a
    CNF clause has weight 1.  Weight == top marks a hard clause."""
    headerless = kind == "wcnf" and bool(tokens) and tokens[0][0] != "p"
    if headerless:
        num_vars, num_clauses, top, body = None, None, None, 0
    else:
        num_vars, num_clauses, top, body = _parse_header(tokens, kind)
    unread = None if kind == "wcnf" else 1  # the weight of a clause not yet begun
    rows: list[tuple[tuple[Literal, ...], int | str]] = []  # weight "h": hard, headerless
    weight = unread
    lits: list[Literal] = []
    shared = dict(_LITERAL_CODES)  # one Literal per DIMACS code, the table's first
    last_line = tokens[body - 1][1] if body else tokens[0][1]
    for pos in range(body, len(tokens)):
        tok, line = tokens[pos]
        if len(rows) == num_clauses:
            _check_tail(tokens, pos)
            break
        if weight is None:
            if headerless and tok == "h":
                weight = tok
            else:
                weight = _to_int(tok, line, "clause weight")
                if weight < 0:
                    raise ParseError(f"negative clause weight {weight}", line)
                if top is not None and weight > top:
                    raise ParseError(f"clause weight {weight} exceeds top {top}", line)
        else:
            code = _to_int(tok, line, "literal")
            if code == 0:
                if not lits:
                    raise ParseError("empty clause", line)
                rows.append((tuple(lits), weight))
                weight = unread
                lits = []
            else:
                if num_vars is not None and abs(code) > num_vars:
                    raise ParseError(
                        f"variable {abs(code)} exceeds declared count {num_vars}", line
                    )
                lit = shared.get(code)
                if lit is None:
                    lit = shared[code] = Literal.from_dimacs(code)
                lits.append(lit)
        last_line = line
    if weight != unread or lits:
        raise ParseError("unterminated clause at end of input", last_line)
    if headerless:
        num_vars = max(lit.var for clause, _ in rows for lit in clause)
        if any(w == "h" for _, w in rows):
            top = sum(w for _, w in rows if w != "h") + 1
        rows = [(clause, top if w == "h" else w) for clause, w in rows]
    elif len(rows) != num_clauses:
        raise ParseError(
            f"header declares {num_clauses} clauses, found {len(rows)}", last_line
        )
    clauses = tuple(Clause(clause, w, w == top) for clause, w in rows)
    return Formula(num_vars, clauses, top_weight=top)


def parse_cnf(source: str | bytes) -> Formula:
    """Parse DIMACS CNF text into a Formula with unit weights and no hard clauses."""
    return _parse(_numbered_tokens(source), "cnf")


def parse_wcnf(source: str | bytes) -> Formula:
    """Parse DIMACS WCNF text in either dialect; clauses with weight == top,
    or marked "h" without a header, are hard."""
    return _parse(_numbered_tokens(source), "wcnf")


def parse_dimacs(source: str | bytes) -> Formula:
    """Parse CNF or WCNF, dispatching on the header kind; input without a
    "p" line is headerless WCNF."""
    tokens = _numbered_tokens(source)
    first = [tok for tok, _ in tokens[:2]]
    wcnf = first == ["p", "wcnf"] or (bool(first) and first[0] != "p")
    return _parse(tokens, "wcnf" if wcnf else "cnf")


def classify(f: Formula) -> ProblemClass:
    """Structural problem class: presence of hard clauses and non-unit soft weights."""
    any_hard = any(c.hard for c in f.clauses)
    soft_unit = all(c.weight == 1 for c in f.clauses if not c.hard)
    if any_hard:
        if soft_unit:
            return ProblemClass.PARTIAL_MAXSAT
        return ProblemClass.WEIGHTED_PARTIAL_MAXSAT
    if soft_unit:
        return ProblemClass.MAXSAT
    return ProblemClass.WEIGHTED_MAXSAT


def check_hard_weight_rule(f: Formula) -> bool:
    """True iff every hard clause outweighs the sum of all soft clause weights."""
    soft_sum = sum(c.weight for c in f.clauses if not c.hard)
    return all(c.weight > soft_sum for c in f.clauses if c.hard)


def generate_random(
    n: int,
    m: int,
    k: int,
    weighted: bool = False,
    hard_count: int = 0,
    seed: int = 0,
) -> Formula:
    """Random k-SAT style instance: k distinct variables per clause, each negated
    with probability 0.5.

    Weighted instances draw soft weights uniformly from the integers 0..1000.
    The first ``hard_count`` clauses are hard; they share a weight of one more
    than the total soft weight, which also serves as the top weight.
    Bit-reproducible for a fixed seed.

    Per clause it makes the ``getrandbits`` calls of
    ``rng.sample(range(1, n + 1), k)`` inline (a pool swap while n <= sample's
    ``setsize``, a rejection set above it), then one ``rng.random() < 0.5``
    per sign; per soft weight, those of ``rng.randint(0, 1000)``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, n], got k={k} with n={n}")
    if not 0 <= hard_count <= m:
        raise ValueError("hard_count must be in [0, m]")
    rng = random.Random(seed)
    getrandbits, rand = rng.getrandbits, rng.random
    setsize = 21  # sample's choice of branch, variables 0-based
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    shapes = []
    if n <= setsize:
        # the pool holds each variable's pair: the table's, then any beyond it
        beyond = range(len(_LITERAL_PAIRS) + 1, n + 1)
        base = [*_LITERAL_PAIRS[:n], *[(Literal(v), Literal(v, True)) for v in beyond]]
        draws = [(size, size.bit_length(), size - 1) for size in range(n, n - k, -1)]
        for _ in range(m):
            pool = base[:]
            chosen = []
            for size, bits, last in draws:
                j = getrandbits(bits)
                while j >= size:
                    j = getrandbits(bits)
                chosen.append(pool[j])
                pool[j] = pool[last]
            lits = []
            for pair in chosen:
                lits.append(pair[rand() < 0.5])
            shapes.append(tuple(lits))
    else:
        signs = {}  # the pairs of the variables drawn; n may be far above them
        bits = n.bit_length()
        for _ in range(m):
            chosen = {}  # the picks, in order
            for _ in range(k):
                j = getrandbits(bits)
                while j >= n or j in chosen:
                    j = getrandbits(bits)
                chosen[j] = None
                if j not in signs:
                    signs[j] = (Literal(j + 1), Literal(j + 1, True))
            lits = []
            for v in chosen:
                lits.append(signs[v][rand() < 0.5])
            shapes.append(tuple(lits))
    soft_count = m - hard_count
    if weighted:
        soft_weights = []
        for _ in range(soft_count):
            w = getrandbits(10)  # rng.randint(0, 1000)'s calls
            while w > 1000:
                w = getrandbits(10)
            soft_weights.append(w)
    else:
        soft_weights = [1] * soft_count
    top = sum(soft_weights) + 1 if hard_count else None
    hard = [Clause(lits, top, True) for lits in shapes[:hard_count]]
    soft = [Clause(lits, w) for lits, w in zip(shapes[hard_count:], soft_weights)]
    return Formula(n, (*hard, *soft), top_weight=top)


def write_dimacs(f: Formula) -> str:
    """Serialize in canonical one-clause-per-line form.

    Formulas with unit weights, no top and no hard clauses come out as CNF,
    everything else as WCNF (top emitted only when set).
    """
    plain = f.top_weight is None and all(
        c.weight == 1 and not c.hard for c in f.clauses
    )
    lines = []
    if plain:
        lines.append(f"p cnf {f.num_vars} {f.num_clauses}")
        for c in f.clauses:
            lines.append(" ".join(str(l.to_dimacs()) for l in c.literals) + " 0")
    else:
        header = f"p wcnf {f.num_vars} {f.num_clauses}"
        if f.top_weight is not None:
            header += f" {f.top_weight}"
        lines.append(header)
        for c in f.clauses:
            body = " ".join(str(l.to_dimacs()) for l in c.literals)
            lines.append(f"{c.weight} {body} 0")
    return "\n".join(lines) + "\n"
