"""Parsing, classification, generation and serialization round-trips."""

import copy
import dataclasses
import hashlib
import pickle
import random
import re
import tracemalloc

import pytest

from mctsat import (
    Clause,
    Formula,
    Literal,
    ParseError,
    ProblemClass,
    check_hard_weight_rule,
    classify,
    derive_seed,
    generate_random,
    instances,
    parse_cnf,
    parse_dimacs,
    parse_wcnf,
    write_dimacs,
)


def lit(code):
    return Literal(abs(code), code < 0)


def library_draws(n, m, k, weighted, hard_count, seed):
    """The DIMACS literals and soft weights that ``Random.sample``,
    ``Random.random`` and ``Random.randint`` draw for these arguments of
    ``generate_random``."""
    rng = random.Random(seed)
    codes = []
    for _ in range(m):
        chosen = rng.sample(range(1, n + 1), k)
        codes.append([-v if rng.random() < 0.5 else v for v in chosen])
    soft = m - hard_count
    weights = [rng.randint(0, 1000) for _ in range(soft)] if weighted else [1] * soft
    return codes, weights


class TestParseCnf:
    def test_basic(self):
        f = parse_cnf("p cnf 2 2\n1 -2 0\n2 0\n")
        assert f.num_vars == 2
        assert f.num_clauses == 2
        assert f.clauses[0] == Clause((lit(1), lit(-2)), 1, False)
        assert f.clauses[1] == Clause((lit(2),), 1, False)
        assert f.top_weight is None

    def test_comments_skipped(self):
        f = parse_cnf("c comment\np cnf 1 1\n1 0")
        assert f.num_vars == 1
        assert f.num_clauses == 1

    def test_bytes_input(self):
        f = parse_cnf(b"p cnf 1 1\n1 0\n")
        assert f.num_clauses == 1

    def test_non_utf8_comment_and_byte_order_mark(self):
        # a latin-1 byte in a comment is dropped with the comment; a leading
        # BOM, as str or as UTF-8 bytes, is not part of the header
        for source in (b"c caf\xe9\np cnf 1 1\n1 0\n", "\ufeffp cnf 1 1\n1 0\n",
                       b"\xef\xbb\xbfc comment\np cnf 1 1\n1 0\n"):
            f = parse_dimacs(source)
            assert (f.num_vars, f.clauses, f.top_weight) == (1, (Clause((lit(1),), 1, False),), None)

    def test_non_utf8_byte_in_a_clause_names_its_line(self):
        with pytest.raises(ParseError) as err:
            parse_dimacs(b"c caf\xe9\np cnf 2 1\n1 -2\xe9 0\n")
        assert err.value.line == 3
        assert "invalid literal" in str(err.value)

    # characters that str.splitlines() treats as line breaks, but DIMACS does not
    SPLITLINES_ONLY = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")

    def test_comment_keeps_splitlines_only_breaks(self):
        for ch in self.SPLITLINES_ONLY:
            text = f"c note{ch}-1 0\np cnf 1 1\n1 0\n"
            for source in (text, text.encode()):
                f = parse_dimacs(source)
                assert (f.num_vars, f.clauses, f.top_weight) == (1, (Clause((lit(1),), 1, False),), None)

    def test_later_error_keeps_its_line_number(self):
        for ch in self.SPLITLINES_ONLY:
            with pytest.raises(ParseError) as err:
                parse_dimacs(f"c a{ch}b\rc d{ch}e\r\np cnf 1 1\n2 0\n")
            assert str(err.value) == "line 4: variable 2 exceeds declared count 1"

    def test_clause_spanning_lines(self):
        f = parse_cnf("p cnf 3 1\n1 2\n3 0\n")
        assert f.clauses[0].literals == (lit(1), lit(2), lit(3))

    def test_satlib_tail_ignored(self):
        f = parse_cnf("p cnf 2 1\n1 2 0\n%\n0\n")
        assert f.num_clauses == 1

    def test_malformed_header(self):
        with pytest.raises(ParseError):
            parse_cnf("p cnf x 2\n1 0\n")
        with pytest.raises(ParseError):
            parse_cnf("1 0\n")
        with pytest.raises(ParseError):
            parse_cnf("p wcnf 1 1\n1 0\n")
        # a stray token on the header line is not clause data or a weight
        stray = [("p cnf 2 1 1\n2 0\n", "'1'"), ("p wcnf 2 1 5 3\n1 0\n", "'3'")]
        for text, extra in stray:
            with pytest.raises(ParseError) as err:
                parse_dimacs(text)
            assert err.value.line == 1
            assert str(err.value) == f"line 1: extra token {extra} on the header line"

    def test_var_beyond_header(self):
        with pytest.raises(ParseError) as err:
            parse_cnf("p cnf 2 1\n3 0\n")
        assert err.value.line == 2

    def test_clause_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_cnf("p cnf 2 3\n1 0\n2 0\n")
        with pytest.raises(ParseError):
            parse_cnf("p cnf 2 1\n1 0\n2 0\n")

    def test_unterminated_clause(self):
        with pytest.raises(ParseError):
            parse_cnf("p cnf 2 1\n1 2\n")

    def test_empty_clause(self):
        with pytest.raises(ParseError):
            parse_cnf("p cnf 2 2\n1 0\n0\n")

    def test_duplicate_and_tautology_preserved(self):
        f = parse_cnf("p cnf 1 2\n1 1 0\n1 -1 0\n")
        assert f.clauses[0].literals == (lit(1), lit(1))
        assert f.clauses[1].literals == (lit(1), lit(-1))


class TestParseWcnf:
    def test_top_marks_hard(self):
        f = parse_wcnf("p wcnf 2 2 100\n100 1 0\n3 -1 2 0\n")
        assert f.top_weight == 100
        assert f.clauses[0].hard and f.clauses[0].weight == 100
        assert not f.clauses[1].hard and f.clauses[1].weight == 3

    def test_no_top_all_soft(self):
        f = parse_wcnf("p wcnf 1 1\n5 1 0")
        assert f.top_weight is None
        assert not f.clauses[0].hard
        assert classify(f) is ProblemClass.WEIGHTED_MAXSAT

    def test_weight_above_top_rejected(self):
        with pytest.raises(ParseError):
            parse_wcnf("p wcnf 1 1 100\n101 1 0\n")

    def test_negative_weight_rejected(self):
        with pytest.raises(ParseError):
            parse_wcnf("p wcnf 1 1\n-2 1 0\n")

    def test_zero_weight_soft_clause_legal(self):
        f = parse_wcnf("p wcnf 1 1\n0 1 0\n")
        assert f.clauses[0].weight == 0


PARSERS = {"cnf": parse_cnf, "wcnf": parse_wcnf, "dimacs": parse_dimacs}


@pytest.mark.parametrize(
    "parser, text, line, message",
    [
        ("cnf", "", 1, "empty input"),
        ("cnf", "c only a comment\n", 1, "empty input"),
        ("cnf", "1 2 0\n", 1, "expected 'p cnf' header, found '1'"),
        ("cnf", "p cnf 2\n", 1, "incomplete header"),
        ("cnf", "p cnf x 1\n1 0\n", 1, "invalid variable count 'x'"),
        ("cnf", "p wcnf 1 1\n1 1 0\n", 1, "expected 'p cnf' header, found 'p wcnf'"),
        ("cnf", "p cnf -1 1\n1 0\n", 1, "header counts must be non-negative"),
        ("cnf", "p cnf 2 -1\n", 1, "header counts must be non-negative"),
        ("dimacs", "c none\np wcnf 0 0\n", 2, "header declares no variables"),
        ("cnf", "p cnf 2 1\n1 x 0\n", 2, "invalid literal 'x'"),
        ("cnf", "p cnf 2 1\n3 0\n", 2, "variable 3 exceeds declared count 2"),
        ("cnf", "p cnf 2 2\n1 0\n0\n", 3, "empty clause"),
        ("cnf", "p cnf 2 1\n1 2\n", 2, "unterminated clause at end of input"),
        ("cnf", "p cnf 2 2\n1 0\n", 2, "header declares 2 clauses, found 1"),
        ("cnf", "p cnf 2 1\n1 0\n2 0\n", 3, "content after the declared number of clauses"),
        ("cnf", "p cnf 2 1\n1 2 0\n%\n0\n1\n", 5, "content after the declared number of clauses"),
        ("wcnf", "p wcnf 2 1 -5\n1 1 0\n", 1, "top weight must be non-negative"),
        ("wcnf", "p wcnf 2 1 x\n1 1 0\n", 1, "invalid top weight 'x'"),
        ("wcnf", "p wcnf 2 1\n-2 1 0\n", 2, "negative clause weight -2"),
        ("wcnf", "p wcnf 2 1 10\n11 1 0\n", 2, "clause weight 11 exceeds top 10"),
        ("wcnf", "p wcnf 2 1\nw 1 0\n", 2, "invalid clause weight 'w'"),
        ("wcnf", "p wcnf 2 2\n3 1 0\n4 0\n", 3, "empty clause"),
        ("wcnf", "p wcnf 2 1\n3 1\n", 2, "unterminated clause at end of input"),
        ("wcnf", "p wcnf 2 1\n3\n", 2, "unterminated clause at end of input"),
        ("wcnf", "p wcnf 2 1 9\n9 1 0\n%\n0\n5 2 0\n", 5, "content after the declared number of clauses"),
        ("wcnf", "p cnf 2 1\n1 0\n", 1, "expected 'p wcnf' header, found 'p cnf'"),
        ("dimacs", "", 1, "empty input"),
        ("dimacs", "p\n", 1, "incomplete header"),
        ("dimacs", "p cnf 2 1\n1 2\n", 2, "unterminated clause at end of input"),
        ("dimacs", "p wcnf 2 1 9\n10 1 0\n", 2, "clause weight 10 exceeds top 9"),
        ("dimacs", "p wcnf 2 2 9\n9 1 0\n", 2, "header declares 2 clauses, found 1"),
        ("cnf", "h 1 2 0\n3 -1 0\n", 1, "expected 'p cnf' header, found 'h'"),
        ("wcnf", "p wcnf 2 1 9\nh 1 0\n", 2, "invalid clause weight 'h'"),
        ("dimacs", "h 1 h 0\n", 1, "invalid literal 'h'"),
        ("wcnf", "h 1 0\n2 h 0\n", 2, "invalid literal 'h'"),
        ("dimacs", "3 -1 0\nh 0\n", 2, "empty clause"),
        ("dimacs", "h 1 2\n", 1, "unterminated clause at end of input"),
        ("wcnf", "-2 1 0\n", 1, "negative clause weight -2"),
    ],
)
def test_parse_error_line_and_message(parser, text, line, message):
    with pytest.raises(ParseError) as err:
        PARSERS[parser](text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


def test_parse_dimacs_dispatch():
    assert parse_dimacs("p cnf 1 1\n1 0\n").top_weight is None
    assert parse_dimacs("p wcnf 1 1 9\n9 1 0\n").top_weight == 9


class TestHeaderlessWcnf:
    """The MaxSAT Evaluation 2022+ dialect: no "p" line, "h" marks a hard
    clause, n is the largest variable, and the top weight is total soft + 1."""

    def test_hard_clause_gets_total_soft_plus_one(self):
        for parse in (parse_wcnf, parse_dimacs):
            f = parse("c a comment\nh 1 2 0\n3 -1 0\n")
            assert f == Formula(
                2, (Clause((lit(1), lit(2)), 4, True), Clause((lit(-1),), 3, False)), top_weight=4
            )
            assert classify(f) is ProblemClass.WEIGHTED_PARTIAL_MAXSAT

    def test_unit_soft_weights_are_partial_maxsat(self):
        f = parse_dimacs("1 1 0\nh -1 3 0\n1 -3 0\n")
        assert f.num_vars == 3 and f.top_weight == 3
        assert [c.hard for c in f.clauses] == [False, True, False]
        assert classify(f) is ProblemClass.PARTIAL_MAXSAT

    def test_no_hard_clause_sets_no_top(self):
        f = parse_dimacs("2 1 0\n3 -2 0\n")
        assert f.top_weight is None and f.num_vars == 2
        assert classify(f) is ProblemClass.WEIGHTED_MAXSAT

    def test_round_trip_through_header_dialect(self):
        text = "h 1 2 0\n3 -1 0\n"
        written = write_dimacs(parse_dimacs(text))
        assert written == "p wcnf 2 2 4\n4 1 2 0\n3 -1 0\n"
        assert parse_dimacs(written) == parse_dimacs(text)

    def test_generated_formulas_read_back(self):
        # generate_random sets the top weight to total soft + 1, as this dialect does
        rng = random.Random(44)
        for _ in range(50):
            n, m = rng.randint(2, 9), rng.randint(1, 15)
            hard = rng.randint(0, m)
            f = generate_random(n, m, rng.randint(1, min(3, n)), rng.random() < 0.5, hard, rng.randrange(10**6))
            lines = []
            for c in f.clauses:
                body = " ".join(str(l.to_dimacs()) for l in c.literals)
                lines.append(f"{'h' if c.hard else c.weight} {body} 0")
            g = parse_dimacs("\n".join(lines) + "\n")
            largest = max(l.var for c in f.clauses for l in c.literals)
            assert g == Formula(largest, f.clauses, f.top_weight)


class TestClassify:
    def test_definitional_cases(self):
        unit = parse_cnf("p cnf 2 2\n1 0\n2 0\n")
        assert classify(unit) is ProblemClass.MAXSAT
        weighted = parse_wcnf("p wcnf 2 2\n1 1 0\n3 2 0\n")
        assert classify(weighted) is ProblemClass.WEIGHTED_MAXSAT
        pms = parse_wcnf("p wcnf 2 2 9\n9 1 0\n1 2 0\n")
        assert classify(pms) is ProblemClass.PARTIAL_MAXSAT
        wpms = parse_wcnf("p wcnf 2 3 9\n9 1 0\n2 2 0\n5 -2 0\n")
        assert classify(wpms) is ProblemClass.WEIGHTED_PARTIAL_MAXSAT

    def test_stable_under_clause_permutation(self):
        f = parse_wcnf("p wcnf 2 3 9\n9 1 0\n2 2 0\n5 -2 0\n")
        for shift in range(3):
            shuffled = Formula(
                f.num_vars,
                f.clauses[shift:] + f.clauses[:shift],
                top_weight=f.top_weight,
            )
            assert classify(shuffled) is classify(f)


class TestHardWeightRule:
    def test_dominant_hard(self):
        f = parse_wcnf("p wcnf 1 4 7\n1 1 0\n2 1 0\n3 -1 0\n7 1 0\n")
        assert check_hard_weight_rule(f)

    def test_non_dominant_hard(self):
        f = parse_wcnf("p wcnf 1 4 6\n1 1 0\n2 1 0\n3 -1 0\n6 1 0\n")
        assert not check_hard_weight_rule(f)

    def test_vacuous_without_hard(self):
        f = parse_cnf("p cnf 1 1\n1 0\n")
        assert check_hard_weight_rule(f)


class TestGenerateRandom:
    def test_seed_determinism(self):
        a = generate_random(3, 2, 2, seed=7)
        b = generate_random(3, 2, 2, seed=7)
        assert a == b

    def test_weights_in_range(self):
        f = generate_random(8, 30, 3, weighted=True, seed=1)
        assert all(0 <= c.weight <= 1000 for c in f.clauses)

    def test_hard_rule_holds(self):
        f = generate_random(5, 10, 3, weighted=True, hard_count=3, seed=2)
        assert check_hard_weight_rule(f)
        assert sum(c.hard for c in f.clauses) == 3
        assert classify(f) in (
            ProblemClass.WEIGHTED_PARTIAL_MAXSAT,
            ProblemClass.PARTIAL_MAXSAT,
        )

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0, 2, 1, False, 0), "n must be"),
            ((3, 0, 1, False, 0), "m must be"),
            ((3, 2, 0, False, 0), "k must be"),
            ((3, 2, 4, False, 0), "k must be"),
            ((3, 2, 2, False, -1), "hard_count must be"),
            ((3, 2, 2, True, 3), "hard_count must be"),
        ],
        ids=["n-below-1", "m-below-1", "k-below-1", "k-above-n", "hard-below-0", "hard-above-m"],
    )
    def test_refusals(self, args, message):
        with pytest.raises(ValueError, match=message):
            generate_random(*args, seed=0)

    def test_distinct_vars_per_clause(self):
        f = generate_random(6, 40, 3, seed=9)
        for c in f.clauses:
            assert len({l.var for l in c.literals}) == 3

    @pytest.mark.parametrize(
        "n, m, k, weighted, hard",
        [
            (14, 50, 3, True, 2),
            (20, 91, 3, False, 0),
            (21, 30, 4, False, 0),  # the largest n of sample's pool branch at k <= 5
            (22, 30, 4, True, 5),  # the smallest n of its set branch
            (85, 20, 6, False, 0),  # the pool branch's largest n at k = 6
            (86, 20, 7, True, 0),  # the set branch with k > 5
            (5, 10, 5, False, 10),  # k = n, every clause hard
            (3, 2000, 2, True, 0),  # enough weights to draw 1000, the largest
        ],
    )
    def test_same_draws_as_the_library(self, n, m, k, weighted, hard):
        for seed in (0, 7, 2**70 + 3):
            f = generate_random(n, m, k, weighted, hard, seed)
            codes, weights = library_draws(n, m, k, weighted, hard, seed)
            assert [[l.to_dimacs() for l in c.literals] for c in f.clauses] == codes
            assert [c.weight for c in f.clauses[hard:]] == weights

    # (n, m, k, weighted, hard_count), each at seeds 0, 1 and 2**64 - 1
    DIGEST_GRID = [
        (22, 60, 3, False, 0),  # random.sample's set branch
        (40, 120, 3, True, 2),
        (100, 430, 3, False, 0),
        (30, 40, 6, True, 0),  # its pool branch with k > 5
        (100, 50, 7, False, 3),  # its set branch with k > 5
        (9, 20, 9, True, 20),  # k = n, every clause hard
        (1, 1, 1, False, 1),
    ]

    def test_output_digest_pinned(self):
        """The formulas the library calls random.sample, random.random and
        random.randint built; the same on CPython 3.10-3.13."""
        h = hashlib.sha256()
        for row in self.DIGEST_GRID:
            for seed in (0, 1, 2**64 - 1):
                h.update(write_dimacs(generate_random(*row, seed=seed)).encode())
        assert h.hexdigest() == "ee7e36339b9b16f4d8bb0751cda3031878e6fde2c2fb690c77eccd8d16639937"

    def test_uf20_fixtures_are_its_output(self, uf20_paths):
        """scripts/make_uf20_fixtures.py keeps the satisfiable candidates of
        generate_random(20, 91, 3, seed=derive_seed(20260601, c)); these are
        the c it kept, in fixture order."""
        kept = [0, 1, 6, 9, 10, 13, 14, 15, 16, 17, 18, 21, 22, 23, 24, 25, 28, 29, 30, 31]
        assert len(uf20_paths) == len(kept)
        for path, c in zip(uf20_paths, kept):
            f = generate_random(20, 91, 3, seed=derive_seed(20260601, c))
            assert path.read_text() == write_dimacs(f), path.name

    def test_builds_only_the_literals_it_draws(self):
        """Two clauses over 10**5 variables build their 6 literals, not a
        pair for every variable."""
        tracemalloc.start()
        try:
            f = generate_random(10**5, 2, 3, seed=11)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        drawn = [l.var for c in f.clauses for l in c.literals]
        assert len(drawn) == 6 and all(1 <= v <= 10**5 for v in drawn)


class TestValueTypes:
    """Literal, Clause and Formula are frozen values: compared, hashed,
    pickled, copied, replaced and printed by their fields."""

    each_type = pytest.mark.parametrize(
        "make",
        [
            lambda: Literal(3, True),
            lambda: Clause((Literal(1), Literal(2, True)), 5),
            lambda: Formula(2, (Clause((Literal(2),), 4, True), Clause((Literal(1),))), 4),
        ],
        ids=["literal", "clause", "formula"],
    )

    @each_type
    def test_fields_are_frozen(self, make):
        value = make()
        for field in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, field.name, getattr(value, field.name))

    @each_type
    def test_equal_and_hashed_by_value(self, make):
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    @each_type
    def test_pickle_and_deepcopy_round_trip(self, make):
        value = make()
        for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
            assert clone == value and hash(clone) == hash(value)

    def test_replace(self):
        assert dataclasses.replace(Literal(3, True), negated=False) == Literal(3)
        clause = dataclasses.replace(Clause((Literal(1),)), weight=7)
        assert clause == Clause((Literal(1),), 7)
        f = Formula(2, (Clause((Literal(2),)),))
        assert dataclasses.replace(f, num_vars=5) == Formula(5, f.clauses)
        with pytest.raises(ValueError, match="variable index"):
            dataclasses.replace(Literal(3), var=0)
        with pytest.raises(ValueError, match="beyond num_vars"):
            dataclasses.replace(f, num_vars=1)

    @pytest.mark.parametrize(
        "make, message",
        [
            pytest.param(lambda: Literal(0), "variable index must be >= 1, got 0", id="literal-zero"),
            pytest.param(lambda: Literal(-3), "variable index must be >= 1, got -3", id="literal-negative"),
            pytest.param(
                lambda: Literal(var=0, negated=True), "variable index must be >= 1, got 0",
                id="literal-keyword",
            ),
            pytest.param(
                lambda: dataclasses.replace(Literal(2), var=-3), "variable index must be >= 1, got -3",
                id="literal-replace",
            ),
            pytest.param(lambda: Clause(()), "clause must contain at least one literal", id="clause-empty"),
            pytest.param(
                lambda: Clause(literals=(), weight=2), "clause must contain at least one literal",
                id="clause-empty-keyword",
            ),
            pytest.param(
                lambda: dataclasses.replace(Clause((lit(1),)), literals=()),
                "clause must contain at least one literal",
                id="clause-empty-replace",
            ),
            pytest.param(
                lambda: Clause((lit(1),), -1), "clause weight must be non-negative, got -1",
                id="clause-weight",
            ),
            pytest.param(
                lambda: Clause(literals=(lit(1),), weight=-2, hard=True),
                "clause weight must be non-negative, got -2",
                id="clause-weight-keyword",
            ),
            pytest.param(
                lambda: dataclasses.replace(Clause((lit(1),)), weight=-1),
                "clause weight must be non-negative, got -1",
                id="clause-weight-replace",
            ),
            pytest.param(lambda: Formula(-1, ()), "num_vars must be non-negative", id="formula-num-vars"),
            pytest.param(
                lambda: Formula(num_vars=-1, clauses=()), "num_vars must be non-negative",
                id="formula-num-vars-keyword",
            ),
            pytest.param(
                lambda: dataclasses.replace(Formula(1, ()), num_vars=-1), "num_vars must be non-negative",
                id="formula-num-vars-replace",
            ),
            pytest.param(
                lambda: Formula(1, (Clause((lit(1),), 1, True),)),
                "clause 0 is hard but no top weight is set",
                id="formula-hard-no-top",
            ),
            pytest.param(
                lambda: Formula(num_vars=1, clauses=(Clause((lit(1),)), Clause((lit(1),), 3, True))),
                "clause 1 is hard but no top weight is set",
                id="formula-hard-no-top-keyword",
            ),
            pytest.param(
                lambda: dataclasses.replace(Formula(1, (Clause((lit(1),), 3, True),), 3), top_weight=None),
                "clause 0 is hard but no top weight is set",
                id="formula-hard-no-top-replace",
            ),
            pytest.param(
                lambda: Formula(1, (Clause((lit(1),), 2, True),), 3),
                "clause 0: hard flag must match weight == top_weight",
                id="formula-hard-flag",
            ),
            pytest.param(
                lambda: Formula(num_vars=1, clauses=(Clause((lit(1),), 3),), top_weight=3),
                "clause 0: hard flag must match weight == top_weight",
                id="formula-hard-flag-keyword",
            ),
            pytest.param(
                lambda: dataclasses.replace(Formula(1, (Clause((lit(1),), 3, True),), 3), top_weight=5),
                "clause 0: hard flag must match weight == top_weight",
                id="formula-hard-flag-replace",
            ),
        ],
    )
    def test_refusals(self, make, message):
        """Every refusal of the three constructors, by position, by keyword
        and through dataclasses.replace, with its exact message."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()

    def test_differ_by_any_field(self):
        assert Literal(3, True) != Literal(3) and Literal(3) != Literal(4)
        assert Clause((Literal(1),), 2) != Clause((Literal(1),), 3)
        assert Clause((Literal(1),), 2, True) != Clause((Literal(1),), 2)
        assert Formula(1, (Clause((Literal(1),)),)) != Formula(2, (Clause((Literal(1),)),))

    def test_repr(self):
        assert repr(Literal(3, True)) == "Literal(var=3, negated=True)"
        assert repr(Clause((Literal(1),), 2)) == (
            "Clause(literals=(Literal(var=1, negated=False),), weight=2, hard=False)"
        )
        assert repr(Formula(1, (Clause((Literal(1),), 3, True),), 3)) == (
            "Formula(num_vars=1, clauses=(Clause(literals=(Literal(var=1, negated=False),), "
            "weight=3, hard=True),), top_weight=3)"
        )


def fresh_copy(f):
    """``f`` rebuilt from newly made Literal objects."""
    clauses = tuple(
        Clause(tuple(Literal(l.var, l.negated) for l in c.literals), c.weight, c.hard)
        for c in f.clauses
    )
    return Formula(f.num_vars, clauses, f.top_weight)


def literals_by_code(f):
    return {l.to_dimacs(): l for c in f.clauses for l in c.literals}


class TestSharedLiterals:
    """The parser, and generate_random while n is at most sample's pool
    size, take the literals of variables 1..32 from one table built at
    import.  The sharing cannot be seen through a formula's value, and no
    call grows the table."""

    def test_copy_from_fresh_literals_is_the_same_value(self, uf20_texts):
        for f in (generate_random(14, 50, 3, True, 2, seed=5), parse_dimacs(uf20_texts[0])):
            clone = fresh_copy(f)
            assert clone.clauses[0].literals[0] is not f.clauses[0].literals[0]
            assert clone == f and hash(clone) == hash(f)
            assert pickle.loads(pickle.dumps(clone)) == f
            assert pickle.loads(pickle.dumps(f)) == clone

    def test_no_call_grows_the_table(self):
        pairs, codes = instances._LITERAL_PAIRS, instances._LITERAL_CODES
        assert (len(pairs), len(codes)) == (32, 64)
        generate_random(10**5, 2, 3, seed=11)
        generate_random(40, 30, 6, seed=3)  # the pool branch above the table
        parse_dimacs(write_dimacs(generate_random(100, 430, 3, seed=4)))
        assert instances._LITERAL_PAIRS is pairs and instances._LITERAL_CODES is codes
        assert (len(pairs), len(codes)) == (32, 64)

    def test_formulas_share_the_literals_of_the_table(self, uf20_texts):
        a = literals_by_code(generate_random(14, 50, 3, seed=1))
        b = literals_by_code(generate_random(21, 90, 3, seed=2))
        parsed = literals_by_code(parse_dimacs(uf20_texts[0]))
        assert len(a.keys() & b.keys()) == 28
        assert all(a[code] is b[code] is parsed[code] for code in a.keys() & b.keys())
        # above variable 32 each call builds its own
        c = literals_by_code(generate_random(40, 60, 6, seed=1))
        d = literals_by_code(generate_random(40, 60, 6, seed=2))
        common = c.keys() & d.keys()
        assert all((c[code] is d[code]) == (abs(code) <= 32) for code in common)
        assert any(abs(code) > 32 for code in common)


class TestRoundTrip:
    def _random_formula(self, rng):
        weighted = rng.random() < 0.5
        hard = rng.randint(0, 3) if rng.random() < 0.5 else 0
        n = rng.randint(2, 9)
        m = rng.randint(1, 15)
        return generate_random(
            n, m, rng.randint(1, min(3, n)), weighted, min(hard, m), rng.randint(0, 10**6)
        )

    def test_parse_of_serialized_equals_original(self):
        rng = random.Random(42)
        for _ in range(50):
            f = self._random_formula(rng)
            assert parse_dimacs(write_dimacs(f)) == f

    def test_serialization_is_canonical(self):
        rng = random.Random(43)
        for _ in range(20):
            f = self._random_formula(rng)
            text = write_dimacs(f)
            assert write_dimacs(parse_dimacs(text)) == text


def test_uf20_fixture_round_trip(uf20_texts):
    text = uf20_texts[0]
    f = parse_cnf(text)
    assert f.num_vars == 20
    assert f.num_clauses == 91
    assert parse_dimacs(write_dimacs(f)) == f
