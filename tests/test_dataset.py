import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from citefit import dataset
from citefit.dataset import CountDataset, _parse_count, load_counts, tail_ccdf, truncate
from citefit.errors import EmptyDatasetError, EmptyTailError, ParseError, UsageError
from citefit.kernels import DiscreteDistribution, HookedPowerLawParams


def histogram(data):
    """The sorted histogram of a dataset or view, as lists."""
    return data.values.tolist(), data.multiplicities.tolist()


def rows(data):
    """The counts of a dataset or view, ascending."""
    return np.repeat(data.values, data.multiplicities)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadCounts:
    def test_zero_drop(self, tmp_path):
        ds = load_counts(write(tmp_path, "a.txt", "3\n0\n7"), "plain")
        assert histogram(ds) == ([3, 7], [1, 1])
        assert ds.n == 2
        assert ds.zeros_dropped == 1

    def test_minimal(self, tmp_path):
        ds = load_counts(write(tmp_path, "b.txt", "1"), "plain")
        assert histogram(ds) == ([1], [1])
        assert ds.n == 1

    def test_negative_is_parse_error_with_line(self, tmp_path):
        with pytest.raises(ParseError, match="line 1"):
            load_counts(write(tmp_path, "c.txt", "-2"), "plain")

    def test_non_integer_names_line(self, tmp_path):
        with pytest.raises(ParseError, match="line 2"):
            load_counts(write(tmp_path, "d.txt", "5\nfoo\n2"), "plain")

    @pytest.mark.parametrize("name,fmt,text", [
        # past int()'s digit limit, where there is one, and too large all the same;
        # and no newline in the digit parser's first block
        ("long.txt", "plain", "7" * 40_000 + "\n"),
        ("large.txt", "plain", "7" * 4_000 + "\n"),  # too large, under any digit limit
        ("long.csv", "csv", "citations\n" + "x" * 100_000 + "\n"),
    ])
    def test_a_long_bad_line_is_quoted_in_part(self, tmp_path, name, fmt, text):
        path = write(tmp_path, name, text)
        if fmt == "plain":
            assert dataset._parse_digit_lines(path.read_bytes()) is None
        with pytest.raises(ParseError) as info:
            load_counts(path, fmt)
        assert info.value.line_number == 1 + (fmt == "csv")
        assert len(str(info.value).encode()) < 200
        assert f"({len(text.splitlines()[-1]):,} characters)" in str(info.value)

    @pytest.mark.parametrize("fmt", ["plain", "csv"])
    @pytest.mark.parametrize("line, error", [
        ("7" * 5_000, "count too large (>= 2**63)"),
        ("-" + "7" * 5_000, "negative count"),
        ("0" * 4_999 + "5", None),
    ], ids=["large", "negative", "zero-padded"])
    def test_a_digit_line_past_int_digit_limit(self, tmp_path, fmt, line, error):
        # read by its significant digits, whatever int()'s limit on this Python
        header = "citations\n" if fmt == "csv" else ""
        path = write(tmp_path, f"digits.{fmt}", f"{header}3\n{line}\n")
        if error is None:
            assert histogram(load_counts(path, fmt)) == ([3, 5], [1, 1])
            return
        with pytest.raises(ParseError) as info:
            load_counts(path, fmt)
        assert str(info.value).startswith(f"line {2 + (fmt == 'csv')}: {error}: ")
        assert f"({len(line):,} characters)" in str(info.value)

    def test_all_zeros_is_empty(self, tmp_path):
        with pytest.raises(EmptyDatasetError):
            load_counts(write(tmp_path, "e.txt", "0\n0\n"), "plain")

    def test_trailing_newline_ok(self, tmp_path):
        ds = load_counts(write(tmp_path, "f.txt", "4\n2\n"), "plain")
        assert histogram(ds) == ([2, 4], [1, 1])
        assert ds.zeros_dropped == 0

    def test_csv(self, tmp_path):
        ds = load_counts(write(tmp_path, "g.csv", "citations\n3\n0\n9\n"), "csv")
        assert histogram(ds) == ([3, 9], [1, 1])
        assert ds.zeros_dropped == 1

    def test_csv_extra_columns(self, tmp_path):
        text = "id,citations\na,5\nb,1\n"
        ds = load_counts(write(tmp_path, "h.csv", text), "csv")
        assert histogram(ds) == ([1, 5], [1, 1])

    def test_csv_missing_column(self, tmp_path):
        with pytest.raises(ParseError):
            load_counts(write(tmp_path, "i.csv", "cites\n3\n"), "csv")

    def test_order_preserved(self, tmp_path):
        # the multiset is kept; file order is not
        ds = load_counts(write(tmp_path, "j.txt", "9\n1\n0\n5"), "plain")
        assert histogram(ds) == ([1, 5, 9], [1, 1, 1])
        assert ds.zeros_dropped == 1

    @pytest.mark.parametrize("name, data, line", [
        ("k.txt", b"5\n\xff7\n3\n", 2),
        ("k.csv", b"citations\n5\n\xff7\n3\n", 3),
    ])
    def test_non_utf8_names_line(self, tmp_path, name, data, line):
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(ParseError, match="not UTF-8") as info:
            load_counts(path, "csv" if name.endswith(".csv") else "plain")
        assert info.value.line_number == line

    @pytest.mark.parametrize("data, line", [
        (b"citations\n5\r7\n3\n", 2),
        (b"citations\n5\n0\n1\r7\n", 4),
        (b"cita\rtions\n5\n", 1),
    ], ids=["first-row", "later-row", "header"])
    def test_csv_lone_cr_names_line(self, tmp_path, data, line):
        path = tmp_path / "m.csv"
        path.write_bytes(data)
        with pytest.raises(ParseError, match="malformed CSV") as info:
            load_counts(path, "csv")
        assert info.value.line_number == line

    @pytest.mark.parametrize("text", ["citations\n\n5\nfoo\n", 'id,citations\n"a\nb",5\nc,foo\n'],
                             ids=["blank-line", "quoted-line-break"])
    def test_csv_names_the_physical_line(self, tmp_path, text):
        with pytest.raises(ParseError, match="line 4"):
            load_counts(write(tmp_path, "n.csv", text), "csv")

    def test_load_holds_only_the_histogram(self, tmp_path):
        # 10^6 rows, about 2% zeros; what stays alive is the histogram, not the rows
        counts = np.random.default_rng(3).geometric(0.02, 1_000_000) - 1
        path = write(tmp_path, "big.txt", "\n".join(map(str, counts.tolist())))
        tracemalloc.start()
        try:
            ds = load_counts(path, "plain")
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert ds.n + ds.zeros_dropped == 1_000_000
        assert held < 1_000_000


def reference_load(text):
    """Per-token parse of a plain file with ``_parse_count``: (histogram, zeros) or the error."""
    values = []
    try:
        for lineno, line in enumerate(text.split("\n"), start=1):
            if line.strip() != "":
                values.append(_parse_count(line, lineno))
    except ParseError as exc:
        return exc
    positive, multiplicities = np.unique(
        np.array([v for v in values if v > 0], dtype=np.int64), return_counts=True)
    return (positive.tolist(), multiplicities.tolist()), sum(v == 0 for v in values)


def assert_loads_as_reference(path, text):
    """``load_counts(path)`` gives what ``reference_load(text)`` gives, error included."""
    expected = reference_load(text)
    if isinstance(expected, ParseError):
        with pytest.raises(ParseError) as info:
            load_counts(path, "plain")
        assert info.value.line_number == expected.line_number
        assert str(info.value) == str(expected)
    elif not expected[0][0]:
        with pytest.raises(EmptyDatasetError):
            load_counts(path, "plain")
    else:
        ds = load_counts(path, "plain")
        assert (histogram(ds), ds.zeros_dropped) == expected


def no_fallback(text):
    raise AssertionError("a file of digit lines fell back to the int() parser")


class TestParserEquivalence:
    TOKENS = ["+3", "1_0", " 2 ", "\u0663", "-0", "1.0", "0x10", "-1",
              str(2**63 - 1), str(2**63), str(10**20), "-" + str(2**70),
              # the bytes just below and above the digits, and controls below "0"
              "/", "1/2", ":", "3:", "\x00", "4\x00", "\x0b", "5\x0b"]
    TEXTS = (
        [f"5\n{token}\n7\n" for token in TOKENS]
        + ["5\r\n+3\r\n0\r\n7\r\n", "\n\n5\n \n\t\n7\n\n", "4\n\n-1\nfoo\n",
           "4\r\n1.0\r\n", "5\r7\n", "4\n5\r", "4\r\r\n"]
    )
    LINES = st.one_of(
        st.integers(0, 10**20).map(str),
        st.builds("{}{}".format, st.sampled_from(["", "0", "000"]), st.integers(0, 10**18)),
        st.sampled_from(
            ["", "9" * 18, "1" + "0" * 18, "9" * 19, "1" + "0" * 19, "0" * 20,
             str(2**63 - 1), str(2**63)] + TOKENS
        ),
    )

    @pytest.mark.parametrize("text", TEXTS)
    def test_matches_per_token_parse(self, tmp_path, text):
        assert_loads_as_reference(write(tmp_path, "p.txt", text), text)

    # one file, rewritten for every example
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(st.tuples(LINES, st.sampled_from(["\n", "\r\n", "\r"])), max_size=8),
           final_newline=st.booleans())
    def test_matches_per_token_parse_generated(self, tmp_path, lines, final_newline):
        text = "".join(line + end for line, end in lines)
        if lines and not final_newline:
            text = text[:-len(lines[-1][1])]
        path = tmp_path / "gen.txt"
        path.write_bytes(text.encode("utf-8"))
        assert_loads_as_reference(path, text)

    @pytest.mark.parametrize("cr_at", [dataset._BLOCK_BYTES - 2, dataset._BLOCK_BYTES - 1,
                                       (1 << 20) - 2, (1 << 20) - 1])
    @pytest.mark.parametrize("long_line", [False, True])
    def test_larger_than_a_block(self, tmp_path, monkeypatch, cr_at, long_line):
        # the first \r\n ends at, or straddles, the first block's nominal end, for
        # the parser's block size and for blocks of 1 MiB; with a 19-digit line
        # after it the whole file falls back
        monkeypatch.setattr(dataset, "_BLOCK_BYTES", 1 << cr_at.bit_length())
        head = "123\n" * (cr_at // 4) + "7" * (cr_at % 4)
        text = head + "\r\n" + "1" * (19 if long_line else 18) + "\n" + "45\r\n" * 100_000
        path = write(tmp_path, "big.txt", text)
        if not long_line:
            monkeypatch.setattr(dataset, "_parse_plain", no_fallback)
        assert_loads_as_reference(path, text)

    @pytest.mark.parametrize("head_lines", [dataset._BLOCK_BYTES // 4 - 1, dataset._BLOCK_BYTES // 4])
    def test_cr_at_a_blocks_end(self, tmp_path, head_lines):
        # the file's last byte is a \r: in its only block, or after a full first block
        text = "123\n" * head_lines + "12\r"
        assert_loads_as_reference(write(tmp_path, "cr.txt", text), text)

    @pytest.mark.parametrize("text", ["7", "7\n", "7\r\n", "\n0\r\n\r\n007\n\n", "9" * 18 + "\n1"])
    def test_digit_lines_take_the_byte_path(self, tmp_path, monkeypatch, text):
        monkeypatch.setattr(dataset, "_parse_plain", no_fallback)
        assert_loads_as_reference(write(tmp_path, "s.txt", text), text)

    def test_int_grammar(self, tmp_path):
        ds = load_counts(write(tmp_path, "q.txt", "+3\n1_0\n 2 \n\u0663\n-0\n"), "plain")
        assert histogram(ds) == ([2, 3, 10], [1, 2, 1])
        assert ds.zeros_dropped == 1

    def test_good_lines_skip_the_per_line_reader(self, tmp_path, monkeypatch):
        def per_line(token, lineno):
            raise AssertionError(f"line {lineno} went through _parse_count")

        monkeypatch.setattr(dataset, "_parse_count", per_line)
        ds = load_counts(write(tmp_path, "s.txt", " 5 \n+3\n\n\t\n1_0\r\n0 \n"), "plain")
        assert histogram(ds) == ([3, 5, 10], [1, 1, 1])
        assert ds.zeros_dropped == 1

    # str.strip removes U+001C..U+001F and int() does not: such lines take
    # the line-by-line reader, to the per-token result
    @pytest.mark.parametrize("text", ["5\n\x1c7\x1f\n", "5\n\x1c-7\n", "\x1d\n3 \n", "\x1e\n"])
    def test_separators_int_rejects(self, tmp_path, text):
        assert_loads_as_reference(write(tmp_path, "f.txt", text), text)

    @pytest.mark.parametrize("token", ["1.0", "0x10", str(2**63)])
    def test_rejected_in_csv_too(self, tmp_path, token):
        with pytest.raises(ParseError, match="line 3"):
            load_counts(write(tmp_path, "r.csv", f"citations\n4\n{token}\n"), "csv")


#: The histogram's rule: tallied by value up to this top, or the row count if larger.
DENSE = dataset._DENSE_BINS


class TestHistogram:
    """``_histogram`` gives ``np.unique``'s arrays on both sides of its rule."""

    CASES = {
        # (rows, tallied by value)
        "at the bound": (np.array([3, DENSE, 3, 0]), True),
        "one past it": (np.array([3, DENSE + 1, 3, 0]), False),
        # more rows than DENSE: the row count is the bound
        "top at the row count": (np.append(np.arange(DENSE + 4) % 7, DENSE + 5), True),
        "top one past the row count": (np.append(np.arange(DENSE + 4) % 7, DENSE + 6), False),
        "zeros only": (np.zeros(9, np.int64), True),
        "one value": (np.array([41]), True),
        "one huge value": (np.array([2**63 - 1]), False),
        "huge and small": (np.array([2**63 - 1, 1, 0, 2**63 - 1, 5]), False),
        "negative": (np.array([-4, 2, 2]), False),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_unique(self, monkeypatch, case):
        rows, dense = self.CASES[case]
        rows = np.asarray(rows, dtype=np.int64)
        values, multiplicities = np.unique(rows, return_counts=True)

        def refuse(*args, **kwargs):
            raise AssertionError("the other side of the rule ran")

        monkeypatch.setattr(np, "unique" if dense else "bincount", refuse)
        got = dataset._histogram(rows)
        assert [a.dtype for a in got] == [np.int64, np.int64]
        assert got[0].tolist() == values.tolist()
        assert got[1].tolist() == multiplicities.tolist()

    @given(rows=st.lists(st.one_of(st.integers(0, 300), st.integers(0, 2**63 - 1)),
                         min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_equals_unique_generated(self, rows):
        rows = np.array(rows, dtype=np.int64)
        values, multiplicities = np.unique(rows, return_counts=True)
        got = dataset._histogram(rows)
        assert got[0].tolist() == values.tolist() and got[1].tolist() == multiplicities.tolist()

    def test_a_huge_count_loads_in_bounded_memory(self, tmp_path):
        # a table of 2**62 bins would not fit: the rule sorts instead
        path = write(tmp_path, "huge.txt", f"3\n0\n{2**62}\n7\n")
        tracemalloc.start()
        try:
            ds = load_counts(path, "plain")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (histogram(ds), ds.zeros_dropped) == (([3, 7, 2**62], [1, 1, 1]), 1)
        assert peak < 1_000_000

    def test_zeros_from_the_first_bin(self, tmp_path):
        ds = load_counts(write(tmp_path, "z.txt", "0\n4\n0\n4\n1\n0\n"), "plain")
        assert (histogram(ds), ds.zeros_dropped) == (([1, 4], [1, 2]), 3)
        with pytest.raises(EmptyDatasetError, match="after dropping 2 zero"):
            load_counts(write(tmp_path, "zz.txt", "0\n0\n"), "plain")


class TestCountDataset:
    def test_non_integral_rejected(self):
        with pytest.raises(UsageError, match="integ"):
            CountDataset((2.5, 3, 7, 1.5))
        with pytest.raises(UsageError):
            CountDataset(np.array([1.0, np.nan]))

    def test_integral_floats_accepted(self):
        assert histogram(CountDataset((3.0, 1, 4.0))) == ([1, 3, 4], [1, 1, 1])

    @pytest.mark.parametrize("counts", [(1, 2**70), (2**63,), (float(2**63),), ("3",)])
    def test_outside_int64_rejected(self, counts):
        with pytest.raises(UsageError):
            CountDataset(counts)

    def test_histogram_sorted_and_read_only(self):
        ds = CountDataset(np.array([5, 1, 5, 3, 1, 5]))
        assert ds.values.tolist() == [1, 3, 5]
        assert ds.multiplicities.tolist() == [2, 1, 3]
        assert ds.n == 6
        assert not ds.values.flags.writeable and not ds.multiplicities.flags.writeable

    def test_copies_its_input(self):
        source = np.array([2, 4, 4])
        ds = CountDataset(source)
        source[0] = 9
        assert histogram(ds) == ([2, 4], [1, 2])


class TestTruncate:
    def test_filter(self):
        view = truncate(CountDataset((1, 2, 5, 5, 9)), 5)
        assert histogram(view) == ([5, 9], [2, 1])
        assert view.n_tail == 3

    def test_identity_at_one(self):
        ds = CountDataset((1, 2, 3))
        assert histogram(truncate(ds, 1)) == histogram(ds)

    def test_empty_tail(self):
        with pytest.raises(EmptyTailError):
            truncate(CountDataset((1, 2)), 10)

    def test_composition_equals_max(self):
        ds = CountDataset((1, 2, 3, 7, 9, 20, 4))
        for a, b in [(2, 5), (5, 2), (3, 3), (1, 9)]:
            once = histogram(truncate(ds, max(a, b)))
            twice = histogram(truncate(CountDataset(rows(truncate(ds, a))), b))
            assert once == twice


class TestTailCcdf:
    def test_direct_counts(self):
        pairs = tail_ccdf(truncate(CountDataset((2, 2, 4)), 2))
        assert pairs == [(2, 1.0), (4, pytest.approx(1 / 3))]

    def test_singleton(self):
        assert tail_ccdf(truncate(CountDataset((7,)), 1)) == [(7, 1.0)]

    def test_monotone_and_bounded(self):
        pairs = tail_ccdf(truncate(CountDataset((1, 1, 2, 3, 5, 8, 8, 13)), 1))
        probs = [p for _, p in pairs]
        assert probs[0] == 1.0
        assert all(0 < p <= 1 for p in probs)
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_dkw_band_against_model(self):
        # 1000 draws from the model; empirical CCDF must stay inside the
        # 99% Dvoretzky-Kiefer-Wolfowitz band around the analytic CCDF.
        dist = DiscreteDistribution(HookedPowerLawParams(3.0, 10.0), 1)
        sample = dist.sample(1000, seed=2024)
        view = truncate(CountDataset(tuple(int(v) for v in sample)), 1)
        eps = math.sqrt(math.log(2 / 0.01) / (2 * view.n_tail))
        for value, emp in tail_ccdf(view):
            assert abs(emp - dist.ccdf(value)) <= eps
