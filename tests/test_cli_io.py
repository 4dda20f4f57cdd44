import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gptensor import cli, experiments, tensorio
from gptensor.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_PRECONDITION, main
from gptensor.generate import gen_random_ns, gen_random_sym
from gptensor.linalg import NumericalError
from gptensor.monomials import grlex_position
from gptensor.nonsymapprox import approx_nonsym, reconstruct_ns
from gptensor.symapprox import approx_sym, reconstruct_sym
from gptensor.tensorio import (
    FormatError,
    _parse_entry,
    _parse_header,
    parse_report,
    read_tensor,
    render_report,
    write_report,
    write_tensor,
)
from gptensor.tensors import DenseTensor, SymTensor


def line_loop_read_tensor(path):
    """The reader that parses every entry line with `_parse_entry`; the one-pass
    reader must give the same tensor, or the same error, on every file."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in map(str.strip, fh) if ln and not ln.startswith("#")]
    if not lines:
        raise FormatError("empty tensor file")
    kind, order, dims = _parse_header(lines[0])
    if kind == "sym" and len(set(dims)) != 1:
        raise FormatError(f"symmetric tensor requires cubic dims, got {dims}")
    count, what = (dims[0] - 1, "exponents") if kind == "sym" else (order, "indices")
    rows = np.empty((len(lines) - 1, count), dtype=np.int64)
    values = np.empty(len(lines) - 1, dtype=np.complex128)
    wide = {}
    for i, ln in enumerate(lines[1:]):
        ints, values[i] = _parse_entry(ln, count, what)
        try:
            rows[i] = ints
        except OverflowError:
            wide[i] = ints
            rows[i] = 0
    if kind == "sym":
        n, m = dims[0], order
        if wide:
            big = next(a for a in wide[min(wide)] if not -(2**63) <= a < 2**63)
            raise FormatError(f"power vector out of range for m={m}: exponent {big} exceeds 64 bits")
        try:
            pos = grlex_position(n - 1, m, rows)
        except KeyError as exc:
            raise FormatError(f"power vector out of range for m={m}: {exc.args[0]}") from exc
        size, where = math.comb(n - 1 + m, m), "for power vector"
    else:
        bad = ((rows < 1) | (rows > dims)).any(axis=1)
        if bad.any():
            i = int(bad.argmax())
            raise FormatError(f"index {wide.get(i, tuple(rows[i].tolist()))} out of range for dims {dims}")
        pos = np.ravel_multi_index(tuple((rows - 1).T), dims)
        size, where = math.prod(dims), "at index"
    first = np.unique(pos, return_index=True)[1]
    if len(first) < len(pos):
        repeat = np.setdiff1d(np.arange(len(pos)), first)[0]
        raise FormatError(f"duplicate entry {where} {tuple(rows[repeat].tolist())}")
    flat = np.zeros(size, dtype=np.complex128)
    flat[pos] = values
    return SymTensor(n, m, flat) if kind == "sym" else DenseTensor(flat.reshape(dims))


def outcome(read, path):
    """What a reader makes of a file: the tensor's shape and raw float64 words
    (so signed zeros count), or the error's type and message."""
    try:
        t = read(path)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)
    if isinstance(t, SymTensor):
        return "sym", t.n, t.m, t.values.view(np.float64).tobytes()
    return "dense", t.dims, t.data.view(np.float64).tobytes()


def _fail_parse_entry(*args):
    raise AssertionError("the line loop ran on a valid file")


def fail_lapack(monkeypatch, module, name):
    """Make the LAPACK wrapper `module.<name>` return info 1 in place of its own."""
    real = getattr(module, name)

    def fails(*args, **kwargs):
        *out, _ = real(*args, **kwargs)
        return (*out, 1)

    monkeypatch.setattr(module, name, fails)


# tokens for fuzzed entry lines: mostly valid, plus syntax only Python accepts
# (1_0, non-ASCII digits), numbers past int64, non-finite and malformed values,
# and U+01FE, which numpy's integer parser reads as the digit 462
_INTS = ["1", "2", "3", "0", "-1", "+1", "01", "1_0", "\u0661", "\u01fe", "1.0", "x",
         "4611686018427387904", "9223372036854775807", "9223372036854775808", "99999999999999999999999"]
_FLOATS = ["0", "1.5", "-2.25e-3", "-0", "-0.0", "+1", "5.", ".5", "1e400", "-1e-400", "inf", "nan",
           "0x1", "1_0", "\u0661", "1,5"]
_SEPARATORS = [" ", "  ", "\t", "\x0b", "\xa0", "\u2003"]


@st.composite
def tensor_texts(draw):
    """Text of a small tensor file: up to two blank or comment lines, a valid
    header and up to five body lines, all ended by one of LF, CRLF and CR."""
    kind = draw(st.sampled_from(["sym", "dense"]))
    if kind == "sym":
        n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        dims, count = (n,) * m, n - 1
    else:
        dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
        count = len(dims)
    # lines of a clean file take the first three tokens of each kind and plain spaces;
    # other files draw separators freely and put at most one other token on a line
    clean = draw(st.booleans())
    seps = st.sampled_from(_SEPARATORS[:1] if clean else _SEPARATORS)
    lead = st.sampled_from(["", " ", "\t "])  # before a comment's `#`
    lines = draw(st.lists(st.sampled_from(["", "  ", "# note", " \t# TENSOR v1 sym order=1 dims=1"]), max_size=2))
    lines.append(f"TENSOR v1 {kind} order={len(dims)} dims={','.join(map(str, dims))}")
    for _ in range(draw(st.integers(0, 5))):
        shape = draw(st.sampled_from(["entry"] * 5 + ["blank", "comment", "short", "long", "trailing_comment"]))
        if shape == "blank":
            lines.append(draw(seps) if draw(st.booleans()) else "")
            continue
        tokens = [_INTS] * count + [_FLOATS] * 2
        fields = [draw(st.sampled_from(t[:3])) for t in tokens]
        if not clean and draw(st.booleans()):
            k = draw(st.integers(0, len(fields) - 1))
            fields[k] = draw(st.sampled_from(tokens[k]))
        if shape == "short":
            fields = fields[:-1]
        elif shape == "long":
            fields.append(draw(st.sampled_from(_FLOATS)))
        line = draw(seps) * draw(st.integers(0, 1))
        for field in fields:
            line += field + draw(seps)
        if shape == "comment":
            line = draw(lead) + "# " + line
        elif shape == "trailing_comment":  # the line loop rejects it; numpy would drop the comment
            line += "# " + draw(st.sampled_from(_FLOATS))
        lines.append(line)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + newline


class TestTensorFiles:
    def test_sym_roundtrip(self, tmp_path):
        F, _, _ = gen_random_sym(5, 3, 2, 0.1, seed=0)
        path = tmp_path / "t.tns"
        write_tensor(F, path)
        back = read_tensor(path)
        assert isinstance(back, SymTensor)
        assert (back.n, back.m) == (5, 3)
        assert np.array_equal(back.values, F.values)
        again = tmp_path / "again.tns"
        write_tensor(back, again)
        assert again.read_bytes() == path.read_bytes()

    def test_dense_roundtrip(self, tmp_path):
        F, _, _ = gen_random_ns((3, 4, 2), 2, 0.1, seed=1)
        path = tmp_path / "t.tns"
        write_tensor(F, path)
        back = read_tensor(path)
        assert isinstance(back, DenseTensor)
        assert back.dims == (3, 4, 2)
        assert np.array_equal(back.data, F.data)
        again = tmp_path / "again.tns"
        write_tensor(back, again)
        assert again.read_bytes() == path.read_bytes()
        # a bare array is not a tensor
        with pytest.raises(TypeError, match="cannot serialize ndarray"):
            write_tensor(np.zeros(3), again)

    def test_missing_entries_are_zero(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("TENSOR v1 dense order=3 dims=2,2,2\n1 2 2 3.5 -1.0\n")
        t = read_tensor(path)
        assert t.entry((1, 2, 2)) == 3.5 - 1.0j
        assert t.entry((1, 1, 1)) == 0

    def test_entries_any_order(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("TENSOR v1 sym order=2 dims=2,2\n1 2.0 0\n0 1.0 0\n2 3.0 0\n")
        t = read_tensor(path)
        assert t.at_power((0,)) == 1.0
        assert t.at_power((1,)) == 2.0
        assert t.at_power((2,)) == 3.0

    def test_dense_entries_any_order(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text(
            "TENSOR v1 dense order=2 dims=2,3\n2 3 6.0 0\n# comment\n1 2 2.0 -1\n\n2 1 4.0 0\n1 1 1.0 0\n"
        )
        t = read_tensor(path)
        assert np.array_equal(t.data, [[1.0, 2.0 - 1.0j, 0.0], [4.0, 0.0, 6.0]])

    # entry lines with one fault each, for the sym and the dense file of the test below
    MALFORMED = {
        "field_count": (["1 1 0"], ["1 1 1 0"], "expected"),
        "non_finite": (["1 0 nan 0"], ["1 1 1 0 inf"], "non-finite"),
        "out_of_range": (["2 2 1 0"], ["1 4 1 1 0"], "out of range"),
        "duplicate": (["1 0 1 0", "0 1 2 0", "1 0 3 0"], ["1 2 3 1 0", "1 2 3 2 0"], "duplicate"),
        "over_wide": (["0 99999999999999999999999 1 0"], ["1 99999999999999999999999 1 1 0"], "99999999999999999999999"),
        # each exponent fits int64, but their sum, the degree, does not
        "wide_degree": (["4611686018427387904 4611686018427387904 1 0"], ["4611686018427387904 1 1 1 0"], "out of range"),
        "trailing_comment": (["1 0 1 0 # c"], ["1 1 1 1 0 # c"], "expected"),
    }

    @pytest.mark.parametrize("fault", list(MALFORMED))
    @pytest.mark.parametrize("kind", ["sym", "dense"])
    def test_malformed_entries_rejected(self, tmp_path, capsys, kind, fault):
        sym_lines, dense_lines, message = self.MALFORMED[fault]
        if kind == "sym":
            header, lines, command = "TENSOR v1 sym order=3 dims=3,3,3", sym_lines, "approx-sym"
        else:
            header, lines, command = "TENSOR v1 dense order=3 dims=3,3,3", dense_lines, "approx-ns"
        path = tmp_path / "t.tns"
        path.write_text("\n".join([header, *lines]) + "\n")
        with pytest.raises(FormatError, match=message):
            read_tensor(path)
        assert main([command, "--rank", "1", str(path)]) == EXIT_PRECONDITION
        assert message in capsys.readouterr().err

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("TENSOR v1 dense order=3 dims=2,2,2\n1 1 1 1 0\n1 1 1 2 0\n")
        with pytest.raises(FormatError, match="duplicate"):
            read_tensor(path)
        path.write_text("TENSOR v1 sym order=2 dims=2,2\n1 1 0\n1 2 0\n")
        with pytest.raises(FormatError, match="duplicate"):
            read_tensor(path)
        path.write_text("TENSOR v1 sym order=3 dims=3,3,3\n1 0 1 0\n0 0 2 0\n0 1 3 0\n1 0 4 0\n")
        with pytest.raises(FormatError, match=r"duplicate entry for power vector \(1, 0\)"):
            read_tensor(path)

    @pytest.mark.parametrize(
        "header,message",
        [
            pytest.param(header, message, id=header)
            for header, message in [
                ("TENSOR v2 sym order=2 dims=2,2", "bad header line"),
                ("TENSOR v1 other order=2 dims=2,2", "unknown tensor kind"),
                ("TENSOR v1 sym order=3 dims=2,2", "inconsistent order/dims"),
                ("TENSOR v1 sym order=x dims=2,2,2", "bad header line"),
                ("nothing", "bad header line"),
                ("TENSOR v1 dense 3 2,2,2", "bad header line"),
                ("TENSOR v1 sym order=2 dims=2,3", "cubic dims"),
                ("# only a comment", "empty tensor file"),
            ]
        ],
    )
    def test_bad_headers(self, tmp_path, header, message):
        path = tmp_path / "t.tns"
        path.write_text(header + "\n")
        with pytest.raises(FormatError, match=message):
            read_tensor(path)

    def test_bad_entries(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("TENSOR v1 dense order=2 dims=2,2\n3 1 1 0\n")
        with pytest.raises(FormatError):
            read_tensor(path)
        path.write_text("TENSOR v1 sym order=2 dims=2,2\n3 1 0\n")
        with pytest.raises(FormatError):
            read_tensor(path)
        path.write_text("TENSOR v1 sym order=2 dims=3,3\n0 0 1 0\n-1 1 1 0\n")
        with pytest.raises(FormatError, match="out of range"):
            read_tensor(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "header,entry",
        [("TENSOR v1 sym order=3 dims=2,2,2", "1"), ("TENSOR v1 dense order=3 dims=2,2,2", "1 2 1")],
        ids=["sym", "dense"],
    )
    def test_non_finite_entries_rejected(self, tmp_path, header, entry, bad):
        path = tmp_path / "t.tns"
        for re, im in [(bad, "0"), ("0", bad)]:
            path.write_text(f"{header}\n{entry} {re} {im}\n")
            with pytest.raises(FormatError, match="non-finite"):
                read_tensor(path)
        command = "approx-sym" if "sym" in header else "approx-ns"
        assert main([command, "--rank", "1", str(path)]) == EXIT_PRECONDITION

    @settings(max_examples=300, deadline=None)
    @given(text=tensor_texts())
    # numpy's table holds indices in int8 up to a largest dimension of 127 and in
    # int16 up to 32767, and exponents in the narrowest type that holds m; a wider
    # value sends the file to the line loop, an in-range one is checked after it is read
    @example(text="TENSOR v1 dense order=3 dims=4,4,4\n1 1 1 1 0\n2 128 1 -0 2\n")
    @example(text="TENSOR v1 dense order=3 dims=4,4,4\n1 1 1 1 0\n-129 1 1 -0 2\n")
    @example(text="TENSOR v1 dense order=3 dims=4,4,4\n1 1 1 1 0\n4 4 -128 -0 2\n")
    @example(text="TENSOR v1 dense order=3 dims=4,4,4\n4 4 4 1 0\n127 1 1 -0 2\n")
    @example(text="TENSOR v1 dense order=3 dims=200,2,2\n200 2 2 1 0\n32768 1 1 -0 2\n")
    @example(text="TENSOR v1 dense order=3 dims=200,2,2\n200 2 2 1 0\n32767 1 1 -0 2\n")
    @example(text="TENSOR v1 sym order=3 dims=3,3,3\n0 1 1 0\n128 0 -0 2\n")
    @example(text="TENSOR v1 sym order=3 dims=3,3,3\n0 1 1 0\n127 3 -0 2\n")
    @example(text="TENSOR v1 sym order=3 dims=3,3,3\n0 1 1 0\n0 -128 -0 2\n")
    @example(text="TENSOR v1 sym order=3 dims=3,3,3\n0 1 1 0\n2 2 -0 2\n")
    def test_reads_like_the_line_loop(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "fuzz.tns"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(read_tensor, path) == outcome(line_loop_read_tensor, path)

    VALID = {
        "sym": "TENSOR v1 sym order=3 dims=3,3,3\n# comment\n\n0\t0  1.5\t-0\n  1 0 -2.25e-3 4 \n\n2\t\t1 +0 -1\n",
        "dense": "TENSOR v1 dense order=3 dims=2,3,2\n\n# 1 1 1 9 9\n1\t3 2  5. .5\n2 01 1\t-0.0 7e-300\n  \n",
        "one_sym_entry": "TENSOR v1 sym order=2 dims=4,4\n0 2 0 -1.25 0\n",
        "one_dense_entry": "TENSOR v1 dense order=1 dims=3\n2 1e10 -0\n",
        "crlf": "TENSOR v1 dense order=2 dims=2,2\r\n1 1 1.5 -0\r\n\r\n# c\r\n2 2 -0 2\r\n",
        "comments_before_header": "# a tensor\n\n \t# TENSOR v1 sym order=1 dims=1\nTENSOR v1 sym order=2 dims=3,3\n# c\n0 0 1 0\n",
    }

    @pytest.mark.parametrize("name", list(VALID))
    def test_valid_files_skip_the_line_loop(self, tmp_path, monkeypatch, name):
        path = tmp_path / "t.tns"
        path.write_text(self.VALID[name])
        expected = outcome(line_loop_read_tensor, path)
        assert expected[0] in ("sym", "dense")
        monkeypatch.setattr(tensorio, "_parse_entry", _fail_parse_entry)
        assert outcome(read_tensor, path) == expected

    def test_written_40_cube_skips_the_line_loop(self, tmp_path, monkeypatch):
        F, _, _ = gen_random_ns((40, 40, 40), 10, 0.1, seed=1)
        path = tmp_path / "t.tns"
        write_tensor(F, path)
        monkeypatch.setattr(tensorio, "_parse_entry", _fail_parse_entry)
        back = read_tensor(path)
        assert back.data.view(np.float64).tobytes() == F.data.view(np.float64).tobytes()

    @pytest.mark.parametrize("preamble", ["# café\n", "# café\r\n\r# naïve\n\n"], ids=["lf", "mixed"])
    def test_non_ascii_before_the_header_skips_the_line_loop(self, tmp_path, monkeypatch, preamble):
        # numpy skips the lines through the header, so the byte scan does not read them
        F, _, _ = gen_random_ns((40, 40, 40), 10, 0.1, seed=2)
        path = tmp_path / "t.tns"
        write_tensor(F, path)
        path.write_bytes(preamble.encode("utf-8") + path.read_bytes())
        expected = outcome(line_loop_read_tensor, path)
        monkeypatch.setattr(tensorio, "_parse_entry", _fail_parse_entry)
        assert outcome(read_tensor, path) == expected

    def test_non_ascii_after_the_header_takes_the_line_loop(self, tmp_path, monkeypatch):
        path = tmp_path / "t.tns"
        path.write_text("# café\nTENSOR v1 dense order=2 dims=2,2\n1 1 1 0\n# café\n2 2 -0 2.5\n")
        expected = outcome(line_loop_read_tensor, path)
        parsed = []

        def counting(ln, *args):
            parsed.append(ln)
            return _parse_entry(ln, *args)

        monkeypatch.setattr(tensorio, "_parse_entry", counting)
        assert outcome(read_tensor, path) == expected
        assert parsed == ["1 1 1 0", "2 2 -0 2.5"]

    def test_written_sym_file_skips_the_line_loop(self, tmp_path, monkeypatch):
        F, _, _ = gen_random_sym(15, 4, 10, 0.1, seed=1)
        path = tmp_path / "t.tns"
        write_tensor(F, path)
        monkeypatch.setattr(tensorio, "_parse_entry", _fail_parse_entry)
        back = read_tensor(path)
        assert back.values.view(np.float64).tobytes() == F.values.view(np.float64).tobytes()

    @pytest.mark.parametrize(
        "late",
        [["8 8 x 0"], ["8 8 1.5"], ["8 8 nan 0"], ["8 8 1_0 -0"], ["8 6 inf 0", "8 7 0 0", "8 8 x 0"]],
        ids=["bad_token", "short_line", "non_finite", "python_only", "non_finite_before_bad_token"],
    )
    def test_late_fault_takes_the_line_loop(self, tmp_path, monkeypatch, late):
        # a file that numpy does not fully accept is read by the line loop alone, from its
        # first entry line; blank and comment lines, also before the header, are skipped
        entries = [f"{i} {j} {i}.5 -{j}" for i in range(1, 9) for j in range(1, 9)][: 64 - len(late)]
        text = "# a tensor\n\nTENSOR v1 dense order=2 dims=8,8\n"
        text += "".join(f"{e}\n# comment\n\n" if e.endswith("-3") else f"{e}\n" for e in entries)
        path = tmp_path / "t.tns"
        path.write_text(text + "\n".join(late) + "\n")
        expected = outcome(line_loop_read_tensor, path)
        parsed = []

        def counting(ln, *args):
            parsed.append(ln)
            return _parse_entry(ln, *args)

        monkeypatch.setattr(tensorio, "_parse_entry", counting)
        assert outcome(read_tensor, path) == expected
        assert parsed[0] == entries[0] and parsed[-1] == late[0]

    def test_numpy_naming_a_later_row_still_gives_the_first_fault(self, tmp_path, monkeypatch):
        # whatever row numpy's message names, the line loop finds the fault itself
        entries = [f"{i} {j} 1 0" for i in range(1, 9) for j in range(1, 9)]
        entries[3] = "1 4 x 0"
        path = tmp_path / "t.tns"
        path.write_text("TENSOR v1 dense order=2 dims=8,8\n" + "\n".join(entries) + "\n")

        real, calls = tensorio._loadtxt, []

        def late_row(*args, **kwargs):
            # the first call fails naming a row past the fault; any later one reads for real
            calls.append(args)
            if len(calls) == 1:
                raise ValueError("could not convert string 'x' to int64 at row 40, column 1.")
            return real(*args, **kwargs)

        monkeypatch.setattr(tensorio, "_loadtxt", late_row)
        with pytest.raises(FormatError, match=r"^bad entry line '1 4 x 0'$"):
            read_tensor(path)

    @pytest.mark.parametrize(
        "text,readable",
        [
            ("TENSOR\n# c\n \t# c\r\n1 2\r# c\n", True),
            ("# c\n\nTENSOR\n1 2 # c\n", False),
            ("TENSOR\n\x0b# c\n", False),
            ("TENSOR\r\n1 2\r\n1 \u0661\r\n", False),
        ],
        ids=["comment_lines", "trailing_comment", "vertical_tab_before_comment", "non_ascii"],
    )
    def test_byte_scan_reads_the_same_in_any_chunk_size(self, tmp_path, monkeypatch, text, readable):
        path = tmp_path / "t.tns"
        path.write_bytes(text.encode("utf-8"))
        for size in range(1, len(text) + 1):
            monkeypatch.setattr(tensorio, "_SCAN_BYTES", size)
            assert tensorio._numpy_readable(path) == readable, size

    @pytest.mark.parametrize("header", ["TENSOR v1 sym order=3 dims=3,3,3", "TENSOR v1 dense order=2 dims=2,3"])
    @pytest.mark.parametrize("body", ["", "# only a comment\n\n   \n", "# only\r\n# comments\r\n"])
    def test_empty_body_is_the_zero_tensor(self, tmp_path, header, body):
        path = tmp_path / "t.tns"
        path.write_text(f"{header}\n{body}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = read_tensor(path)
        assert not (t.values if isinstance(t, SymTensor) else t.data).any()

    @pytest.mark.parametrize("kind", ["dense", "sym"])
    def test_read_holds_at_most_3_3_times_the_tensor(self, tmp_path, kind):
        # a 40^3 dense tensor and a compact (4, 70) symmetric one, ~1 MB each;
        # the tensor itself (SymTensor's copy of its entries included) counts;
        # the byte scan holds one 1 MiB block at a time, so the dense read peaks at 2.89x
        rng = np.random.default_rng(6)
        if kind == "dense":
            F = DenseTensor(rng.standard_normal((40, 40, 40)) + 1j * rng.standard_normal((40, 40, 40)))
        else:
            size = math.comb(3 + 70, 70)
            F = SymTensor(4, 70, rng.standard_normal(size) + 1j * rng.standard_normal(size))
        path = tmp_path / "t.tns"
        write_tensor(F, path)
        entries = F.data if kind == "dense" else F.values
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            back = read_tensor(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        got = back.data if kind == "dense" else back.values
        assert got.view(np.float64).tobytes() == entries.view(np.float64).tobytes()
        assert peak - base <= {"dense": 2.95, "sym": 3.3}[kind] * entries.nbytes

    @pytest.mark.parametrize(
        "text",
        [
            "TENSOR v1 sym order=2 dims=3,3\n0 0 -0 -0\n1 0 -0 1\n0 1 1 -0\n2 0 0 0\n1 1 0 0\n0 2 0 0\n",
            "TENSOR v1 dense order=2 dims=1,2\n1 1 -0 -0\n1 2 1.5 -0\n",
        ],
        ids=["sym", "dense"],
    )
    def test_negative_zero_parts_write_back_unchanged(self, tmp_path, text):
        path, again = tmp_path / "t.tns", tmp_path / "again.tns"
        path.write_text(text)
        write_tensor(read_tensor(path), again)
        assert again.read_text() == text

    @pytest.mark.parametrize("block", [None, 1, 4], ids=["default", "block1", "block4"])
    def test_written_bytes_are_pinned(self, tmp_path, monkeypatch, block):
        if block is not None:  # lines written in blocks of this many join up seamlessly
            monkeypatch.setattr(tensorio, "_WRITE_LINES", block)

        # 17 significant digits, -0 parts kept, exponents and subnormals as %.17g writes them
        def cx(re, im):
            z = np.empty(len(re), dtype=np.complex128)
            z.real, z.imag = re, im
            return z

        dense = DenseTensor(cx([-0.0, 0.1, -2.5e-300, 1 / 3], [-0.0, 1e300, -0.0, -1.0]).reshape(2, 2))
        sym = SymTensor(3, 2, cx([-0.0, 2.0, 0.0, 1e-5, -7.25, 123456789.125], [0.0, -0.0, -0.0, 2 / 3, 1e17, -1e-310]))
        want = {
            "dense": "TENSOR v1 dense order=2 dims=2,2\n1 1 -0 -0\n1 2 0.10000000000000001 1.0000000000000001e+300\n"
            "2 1 -2.5e-300 -0\n2 2 0.33333333333333331 -1\n",
            "sym": "TENSOR v1 sym order=2 dims=3,3\n0 0 -0 0\n1 0 2 -0\n0 1 0 -0\n"
            "2 0 1.0000000000000001e-05 0.66666666666666663\n1 1 -7.25 1e+17\n"
            "0 2 123456789.125 -9.9999999999999694e-311\n",
        }
        for name, t in (("dense", dense), ("sym", sym)):
            path = tmp_path / f"{name}.tns"
            write_tensor(t, path)
            assert path.read_bytes() == want[name].encode()
        vec = cx([-0.0, 1e300], [1e-300, -0.0])
        assert render_report({}, {"r": {"v": vec}}) == "REPORT v1\n[meta]\n[r]\nv=-0,1e-300;1.0000000000000001e+300,-0\n"

    def test_non_ascii_digits_take_the_line_loop(self, tmp_path):
        path = tmp_path / "t.tns"
        # Python's int reads U+0661 as 1; numpy's integer parser reads U+01FE as 462
        path.write_text("TENSOR v1 dense order=2 dims=2,500\n\u0661 1 2 0\n")
        assert read_tensor(path).data[0, 0] == 2
        path.write_text("TENSOR v1 dense order=2 dims=2,500\n1 \u01fe 2 0\n")
        with pytest.raises(FormatError, match="bad entry line"):
            read_tensor(path)


_KEYS = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)
_COMPLEX = st.complex_numbers(allow_nan=False, allow_infinity=False)
REPORT_VALUES = st.one_of(
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(),
    st.sampled_from(["3", "true", "1,2", "(1)", "1.5", 'a="b";c\\d,e', " pad ", "x\ny"]),
    st.lists(st.integers(), min_size=2, max_size=3).map(tuple),
    st.lists(_COMPLEX, min_size=0, max_size=2).map(lambda z: np.array(z, dtype=np.complex128)),
)


class TestReports:
    @given(block=st.dictionaries(_KEYS, REPORT_VALUES, max_size=6))
    def test_every_value_kind_round_trips(self, tmp_path_factory, block):
        path = tmp_path_factory.getbasetemp() / "roundtrip.rep"
        write_report(path, block, {"s": block})
        for section in parse_report(path).values():
            assert section.keys() == block.keys()
            for key, value in block.items():
                back = section[key]
                assert type(back) is type(value)
                if isinstance(value, np.ndarray):
                    assert np.array_equal(back, value)
                else:
                    assert back == value

    def test_roundtrip(self, tmp_path):
        meta = {"kind": "sym", "order": 3, "dims": "4,4,4"}
        sections = {
            "result": {"residual_gp": 0.123456789012345678, "refined": True, "count": 3},
            "term0": {"point": np.array([1.0 + 0j, 2.0 - 1.5j])},
        }
        path = tmp_path / "r.rep"
        write_report(path, meta, sections)
        back = parse_report(path)
        assert back["meta"]["kind"] == "sym"
        assert back["meta"]["order"] == 3
        assert back["result"]["refined"] is True
        assert back["result"]["count"] == 3
        assert np.isclose(back["result"]["residual_gp"], 0.123456789012345678, rtol=0, atol=0)
        assert np.allclose(back["term0"]["point"], [1.0, 2.0 - 1.5j])

    def test_render_parse_without_file(self, tmp_path):
        text = render_report({"a": 1}, {"s": {"x": 2.5}})
        assert text.startswith("REPORT v1\n[meta]\n")
        path = tmp_path / "r.rep"
        path.write_text(text)
        assert parse_report(path)["s"]["x"] == 2.5
        # blank and comment lines inside a section are skipped
        path.write_text(text + "\n# note\ny=1\n")
        assert parse_report(path)["s"] == {"x": 2.5, "y": 1}
        with pytest.raises(TypeError, match="cannot encode report value"):
            render_report({"a": object()}, {})

    def test_values_of_no_kind_rejected(self, tmp_path):
        path = tmp_path / "r.rep"
        for line in [
            "refined=ture",
            "residual_gp=0.1.2",
            "point=1,0;2,x",
            "point=1,0,2",
            "dims=(3,x)",
            "dims=(3,,3)",
            "kind=sym",
            "flattening=3x6",
            'note="open',
        ]:
            path.write_text(f"REPORT v1\n[meta]\n{line}\n")
            with pytest.raises(FormatError, match="reads as no value kind"):
                parse_report(path)

    def test_empty_value_is_an_empty_complex_vector(self, tmp_path):
        path = tmp_path / "r.rep"
        write_report(path, {"v": np.zeros(0, dtype=np.complex128)}, {})
        assert "v=\n" in path.read_text()
        back = parse_report(path)["meta"]["v"]
        assert back.dtype == np.complex128 and back.shape == (0,)

    def test_non_report_rejected(self, tmp_path):
        path = tmp_path / "r.rep"
        path.write_text("garbage\n")
        with pytest.raises(FormatError):
            parse_report(path)
        path.write_text("REPORT v1\nkind=sym\n[meta]\n")
        with pytest.raises(FormatError, match="unexpected report line 'kind=sym'"):
            parse_report(path)


class TestCli:
    def test_gen_approx_sym_roundtrip(self, tmp_path):
        tns = str(tmp_path / "t.tns")
        rep = str(tmp_path / "t.rep")
        assert main(["gen", "--kind", "sym", "--dims", "6,3", "--rank", "2", "--eps", "0.05",
                     "--seed", "3", "-o", tns]) == EXIT_OK
        assert main(["approx-sym", "--rank", "2", "--seed", "1", tns, "-o", rep]) == EXIT_OK
        report = parse_report(rep)
        F = read_tensor(tns)
        assert report["meta"] == {"kind": "sym", "order": 3, "dims": (6, 6, 6), "rank": 2, "seed": 1}
        terms = [report[f"term{s}"] for s in range(2)]
        pts = np.array([t["point"] for t in terms])
        lam = np.array([t["coefficient"][0] for t in terms])
        X = reconstruct_sym(pts, lam, F.n, F.m)
        recomputed = (F - X).norm()
        assert abs(recomputed - report["result"]["residual_gp"]) <= 1e-15
        # this input is refined: u_opt holds the polished scaled vectors
        assert report["result"]["refined"] is True
        X = reconstruct_sym(np.array([t["u_opt"] for t in terms]), np.ones(2), F.n, F.m)
        assert abs((F - X).norm() - report["result"]["residual_opt"]) <= 1e-15
        assert main(["rank-est", tns, "-o", rep]) == EXIT_OK
        assert parse_report(rep)["meta"] == {"kind": "sym", "order": 3, "dims": (6, 6, 6)}

    def test_gen_approx_ns_roundtrip(self, tmp_path):
        tns = str(tmp_path / "t.tns")
        rep = str(tmp_path / "t.rep")
        assert main(["gen", "--kind", "ns", "--dims", "5,4,3", "--rank", "2",
                     "--seed", "2", "-o", tns]) == EXIT_OK
        assert main(["approx-ns", "--rank", "2", tns, "-o", rep]) == EXIT_OK
        report = parse_report(rep)
        F = read_tensor(tns)
        tuples = [[report[f"term{s}"][f"mode{t}"] for t in (1, 2, 3)] for s in range(2)]
        X = reconstruct_ns(tuples)
        recomputed = (F - X).norm()
        key = "residual_opt" if report["result"]["refined"] else "residual_gp"
        assert abs(recomputed - report["result"][key]) <= 1e-10
        # a noisy input is refined: mode* holds the polished vectors, gp_mode* the unrefined ones
        assert main(["gen", "--kind", "ns", "--dims", "5,4,3", "--rank", "2", "--eps", "0.05",
                     "--seed", "2", "-o", tns]) == EXIT_OK
        assert main(["approx-ns", "--rank", "2", tns, "-o", rep]) == EXIT_OK
        report = parse_report(rep)
        F = read_tensor(tns)
        assert report["meta"] == {"kind": "dense", "order": 3, "dims": (5, 4, 3), "rank": 2, "seed": 0}
        assert report["result"]["refined"] is True
        for prefix, key in (("mode", "residual_opt"), ("gp_mode", "residual_gp")):
            terms = [report[f"term{s}"] for s in range(2)]
            X = reconstruct_ns([[term[f"{prefix}{t}"] for t in (1, 2, 3)] for term in terms])
            assert abs((F - X).norm() - report["result"][key]) <= 1e-15
        assert main(["rank-est", tns, "-o", rep]) == EXIT_OK
        assert parse_report(rep)["meta"] == {"kind": "dense", "order": 3, "dims": (5, 4, 3)}

    def test_approx_commands_look_up_the_solvers_at_call_time(self, tmp_path, monkeypatch):
        # tracing a CLI run patches `cli.approx_sym` and `cli.approx_nonsym`, so each
        # subcommand must reach its solver through the module attribute when it runs
        sym, dense, rep = (str(tmp_path / name) for name in ("s.tns", "d.tns", "t.rep"))
        main(["gen", "--kind", "sym", "--dims", "4,3", "--rank", "2", "-o", sym])
        main(["gen", "--kind", "ns", "--dims", "4,4,4", "--rank", "2", "-o", dense])
        calls = []
        for name in ("approx_sym", "approx_nonsym"):
            def counting(*args, _name=name, _solve=getattr(cli, name), **kwargs):
                calls.append(_name)
                return _solve(*args, **kwargs)

            monkeypatch.setattr(cli, name, counting)
        assert main(["approx-sym", "--rank", "2", sym, "-o", rep]) == EXIT_OK
        assert calls == ["approx_sym"]
        assert main(["approx-ns", "--rank", "2", dense, "-o", rep]) == EXIT_OK
        assert calls == ["approx_sym", "approx_nonsym"]
        # the parser that bound the subcommands is built once, before the solvers were patched
        assert cli.build_parser() is cli.build_parser()

    def test_paper_tensor_and_rank_est(self, tmp_path, capsys):
        tns = str(tmp_path / "c.tns")
        assert main(["paper-tensor", "--name", "cos3", "-o", tns]) == EXIT_OK
        assert main(["rank-est", "--split", "1,2|3", tns]) == EXIT_OK
        out = capsys.readouterr().out
        assert "suggested_rank=2" in out

    def test_no_refine_flag(self, tmp_path):
        tns = str(tmp_path / "t.tns")
        rep = str(tmp_path / "t.rep")
        main(["gen", "--kind", "sym", "--dims", "5,3", "--rank", "2", "--eps", "0.1",
              "--seed", "4", "-o", tns])
        assert main(["approx-sym", "--rank", "2", "--no-refine", tns, "-o", rep]) == EXIT_OK
        report = parse_report(rep)
        assert report["result"]["refined"] is False
        assert "residual_opt" not in report["result"]

    def test_precondition_exit_codes(self, tmp_path, capsys):
        tns = str(tmp_path / "t.tns")
        main(["gen", "--kind", "sym", "--dims", "4,3", "--rank", "2", "-o", tns])
        ns = str(tmp_path / "g.tns")
        main(["gen", "--kind", "ns", "--dims", "4,4,4", "--rank", "2", "-o", ns])
        # rank too large for the least-squares systems
        assert main(["approx-sym", "--rank", "100", tns]) == EXIT_PRECONDITION
        # missing file
        assert main(["approx-sym", "--rank", "2", str(tmp_path / "nope.tns")]) == EXIT_PRECONDITION
        # malformed split, and a split without its `|`
        assert main(["rank-est", "--split", "junk", tns]) == EXIT_PRECONDITION
        assert main(["rank-est", "--split", "1,2", ns]) == EXIT_PRECONDITION
        assert "bad split" in capsys.readouterr().err
        # a symmetric tensor's dims are n,m
        assert main(["gen", "--kind", "sym", "--dims", "3", "--rank", "1", "-o", tns]) == EXIT_PRECONDITION
        assert "--dims for sym must be n,m" in capsys.readouterr().err
        # unknown flag
        assert main(["approx-sym", "--bogus", tns]) == EXIT_PRECONDITION
        # --split belongs to rank-est only (the dense file is one approx-ns accepts), and bench has no scale
        assert main(["approx-ns", "--rank", "2", ns]) == EXIT_OK
        assert main(["approx-ns", "--rank", "2", "--split", "1,2|3", ns]) == EXIT_PRECONDITION
        assert main(["bench", "--preset", "table1", "--scale", "desk"]) == EXIT_PRECONDITION
        # the cutoff and the rank-gap thresholds are fixed, not flags
        assert main(["approx-sym", "--rank", "2", "--rcond", "1e-8", tns]) == EXIT_PRECONDITION
        assert main(["approx-ns", "--rank", "2", "--rcond", "1e-8", ns]) == EXIT_PRECONDITION
        assert main(["rank-est", "--gap-factor", "10", tns]) == EXIT_PRECONDITION
        assert main(["rank-est", "--floor", "1e-6", tns]) == EXIT_PRECONDITION
        # a directory where a file is expected, for input and for output
        folder = str(tmp_path)
        assert main(["approx-ns", "--rank", "2", folder]) == EXIT_PRECONDITION
        assert main(["approx-ns", "--rank", "2", "-o", folder, ns]) == EXIT_PRECONDITION
        gen_sym = ["gen", "--kind", "sym", "--dims", "4,3", "--rank", "2"]
        assert main([*gen_sym, "-o", folder]) == EXIT_PRECONDITION
        # a noise norm that is not a finite number >= 0, for either kind
        gen_ns = ["gen", "--kind", "ns", "--dims", "3,3,3", "--rank", "1"]
        for gen in (gen_sym, gen_ns):
            for eps in ("nan", "inf", "-1"):
                assert main([*gen, "--eps", eps, "-o", tns]) == EXIT_PRECONDITION
                assert "eps must be finite and nonnegative" in capsys.readouterr().err

    def test_dimension_one_sym_file(self, tmp_path, capsys):
        tns = tmp_path / "one.tns"
        tns.write_text("TENSOR v1 sym order=3 dims=1,1,1\n2.5 -1\n")
        t = read_tensor(tns)
        assert (t.n, t.m) == (1, 3) and t.values.tolist() == [2.5 - 1j]
        assert main(["rank-est", str(tns)]) == EXIT_OK
        assert 'flattening="1x1"' in capsys.readouterr().out
        assert main(["approx-sym", "--rank", "1", str(tns)]) == EXIT_PRECONDITION
        assert "need n >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "dims,rank,message",
        [
            ("4,3,3", "0", "rank must be in 1..4"),
            ("4,3,3", "-1", "rank must be in 1..4"),
            ("5,3,1", "1", "mode 3 has dimension 1"),
            ("8,8,3", "5", "rank 5 exceeds the 3 rows of the system for mode 2"),
        ],
    )
    def test_approx_ns_preconditions(self, tmp_path, capsys, dims, rank, message):
        tns = str(tmp_path / "t.tns")
        shape = tuple(int(d) for d in dims.split(","))
        write_tensor(DenseTensor(np.arange(1.0, np.prod(shape) + 1).reshape(shape)), tns)
        assert main(["approx-ns", "--rank", rank, tns]) == EXIT_PRECONDITION
        assert message in capsys.readouterr().err

    def test_sym_file_for_ns_command(self, tmp_path):
        tns = str(tmp_path / "t.tns")
        main(["gen", "--kind", "sym", "--dims", "4,3", "--rank", "2", "-o", tns])
        assert main(["approx-ns", "--rank", "2", tns]) == EXIT_PRECONDITION

    def test_dense_file_for_sym_command(self, tmp_path, capsys):
        tns = str(tmp_path / "t.tns")
        main(["gen", "--kind", "ns", "--dims", "3,3,3", "--rank", "2", "-o", tns])
        assert main(["approx-sym", "--rank", "2", tns]) == EXIT_PRECONDITION
        assert "requires a symmetric tensor file" in capsys.readouterr().err

    def test_report_dims_decode_as_int_tuples(self, tmp_path):
        sym, dense, rep = (str(tmp_path / name) for name in ("s.tns", "d.tns", "t.rep"))
        main(["gen", "--kind", "sym", "--dims", "3,2", "--rank", "1", "-o", sym])
        assert main(["approx-sym", "--rank", "1", sym, "-o", rep]) == EXIT_OK
        report = parse_report(rep)
        assert report["meta"]["dims"] == (3, 3)
        trust = {"schur_defect", "eigengap", "low_confidence", "xi_seed"}
        assert set(report["result"]) == {"residual_gp", "refined", "fit_cond", *trust}
        main(["gen", "--kind", "ns", "--dims", "3,5,4", "--rank", "2", "-o", dense])
        assert main(["approx-ns", "--rank", "2", dense, "-o", rep]) == EXIT_OK
        report = parse_report(rep)
        assert report["meta"]["dims"] == (3, 5, 4)
        assert report["result"]["lead_mode"] == 2
        assert set(report["result"]) == {"residual_gp", "refined", "lead_mode", "outside_gain", *trust}

    @pytest.mark.parametrize("preset,metric", [("table1", "mrlerr="), ("table2", "max_rel_residual=")])
    def test_bench_preset_lines(self, capsys, preset, metric):
        assert main(["bench", "--preset", preset]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"preset={preset}" and lines[1].startswith("note: ")
        rows = lines[2:]
        assert len(rows) == len(experiments._PRESETS[preset]["specs"])
        assert all(metric in row and "mean_time=" in row for row in rows)
        assert not any("failures:" in line for line in lines)

    @pytest.mark.parametrize("preset,metric", [("table1", "mrlerr=n/a "), ("table2", "max_rel_residual=n/a ")])
    def test_bench_row_whose_every_trial_failed(self, monkeypatch, capsys, preset, metric):
        def fails(*args, **kwargs):
            raise ValueError("no solve")

        monkeypatch.setattr(experiments, "approx_sym", fails)
        assert main(["bench", "--preset", preset]) == EXIT_OK
        out = capsys.readouterr()
        rows = out.out.splitlines()[2:]
        assert rows[0::2] and all(metric in row for row in rows[0::2])
        assert rows[1::2] == ["  failures: 20/20"] * len(rows[0::2])
        assert "Traceback" not in out.err

    def test_bench_row_with_one_failed_trial(self, monkeypatch, capsys):
        calls = []

        def first_fails(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise ValueError("no solve")
            return approx_sym(*args, **kwargs)

        monkeypatch.setattr(experiments, "approx_sym", first_fails)
        assert main(["bench", "--preset", "table2"]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()[2:]
        assert len(rows) == 3 and rows[1] == "  failures: 1/20"
        assert "max_rel_residual=n/a" not in rows[0] and "max_rel_residual=" in rows[2]

    @pytest.mark.parametrize(
        "command,header,entries",
        [
            # int64 offsets address this one, but no machine can hold it
            ("approx-ns", "dense order=3 dims=131072,131072,131072", 2**51),
            ("approx-sym", "sym order=40 dims=" + ",".join(["60"] * 40), math.comb(99, 40)),
            ("approx-ns", "dense order=3 dims=4000000000,4000000000,4000000000", 64 * 10**27),
        ],
        ids=["dense-2^51", "sym-order-40", "dense-past-int64"],
    )
    def test_header_too_large_to_store(self, tmp_path, capsys, command, header, entries):
        # every size here is at least 2^50 entries, so its allocation fails at once
        assert entries >= 2**50
        tns = tmp_path / "t.tns"
        tns.write_text(f"TENSOR v1 {header}\n1 1 1 1 0\n")
        assert main([command, "--rank", "2", str(tns)]) == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert err == f"error: tensor of {entries} entries is too large to store\n"
        with pytest.raises(FormatError, match=f"tensor of {entries} entries"):
            read_tensor(tns)

    @pytest.mark.parametrize("refine", [True, False], ids=["refined", "unrefined"])
    @pytest.mark.parametrize(
        "kind,dims,r",
        # 10^3 at r = 5 compresses every mode before LM, 4^3 at r = 4 none; at
        # r = 1 the eigengap is inf, and without LM outside_gain is NaN
        [("sym", "6,3", 3), ("sym", "6,3", 1), ("ns", "10,10,10", 5), ("ns", "4,4,4", 4)],
        ids=["sym", "sym_rank1", "dense_compressed", "dense_whole"],
    )
    def test_report_records_every_diagnostic(self, tmp_path, kind, dims, r, refine):
        tns, rep = str(tmp_path / "t.tns"), str(tmp_path / "t.rep")
        main(["gen", "--kind", kind, "--dims", dims, "--rank", str(r), "--eps", "0.01", "--seed", "5", "-o", tns])
        command, solve = ("approx-sym", approx_sym) if kind == "sym" else ("approx-ns", approx_nonsym)
        flags = [] if refine else ["--no-refine"]
        assert main([command, "--rank", str(r), "--seed", "2", *flags, tns, "-o", rep]) == EXIT_OK
        res = solve(read_tensor(tns), r, refine=refine, seed=2)
        assert res.refined == refine
        fields = ["residual_gp", "refined", "residual_opt"]
        assert set(fields).isdisjoint(res.diagnostics)
        result = parse_report(rep)["result"]
        assert list(result) == [*(fields if refine else fields[:2]), *res.diagnostics]
        assert result["residual_gp"] == res.residual_gp and result.get("residual_opt") == res.residual_opt
        # every value reads back as the same kind and the same bits, NaN and inf included
        for key, want in res.diagnostics.items():
            got = result[key]
            assert type(got) is type(want) and struct.pack("<d", got) == struct.pack("<d", want), key

    @pytest.mark.parametrize(
        "module,name",
        [(scipy.linalg.lapack, name) for name in ("zgesdd", "zgeqrf", "zunmqr", "zgees")],
    )
    def test_numerical_failure_exits_3(self, tmp_path, monkeypatch, capsys, module, name):
        tns = str(tmp_path / "t.tns")
        main(["gen", "--kind", "sym", "--dims", "5,3", "--rank", "2", "-o", tns])
        fail_lapack(monkeypatch, module, name)
        assert main(["approx-sym", "--rank", "2", tns]) == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind,dims,solver", [("sym", "5,3", approx_sym), ("ns", "5,4,3", approx_nonsym)], ids=["fit", "core"]
    )
    def test_failed_eigensolve_exits_3(self, tmp_path, monkeypatch, capsys, kind, dims, solver):
        # the symmetric coefficient fit and the dense Tucker core each run a Hermitian eigensolve
        tns = str(tmp_path / "t.tns")
        main(["gen", "--kind", kind, "--dims", dims, "--rank", "2", "-o", tns])
        fail_lapack(monkeypatch, scipy.linalg.lapack, "zheevd")
        command = "approx-sym" if kind == "sym" else "approx-ns"
        assert main([command, "--rank", "2", tns]) == EXIT_NUMERICAL
        assert "numerical failure: Hermitian eigensolve failed" in capsys.readouterr().err
        with pytest.raises(Exception, match="LAPACK zheevd returned info 1") as failure:
            solver(read_tensor(tns), 2)
        # a numerical failure, not a precondition one
        assert isinstance(failure.value, NumericalError) and not isinstance(failure.value, ValueError)

    def test_exit_code_constants(self):
        assert (EXIT_OK, EXIT_PRECONDITION, EXIT_NUMERICAL) == (0, 2, 3)

