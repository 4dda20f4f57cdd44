"""Text serialization: tensor files and result reports.

Tensor files are UTF-8 text with a header line

    TENSOR v1 <sym|dense> order=<m> dims=<n1,...,nm>

followed by one line per stored entry.  Dense lines carry m 1-based indices
then the real and imaginary parts; symmetric lines carry the n-1 exponents of
a power vector then the real and imaginary parts.  Entries may appear in any
order, duplicates are an error, and missing entries are zero.

Result reports are key=value text grouped into [section] blocks and can be
parsed back losslessly (floats are written with 17 significant digits).
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import warnings

import numpy as np

from .monomials import grlex_position
from .tensors import DenseTensor, SymTensor

__all__ = [
    "write_tensor",
    "read_tensor",
    "render_report",
    "write_report",
    "parse_report",
    "FormatError",
]


# bytes per read of the scan that decides whether numpy may read a tensor file
_SCAN_BYTES = 1 << 20
# entry lines per block of `write_tensor`
_WRITE_LINES = 1 << 10


class FormatError(ValueError):
    """Malformed tensor file or report."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_tensor(t, path) -> None:
    """Write a tensor file; symmetric tensors use compact power-vector lines.

    Lines are written in blocks of _WRITE_LINES, each formatted with one
    %-format per line from Python ints and floats, so those never hold the
    whole tensor; %.17g writes a float as `_fmt` does.
    """
    if isinstance(t, SymTensor):
        p = t.powers
        blocks = range(0, len(p), _WRITE_LINES)
        rows = itertools.chain.from_iterable(p[lo : lo + _WRITE_LINES].tolist() for lo in blocks)
        values, count = t.values, t.nbar
    elif isinstance(t, DenseTensor):
        # 1-based multi-indices in row-major order, generated as the lines are written
        rows = itertools.product(*(range(1, d + 1) for d in t.dims))
        values, count = t.data.ravel(), t.order
    else:
        raise TypeError(f"cannot serialize {type(t).__name__}")
    line = "%d " * count + "%.17g %.17g\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"TENSOR v1 {t.kind} order={t.order} dims={','.join(map(str, t.dims))}\n")
        for lo in range(0, len(values), _WRITE_LINES):
            block = values[lo : lo + _WRITE_LINES]
            # rows last: zip stops at the block's end without drawing a row past it
            lines = zip(block.real.tolist(), block.imag.tolist(), rows)
            fh.writelines(line % (*row, re, im) for re, im, row in lines)


def _parse_header(line: str):
    parts = line.split()
    if len(parts) != 5 or parts[0] != "TENSOR" or parts[1] != "v1":
        raise FormatError(f"bad header line: {line!r}")
    kind = parts[2]
    if kind not in ("sym", "dense"):
        raise FormatError(f"unknown tensor kind {kind!r}")
    try:
        order = int(parts[3].removeprefix("order="))
        dims = tuple(int(d) for d in parts[4].removeprefix("dims=").split(","))
    except ValueError as exc:
        raise FormatError(f"bad header line: {line!r}") from exc
    if parts[3] == parts[3].removeprefix("order=") or parts[4] == parts[4].removeprefix("dims="):
        raise FormatError(f"bad header line: {line!r}")
    if order != len(dims) or order < 1 or any(d < 1 for d in dims):
        raise FormatError(f"inconsistent order/dims in header: {line!r}")
    return kind, order, dims


def _parse_entry(ln: str, count: int, what: str):
    """Split an entry line into `count` integers and a finite complex value."""
    parts = ln.split()
    if len(parts) != count + 2:
        raise FormatError(f"expected {count} {what} + re + im, got line {ln!r}")
    try:
        ints = tuple(map(int, parts[:count]))
        value = complex(float(parts[-2]), float(parts[-1]))
    except ValueError as exc:
        raise FormatError(f"bad entry line {ln!r}") from exc
    if not cmath.isfinite(value):
        raise FormatError(f"non-finite value in entry line {ln!r}")
    return ints, value


def _find_header(fh):
    """The stripped header line of an open tensor file, the number of lines through it and their bytes.

    `fh` must keep line endings as they are (`newline=""`), so the lines
    encode back to the file's bytes.
    """
    offset = 0
    for skip, ln in enumerate(fh, 1):
        offset += len(ln.encode("utf-8"))
        ln = ln.strip()
        if ln and not ln.startswith("#"):
            return ln, skip, offset
    raise FormatError("empty tensor file")


def _numpy_readable(path, offset=0) -> bool:
    """Whether numpy's reader skips the same lines as the line loop and parses the rest alike.

    Only the bytes from `offset` on are scanned: `read_tensor` passes the
    first byte after the header line, since both readers skip the lines up to
    it whatever they hold.  The scanned bytes must be ASCII, since numpy's
    integer parser reads some non-ASCII characters as digits, and every `#`
    must start a comment line, since numpy also drops a `#` and the rest of
    its line after an entry.
    """
    lead_blank = True  # the bytes since the last line break are spaces and tabs only
    with open(path, "rb") as fb:
        fb.seek(offset)
        while chunk := fb.read(_SCAN_BYTES):
            if not chunk.isascii():
                return False
            i = chunk.find(b"#")
            while i >= 0:
                start = max(chunk.rfind(b"\n", 0, i), chunk.rfind(b"\r", 0, i)) + 1
                if chunk[start:i].strip(b" \t") or not (start or lead_blank):
                    return False
                i = chunk.find(b"#", i + 1)
            end = max(chunk.rfind(b"\n"), chunk.rfind(b"\r")) + 1
            lead_blank = not chunk[end:].strip(b" \t") and (end > 0 or lead_blank)
    return True


def _loadtxt(path, skip, dtype):
    # numpy warns of an empty body, which is the zero tensor; the skipped lines
    # may hold any UTF-8, and `_numpy_readable` has checked that the rest is ASCII
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(path, dtype=dtype, comments="#", skiprows=skip, encoding="utf-8", ndmin=1)


def _parse_table(path, skip, offset, dtype):
    """Parse the entry lines after the first `skip` lines, which end at byte `offset`, with numpy.

    Returns the table, or None unless the bytes from `offset` pass the scan,
    numpy accepts every entry line and reads every value as finite; the line
    loop then reads the whole file.  What numpy accepts from ASCII lines
    Python's int and float accept too, with the same values, so a table reads
    the same as the line loop would.
    """
    if not _numpy_readable(path, offset):
        return None
    try:
        table = _loadtxt(path, skip, dtype)
    except ValueError:
        return None
    return table if np.isfinite(table["v"]).all() else None


def _parse_lines(fh, count, what):
    """Parse entry lines one by one: (int64 rows, complex values, wide).

    Reads the open file on from its header and raises FormatError for the
    first malformed entry line.  `wide` maps the rows holding an integer
    beyond int64 to their integers; their array row is 0.
    """
    lines = [ln for ln in map(str.strip, fh) if ln and not ln.startswith("#")]
    rows = np.empty((len(lines), count), dtype=np.int64)
    values = np.empty(len(lines), dtype=np.complex128)
    wide = {}
    for i, ln in enumerate(lines):
        ints, values[i] = _parse_entry(ln, count, what)
        try:
            rows[i] = ints
        except OverflowError:
            wide[i] = ints
            rows[i] = 0
    return rows, values, wide


def read_tensor(path):
    """Parse a tensor file into a SymTensor or DenseTensor.

    Every entry line is a row of integers and a complex value; the two kinds
    differ only in how a row maps to a storage position.  After one byte scan
    of the file past its header, numpy's reader parses the entry lines from
    the path; a file that numpy does not fully accept, or reads a non-finite
    value from, is read by the line loop from its first entry line instead,
    to name the fault or to read syntax that only Python accepts.  Of several faults the
    first malformed line is reported, then an out-of-range entry, then the
    first line that repeats an earlier entry.  A header whose tensor cannot be
    stored is rejected before any entry is read.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        header, skip, offset = _find_header(fh)
        kind, order, dims = _parse_header(header)
        if kind == "sym" and len(set(dims)) != 1:
            raise FormatError(f"symmetric tensor requires cubic dims, got {dims}")
        count, what = (dims[0] - 1, "exponents") if kind == "sym" else (order, "indices")
        size = math.comb(dims[0] - 1 + order, order) if kind == "sym" else math.prod(dims)
        try:
            if size > np.iinfo(np.int64).max // 16:  # past the int64 byte offsets of 16-byte entries
                raise MemoryError
            flat = np.zeros(size, dtype=np.complex128)
        except MemoryError:
            raise FormatError(f"tensor of {size} entries is too large to store") from None
        dtype = np.dtype([("i", np.int64, count), ("v", np.float64, 2)])
        table = _parse_table(path, skip, offset, dtype)
        if table is None:
            rows, values, wide = _parse_lines(fh, count, what)
        else:
            # a view of the (re, im) pairs, not re + 1j * im, which turns -0 parts into +0
            rows, values, wide = table["i"], np.ascontiguousarray(table["v"]).view(np.complex128).ravel(), {}
    if kind == "sym":
        n, m = dims[0], order
        if wide:
            big = next(a for a in wide[min(wide)] if not -(2**63) <= a < 2**63)
            raise FormatError(f"power vector out of range for m={m}: exponent {big} exceeds 64 bits")
        try:
            pos = grlex_position(n - 1, m, rows)
        except KeyError as exc:
            raise FormatError(f"power vector out of range for m={m}: {exc.args[0]}") from exc
        where = "for power vector"
    else:
        index = rows - 1
        try:
            pos = np.ravel_multi_index(tuple(index.T), dims)  # raises for an index out of range
        except ValueError:
            # name the first faulty line; one unsigned comparison: an index
            # below 0 wraps past every dimension
            i = int((index.view(np.uint64) >= np.array(dims, dtype=np.uint64)).any(axis=1).argmax())
            bad = wide.get(i, tuple(rows[i].tolist()))
            raise FormatError(f"index {bad} out of range for dims {dims}") from None
        where = "at index"
    if np.bincount(pos, minlength=size).max() > 1:
        first = np.unique(pos, return_index=True)[1]
        repeat = np.setdiff1d(np.arange(len(pos)), first)[0]
        raise FormatError(f"duplicate entry {where} {tuple(rows[repeat].tolist())}")
    flat[pos] = values
    return SymTensor(n, m, flat) if kind == "sym" else DenseTensor(flat.reshape(dims))


def _vec_str(v) -> str:
    v = np.asarray(v, dtype=np.complex128)
    # %.17g writes a float as _fmt does
    return ";".join(["%.17g,%.17g" % pair for pair in zip(v.real.tolist(), v.imag.tolist())])


def _vec_parse(s: str) -> np.ndarray:
    out = []
    for item in s.split(";") if s else []:
        re, im = item.split(",")
        out.append(complex(float(re), float(im)))
    return np.array(out, dtype=np.complex128)


def render_report(meta: dict, sections: dict) -> str:
    """Render a structured report: a [meta] block then the given sections.

    Each value kind has its own syntax, so `parse_report` returns the same
    kind: true/false for bools, digits for ints, 17 significant digits with a
    point or an exponent for floats, `(a,b,...)` for sequences of ints,
    semicolon-separated re,im pairs for other 1-D arrays (complex vectors;
    the empty text for an empty one), and JSON string literals for strings.
    `parse_report` raises FormatError for a value that reads as none of these.
    """
    lines = ["REPORT v1", "[meta]"]
    for k, v in meta.items():
        lines.append(f"{k}={_encode(v)}")
    for name, block in sections.items():
        lines.append(f"[{name}]")
        for k, v in block.items():
            lines.append(f"{k}={_encode(v)}")
    return "\n".join(lines) + "\n"


def write_report(path, meta: dict, sections: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_report(meta, sections))


def _encode(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        text = _fmt(v)
        return text if any(c in text for c in ".ein") else text + ".0"
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (list, tuple, np.ndarray)):
        if _is_int_seq(v):
            return "(" + ",".join(str(int(i)) for i in v) + ")"
        return _vec_str(v)
    raise TypeError(f"cannot encode report value of type {type(v).__name__}")


def _is_int_seq(v) -> bool:
    if isinstance(v, np.ndarray):
        return v.dtype.kind in "iu"
    return all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in v)


def parse_report(path) -> dict:
    """Parse a report into {section: {key: value}}.

    Int sequences become tuples and complex vectors become arrays.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0].strip() != "REPORT v1":
        raise FormatError("not a v1 report")
    out: dict[str, dict] = {}
    current = None
    for ln in lines[1:]:
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if ln.startswith("[") and ln.endswith("]"):
            current = ln[1:-1]
            out.setdefault(current, {})
            continue
        if current is None or "=" not in ln:
            raise FormatError(f"unexpected report line {ln!r}")
        k, v = ln.split("=", 1)
        out[current][k.strip()] = _decode(v.strip())
    return out


def _decode(s: str):
    """The value that the text of one report field encodes (see `render_report`)."""
    try:
        if s.startswith('"'):
            return json.loads(s)
        if s in ("true", "false"):
            return s == "true"
        if s.startswith("(") and s.endswith(")"):
            return tuple(int(i) for i in s[1:-1].split(",")) if s != "()" else ()
        if not s or "," in s:
            return _vec_parse(s)
        try:
            return int(s)
        except ValueError:
            return float(s)
    except ValueError as exc:
        raise FormatError(f"report value {s!r} reads as no value kind") from exc
