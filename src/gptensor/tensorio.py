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


class FormatError(ValueError):
    """Malformed tensor file or report."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_tensor(t, path) -> None:
    """Write a tensor file; symmetric tensors use compact power-vector lines."""
    if isinstance(t, SymTensor):
        kind, dims, rows, values = "sym", (t.n,) * t.m, t.powers, t.values
    elif isinstance(t, DenseTensor):
        # 1-based multi-indices in row-major order, generated as the lines are written
        rows = itertools.product(*(range(1, d + 1) for d in t.dims))
        kind, dims, values = "dense", t.dims, t.data.ravel()
    else:
        raise TypeError(f"cannot serialize {type(t).__name__}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"TENSOR v1 {kind} order={len(dims)} dims={','.join(map(str, dims))}\n")
        fh.writelines(
            " ".join([*map(str, row), _fmt(v.real), _fmt(v.imag)]) + "\n"
            for row, v in zip(rows, values)
        )


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


def _entry_lines(fh):
    """The stripped lines of an open tensor file, without blank and `#` comment lines."""
    return (ln for ln in map(str.strip, fh) if ln and not ln.startswith("#"))


def _ascii(lines):
    """Pass the lines on; raise ValueError at the first one that is not ASCII.

    numpy's integer parser reads some non-ASCII characters as digits, so such
    lines are left to `_parse_entry`.
    """
    for ln in lines:
        if not ln.isascii():
            raise ValueError(f"non-ASCII entry line {ln!r}")
        yield ln


def _parse_table(lines, count):
    """Parse all entry lines in one pass: (int64 rows, complex values, {}), or None.

    None means that numpy rejected a line or read a non-finite value.  What
    numpy accepts from ASCII lines Python's int and float accept too, with
    the same values, so a file read here reads the same through the line loop.
    """
    dtype = np.dtype([("i", np.int64, count), ("v", np.float64, 2)])
    first = next(lines, None)
    if first is None:  # loadtxt warns on an empty body
        table = np.empty(0, dtype)
    else:
        try:
            table = np.loadtxt(_ascii(itertools.chain([first], lines)), dtype=dtype, comments=None, ndmin=1)
        except ValueError:
            return None
    if not np.isfinite(table["v"]).all():
        return None
    # a view of the (re, im) pairs, not re + 1j * im, which turns -0 parts into +0
    return table["i"], np.ascontiguousarray(table["v"]).view(np.complex128).ravel(), {}


def _parse_lines(fh, count, what):
    """Parse the entry lines of an open tensor file one by one: (int64 rows, complex values, wide).

    Reads the file again from its start and raises FormatError for the first
    malformed line.  `wide` maps the rows holding an integer beyond int64 to
    their integers; their array row is 0.
    """
    fh.seek(0)
    lines = list(_entry_lines(fh))[1:]
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
    differ only in how a row maps to a storage position.  The entry lines are
    parsed in one numpy pass; only when that pass fails does the line loop
    run, to name the fault or to read syntax that only Python accepts.  Of
    several faults the first malformed line is reported, then an
    out-of-range entry, then the first line that repeats an earlier entry.
    """
    with open(path, encoding="utf-8") as fh:
        lines = _entry_lines(fh)
        header = next(lines, None)
        if header is None:
            raise FormatError("empty tensor file")
        kind, order, dims = _parse_header(header)
        if kind == "sym" and len(set(dims)) != 1:
            raise FormatError(f"symmetric tensor requires cubic dims, got {dims}")
        count, what = (dims[0] - 1, "exponents") if kind == "sym" else (order, "indices")
        rows, values, wide = _parse_table(lines, count) or _parse_lines(fh, count, what)
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


def _vec_str(v) -> str:
    return ";".join(f"{_fmt(z.real)},{_fmt(z.imag)}" for z in np.asarray(v, dtype=np.complex128))


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
