"""Serialization of lattice fields.

Binary format ("CARF"): magic bytes ``CARF``, one version byte, one
byte for the dimension d, then per axis an 8-byte little-endian IEEE
double (spacing) and an 8-byte little-endian unsigned integer (points),
followed by the row-major field values as 8-byte doubles.  Round-trips
are bit exact.

CSV format: one header row with the axis sizes then the spacings
(``n1,...,nd,delta1,...,deltad``), then one value per line in row-major
order, printed with 17 significant digits so doubles round-trip
exactly.  A plain rectangular matrix of comma-separated values (no
header) is also accepted for d = 2 ingestion, with the spacing
supplied by the caller.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import LengthMismatch, MalformedHeader, NonFiniteValue
from .simulate import LatticeField

__all__ = [
    "write_carf",
    "read_carf",
    "write_field_csv",
    "read_field_csv",
    "ingest_grid",
]

MAGIC = b"CARF"
VERSION = 1


def write_carf(field, path):
    values = np.ascontiguousarray(field.values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<BB", VERSION, field.d))
        for delta, n in zip(field.delta, field.n):
            fh.write(struct.pack("<dQ", float(delta), int(n)))
        fh.write(values.tobytes(order="C"))


def read_carf(path):
    with open(path, "rb") as fh:
        head = fh.read(6)
        if len(head) != 6 or head[:4] != MAGIC:
            raise MalformedHeader(f"{path} is not a CARF grid file")
        version, d = head[4], head[5]
        if version != VERSION:
            raise MalformedHeader(f"unsupported CARF version {version}")
        if d == 0:
            raise MalformedHeader("dimension byte is zero")
        deltas, ns = [], []
        for _ in range(d):
            raw = fh.read(16)
            if len(raw) != 16:
                raise MalformedHeader("truncated axis header")
            delta, n = struct.unpack("<dQ", raw)
            deltas.append(delta)
            ns.append(int(n))
        count = int(np.prod(ns))
        payload = fh.read()
    values = np.frombuffer(payload, dtype="<f8")
    if values.size != count:
        raise LengthMismatch(
            f"{path} declares {count} values but holds {values.size}"
        )
    if not np.all(np.isfinite(values)):
        raise NonFiniteValue(f"{path} contains non-finite values")
    return LatticeField(
        delta=tuple(deltas),
        values=values.reshape(ns).copy(),
        provenance={"source": str(path), "format": "carf"},
    )


def write_field_csv(field, path):
    with open(path, "w") as fh:
        header = [str(n) for n in field.n] + [f"{d:.17g}" for d in field.delta]
        fh.write(",".join(header) + "\n")
        for v in field.values.ravel(order="C"):
            fh.write(f"{v:.17g}\n")


def _parse_canonical_header(cells):
    if len(cells) < 2 or len(cells) % 2 != 0:
        return None
    d = len(cells) // 2
    try:
        ns = [int(c) for c in cells[:d]]
        deltas = [float(c) for c in cells[d:]]
    except ValueError:
        return None
    if any(n <= 0 for n in ns) or any(v <= 0 for v in deltas):
        return None
    return ns, deltas


def read_field_csv(path, default_delta=None):
    try:
        with open(path) as fh:
            lines = [line.strip() for line in fh if line.strip()]
    except UnicodeDecodeError:
        raise MalformedHeader(f"{path} is not a text grid file") from None
    if not lines:
        raise MalformedHeader(f"{path} is empty")
    header = _parse_canonical_header(lines[0].split(","))
    if header is not None:
        ns, deltas = header
        try:
            values = np.asarray([float(v) for v in lines[1:]])
        except ValueError as exc:
            raise MalformedHeader(f"bad value in {path}: {exc}") from None
        count = int(np.prod(ns))
        if values.size != count:
            raise LengthMismatch(
                f"{path} declares {count} values but holds {values.size}"
            )
        if not np.all(np.isfinite(values)):
            raise NonFiniteValue(f"{path} contains non-finite values")
        return LatticeField(
            delta=tuple(deltas),
            values=values.reshape(ns),
            provenance={"source": str(path), "format": "csv"},
        )
    # plain matrix of comma-separated rows, spacing supplied by the caller
    if default_delta is None:
        raise MalformedHeader(
            f"{path} has no grid header; supply a spacing to ingest a bare matrix"
        )
    try:
        rows = [[float(v) for v in line.split(",")] for line in lines]
    except ValueError as exc:
        raise MalformedHeader(f"bad value in {path}: {exc}") from None
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise LengthMismatch(f"{path} rows have inconsistent lengths {sorted(widths)}")
    values = np.asarray(rows)
    if not np.all(np.isfinite(values)):
        raise NonFiniteValue(f"{path} contains non-finite values")
    return LatticeField(
        delta=default_delta,
        values=values,
        provenance={"source": str(path), "format": "csv-matrix"},
    )


def ingest_grid(path, fmt="auto", default_delta=None):
    """Read a lattice field from a CARF or CSV file.

    ``fmt`` may be "carf", "csv" or "auto" (sniff the magic bytes).
    """
    if fmt == "auto":
        with open(path, "rb") as fh:
            fmt = "carf" if fh.read(4) == MAGIC else "csv"
    if fmt == "carf":
        return read_carf(path)
    if fmt == "csv":
        return read_field_csv(path, default_delta=default_delta)
    raise MalformedHeader(f"unknown grid format {fmt!r}")
