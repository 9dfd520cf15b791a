"""Flat key=value configuration text.

One option per line, ``#`` starts a comment, blank lines ignored.  The
normalized form is ``key=value`` with whitespace trimmed, in first-seen
key order; re-serializing a parsed config reproduces it exactly.  Float
values are written with ``repr`` so they parse back to the same float.
"""

from .errors import DataFormatError


def parse_config(text, source="<config>"):
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataFormatError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise DataFormatError(f"{source}:{lineno}: empty key")
        out[key] = value.strip()
    return out


def serialize_config(mapping):
    return "".join(f"{k}={_format(v)}\n" for k, v in mapping.items())


def _format(value):
    return repr(float(value)) if isinstance(value, float) else str(value)


def read_ascii(path):
    """Whole text file; a non-ASCII byte is a DataFormatError naming its offset."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return blob.decode("ascii")
    except UnicodeDecodeError as exc:
        raise DataFormatError(
            f"{path}: non-ASCII byte 0x{blob[exc.start]:02x} at offset {exc.start}"
        ) from None


def load_config(path):
    return parse_config(read_ascii(path), source=str(path))


def save_config(mapping, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize_config(mapping))
