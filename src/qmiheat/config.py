"""Flat key=value configuration text, and the package's file I/O.

One option per line, ``#`` starts a comment, blank lines ignored.  The
normalized form is ``key=value`` with whitespace trimmed, in first-seen
key order; re-serializing a parsed config reproduces it exactly.  Float
values are written with ``repr`` so they parse back to the same float.

Every file the package writes goes through ``write_file``, so it is
written whole or not at all.
"""

import os
import secrets

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


def write_file(path, *chunks):
    """Write the bytes-like ``chunks`` to ``path``, whole or not at all.

    They go to a new file beside the target, created with the default
    mode, which then replaces the target; on any exception that file is
    removed and the target is left as it was.  A symlink is written
    through.  An existing target that is not a regular file, such as a
    pipe or a device, is written in place.  An OSError names ``path`` as
    given, never the new file.
    """
    # Tested before realpath: /dev/stdout on a pipe resolves to no path.
    in_place = os.path.exists(path) and not os.path.isfile(path)
    target = path if in_place else os.path.realpath(path)
    tmp = target if in_place else f"{target}.{secrets.token_hex(4)}.tmp"
    try:
        fh = open(tmp, "wb" if in_place else "xb")
        try:
            with fh:
                fh.writelines(chunks)
            if not in_place:
                os.replace(tmp, target)
        except BaseException:
            if not in_place:
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from None


def load_config(path):
    return parse_config(read_ascii(path), source=str(path))


def save_config(mapping, path):
    write_file(path, serialize_config(mapping).encode("ascii"))
