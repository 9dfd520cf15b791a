"""Seeded mutation fuzzing of every file loader.

Each valid file is truncated, has bytes flipped, and has its header
integers replaced by hostile values.  Every mutant must either load or
raise DataFormatError, and loading must never allocate much more than
the file itself holds.
"""

import re
import struct
import tracemalloc

import numpy as np
import pytest

from qmiheat.config import load_config
from qmiheat.data import (
    SynthSpec,
    generate_synthetic,
    load_packed,
    read_ppm,
    write_packed,
    write_ppm,
)
from qmiheat.errors import DataFormatError
from qmiheat.heatmap import fully_conv_inference, load_heatmap, write_heatmap
from qmiheat.models import build_model, load_model, save_model
from qmiheat.ranking import load_score_table
from qmiheat.training import TrainConfig, config_from_mapping, config_to_mapping

MUTANTS_PER_FORMAT = 120

# Peak allocation allowed per load: a few copies of the file, plus slack
# for interpreter bookkeeping.  A header that sizes a buffer before the
# length check would blow far past this.
_ALLOC_FACTOR = 4
_ALLOC_SLACK = 1 << 20

_HOSTILE_U32 = (0, 1, 2, 3, 0x7FFF_FFFF, 0x8000_0000, 0xFFFF_FFFF)
_HOSTILE_TOKENS = (
    b"0", b"-1", b"-2", b"+7", b"1_0", b"1e3", b"0x10", b"nan", b"inf",
    b"4294967297", b"99999999999999999999", b"-99999999999999999999",
)


def _load_config(path):
    return config_from_mapping(load_config(path), source=str(path))


def _packed_bytes(tmp_path):
    p = tmp_path / "valid.pids"
    write_packed(generate_synthetic(SynthSpec(size=32, count_per_class=2, seed=1)), p)
    return p.read_bytes()


def _model_bytes(tmp_path):
    p = tmp_path / "valid.vggh"
    save_model(build_model("rf32", seed=1), p)
    return p.read_bytes()


def _heatmap_bytes(tmp_path):
    p = tmp_path / "valid.hmap"
    pixels = np.random.default_rng(1).integers(0, 256, (48, 80, 3), dtype=np.uint8)
    write_heatmap(fully_conv_inference(build_model("rf32", seed=1), pixels), p)
    return p.read_bytes()


def _ppm_bytes(tmp_path):
    p = tmp_path / "valid.ppm"
    write_ppm(np.random.default_rng(1).integers(0, 256, (5, 7, 3), dtype=np.uint8), p)
    return p.read_bytes()


def _config_bytes(tmp_path):
    mapping = config_to_mapping(TrainConfig(batch_size=64, epochs=10))
    return b"# run\n" + "".join(f"{k} = {v}\n" for k, v in mapping.items()).encode()


def _table_bytes(tmp_path):
    return b"method,a,b,c\nbaseline,0.95,0.88,0.96\nregularized,0.97,0.89,0.97\n"


def _model_int_offsets(blob):
    # format version, then six u32 dims per layer header
    offsets, off = [4], 9
    for _ in range(5):
        oc, ic, kh, kw = struct.unpack_from("<4I", blob, off)
        offsets += range(off, off + 24, 4)
        off += 24 + 4 * (oc * ic * kh * kw + oc)
    return offsets


# name: (loader, valid-file builder, binary u32 header offsets or None for
# text headers whose decimal tokens get replaced)
FORMATS = {
    "pids": (load_packed, _packed_bytes, lambda blob: [4, 8, 12, 16]),
    "vggh": (load_model, _model_bytes, _model_int_offsets),
    "hmap": (load_heatmap, _heatmap_bytes, None),
    "ppm": (read_ppm, _ppm_bytes, None),
    "config": (_load_config, _config_bytes, None),
    "table": (load_score_table, _table_bytes, None),
}


def _mutants(blob, int_offsets, rng):
    header = min(len(blob), 96)
    tokens = [m.span() for m in re.finditer(rb"[-+]?\d[\d.]*", blob[:header])]
    for i in range(MUTANTS_PER_FORMAT):
        kind = i % 3
        if kind == 0:
            cut = int(rng.integers(0, len(blob)))
            if i % 2:
                cut = min(cut, header)
            yield f"truncate to {cut}", blob[:cut]
        elif kind == 1:
            out = bytearray(blob)
            span = header if i % 2 else len(blob)
            for pos in rng.integers(0, span, size=int(rng.integers(1, 5))):
                out[pos] = int(rng.integers(0, 256))
            yield "byte flips", bytes(out)
        elif int_offsets is not None:
            off = int(rng.choice(int_offsets))
            value = int(rng.choice(_HOSTILE_U32))
            out = bytearray(blob)
            struct.pack_into("<I", out, off, value)
            yield f"u32 {value:#x} at offset {off}", bytes(out)
        else:
            start, end = tokens[int(rng.integers(0, len(tokens)))]
            token = _HOSTILE_TOKENS[int(rng.integers(0, len(_HOSTILE_TOKENS)))]
            yield f"token {token!r} at offset {start}", blob[:start] + token + blob[end:]


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_mutated_files_load_or_raise_data_format_error(tmp_path, fmt):
    loader, build, int_offsets = FORMATS[fmt]
    blob = build(tmp_path)
    loader(_write(tmp_path, fmt, blob))  # the unmutated file loads
    offsets = int_offsets(blob) if int_offsets is not None else None
    rng = np.random.default_rng(sum(map(ord, fmt)))
    rejected = 0
    for what, data in _mutants(blob, offsets, rng):
        path = _write(tmp_path, fmt, data)
        tracemalloc.start()
        try:
            loader(path)
        except DataFormatError as exc:
            assert str(path) in str(exc), f"{what}: message names no file: {exc}"
            rejected += 1
        except Exception as exc:
            pytest.fail(f"{fmt} {what}: {type(exc).__name__}: {exc}")
        finally:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        assert peak <= _ALLOC_FACTOR * len(data) + _ALLOC_SLACK, (
            f"{fmt} {what}: {peak} bytes allocated for a {len(data)}-byte file"
        )
    assert rejected > 0


def _write(tmp_path, fmt, data):
    path = tmp_path / f"mutant.{fmt}"
    path.write_bytes(data)
    return path
