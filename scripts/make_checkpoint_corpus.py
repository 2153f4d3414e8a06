#!/usr/bin/env python3
"""Regenerates the checkpoint fuzz corpus (fuzz/corpus/checkpoint).

Builds checkpoint images and journals byte-for-byte in the on-disk formats
of stream/checkpoint.h using Python's zlib.crc32, which is bit-compatible
with the library's common/crc32.h — proving external tooling can produce
and verify checkpoints without linking the C++ code.

Seeds written:
  valid_processor    minimal valid image, no driver section
  valid_driver       valid image with truths, weight history, chunk starts
  truncated_*        valid images cut mid-structure
  bitflip_*          valid images with one bit flipped (CRC must reject)
  bad_magic          wrong magic, otherwise valid
  bad_version        version 2 with a correct CRC (version gate must reject)
  huge_counts        absurd source count with a correct CRC (bounds guard)
  empty              zero bytes
  journal_valid      header + one record extending valid_driver's image
  journal_two        header + two records
  journal_torn_tail  a valid record, then a second one cut short
  journal_bad_crc    one record whose CRC does not match
  journal_huge_len   one record whose length header claims 4 GiB
  journal_other_image a valid record behind another image's header

Usage: scripts/make_checkpoint_corpus.py  (writes into the repo tree)
"""

from __future__ import annotations

import pathlib
import struct
import zlib

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS_DIR = REPO_ROOT / "fuzz" / "corpus" / "checkpoint"

MAGIC = b"CRHCKPT1"
VERSION = 1


def body(fingerprint: int, chunks: int, weights, accumulated, quarantined,
         driver=None) -> bytes:
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", VERSION)
    out += struct.pack("<Q", fingerprint)
    out += struct.pack("<Q", chunks)
    out += struct.pack("<Q", len(weights))
    for w in weights:
        out += struct.pack("<d", w)
    for a in accumulated:
        out += struct.pack("<d", a)
    for q in quarantined:
        out += struct.pack("<Q", q)
    if driver is None:
        out += b"\x00"
    else:
        truths, history, starts = driver
        out += b"\x01"
        out += struct.pack("<Q", len(truths))
        out += struct.pack("<Q", len(truths[0]) if truths else 0)
        for row in truths:
            for cell in row:
                if cell is None:
                    out += b"\x00"
                elif isinstance(cell, float):
                    out += b"\x01" + struct.pack("<d", cell)
                else:
                    out += b"\x02" + struct.pack("<i", cell)
        out += struct.pack("<Q", len(history))
        for row in history:
            for w in row:
                out += struct.pack("<d", w)
        out += struct.pack("<Q", len(starts))
        for s in starts:
            out += struct.pack("<q", s)
    return bytes(out)


def seal(raw: bytes) -> bytes:
    return raw + struct.pack("<I", zlib.crc32(raw) & 0xFFFFFFFF)


JOURNAL_MAGIC = b"CRHJRNL1"


def cell(value) -> bytes:
    if value is None:
        return b"\x00"
    if isinstance(value, float):
        return b"\x01" + struct.pack("<d", value)
    return b"\x02" + struct.pack("<i", value)


def record(chunks: int, weights, accumulated, quarantined, new_chunks,
           rows) -> bytes:
    """One framed journal record: u32 length, payload, u32 CRC of both.
    `new_chunks` is [(chunk start, history row)], `rows` [(row, cells)]."""
    payload = bytearray()
    payload += struct.pack("<QQ", chunks, len(weights))
    for w in weights:
        payload += struct.pack("<d", w)
    for a in accumulated:
        payload += struct.pack("<d", a)
    for q in quarantined:
        payload += struct.pack("<Q", q)
    payload += struct.pack("<Q", len(new_chunks))
    for start, row in new_chunks:
        payload += struct.pack("<q", start)
        for w in row:
            payload += struct.pack("<d", w)
    payload += struct.pack("<Q", len(rows))
    for index, cells in rows:
        payload += struct.pack("<Q", index)
        for c in cells:
            payload += cell(c)
    return seal(struct.pack("<I", len(payload)) + bytes(payload))


def main() -> None:
    CORPUS_DIR.mkdir(parents=True, exist_ok=True)

    processor = seal(body(0x1234ABCD5678EF01, 4, [1.5, 0.25, 3.75],
                          [10.0, 20.5, 0.0], [0, 7, 2]))
    truths = [[2.5, 1], [None, None], [None, 0]]  # float=continuous, int=categorical
    history = [[1.0, 1.0, 1.0], [1.5, 0.5, 1.0], [1.5, 0.25, 2.0], [1.5, 0.25, 3.75]]
    driver = seal(body(0x1234ABCD5678EF01, 4, [1.5, 0.25, 3.75],
                       [10.0, 20.5, 0.0], [0, 7, 2],
                       driver=(truths, history, [-2, 0, 1, 5])))

    seeds = {
        "valid_processor": processor,
        "valid_driver": driver,
        "truncated_header": processor[:16],
        "truncated_weights": processor[:48],
        "truncated_driver": driver[: len(driver) // 2],
        "truncated_no_crc": driver[:-4],
        "bad_magic": seal(b"NOTCKPT1" + processor[8:-4]),
        "empty": b"",
    }
    for pos in (0, 12, 40, len(processor) - 2):
        flipped = bytearray(processor)
        flipped[pos] ^= 0x20
        seeds[f"bitflip_{pos}"] = bytes(flipped)

    bad_version = bytearray(processor[:-4])
    bad_version[8] = 2
    seeds["bad_version"] = seal(bytes(bad_version))

    huge = bytearray(processor[:-4])
    huge[28:36] = b"\xff" * 8  # u64 source count
    seeds["huge_counts"] = seal(bytes(huge))

    # Journals extending the valid_driver image (fuzz/checkpoint_fuzz.cc
    # replays every input over that image).
    header = JOURNAL_MAGIC + driver[-4:]
    first = record(5, [2.0, 0.5, 1.25], [11.0, 19.5, 4.0], [0, 8, 2],
                   [(9, [2.0, 0.5, 1.25])], [(1, [-7.5, 3])])
    second = record(6, [2.5, 0.5, 1.0], [9.0, 18.5, 5.0], [0, 8, 2],
                    [(10, [2.5, 0.5, 1.0])], [(0, [None, 2]), (2, [0.25, None])])
    seeds["journal_valid"] = header + first
    seeds["journal_two"] = header + first + second
    seeds["journal_torn_tail"] = header + first + second[: len(second) // 2]
    bad_crc = bytearray(first)
    bad_crc[-1] ^= 0x01
    seeds["journal_bad_crc"] = header + bytes(bad_crc)
    seeds["journal_huge_len"] = header + b"\xff\xff\xff\xff" + first[4:]
    seeds["journal_other_image"] = JOURNAL_MAGIC + processor[-4:] + first

    for name, data in seeds.items():
        (CORPUS_DIR / name).write_bytes(data)
    print(f"wrote {len(seeds)} seeds to {CORPUS_DIR}")


if __name__ == "__main__":
    main()
