#!/usr/bin/env python3
"""Regenerates the protocol and chunk-codec fuzz corpora.

Writes request/reply lines in the crh_serve wire format (flat JSON, one
object per line — serve/protocol.h) into fuzz/corpus/protocol, and
observation CSV over the chunk_codec_fuzz.cc fixed universe (objects
o0..o7 plus `o,8` and `o"9`, sources s0..s3, continuous "x" + categorical
"y" with labels a/b/c) into fuzz/corpus/chunk_codec. Pure Python: external
tooling can speak both formats without linking the C++ code.

Protocol seeds cover every scalar kind, both array kinds, escape
sequences, real ingest/status/weights traffic, and rejection paths
(malformed syntax, nested aggregates, over-limit field counts). Chunk
seeds cover valid single- and multi-claim chunks, quarantine-relevant
unknown labels, unknown entities, and malformed CSV, plus inputs that take
the decoder's slower paths: quoted ids with commas and doubled quotes,
CRLF line ends, '+'-prefixed and underflowing numbers (which std::from_chars
leaves to strtod), and repeated claims (the last one wins).

Usage: scripts/make_protocol_corpus.py  (writes into the repo tree)
"""

from __future__ import annotations

import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
PROTOCOL_DIR = REPO_ROOT / "fuzz" / "corpus" / "protocol"
CHUNK_DIR = REPO_ROOT / "fuzz" / "corpus" / "chunk_codec"

CSV_HEADER = "object_id,property,source_id,value\n"


def protocol_seeds() -> dict[str, str]:
    over_fields = "{" + ",".join(f'"k{i}":1' for i in range(65)) + "}"
    return {
        "ping": '{"cmd":"ping"}',
        "status": '{"cmd":"status"}',
        "query": '{"cmd":"query","object_id":"o3","property":"x"}',
        "ingest": (
            '{"cmd":"ingest","seq":7,"window_start":-2,'
            '"csv":"object_id,property,source_id,value\\no0,x,s0,1.5\\n"}'
        ),
        "weights_reply": (
            '{"ok":true,"epoch":12,"weights":[1.5,0.25,3.75,0.125],'
            '"sources":["s0","s1","s2","s3"]}'
        ),
        "scalar_kinds": (
            '{"s":"text","i":-42,"d":0.1,"neg_zero":-0.0,"big":1e300,'
            '"t":true,"f":false,"n":null,"empty":[]}'
        ),
        "escapes": '{"s":"tab\\there \\"quoted\\" \\u0041\\u00e9\\u20ac"}',
        "empty_object": "{}",
        "whitespace": '  { "a" : 1 ,\t"b" : [ 1 , 2 ] }  ',
        "malformed_truncated": '{"cmd":"pin',
        "malformed_trailing": '{"a":1}garbage',
        "malformed_duplicate_key": '{"a":1,"a":2}',
        "nested_object": '{"a":{"b":1}}',
        "nested_array": '{"a":[[1]]}',
        "over_limit_fields": over_fields,
        "empty": "",
    }


def chunk_seeds() -> dict[str, str]:
    full = CSV_HEADER + "".join(
        f"o{i},x,s{i % 4},{i}.5\no{i},y,s{(i + 1) % 4},{'abc'[i % 3]}\n"
        for i in range(8)
    )
    return {
        "single_claim": CSV_HEADER + "o0,x,s0,1.5\n",
        "full_universe": full,
        "categorical": CSV_HEADER + "o1,y,s2,b\n",
        "unknown_label": CSV_HEADER + "o1,y,s2,zzz\n",
        "unknown_object": CSV_HEADER + "ghost,x,s0,1\n",
        "unknown_source": CSV_HEADER + "o0,x,ghost,1\n",
        "blank_lines": CSV_HEADER + "\n\no2,x,s1,3\n\n",
        "header_only": CSV_HEADER,
        "malformed_row": CSV_HEADER + "o0,x\n",
        "empty": "",
        "quoted_ids": CSV_HEADER + '"o,8",x,s0,2.5\n"o""9",y,"s1",a\n"o0",x,s2,-0\n',
        "crlf": CSV_HEADER.replace("\n", "\r\n")
        + "o1,x,s0,1.5\r\n\r\n\"o,8\",y,s3,c\r\n",
        "plus_and_underflow": CSV_HEADER
        + "o2,x,s0,+1.5\no3,x,s1,1e-400\no4,x,s2,-1e-400\n"
        + "o5,x,s3,4.9406564584124654e-324\no6,x,s0,.5\no7,x,s1,5.\n",
        "duplicate_claims": CSV_HEADER
        + "o0,x,s0,1\no0,y,s0,a\no0,x,s0,2\no0,y,s0,b\n\"o\"\"9\",x,s0,3\no\"9,x,s0,4\n",
        "bad_number_then_malformed": CSV_HEADER + "o0,x,s0,1e\no1,x\n",
    }


def main() -> None:
    for directory, seeds in ((PROTOCOL_DIR, protocol_seeds()),
                             (CHUNK_DIR, chunk_seeds())):
        directory.mkdir(parents=True, exist_ok=True)
        for name, text in seeds.items():
            (directory / name).write_bytes(text.encode())
        print(f"wrote {len(seeds)} seeds to {directory}")


if __name__ == "__main__":
    main()
