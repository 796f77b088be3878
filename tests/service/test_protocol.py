"""Protocol validation and the durable accepted-intent log."""

import json
import math
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.service.protocol import (
    ProtocolError,
    SubmitRequest,
    decode_message,
    encode_message,
    parse_request,
    parse_submit,
    request_id,
    service_fingerprint,
)
from repro.service.state import ServiceState


def intent(fp, **overrides):
    doc = {
        "fingerprint": fp,
        "tenant": "t",
        "matrix": "uniform_random:8:8:0.5:1",
        "k": 4,
        "seed": 0,
        "tile_width": 64,
        "lane": "interactive",
        "rung": 0,
    }
    doc.update(overrides)
    return doc


# ------------------------------------------------------------------ framing
def test_encode_decode_roundtrip():
    doc = {"op": "submit", "matrix": "a:1:1:0.5", "id": "x"}
    frame = encode_message(doc)
    assert frame.endswith(b"\n") and b"\n" not in frame[:-1]
    assert decode_message(frame) == doc


@pytest.mark.parametrize("line", [b"{not json", b"[1,2]", b'"just a string"'])
def test_decode_rejects_junk(line):
    with pytest.raises(ProtocolError):
        decode_message(line)


def test_request_id_tolerates_garbage():
    assert request_id({"id": "r1"}) == "r1"
    assert request_id({"id": 7}) == ""
    assert request_id({}) == ""


def test_parse_request_rejects_unknown_op():
    assert parse_request({"op": "health"}) == "health"
    with pytest.raises(ProtocolError):
        parse_request({"op": "reboot"})
    with pytest.raises(ProtocolError):
        parse_request({})


# ------------------------------------------------------------------- submit
def test_parse_submit_defaults():
    req = parse_submit({"op": "submit", "matrix": "banded:8:8:0.5:1"})
    assert (req.tenant, req.k, req.seed, req.tile_width) == (
        "default", 8, 0, 64)
    assert req.lane == "interactive" and req.deadline_s is None


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"matrix": ""},
        {"matrix": 7},
        {"matrix": "x", "tenant": ""},
        {"matrix": "x", "tenant": 3},
        {"matrix": "x", "k": 0},
        {"matrix": "x", "k": "8"},
        {"matrix": "x", "k": True},
        {"matrix": "x", "seed": -1},
        {"matrix": "x", "tile_width": 0},
        {"matrix": "x", "lane": "express"},
        {"matrix": "x", "deadline_s": 0},
        {"matrix": "x", "deadline_s": -1.0},
        {"matrix": "x", "deadline_s": "soon"},
        {"matrix": "x", "deadline_s": True},
    ],
)
def test_parse_submit_rejects_bad_fields(doc):
    with pytest.raises(ProtocolError):
        parse_submit(doc)


def test_parse_submit_accepts_explicit_fields():
    req = parse_submit(
        {"id": "r9", "matrix": "x.mtx", "tenant": "ml", "k": 16, "seed": 3,
         "tile_width": 32, "lane": "batch", "deadline_s": 2})
    assert req.id == "r9" and req.lane == "batch"
    assert req.deadline_s == pytest.approx(2.0)
    assert isinstance(req.deadline_s, float)


# ------------------------------------------------------------------ fuzzing
#: JSON fragments that get past the first parse error more often than
#: uniform bytes do
_FRAGMENTS = st.sampled_from([
    b"{", b"}", b"[", b"]", b",", b":", b'"op"', b'"submit"', b'"matrix"',
    b'"a.mtx"', b'"k"', b'"deadline_s"', b"NaN", b"-Infinity", b"1e999",
    b"9" * 400, b"0", b"-1", b"2.5", b"true", b"null", b'"\\ud800"', b"\xff",
])
_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=8)
    | st.integers() | st.integers(10**399, 10**401),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
_SUBMITS = st.fixed_dictionaries(
    {"op": st.just("submit"), "matrix": st.just("uniform:8:8:0.5")},
    optional={
        name: _JSON
        for name in ("id", "tenant", "k", "seed", "tile_width", "lane",
                     "deadline_s")
    },
).map(lambda doc: json.dumps(doc).encode())


@settings(max_examples=200)
@given(line=st.one_of(
    st.binary(max_size=200),
    st.lists(_FRAGMENTS, max_size=40).map(b"".join),
    _SUBMITS,
))
@example(line=b"[" * 100_000)
@example(line=b"9" * 4301)
@example(line=b'{"matrix": "x", "deadline_s": ' + b"9" * 400 + b"}")
@example(line=b'{"matrix": "x", "deadline_s": NaN}')
@example(line=b'{"matrix": "x", "deadline_s": Infinity}')
def test_any_line_parses_or_gets_a_protocol_error(line):
    """Any bytes decode to a dict or raise ProtocolError, and any decoded
    object parses to a SubmitRequest or raises ProtocolError — so junk
    gets a 400, never the 500 reserved for quarantined work."""
    try:
        doc = decode_message(line)
    except ProtocolError:
        return
    assert isinstance(doc, dict)
    try:
        req = parse_submit(doc)
    except ProtocolError:
        return
    assert isinstance(req, SubmitRequest)
    assert req.deadline_s is None or (
        math.isfinite(req.deadline_s) and req.deadline_s > 0
    )


def test_service_fingerprint_separates_rungs():
    fps = {service_fingerprint("base", rung) for rung in range(3)}
    assert len(fps) == 3
    assert service_fingerprint("base", 1) == service_fingerprint("base", 1)
    assert service_fingerprint("other", 1) not in fps


# -------------------------------------------------------------- intent log
def test_record_and_load_accepted(tmp_path):
    state = ServiceState(str(tmp_path / "s"))
    assert state.record_accepted(intent("f1")) is True
    assert state.record_accepted(intent("f2", lane="batch", rung=2)) is True
    assert state.record_accepted(intent("f1")) is False  # deduped in memory

    fresh = ServiceState(str(tmp_path / "s"))
    loaded = fresh.load_accepted()
    assert [i["fingerprint"] for i in loaded] == ["f1", "f2"]
    assert loaded[1]["lane"] == "batch" and loaded[1]["rung"] == 2
    # Reloading also primes the dedupe set.
    assert fresh.record_accepted(intent("f1")) is False


def test_load_accepted_skips_torn_tail_and_junk(tmp_path):
    state = ServiceState(str(tmp_path / "s"))
    state.record_accepted(intent("good"))
    with open(state.accepted_path, "a") as fh:
        fh.write('{"version": 99, "kind": "accepted"}\n')  # wrong version
        fh.write('{"kind": "other"}\n')  # wrong kind
        fh.write('not json\n')
        fh.write(json.dumps(intent("dup"))[:-4])  # torn tail, no newline
    loaded = ServiceState(str(tmp_path / "s")).load_accepted()
    assert [i["fingerprint"] for i in loaded] == ["good"]


def test_load_accepted_dedupes_by_fingerprint(tmp_path):
    state = ServiceState(str(tmp_path / "s"))
    with open(state.accepted_path, "w") as fh:
        for _ in range(3):
            doc = {"version": 1, "kind": "accepted"}
            doc.update(intent("same"))
            fh.write(json.dumps(doc) + "\n")
    assert len(state.load_accepted()) == 1


def test_compact_accepted_keeps_only_outstanding(tmp_path):
    state = ServiceState(str(tmp_path / "s"))
    for fp in ("a", "b", "c"):
        state.record_accepted(intent(fp))
    state.compact_accepted([intent("b")])
    loaded = ServiceState(str(tmp_path / "s")).load_accepted()
    assert [i["fingerprint"] for i in loaded] == ["b"]
    # Dedupe set follows the compaction: "a" may be accepted again.
    assert state.record_accepted(intent("a")) is True


def test_record_accepted_degrades_instead_of_raising(tmp_path, capsys):
    import os

    state = ServiceState(str(tmp_path / "s"))
    # Make the intent path a directory so the append fails.
    os.mkdir(state.accepted_path)
    assert state.record_accepted(intent("f")) is False
    assert state.intents.degraded
    assert state.intents.lost == 1
    assert state.pressure.lost["intent"] == 1
    assert "intent plane degraded" in capsys.readouterr().err
    # Later acceptances are counted lost without retrying the bad path.
    assert state.record_accepted(intent("g")) is False
    assert state.intents.lost == 2


_INTENT_LINE = json.dumps({"version": 1, "kind": "accepted", **intent("ok")})


@settings(max_examples=60)
@given(lines=st.lists(
    st.one_of(
        st.binary(max_size=40),
        st.sampled_from([_INTENT_LINE.encode(), b"[" * 100_000, b"[1]",
                         b'{"version": 1}']),
    ),
    max_size=6,
))
@example(lines=[_INTENT_LINE.encode(), b"\xff\xfe"])
@example(lines=[b"[" * 100_000])
def test_load_accepted_never_raises_on_content(lines):
    with tempfile.TemporaryDirectory() as d:
        with open(os.path.join(d, "accepted.jsonl"), "wb") as fh:
            fh.write(b"\n".join(lines))
        loaded = ServiceState(d).load_accepted()
    assert [i["fingerprint"] for i in loaded] == (
        ["ok"] if _INTENT_LINE.encode() in lines else []
    )
