import json
import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from gridmesh.wire import (HEADER_LEN, MAX_PAYLOAD, CorruptionError, Envelope,
                           FramingError, IncompleteFrameError, MessageKind, ProtocolError,
                           StreamDecoder, UnknownMessageTypeError, VersionError,
                           ack, canonical_json, decode, decode_prefix, encode,
                           make_envelope)

# Hand-assembled once from the documented layout and frozen (see PROTOCOL.md):
# magic 'GM' | version 02 | type 04 (Ack) | run_id 00..0f | len 00000002 |
# payload '{}' | crc32 of the 26 bytes before it, f6c654f4
GOLDEN_ACK_HEX = "474d0204000102030405060708090a0b0c0d0e0f000000027b7df6c654f4"
GOLDEN_RUN_ID = bytes(range(16))


class TestGolden:
    def test_crc_constant(self):
        assert zlib.crc32(bytes.fromhex(GOLDEN_ACK_HEX)[:-4]) == 0xF6C654F4

    def test_encode_matches_golden(self):
        env = Envelope(msg_type=MessageKind.ACK, payload=b"{}", run_id=GOLDEN_RUN_ID)
        assert encode(env).hex() == GOLDEN_ACK_HEX

    def test_decode_matches_golden(self):
        env = decode(bytes.fromhex(GOLDEN_ACK_HEX))
        assert env.msg_type == MessageKind.ACK
        assert env.payload == b"{}"
        assert env.run_id == GOLDEN_RUN_ID

    def test_flipped_crc_byte_is_corruption(self):
        raw = bytearray(bytes.fromhex(GOLDEN_ACK_HEX))
        raw[-1] ^= 0x01
        with pytest.raises(CorruptionError):
            decode(bytes(raw))

    def test_flipped_payload_byte_is_corruption(self):
        raw = bytearray(bytes.fromhex(GOLDEN_ACK_HEX))
        raw[24] ^= 0x40
        with pytest.raises(CorruptionError):
            decode(bytes(raw))


class TestEncode:
    def test_roundtrip_simple(self):
        env = make_envelope(MessageKind.HELLO, {"node_id": "ue-1", "role": "ue",
                                                "seq": 1})
        assert decode(encode(env)) == env

    def test_payload_limit(self):
        big = b"x" * (MAX_PAYLOAD + 1)
        with pytest.raises(FramingError, match="exceeds"):
            encode(Envelope(msg_type=MessageKind.ACK, payload=big))
        encode(Envelope(msg_type=MessageKind.ACK, payload=b"x" * 1024))   # fine

    def test_bad_run_id_length(self):
        with pytest.raises(FramingError, match="run_id"):
            encode(Envelope(msg_type=MessageKind.ACK, run_id=b"short"))

    def test_unknown_type_rejected(self):
        with pytest.raises(UnknownMessageTypeError):
            encode(Envelope(msg_type=0x7F))

    def test_canonical_json_sorted_compact(self):
        blob = canonical_json({"b": 1, "a": [1.5, 2], "z": "é"})
        assert blob == '{"a":[1.5,2],"b":1,"z":"é"}'.encode()

    def test_canonical_json_float_roundtrip(self):
        vals = [0.1, 1e-17, 1.526579, 306.01e6, -1e6]
        out = json.loads(canonical_json({"v": vals}))
        assert out["v"] == vals


class TestDecodeErrors:
    def test_bad_magic(self):
        raw = b"XX" + bytes.fromhex(GOLDEN_ACK_HEX)[2:]
        with pytest.raises(FramingError, match="magic"):
            decode(raw)

    def test_unknown_version(self):
        for version in (0x01, 0x03):         # 0x01: the CRC covered the payload only
            raw = bytearray(bytes.fromhex(GOLDEN_ACK_HEX))
            raw[2] = version
            with pytest.raises(VersionError):
                decode(bytes(raw))

    def test_unknown_msg_type(self):
        # 0x05 (UploadReady), 0x06 (ScenarioReady) and 0x0A (RunClose) are retired kinds
        for kind in (0x05, 0x06, 0x0A, 0x77):
            raw = bytearray(bytes.fromhex(GOLDEN_ACK_HEX))
            raw[3] = kind
            with pytest.raises(UnknownMessageTypeError):
                decode(bytes(raw))

    def test_truncated_is_retryable(self):
        raw = bytes.fromhex(GOLDEN_ACK_HEX)
        for cut in (0, 1, 10, 23, 24, 29):
            with pytest.raises(IncompleteFrameError):
                decode(raw[:cut])

    def test_oversized_declared_length(self):
        raw = bytearray(bytes.fromhex(GOLDEN_ACK_HEX))
        raw[20:24] = (MAX_PAYLOAD + 1).to_bytes(4, "big")
        with pytest.raises(FramingError, match="declared"):
            decode(bytes(raw))

    def test_trailing_garbage(self):
        raw = bytes.fromhex(GOLDEN_ACK_HEX) + b"junk"
        with pytest.raises(FramingError, match="trailing"):
            decode(raw)
        env, used = decode_prefix(raw)
        assert used == len(raw) - 4 and env.payload == b"{}"


def envelopes():
    payloads = st.one_of(
        st.just(b"{}"),
        st.dictionaries(st.text(max_size=8), st.integers(-999, 999), max_size=5)
          .map(canonical_json),
        st.binary(max_size=512),
    )
    return st.builds(
        Envelope,
        msg_type=st.sampled_from(list(MessageKind)),
        payload=payloads,
        run_id=st.binary(min_size=16, max_size=16),
    )


class TestProperties:
    @given(envelopes())
    @settings(max_examples=300)
    def test_decode_encode_identity(self, env):
        assert decode(encode(env)) == env

    @given(st.binary(max_size=65536))
    @settings(max_examples=500)
    def test_decoder_is_total(self, junk):
        # arbitrary bytes: classified error or a valid envelope, never a crash
        try:
            decode(junk)
        except ProtocolError:
            pass

    @given(envelopes(), envelopes(), st.data())
    @settings(max_examples=100)
    def test_stream_reassembly_arbitrary_split(self, a, b, data):
        raw = encode(a) + encode(b)
        cut = data.draw(st.integers(0, len(raw)))
        dec = StreamDecoder()
        got = dec.feed(raw[:cut]) + dec.feed(raw[cut:])
        assert got == [a, b]
        assert dec.pending_bytes == 0


class TestStreamDecoder:
    def test_every_split_point_of_one_frame(self):
        env = ack(42)
        raw = encode(env)
        for cut in range(len(raw) + 1):
            dec = StreamDecoder()
            got = dec.feed(raw[:cut]) + dec.feed(raw[cut:])
            assert got == [env], f"split at {cut}"

    def test_byte_by_byte(self):
        env = make_envelope(MessageKind.RUN_OPEN, {"run_id": "ab" * 16})
        dec = StreamDecoder()
        got = []
        for byte in encode(env):
            got += dec.feed(bytes([byte]))
        assert got == [env]

    def test_many_frames_one_chunk(self):
        envs = [ack(i) for i in range(50)]
        raw = b"".join(encode(e) for e in envs)
        tail = encode(ack(50))
        dec = StreamDecoder()
        assert dec.feed(raw + tail[:9]) == envs      # a trailing partial frame waits
        assert dec.pending_bytes == 9
        assert dec.feed(tail[9:]) == [ack(50)]
        assert dec.pending_bytes == 0

    def test_corruption_mid_stream_raises(self):
        raw = bytearray(encode(ack(1)) + encode(ack(2)))
        raw[-1] ^= 0xFF
        dec = StreamDecoder()
        with pytest.raises(CorruptionError):
            dec.feed(bytes(raw))

    def test_large_frame_in_read_sized_chunks(self):
        big = Envelope(msg_type=MessageKind.RUN_OPEN, payload=bytes(range(256)) * 16384,
                       run_id=bytes(16))
        small = ack(7)
        raw = encode(big) + encode(small)
        dec = StreamDecoder()
        got = []
        for i in range(0, len(raw), 65536):
            got += dec.feed(raw[i:i + 65536])
        assert [encode(e) for e in got] == [encode(big), encode(small)]
        assert dec.pending_bytes == 0


def feed_in_chunks(raw: bytes, cuts: list[int]):
    """Feed ``raw`` cut at ``cuts``; stop at the first classified error, as a
    node closes the connection. Any other exception escapes to the test."""
    dec = StreamDecoder()
    got = []
    bounds = [0, *sorted(cuts), len(raw)]
    for a, b in zip(bounds, bounds[1:]):
        try:
            got += dec.feed(raw[a:b])
        except ProtocolError as exc:
            return got, exc, dec
    return got, None, dec


class TestDamagedStreams:
    """A multi-frame stream fed in random chunks with one flipped bit or one
    false declared length: each feed returns envelopes or raises a
    ``ProtocolError``, and only the frames before the damaged one come out,
    intact. The CRC covers the header, so no damaged frame decodes."""

    @given(st.lists(envelopes(), min_size=1, max_size=4), st.data())
    @settings(max_examples=300)
    def test_one_flipped_bit(self, envs, data):
        frames = [encode(e) for e in envs]
        raw = bytearray(b"".join(frames))
        bit = data.draw(st.integers(0, 8 * len(raw) - 1))
        raw[bit // 8] ^= 1 << (bit % 8)
        cuts = data.draw(st.lists(st.integers(0, len(raw)), max_size=8))
        got, err, _ = feed_in_chunks(bytes(raw), cuts)

        k, start = 0, 0                      # the damaged frame and its offset
        while bit // 8 >= start + len(frames[k]):
            start += len(frames[k])
            k += 1
        assert len(got) <= k and got == envs[:len(got)]
        if bit // 8 - start >= HEADER_LEN:   # inside the payload or its CRC
            assert isinstance(err, CorruptionError), err
        elif err is None:                    # only a longer payload_len waits for more
            assert bit // 8 - start >= HEADER_LEN - 4

    @given(st.lists(envelopes(), min_size=1, max_size=4), st.data())
    @settings(max_examples=300)
    def test_one_false_payload_len(self, envs, data):
        frames = [bytearray(encode(e)) for e in envs]
        k = data.draw(st.integers(0, len(frames) - 1))
        actual = len(envs[k].payload)
        false = data.draw(st.one_of(st.integers(0, 2**32 - 1),
                                    st.integers(max(0, actual - 64), actual + 64))
                          .filter(lambda n: n != actual))
        frames[k][HEADER_LEN - 4:HEADER_LEN] = struct.pack(">I", false)
        raw = b"".join(frames)
        cuts = data.draw(st.lists(st.integers(0, len(raw)), max_size=8))
        got, err, _ = feed_in_chunks(raw, cuts)

        assert len(got) <= k and got == envs[:len(got)]
        if false > MAX_PAYLOAD:
            assert isinstance(err, FramingError), err
