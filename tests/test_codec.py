import dataclasses
import functools
import math
import numbers
import operator
import random
import re
import sys
import threading
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otterlink import codec


def xor_oracle(payload: str) -> str:
    """Independent brute-force checksum for cross-checking."""
    return f"{functools.reduce(operator.xor, payload.encode('ascii'), 0):02X}"


class TestChecksum:
    def test_empty_payload_is_zero(self):
        assert codec.compute_checksum("") == "00"

    def test_single_byte_is_itself(self):
        assert codec.compute_checksum("A") == "41"

    def test_drift_payload_matches_oracle(self):
        payload = "POTCMD,DRIFT,1"
        assert codec.compute_checksum(payload) == xor_oracle(payload)

    @pytest.mark.parametrize("bad", ["a$b", "a*b", "a\rb", "a\nb", "caf\xe9",
                                     "a\tb", "a\x01b", "a\x7fb"])
    def test_forbidden_characters_rejected(self, bad):
        # the decoder checks the characters before the checksum
        with pytest.raises(codec.FramingError):
            codec.decode_sentence(f"${bad}*00\r\n")

    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126,
                                          exclude_characters="$*"),
                   max_size=80))
    @settings(max_examples=300)
    def test_agrees_with_oracle(self, payload):
        assert codec.compute_checksum(payload) == xor_oracle(payload)


angles = st.floats(min_value=0.0, max_value=360.0, exclude_max=True)
signed_angles = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False)
rates = st.floats(min_value=-200.0, max_value=200.0, allow_nan=False)
forces = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
utcs = st.floats(min_value=0.0, max_value=86400.0, exclude_max=True)
lats = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)
lons = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False)
speeds = st.floats(min_value=0.0, max_value=codec.V_MAX, allow_nan=False)

messages = st.one_of(
    st.builds(codec.PosReport, utc=utcs, lat=lats, lon=lons,
              alt=st.floats(-10, 100), sog=st.floats(0, 10), cog=angles),
    st.builds(codec.AttReport, utc=utcs, roll=signed_angles,
              pitch=signed_angles, yaw=angles, p=rates, q=rates, r=rates),
    st.builds(codec.StatusReport, mode=st.sampled_from(codec.MODE_TAGS),
              rpm_port=st.integers(0, 3000), rpm_stbd=st.integers(0, 3000),
              temp=st.floats(-20, 60), battery=st.floats(0, 100),
              power=st.floats(0, 2000)),
    st.builds(codec.TimeReport, utc_date=st.integers(20000101, 20991231),
              utc_time=utcs),
    st.builds(codec.DriftCmd, on=st.booleans()),
    st.builds(codec.ManualCmd, x=forces, y=forces, z=forces),
    st.builds(codec.StationKeepCmd, lat=lats, lon=lons, speed=speeds),
    st.builds(codec.CourseSpeedCmd,
              course=st.floats(0.0, 360.0, allow_nan=False), speed=speeds),
)

# values at, just past or just inside a documented bound, or non-finite
EDGES = (359.996, 360.0, 86399.996, 86400.0, -0.004, 1.0004, math.nan,
         math.inf)


def edge_variants(msg):
    """`msg` with each of its float fields in turn set to each edge value."""
    return [dataclasses.replace(msg, **{f.name: value})
            for f in dataclasses.fields(msg)
            if isinstance(getattr(msg, f.name), float) for value in EDGES]


class TestRoundtrip:
    @given(messages)
    @settings(max_examples=400)
    def test_roundtrip_at_rendered_precision(self, msg):
        line = codec.encode_sentence(msg)
        decoded = codec.decode_sentence(line)
        assert type(decoded) is type(msg)
        # re-encoding the decoded message must reproduce the exact line
        assert codec.encode_sentence(decoded) == line

    @given(messages)
    @settings(max_examples=200)
    def test_every_encoded_line_decodes(self, msg):
        # an edge value either renders or is refused as out of range
        for variant in [msg, *edge_variants(msg)]:
            try:
                line = codec.encode_sentence(variant)
            except codec.RangeError:
                continue
            assert codec.encode_sentence(codec.decode_sentence(line)) == line

    @pytest.mark.parametrize("name, msg", [
        ("cog", codec.PosReport(43200.0, 45.0, -76.0, 0.0, 1.0, 359.996)),
        ("yaw", codec.AttReport(43200.0, 0.0, 0.0, 359.999, 0.0, 0.0, 0.0)),
        ("utc", codec.PosReport(86399.996, 45.0, -76.0, 0.0, 1.0, 90.0)),
        ("utc_time", codec.TimeReport(20250101, 86399.996)),
        # -1e-20 % 360.0 is exactly 360.0, as the OBC's heading % 360 can be
        ("cog", codec.PosReport(43200.0, 45.0, -76.0, 0.0, 0.0,
                                -1e-20 % 360.0)),
    ])
    def test_periodic_field_rendering_its_period_wraps_to_zero(self, name,
                                                               msg):
        line = codec.encode_sentence(msg)
        assert getattr(codec.decode_sentence(line), name) == 0.0
        parts = line[1:line.index("*")].split(",")
        index = 1 + [f.name for f in dataclasses.fields(msg)].index(name)
        assert parts[index] == "0.00"
        # the decoder stays strict: the period itself is out of range
        parts[index] = f"{getattr(msg, name):.2f}"
        payload = ",".join(parts)
        with pytest.raises(codec.RangeError, match=name):
            codec.decode_sentence(f"${payload}*{xor_oracle(payload)}\r\n")

    def test_pos_report_fields_survive(self):
        msg = codec.PosReport(utc=43200.0, lat=45.1234567, lon=-76.7654321,
                              alt=0.5, sog=1.25, cog=271.03)
        back = codec.decode_sentence(codec.encode_sentence(msg))
        assert back == msg


class TestEncodeErrors:
    def test_manual_out_of_range_names_field(self):
        with pytest.raises(codec.RangeError, match="'x'"):
            codec.encode_sentence(codec.ManualCmd(1.5, 0.0, 0.0))

    def test_course_361_rejected(self):
        with pytest.raises(codec.RangeError, match="course"):
            codec.encode_sentence(codec.CourseSpeedCmd(361.0, 1.0))

    def test_course_360_is_a_valid_boundary(self):
        codec.encode_sentence(codec.CourseSpeedCmd(360.0, 1.0))

    def test_speed_above_vmax_rejected(self):
        with pytest.raises(codec.RangeError, match="speed"):
            codec.encode_sentence(codec.CourseSpeedCmd(90.0, codec.V_MAX + 0.1))

    def test_negative_battery_rejected(self):
        with pytest.raises(codec.RangeError, match="battery"):
            codec.encode_sentence(
                codec.StatusReport("MAN", 100, 100, 20.0, -1.0, 100.0))

    @pytest.mark.parametrize("name, msg", [
        ("rpm_port", codec.StatusReport("MAN", 1.5, 0, 22.5, 50.0, 100.0)),
        ("rpm_stbd", codec.StatusReport("MAN", 0, "7", 22.5, 50.0, 100.0)),
        ("utc_date", codec.TimeReport(20250101.0, 5.0)),
        ("'x'", codec.ManualCmd("0.5", 0.0, 0.0)),
        ("alt", codec.PosReport(43200.0, 45.0, -76.0, "0", 1.0, 90.0)),
        ("sog", codec.PosReport(43200.0, 45.0, -76.0, 0.0, 10 ** 400, 90.0)),
        ("speed", codec.CourseSpeedCmd(90.0, None)),
        # past the interpreter's int-to-str digit limit
        ("rpm_port", codec.StatusReport("MAN", 10 ** 5000, 0, 22.5, 50.0,
                                        100.0)),
        ("utc_date", codec.TimeReport(10 ** 5000, 1.0)),
        ("temp", codec.StatusReport("MAN", 0, 0, 10 ** 5000, 50.0, 100.0)),
        # a complex value formats with "f" but does not parse back
        ("'x'", codec.ManualCmd(1j, 0.0, 0.0)),
        ("'z'", codec.ManualCmd(0.0, 0.0, complex(0.5, 0.0))),
    ])
    def test_field_that_cannot_render_is_a_range_error(self, name, msg):
        with pytest.raises(codec.RangeError, match=name):
            codec.encode_sentence(msg)

    def test_integer_likes_render_as_integers(self):
        plain = codec.StatusReport("MAN", 1200, 900, 22.5, 50.0, 100.0)
        numpy_ints = codec.StatusReport("MAN", np.int64(1200),
                                        np.uint16(900), 22.5, 50.0, 100.0)
        assert (codec.encode_sentence(numpy_ints)
                == codec.encode_sentence(plain))
        assert codec.encode_sentence(codec.TimeReport(
            np.int32(20250101), 5.0)).startswith("$POTTIM,20250101,")

    def test_uint_past_the_float_range_roundtrips(self):
        msg = codec.StatusReport("MAN", 10 ** 400, 0, 22.5, 50.0, 100.0)
        assert codec.decode_sentence(codec.encode_sentence(msg)) == msg


class TestDecodeErrors:
    def test_checksum_flip_detected(self):
        line = codec.encode_sentence(codec.DriftCmd(True))
        body, tail = line.rsplit("*", 1)
        flipped = "0" if tail[1] != "0" else "1"
        corrupted = f"{body}*{tail[0]}{flipped}\r\n"
        with pytest.raises(codec.ChecksumError):
            codec.decode_sentence(corrupted)

    def test_unknown_tag_with_valid_checksum(self):
        payload = "POTXYZ,1"
        line = f"${payload}*{xor_oracle(payload)}\r\n"
        with pytest.raises(codec.UnknownSentenceError):
            codec.decode_sentence(line)

    def test_unknown_cmd_subcommand(self):
        payload = "POTCMD,WARP,9"
        line = f"${payload}*{xor_oracle(payload)}\r\n"
        with pytest.raises(codec.UnknownSentenceError):
            codec.decode_sentence(line)

    def test_wrong_field_count(self):
        payload = "POTPOS,1,2,3"
        line = f"${payload}*{xor_oracle(payload)}\r\n"
        with pytest.raises(codec.MalformedFieldError):
            codec.decode_sentence(line)

    def test_non_numeric_field(self):
        payload = "POTCMD,MAN,abc,0.0,0.0"
        line = f"${payload}*{xor_oracle(payload)}\r\n"
        with pytest.raises(codec.MalformedFieldError):
            codec.decode_sentence(line)

    def test_out_of_range_decoded_value(self):
        payload = "POTCMD,MAN,1.500,0.000,0.000"
        line = f"${payload}*{xor_oracle(payload)}\r\n"
        with pytest.raises(codec.RangeError):
            codec.decode_sentence(line)

    def test_missing_dollar(self):
        with pytest.raises(codec.FramingError):
            codec.decode_sentence("POTCMD,DRIFT,1*00\r\n")

    def test_line_ending_in_newline_only(self):
        line = codec.encode_sentence(codec.DriftCmd(True))
        assert codec.decode_sentence(line[:-2] + "\n") == codec.DriftCmd(True)

    def test_cmd_without_subcommand(self):
        with pytest.raises(codec.MalformedFieldError,
                           match="missing subcommand"):
            codec.decode_sentence(framed("POTCMD"))

    @pytest.mark.parametrize("msg", [None, "$POTCMD,DRIFT,1*00\r\n",
                                     codec.PosReport])
    def test_encoding_a_non_message(self, msg):
        with pytest.raises(codec.UnknownSentenceError,
                           match="not an OtterMessage"):
            codec.encode_sentence(msg)

    @given(messages, st.integers(0, 40))
    @settings(max_examples=150)
    def test_any_single_char_corruption_never_partial(self, msg, pos):
        line = codec.encode_sentence(msg)
        idx = pos % (len(line) - 2)
        corrupted = line[:idx] + ("~" if line[idx] != "~" else "!") \
            + line[idx + 1:]
        try:
            decoded = codec.decode_sentence(corrupted)
        except codec.CodecError:
            return
        codec.encode_sentence(decoded)  # whatever survives must encode


def framed(payload: str) -> str:
    return f"${payload}*{xor_oracle(payload)}\r\n"


# one change to a field's wire text, each a form the encoder never renders
# (unless it turns one rendering into another, as a sign flip can)
MUTATIONS = {
    "sign": lambda t, k: t[1:] if t.startswith("-") else "-" + t,
    "plus": lambda t, k: "+" + t,
    "exponent": lambda t, k: t + "e0",
    "underscore": lambda t, k: t[:1 + k % len(t)] + "_" + t[1 + k % len(t):],
    "space": lambda t, k: " " + t if k % 2 else t + " ",
    "decimal added": lambda t, k: t + "0",
    "decimal dropped": lambda t, k: t[:-1],
    "leading zero": lambda t, k: ("-0" + t[1:] if t.startswith("-")
                                  else "0" + t),
}


class TestDecoderGrammar:
    """The decoder accepts exactly the texts the encoder renders."""

    @pytest.mark.parametrize("payload, name", [
        ("POTCMD,CRS,1e0,1.00", "course"),
        ("POTCMD,CRS,+1.00,1.00", "course"),
        ("POTCMD,CRS,1_0.00,1.00", "course"),
        ("POTCMD,CRS, 10.00,1.00", "course"),
        ("POTCMD,CRS,10.00 ,1.00", "course"),
        ("POTCMD,CRS,10.0,1.00", "course"),
        ("POTCMD,CRS,10.000,1.00", "course"),
        ("POTCMD,CRS,01.00,1.00", "course"),
        ("POTCMD,CRS,10.00,-01.00", "speed"),
        ("POTCMD,DRIFT,01", "on"),
        ("POTCMD,DRIFT, 1", "on"),
        ("POTSTA,MAN,+1_0,0,22.5,50.0,100.0", "rpm_port"),
        ("POTSTA,MAN,10,010,22.5,50.0,100.0", "rpm_stbd"),
        ("POTTIM,2025_0101,0.00", "utc_date"),
    ])
    def test_forms_the_encoder_never_renders_are_malformed(self, payload,
                                                           name):
        with pytest.raises(codec.MalformedFieldError, match=f"'{name}'"):
            codec.decode_sentence(framed(payload))

    def test_negative_zero_decodes(self):
        msg = codec.decode_sentence(framed("POTCMD,MAN,-0.000,0.000,0.000"))
        assert msg == codec.ManualCmd(0.0, 0.0, 0.0)
        assert math.copysign(1.0, msg.x) == -1.0
        pos = framed("POTPOS,-0.00,45.0000000,-76.0000000,0.00,0.00,-0.00")
        assert codec.encode_sentence(codec.decode_sentence(pos)) == pos

    @pytest.mark.parametrize("payload, name", [
        ("POTPOS,43200.00,45.0000000,-76.0000000,0.00,1.00,360.00", "cog"),
        ("POTATT,86400.00,0.00,0.00,90.00,0.00,0.00,0.00", "utc"),
        ("POTTIM,20250101,86400.00", "utc_time"),
        ("POTCMD,CRS,360.01,1.00", "course"),
    ])
    def test_well_formed_values_out_of_range_are_range_errors(self, payload,
                                                              name):
        with pytest.raises(codec.RangeError, match=f"'{name}'"):
            codec.decode_sentence(framed(payload))

    @given(messages, st.integers(0, 40), st.sampled_from(sorted(MUTATIONS)),
           st.integers(0, 40))
    @settings(max_examples=500)
    def test_one_mutated_field_is_refused_or_reencodes_alike(
            self, msg, index, mutation, k):
        parts = codec.encode_sentence(msg)[1:-5].split(",")
        first = 2 if parts[0] == "POTCMD" else 1
        index = first + index % (len(parts) - first)
        parts[index] = MUTATIONS[mutation](parts[index], k)
        line = framed(",".join(parts))
        try:
            decoded = codec.decode_sentence(line)
        except codec.CodecError:
            return
        assert codec.encode_sentence(decoded) == line


def reference_out_of_range(f, value):
    """`Field._out_of_range` with the FLOAT case it had before `_render`
    and `_parse` wrote that case out."""
    if f.kind == codec.FLOAT:
        real = isinstance(value, float) or isinstance(value, numbers.Real)
        return not (real and math.isfinite(value) and f.lo <= value <= f.hi)
    return f._out_of_range(value)


def reference_render(entry, msg):
    """`codec._render` over one range check for every kind, as it was
    before the FLOAT range check was written out."""
    texts = []
    for f in entry.fields:
        value = getattr(msg, f.name)
        if f.kind == codec.FLOAT:
            try:
                text = format(value, f.fmt)
            except (TypeError, ValueError, OverflowError):
                raise f.range_error(value) from None
            value = float(text)
        if reference_out_of_range(f, value):
            raise f.range_error(value)
        if f.kind == codec.FLAG:
            text = "1" if value else "0"
        elif f.periodic and value == f.hi:
            text = format(0.0, f.fmt)
        elif f.kind != codec.FLOAT:
            try:
                text = format(value, f.fmt)
            except ValueError:
                raise f.range_error(value) from None
        texts.append(text)
    return texts


REFERENCE_PARSERS = {codec.FLOAT: float, codec.UINT: int, codec.DATE: int,
                     codec.MODE: str,
                     codec.FLAG: {"0": False, "1": True}.__getitem__}


def reference_parse(entry, parts):
    """`codec._parse` as one parser lookup and one range check per
    field."""
    if len(parts) != len(entry.fields):
        raise codec.MalformedFieldError(
            f"{entry.tag}: expected {len(entry.fields)} fields, "
            f"got {len(parts)}")
    values = []
    for f, part in zip(entry.fields, parts):
        try:
            value = REFERENCE_PARSERS[f.kind](part)
            rendered = format(value, f.fmt) == part
        except (KeyError, ValueError):
            rendered = False
        if not rendered:
            raise codec.MalformedFieldError(
                f"{entry.tag}: bad field {f.name!r}: {part!r}")
        if reference_out_of_range(f, value) or (f.periodic
                                                 and value == f.hi):
            raise f.range_error(value)
        values.append(value)
    return values


def outcome(fn, *args):
    """The result, or the error type and message, of fn(*args)."""
    try:
        return "ok", repr(fn(*args))
    except codec.CodecError as exc:
        return type(exc), str(exc)


VALID = {codec.PosReport: (43200.0, 45.0, -76.0, 0.0, 1.0, 90.0),
         codec.AttReport: (43200.0, 0.0, 0.0, 90.0, 0.0, 0.0, 0.0),
         codec.StatusReport: ("MAN", 1200, 900, 22.5, 50.0, 100.0),
         codec.TimeReport: (20250101, 5.0),
         codec.DriftCmd: (True,),
         codec.ManualCmd: (0.5, 0.0, -0.5),
         codec.StationKeepCmd: (45.0, -76.0, 1.0),
         codec.CourseSpeedCmd: (90.0, 1.0)}


class TestFieldLoopsMatchTheOutOfRangeForm:
    """The written-out FLOAT checks of `_render` and `_parse` give the
    same texts, values, errors and messages as the range check they
    replaced."""

    @staticmethod
    def values(f):
        bounds = [v for v in (f.lo, f.hi) if math.isfinite(v)]
        return [*EDGES, -math.inf, -0.0, 0.0, 1e300, -1e300, 0.004999,
                *bounds, *(np.nextafter(v, math.inf) for v in bounds),
                *(np.nextafter(v, -math.inf) for v in bounds),
                *(v + 0.006 for v in bounds), *(v - 0.006 for v in bounds),
                np.float64(1.5), np.float32(0.25), 1, True, 10 ** 400,
                "0.5", None]

    @pytest.mark.parametrize("entry", codec.CATALOG, ids=lambda e: e.tag)
    def test_render(self, entry):
        base = VALID[entry.cls]
        for k, f in enumerate(entry.fields):
            for value in self.values(f):
                msg = entry.cls(*base[:k], value, *base[k + 1:])
                assert outcome(codec._render, entry, msg) \
                    == outcome(reference_render, entry, msg)

    @pytest.mark.parametrize("entry", codec.CATALOG, ids=lambda e: e.tag)
    def test_parse(self, entry):
        base = reference_render(entry, entry.cls(*VALID[entry.cls]))
        for k, f in enumerate(entry.fields):
            texts = ["", " 1.00", "1e0", "+1.00", "1_0.00", "inf", "-inf",
                     "nan", "NaN", "360.00", "86400.00", "0", "1", "01",
                     "MAN", "-0.000", "99999999999999999999.0000000"]
            for value in self.values(f):
                try:
                    texts.append(format(value, f.fmt))
                except (TypeError, ValueError, OverflowError):
                    pass
            for text in texts:
                parts = [*base[:k], text, *base[k + 1:]]
                assert outcome(codec._parse, entry, parts) \
                    == outcome(reference_parse, entry, parts)

    def test_checksum_field_check(self):
        chars = "0129AFafGgz\u0663\uff11 $"
        fields = ["", "0", "AB0", "0A0"] + [a + b for a in chars
                                             for b in chars]
        for checksum in fields:
            refused = len(checksum) != 2 or any(
                c not in "0123456789ABCDEF" for c in checksum)
            try:
                codec.unframe(f"$POTCMD,DRIFT,1*{checksum}\r\n")
                verdict = "ok"
            except codec.FramingError as exc:
                verdict = str(exc)
            except codec.ChecksumError:
                verdict = "checksum"
            assert (verdict == f"bad checksum field {checksum!r}") == refused


# texts no encoder renders for any field, beside each field's renderings
JUNK_TEXTS = ["", " 1.00", "1e0", "+1.00", "1_0.00", "inf", "nan", "360.00",
              "86400.00", "0", "1", "01", "MAN", "-0.000", "-0.00",
              "99999999999999999999.0000000"]


def field_texts(f):
    """Wire texts for field `f`: the renderings of values at and past its
    bounds (some refused by the range check), and junk."""
    texts = list(JUNK_TEXTS)
    for value in TestFieldLoopsMatchTheOutOfRangeForm.values(f):
        try:
            texts.append(format(value, f.fmt))
        except (TypeError, ValueError, OverflowError):
            pass
    return texts


@st.composite
def sentence_streams(draw):
    """A stream of one message type's sentences, valid and invalid, drawn
    from a few variants so that field texts repeat."""
    entry = draw(st.sampled_from(codec.CATALOG))
    base = reference_render(entry, entry.cls(*VALID[entry.cls]))
    variants = []
    for _ in range(draw(st.integers(1, 4))):
        parts = [draw(st.sampled_from([text, text, *field_texts(f)]))
                 for f, text in zip(entry.fields, base)]
        if draw(st.integers(0, 9)) == 0:  # a wrong field count
            parts = parts[:-1] if draw(st.booleans()) else [*parts, "0"]
        variants.append(parts)
    stream = draw(st.lists(st.sampled_from(variants), min_size=1,
                           max_size=12))
    return entry, stream


class TestRepeatedFieldTexts:
    """The decoder returns a field's stored value when its text repeats
    the last text it accepted, and decodes exactly as a parser with no
    such store."""

    def test_repeated_text_decodes_to_the_same_object(self):
        a = codec.decode_sentence(codec.encode_sentence(
            codec.PosReport(43200.0, 45.1234567, -76.0, 0.0, 1.25, 90.0)))
        b = codec.decode_sentence(codec.encode_sentence(
            codec.PosReport(43200.02, 45.1234567, -76.0, 0.0, 1.5, 90.0)))
        assert b.lat is a.lat and b.lon is a.lon and b.alt is a.alt
        assert b.cog is a.cog
        assert (b.utc, b.sog) == (43200.02, 1.5)

    @pytest.mark.parametrize("text, error", [
        ("95.0000000", codec.RangeError),
        ("45.00", codec.MalformedFieldError),
        ("nan", codec.RangeError)])
    def test_refused_text_is_refused_every_time(self, text, error):
        entry = codec._BY_TAG["POTPOS"]
        good = framed("POTPOS,43200.00,45.0000000,-76.0000000,0.00,1.00,"
                      "90.00")
        bad = framed(f"POTPOS,43200.00,{text},-76.0000000,0.00,1.00,90.00")
        messages = []
        for _ in range(3):
            with pytest.raises(error) as info:
                codec.decode_sentence(bad)
            messages.append(str(info.value))
            assert all(t != text for t, _ in entry._parsed)
            codec.decode_sentence(good)
        assert messages == [messages[0]] * 3

    def test_threads_sharing_the_store_decode_their_own_values(self):
        # the threads draw from three messages, so a decode often reads a
        # text that another thread stored, while others store theirs
        msgs = [codec.ManualCmd(k / 10, 0.001, -k / 10) for k in range(3)]
        lines = [codec.encode_sentence(msg) for msg in msgs]
        wrong = []

        def decode(seed):
            rng = random.Random(seed)
            for _ in range(3000):
                k = rng.randrange(3)
                got = codec.decode_sentence(lines[k])
                if got != msgs[k]:
                    wrong.append((got, msgs[k]))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=decode, args=(seed,))
                       for seed in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    @given(sentence_streams())
    @settings(max_examples=300, deadline=None)
    def test_stream_decodes_as_the_storeless_parser(self, stream):
        entry, sentences = stream
        for parts in sentences:
            line = framed(",".join([entry.tag, *parts]))
            assert outcome(codec.decode_sentence, line) == outcome(
                lambda: entry.cls(*reference_parse(entry, parts)))


def _abnf_productions() -> list[list[str]]:
    """Right-hand sides of docs/protocol.md's ABNF rules, as tokens, with
    continuation lines joined and comments dropped."""
    doc = Path(__file__).resolve().parents[1] / "docs" / "protocol.md"
    block = doc.read_text(encoding="utf-8").split("```abnf\n")[1]
    rules: list[str] = []
    for line in block.split("```")[0].splitlines():
        line = line.split(";")[0].rstrip()
        if line.strip():
            if line[0].isspace():
                rules[-1] += " " + line.strip()
            else:
                rules.append(line)
    return [re.findall(r'"[^"]*"|\S+', rule.split("=", 1)[1])
            for rule in rules]


class TestCatalog:
    def test_one_entry_per_message_type_in_dataclass_field_order(self):
        assert ({m.cls for m in codec.CATALOG}
                == set(typing.get_args(codec.OtterMessage)))
        for entry in codec.CATALOG:
            assert ([f.name for f in entry.fields]
                    == [f.name for f in dataclasses.fields(entry.cls)])

    def test_protocol_doc_has_each_tag_with_its_field_count(self):
        documented = {(tokens[0].strip('"'), tokens.count('","'))
                      for tokens in _abnf_productions()
                      if tokens[0].startswith('"')}
        for entry in codec.CATALOG:
            literal = entry.tag.split(",")[-1]
            assert (literal, len(entry.fields)) in documented, entry.tag
