"""The compiled JSONL decoder against the regex loop it falls back to.

``read_jsonl`` and ``parse_jsonl`` feed ``_jsonl_kernel.c`` blocks of
whole lines; the kernel splits each block into canonical rows and
flagged lines, and any failure hands the whole input to the regex loop
(``repro.httplog.loader._regex_lines``), the reference.  These seeded
cases cut blocks at every awkward place and mix in the bytes a log can
hold, and require the two decoders to agree exactly: the same columns
(timestamps equal as ``float.hex``), one object per distinct string,
and the same error, text and line.  ``tests/test_columnar_trace.py``
runs its loader tables on both decoders as well.
"""

from __future__ import annotations

import gzip
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.graph import _kernel
from repro.httplog import loader
from repro.httplog.loader import parse_jsonl, read_jsonl, write_jsonl
from repro.httplog.records import FIELDS, HttpRequest
from repro.httplog.trace import HttpTrace
from repro.synth.generator import TraceGenerator
from repro.synth.scenarios import small_scenario

pytestmark = pytest.mark.skipif(
    not (shutil.which("cc") or shutil.which("gcc")),
    reason="the compiled JSONL decoder needs a C compiler on PATH",
)

SETTINGS = settings(max_examples=60, deadline=None, database=None)

CANONICAL = (
    '{"ts":1.5,"client":"c1","host":"a.com","ip":"1.1.1.1","uri":"/x",'
    '"ua":"-","ref":"","status":200,"method":"GET"}'
)


def outcome(decode) -> tuple:
    """What *decode* makes of its input: the exact columns, or the exact error."""
    try:
        trace = decode()
    except Exception as error:  # the error itself is the outcome compared
        return (type(error).__name__, str(error), type(error.__cause__).__name__)
    timestamps = [value.hex() for value in trace.columns[FIELDS.index("timestamp")]]
    # repr tells -0.0 from 0.0, 1 from 1.0 and True from 1.
    return ("loaded", repr(trace.columns), timestamps, trace.name)


def decoded(path: Path, *, kernel: bool, block_bytes: int = 1 << 20) -> tuple:
    """read_jsonl's outcome on *path* with or without the kernel.

    With the kernel, an input it gives up on must be one the regex loop
    rejects: a valid input that reaches the loop fails the test.
    """
    regex_lines = loader._regex_lines
    fallbacks = []

    def counted(*args):
        fallbacks.append(args[1])
        return regex_lines(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(loader, "_BLOCK_BYTES", block_bytes)
        if kernel:
            assert _kernel.load() is not None
            patch.setattr(loader, "_regex_lines", counted)
        else:
            patch.setattr(_kernel, "_loaded", [None])
        got = outcome(lambda: read_jsonl(path))
        if path.suffix != ".gz":
            data = path.read_bytes()
            assert outcome(lambda: parse_jsonl(data, path, path.stem)) == got
    assert not (kernel and got[0] == "loaded" and fallbacks), fallbacks
    return got


def assert_decoders_agree(content: bytes, block_bytes: int, suffix: str = ".jsonl") -> tuple:
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / f"trace{suffix}"
        if suffix == ".gz":
            with gzip.open(path, "wb") as handle:
                handle.write(content)
        else:
            path.write_bytes(content)
        kernel = decoded(path, kernel=True, block_bytes=block_bytes)
        assert kernel == decoded(path, kernel=False)
        return kernel


# -- lines and files ----------------------------------------------------------------

_TEXT = st.text(st.sampled_from("aZ09 ./-_é \U0001f600\x7f"), max_size=6)
_NONEMPTY = _TEXT.filter(bool)
#: Mostly canonical lines: raw UTF-8 strings, a few infinite timestamps
#: and ten-digit statuses among them.
_CANONICAL_LINES = st.builds(
    lambda request: json.dumps(request.to_dict(), separators=(",", ":"), ensure_ascii=False),
    st.builds(
        HttpRequest,
        timestamp=st.floats(allow_nan=False, width=64),
        client=_NONEMPTY,
        host=_NONEMPTY,
        server_ip=_TEXT,
        uri=_TEXT.map(lambda text: "/" + text),
        user_agent=_TEXT,
        referrer=_TEXT,
        status=st.one_of(st.integers(0, 999), st.integers(0, 10**10)),
        method=st.sampled_from(["GET", "POST", ""]),
    ),
)
#: Lines off the canonical form that parse (blank ones add no record)...
_ACCEPTED_LINES = st.sampled_from(
    [
        "",
        "   ",
        '{"ts":5,"client":"c","host":"h","ip":"","uri":"/"}',
        '{"uri":"/x","ip":"1","host":"a.com","client":"c1","ts":1.5}',
        CANONICAL.replace('"ua":"-"', '"ua":"a\\"b\\u2028"'),
        CANONICAL + " ",
    ]
)
#: ...and lines that do not.
_REJECTED_LINES = st.sampled_from(
    [
        CANONICAL.replace('"status":200', '"status":0200'),
        CANONICAL.replace('"ts":1.5', '"ts":1.'),
        '{"ts":1.5,"client":',
        "[1, 2]",
        "\ufeff" + CANONICAL,
    ]
)
_VALID_LINES = st.lists(st.one_of(_CANONICAL_LINES, _ACCEPTED_LINES), min_size=1, max_size=12)
_LINES = st.lists(
    st.one_of(_CANONICAL_LINES, _ACCEPTED_LINES, _REJECTED_LINES), min_size=1, max_size=12
)
_ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def files(draw, lines=_LINES, endings=_ENDINGS) -> bytes:
    """Lines joined by drawn line ends, with or without a final one."""
    content = b""
    for line in draw(lines):
        content += line.encode("utf-8") + draw(endings).encode()
    if draw(st.booleans()):
        content = content.rstrip(b"\r\n")
    return content


#: Bytes spliced into a file: NUL, an unpaired continuation byte, a
#: truncated sequence, an encoded surrogate, bytes never valid in UTF-8.
_ODD_BYTES = st.sampled_from([b"\x00", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xff", b"\xfe\xff"])


# -- the cases ---------------------------------------------------------------------


class TestBlockCuts:
    @seed(20150629)
    @SETTINGS
    @given(st.lists(_CANONICAL_LINES, min_size=2, max_size=10), st.integers(1, 300))
    def test_records_straddling_block_cuts(self, lines, block_bytes):
        content = "".join(line + "\n" for line in lines).encode("utf-8")
        got = assert_decoders_agree(content, block_bytes)
        assert got[0] == "loaded"

    @seed(20150630)
    @SETTINGS
    @given(st.lists(_CANONICAL_LINES, min_size=2, max_size=8), st.data())
    def test_crlf_straddling_a_block_cut(self, lines, data):
        content = "".join(line + "\r\n" for line in lines).encode("utf-8")
        # The first block read ends right after one of the "\r"s.
        returns = [index for index, byte in enumerate(content) if byte == ord("\r")]
        cut = data.draw(st.sampled_from(returns)) + 1
        got = assert_decoders_agree(content, cut)
        assert got[0] == "loaded"

    @seed(20150631)
    @SETTINGS
    @given(st.lists(_CANONICAL_LINES, min_size=3, max_size=10), st.data())
    def test_malformed_line_in_a_later_block(self, lines, data):
        bad = data.draw(st.integers(1, len(lines) - 1))
        lines[bad] = '{"ts":1.5,"client":'
        content = "".join(line + "\n" for line in lines).encode("utf-8")
        got = assert_decoders_agree(content, data.draw(st.integers(1, 120)))
        assert got[0] == "TraceError" and f":{bad + 1}: malformed record: " in got[1]

    @seed(20150632)
    @SETTINGS
    @given(files(), st.integers(1, 200))
    def test_mixed_lines_and_line_ends(self, content, block_bytes):
        assert_decoders_agree(content, block_bytes)

    @seed(20150638)
    @SETTINGS
    @given(files(lines=_VALID_LINES), st.integers(1, 200))
    def test_flagged_records_keep_their_place_among_rows(self, content, block_bytes):
        got = assert_decoders_agree(content, block_bytes)
        assert got[0] == "loaded"

    @seed(20150633)
    @SETTINGS
    @given(files(endings=st.just("\r")), st.integers(1, 200))
    def test_lone_carriage_returns_only(self, content, block_bytes):
        assert b"\n" not in content
        assert_decoders_agree(content, block_bytes)

    @seed(20150634)
    @SETTINGS
    @given(st.lists(_CANONICAL_LINES, min_size=1, max_size=6), st.integers(1, 200))
    def test_no_final_line_end(self, lines, block_bytes):
        content = "\n".join(lines).encode("utf-8")
        got = assert_decoders_agree(content, block_bytes)
        assert got[0] == "loaded"


class TestBytes:
    @seed(20150635)
    @SETTINGS
    @given(files(), _ODD_BYTES, st.data())
    def test_nul_and_invalid_utf8_anywhere(self, content, odd, data):
        at = data.draw(st.integers(0, len(content)))
        content = content[:at] + odd + content[at:]
        got = assert_decoders_agree(content, data.draw(st.integers(1, 200)))
        if odd != b"\x00":
            assert got[0] in ("UnicodeDecodeError", "TraceError")

    @seed(20150636)
    @SETTINGS
    @given(st.lists(_CANONICAL_LINES, min_size=1, max_size=6), _ODD_BYTES, st.data())
    def test_odd_bytes_inside_a_string(self, lines, odd, data):
        encoded = [line.encode("utf-8") for line in lines]
        row = data.draw(st.integers(0, len(lines) - 1))
        at = encoded[row].index(b'"uri":"/') + len(b'"uri":"/')
        encoded[row] = encoded[row][:at] + odd + encoded[row][at:]
        content = b"\n".join(encoded)
        got = assert_decoders_agree(content, data.draw(st.integers(1, 200)))
        assert got[0] == ("TraceError" if odd == b"\x00" else "UnicodeDecodeError")

    @seed(20150637)
    @SETTINGS
    @given(files(), st.integers(1, 200))
    def test_gzip_input(self, content, block_bytes):
        assert_decoders_agree(content, block_bytes, suffix=".gz")


def test_kernel_takes_exactly_the_canonical_lines():
    """The kernel's rows are the lines the regular expression matches."""
    lines = [
        CANONICAL,
        CANONICAL.replace('"ts":1.5', '"ts":-0.0'),
        CANONICAL.replace('"ts":1.5', '"ts":1E-7'),
        CANONICAL.replace('"ts":1.5', '"ts":5'),
        CANONICAL.replace('"ts":1.5', '"ts":01.5'),
        CANONICAL.replace('"ts":1.5', '"ts":1.5e'),
        CANONICAL.replace('"status":200', '"status":0'),
        CANONICAL.replace('"status":200', '"status":00'),
        CANONICAL.replace('"status":200', '"status":999999999'),
        CANONICAL.replace('"status":200', '"status":1000000000'),
        CANONICAL.replace('"client":"c1"', '"client":""'),
        CANONICAL.replace('"ip":"1.1.1.1"', '"ip":""'),
        CANONICAL.replace('"uri":"/x"', '"uri":"x"'),
        CANONICAL.replace('"uri":"/x"', '"uri":""'),
        CANONICAL.replace('"ua":"-"', '"ua":"\x7f é"'),
        CANONICAL.replace('"ua":"-"', '"ua":"\t"'),
        CANONICAL.replace('"ua":"-"', '"ua":"\\u0041"'),
        CANONICAL[:-1],
        "",
        CANONICAL + "}",
        " " + CANONICAL,
    ]
    content = "\n".join(lines).encode("utf-8")
    scan = loader._Scanner(_kernel.load()).scan(content, 0, len(content))
    flagged = [content[start:end].decode("utf-8") for start, end, _before in scan.flags]
    assert flagged == [line for line in lines if line and not loader._CANONICAL.fullmatch(line)]
    assert scan.rows == sum(1 for line in lines if loader._CANONICAL.fullmatch(line))
    assert scan.offset == len(content)


def test_generated_trace_over_many_blocks(tmp_path):
    """A generator trace read in small blocks: equal columns, shared strings."""
    trace = TraceGenerator(small_scenario()).generate_day(0).trace
    path = tmp_path / "trace.jsonl"
    write_jsonl(trace, path)
    assert path.stat().st_size > 8 * (1 << 16)
    assert decoded(path, kernel=True, block_bytes=1 << 16) == decoded(path, kernel=False)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(loader, "_BLOCK_BYTES", 1 << 16)
        loaded = read_jsonl(path)
    assert loaded == trace
    strings = [
        value
        for field, column in zip(FIELDS, loaded.columns)
        if field not in ("timestamp", "status")
        for value in column
    ]
    assert len(set(map(id, strings))) == len(set(strings))


def test_missing_compiler_reads_with_the_regex_loop(tmp_path, monkeypatch, caplog):
    path = tmp_path / "trace.jsonl"
    write_jsonl(HttpTrace([HttpRequest.from_dict(json.loads(CANONICAL))] * 3), path)
    expected = decoded(path, kernel=True)
    # Sources in a fresh directory have no library built next to them.
    source = tmp_path / "_louvain_kernel.c"
    shutil.copy(_kernel.SOURCE, source)
    monkeypatch.setattr(_kernel, "SOURCE", source)
    monkeypatch.setattr(_kernel, "_loaded", [])
    monkeypatch.setattr(_kernel.shutil, "which", lambda name: None)
    with caplog.at_level("WARNING", logger="repro.graph.kernel"):
        assert outcome(lambda: read_jsonl(path)) == expected
        assert outcome(lambda: read_jsonl(path)) == expected
    warnings = [record for record in caplog.records if record.name == "repro.graph.kernel"]
    assert len(warnings) == 1 and "regex loop" in warnings[0].getMessage()
