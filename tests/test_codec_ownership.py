"""The frame format has one owner: ``repro.sqldb.wire``.

Strings, counted value lists and statement bodies are encoded and decoded
there and nowhere else.  The protocol envelopes (``repro.server``) and
the log records (``repro.recovery``) call its codec; a module in either
package that turns text into UTF-8 bytes, or back, is a second copy of
the format with its own bounds checks, and fails this test.
"""

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent
PACKAGES = ("server", "recovery")


def _is_utf8(node):
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.lower().replace("-", "").replace("_", "") == "utf8"
    )


def utf8_codec_calls(source):
    """Line numbers of every ``.encode`` / ``.decode`` call in *source*
    that uses UTF-8: named, or by default (no codec argument)."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("encode", "decode")
        ):
            continue
        codec = node.args[0] if node.args else None
        for keyword in node.keywords:
            if keyword.arg == "encoding":
                codec = keyword.value
        if codec is None or _is_utf8(codec):
            calls.append(node.lineno)
    return calls


def test_no_server_or_recovery_module_encodes_text_itself():
    offenders = {
        path.relative_to(ROOT).as_posix(): lines
        for package in PACKAGES
        for path in sorted((ROOT / package).rglob("*.py"))
        for lines in [utf8_codec_calls(path.read_text(encoding="utf-8"))]
        if lines
    }
    assert offenders == {}


def test_the_scan_sees_every_spelling():
    source = (
        "a = text.encode('utf-8')\n"
        "b = data.decode('UTF8')\n"
        "c = text.encode()\n"
        "d = data.decode(encoding='utf_8')\n"
        "e = kind.encode('ascii')\n"
    )
    assert utf8_codec_calls(source) == [1, 2, 3, 4]
