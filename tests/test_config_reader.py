"""The key-value reader behind config and material files.

`config._read_entries` follows `configparser.ConfigParser` under the
options that `config.load_config` once passed it, on every file where the
two rules agree: no indented lines (configparser reads them as
continuations), and no text after a section header.  Derandomized and
without a database, so a run repeats exactly.  A byte-order mark, which
configparser would read as text, is skipped.
"""

import configparser
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdc_cascade.config import _read_entries, load_config, load_dispersion_model
from spdc_cascade.errors import ConfigError

from cli_contract import SRC, material

# names are case-sensitive, keys are not, and %, =, ; and a # that follows
# no whitespace are characters of a value like any other
NAMES = st.sampled_from(["crystal", "Crystal", "pump", "DEFAULT", "a.b", "x y", "a]b", "]"])
KEYS = st.sampled_from(["key", "KEY", "Thickness_MM", "center_nm", "o.form", "x y", "q"])
VALUES = st.sampled_from(["", "1.07", "1.07%", "%(x)s", "a=b", "=", "a#b", "x;y", "; x", "[s]", "two words"])
COMMENTS = st.sampled_from(["", "# comment", "; comment", "  # indented comment", "#", ";"])
INLINE = st.sampled_from(["", " # note", "\t# note", " #"])


def _configparser(text):
    parser = configparser.ConfigParser(delimiters=("=",), inline_comment_prefixes=("#",), strict=True,
                                       interpolation=None, default_section="")
    parser.read_string(text)
    return {section: dict(parser[section]) for section in parser.sections()}


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("reader") / "config.ini")


def _read(path, text):
    """(entries, None) or (None, the error) of _read_entries on text."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    try:
        return _read_entries(path), None
    except ConfigError as exc:
        return None, str(exc)


@st.composite
def files(draw):
    """(lines, {section: {key: value}}) of a well-formed config file."""
    lines, expected = [], {}
    for section in draw(st.lists(NAMES, min_size=1, max_size=4, unique=True)):
        lines += [draw(COMMENTS), f"[{section}]" + draw(INLINE)]
        keys = draw(st.lists(KEYS, max_size=4, unique_by=str.lower))
        values = draw(st.lists(VALUES, min_size=len(keys), max_size=len(keys)))
        for key, value in zip(keys, values):
            lines += [draw(COMMENTS), f"{key}{draw(st.sampled_from(['=', ' = ', ' =', '= ']))}{value}" + draw(INLINE)]
        expected[section] = {key.lower(): value.strip() for key, value in zip(keys, values)}
    return lines, expected


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(files(), st.sampled_from(["no-equals-sign", "duplicate-key", "duplicate-section", "key-before-header"]),
       st.data())
def test_reader_agrees_with_configparser(path, drawn, defect, data):
    """A well-formed file reads as configparser reads it, and each line
    number names the line of its key; with one bad line added, both readers
    refuse it, and the error names that line."""
    lines, expected = drawn
    entries, error = _read(path, "\n".join(lines) + "\n")
    assert error is None
    assert {section: {key: value for key, (value, _) in keys.items()} for section, keys in entries.items()} \
        == _configparser("\n".join(lines)) == expected
    for keys in entries.values():
        for key, (_, lineno) in keys.items():
            assert lines[lineno - 1].lower().startswith(key)

    headers = [n for n, line in enumerate(lines) if line.startswith("[")]
    key_lines = [n for n, line in enumerate(lines) if line and line[0] not in "#;[ "]
    if defect == "duplicate-key" and key_lines:
        at = data.draw(st.sampled_from(key_lines)) + 1
        bad = lines[at - 1].swapcase()
    elif defect == "duplicate-section":
        at, bad = len(lines), lines[data.draw(st.sampled_from(headers))]
    elif defect == "key-before-header":
        at, bad = 0, "key = value"
    else:
        at, bad = data.draw(st.integers(headers[0] + 1, len(lines))), data.draw(KEYS)
    lines = lines[:at] + [bad] + lines[at:]
    entries, error = _read(path, "\n".join(lines) + "\n")
    assert entries is None and error.startswith(f"{path}:{at + 1}: ") and "\n" not in error
    with pytest.raises(configparser.Error):
        _configparser("\n".join(lines))


def test_the_package_does_not_import_configparser():
    code = "import spdc_cascade.cli, sys; print('configparser' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


@pytest.mark.parametrize("first_line", ["", "# a comment\n"], ids=["entry-first", "comment-first"])
def test_a_byte_order_mark_reads_as_nothing(tmp_path, first_line):
    # Windows editors start a UTF-8 file with U+FEFF: a config and a
    # material file read the same with it as without it
    def write(name, text, encoding):
        path = tmp_path / name
        path.write_text(first_line + text, encoding=encoding)
        return str(path)

    plain, marked = write("plain.mat", material(), "utf-8"), write("marked.mat", material(), "utf-8-sig")
    assert (tmp_path / "marked.mat").read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_dispersion_model(marked) == load_dispersion_model(plain)
    ini = "[crystal]\nthickness_mm = 2\nmaterial = {}\n\n[pump]\nbandwidth_nm = 3\n"
    cfg = load_config(write("marked.ini", ini.format(marked), "utf-8-sig"))
    assert cfg == load_config(write("plain.ini", ini.format(plain), "utf-8"))
    assert (cfg.crystal1.thickness_mm, cfg.pump.bandwidth_fwhm_nm, cfg.model.name) == (2.0, 3.0, "custom")
