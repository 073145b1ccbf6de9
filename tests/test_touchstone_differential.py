"""``parse_touchstone`` against the token-by-token reference parser on
mutated survey files, generated from a seed (no data files).

Each mutation keeps most of a valid file and changes one thing the array
tokenizer or the token decoder must get right: comments inside the data,
wrapped rows, every line break and whitespace character of ``str.split``
and ``str.splitlines``, tokens of other shapes than ``"%.17e"`` (short
forms, underscores, 3-digit and small exponents, negative zero,
subnormals, NaN and infinities), non-ASCII digits and whitespace, U+FFFD,
and truncated rows.  Parsed records must be bit-equal (compared as uint64
so that signed zeros count); a rejected file must fail with the same error
type, message and line.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

import reference_io as ref
from conftest import noisy_trace
from resokit.netparams import (
    parse_touchstone,
    series_element_network,
    write_touchstone,
    y_to_s,
)
from resokit.refdata import SURVEY, roundtrip_model, synthesis_grid

FORMATS = ("RI", "MA", "DB")
UNITS = ("Hz", "kHz", "MHz", "GHz")

# tokens a foreign file may hold, each read by float() or rejected by it
ODD_TOKENS = [
    "1", ".5", "+1E+005", "1_0", "1.00000000000000000e+100", "-2.50000000000000000e-100",
    "1.23456789012345678e-06", "9.99999999999999999e-07", "-0.00000000000000000e+00",
    "0.00000000000000000e+00", "4.94065645841246544e-324", "2.2250738585072014e-308",
    "1.00000000000000000E+05", "+1.00000000000000000e+05", "1.00000000000000000e-00",
    "0.12345678901234567e+03", "1.2345678901234567e+03", "12.3456789012345678e+03",
    "1.23456789012345678e+18", "nan", "-inf", "Infinity", "1e", "--1.00000000000000000e+00",
    "1.00000000000000000e+0x", "\u0661\u0662.\u0665", "1\u0660.5", "\ufffd", "1.0\ufffd",
]
# characters that separate tokens for str.split; \v, \f, \x1c-\x1e, \x85
# and \u2028 also end a line
SPACES = ["\t", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u1680",
          "\u2003", "\u200a", "\u2028", "\u202f", "\u205f", "\u3000"]
LINE_ENDS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
# the library's error for a first frequency <= 0
NOT_POSITIVE = re.compile(r"line \d+: frequency \S+ Hz is not positive$")


def survey_text(index: int, fmt: str, unit: str, n_points: int = 24) -> str:
    row = SURVEY[index]
    grid = synthesis_grid(row.label, n_points=n_points)
    trace = noisy_trace(roundtrip_model(row.label), grid, noise_db=-40.0, seed=100 + index)
    return write_touchstone(y_to_s(series_element_network(trace)), fmt=fmt, unit=unit)


def assert_parses_like_reference(text: str) -> str:
    """The library's record of text is the reference's, bit for bit, or
    both raise the same error; returns which of the two happened."""
    try:
        want = ref.parse_touchstone(text)
    except Exception as err:  # noqa: BLE001 - any error must be the same one
        with pytest.raises(Exception) as got:
            parse_touchstone(text)
        if NOT_POSITIVE.match(str(got.value)):
            # the reference leaves a first frequency <= 0 to NetworkRecord,
            # so it fails there or on a later fault; the library reports it
            # on its line
            assert getattr(err, "line", None) is None or err.line >= got.value.line
            return "error"
        assert type(got.value) is type(err) and str(got.value) == str(err)
        assert getattr(got.value, "line", None) == getattr(err, "line", None)
        return "error"
    got = parse_touchstone(text)
    for a, b in ((got.freqs, want.freqs), (got.matrices, want.matrices)):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
    assert got.z0 == want.z0 and got.kind == want.kind
    return "record"


def mutate(rng: np.random.Generator, text: str) -> str:
    """text with one to three random mutations."""
    lines = text.split("\n")[:-1]
    for _ in range(int(rng.integers(1, 4))):
        kind = int(rng.integers(8))
        i = int(rng.integers(2, len(lines)))  # a data line
        tokens = lines[i].split(" ")
        if kind == 0:  # a comment after, inside or between the data
            at = int(rng.integers(len(lines[i]) + 1))
            choice = int(rng.integers(3))
            if choice == 0:
                lines[i] += " ! trailing comment 1.0 2.0"
            elif choice == 1:
                lines[i] = lines[i][:at] + "!" + lines[i][at:]
            else:
                lines.insert(i, "  ! a comment line, # not an option")
        elif kind == 1:  # a row wrapped after any token
            cut = int(rng.integers(1, max(len(tokens), 2)))
            lines[i:i + 1] = [" ".join(tokens[:cut]), "  " + " ".join(tokens[cut:])]
        elif kind == 2:  # another whitespace character between two tokens
            cut = int(rng.integers(1, max(len(tokens), 2)))
            space = SPACES[int(rng.integers(len(SPACES)))]
            lines[i] = " ".join(tokens[:cut]) + space + " ".join(tokens[cut:])
        elif kind == 3:  # a token of another shape
            tokens[int(rng.integers(len(tokens)))] = ODD_TOKENS[int(rng.integers(len(ODD_TOKENS)))]
            lines[i] = " ".join(tokens)
        elif kind == 4:  # leading and trailing blanks, or blank lines
            lines[i] = ["\t", "  ", " \f"][int(rng.integers(3))] + lines[i] + "   "
            if rng.random() < 0.5:
                lines.insert(i, "" if rng.random() < 0.5 else " \t ")
        elif kind == 5:  # a row cut short, or the file cut anywhere
            if rng.random() < 0.5:
                lines[i] = " ".join(tokens[:int(rng.integers(1, max(len(tokens), 2)))])
            else:
                text = "\n".join(lines)
                return text[:int(rng.integers(len(text)))]
        elif kind == 6:  # two rows swapped, or the option line moved
            j = int(rng.integers(2, len(lines)))
            if rng.random() < 0.5:
                lines[i], lines[j] = lines[j], lines[i]
            else:
                lines.insert(j, lines.pop(1))
        else:  # a sign, digit or exponent letter changed inside a token
            k = int(rng.integers(len(tokens)))
            chars = list(tokens[k]) or [""]
            chars[int(rng.integers(len(chars)))] = "+-.eE05x"[int(rng.integers(8))]
            tokens[k] = "".join(chars)
            lines[i] = " ".join(tokens)
    end = LINE_ENDS[int(rng.integers(len(LINE_ENDS)))]
    return end.join(lines) + (end if rng.random() < 0.8 else "")


@pytest.mark.parametrize("fmt", FORMATS)
def test_survey_files_with_every_line_end_parse_like_reference(fmt):
    for i in range(len(SURVEY)):
        text = survey_text(i, fmt, UNITS[i % 4])
        end = LINE_ENDS[i % len(LINE_ENDS)]
        assert assert_parses_like_reference(text.replace("\n", end)) == "record"


@pytest.mark.parametrize("seed", range(8))
def test_mutated_survey_files_parse_like_reference(seed):
    rng = np.random.default_rng(1000 + seed)
    outcomes = []
    for i in range(len(SURVEY)):
        text = survey_text(i, FORMATS[(i + seed) % 3], UNITS[(i + seed) % 4])
        for _ in range(12):
            outcomes.append(assert_parses_like_reference(mutate(rng, text)))
    # both outcomes are exercised in quantity
    assert 0.2 < outcomes.count("record") / len(outcomes) < 0.8


def three_digit_exponent(x: float) -> str:
    mantissa, exponent = ("%+.11E" % x).split("E")
    return f"{mantissa}E{exponent[0]}{int(exponent[1:]):03d}"


# other instruments' spellings of every data token, read a run at a time
SPELLINGS = {
    "%.9e": lambda k, x: "%.9e" % x,
    "%g": lambda k, x: "%g" % x,
    "+d.dddE+ddd": lambda k, x: three_digit_exponent(x),
    "mixed": lambda k, x: "%.17e" % x if k % 3 else "%.6e" % x,
}


def respell(text: str, spelling) -> str:
    """text with each data token written by spelling(k, value)."""
    lines = text.split("\n")
    count = 0
    for i, line in enumerate(lines):
        if line and line[0] not in "!#":
            values = [float(t) for t in line.split()]
            lines[i] = " ".join(spelling(count + k, x) for k, x in enumerate(values))
            count += len(values)
    return "\n".join(lines)


@pytest.mark.parametrize("spelling", SPELLINGS)
def test_mutated_foreign_spellings_parse_like_reference(spelling):
    rng = np.random.default_rng(2000 + list(SPELLINGS).index(spelling))
    for i in range(len(SURVEY)):
        text = respell(survey_text(i, FORMATS[i % 3], UNITS[i % 4]), SPELLINGS[spelling])
        assert assert_parses_like_reference(text) == "record"
        for _ in range(6):
            assert_parses_like_reference(mutate(rng, text))


ROW = " ".join("%.17e" % v for v in [1.0, 0.5, -0.25, 0.125, 0.0625, 1e-5, -3.0, 2.0, 7.0])
ROW2 = ROW.replace("1.00000000000000000e+00", "2.00000000000000000e+00", 1)
SHORT = " ".join("%g" % float(t) for t in ROW.split())
SHORT2 = " ".join("%g" % float(t) for t in ROW2.split())
EDGES = [
    "", " ", "\n", "!", "#", ROW, ROW + "\n" + ROW2, ROW + "!x\n" + ROW2, ROW + "!" + ROW2,
    "!" + ROW + "\n" + ROW2, ROW + "\n!\n" + ROW2 + "!", ROW.replace(" ", "!", 1),
    "# GHZ ! S\n" + ROW, "# GHZ S RI ! R 50\n" + ROW + "\n# GHZ\n",
    "\r\r\n".join([ROW, ROW2]), "\n\r".join([ROW, ROW2]), ROW[:-1], ROW + "0",
    "-" + ROW, "+" + ROW, ROW.replace("e", "E"), ROW.replace("e+00", "e+000"),
    " ".join("%.17e" % v for v in [1e17, 9.99e17, 1e-5, 9.99999e-6, 0.0, -0.0, 5e-324, 1e300, 1.0]),
    ROW + "\xa0", "\ufeff" + ROW, ROW.replace(" ", "\u3000"), "! Z0 = 50 \u03a9\n" + ROW,
    ROW.replace(" ", "?\u2003", 1), ROW.replace(" ", " ? ", 1),
    "# HZ S DB R 50\n1 6.00000000000000000e+03 0 -6460 1 7000 0 0 0",
    "# HZ S DB R 50\n1 7.00000000000000000e+03 0 0 0 0 0 0 0",
    ROW + "!x\n!y\n" + ROW2, SHORT + "!\n" + SHORT2, SHORT + "!x\n" + SHORT2,
    SHORT + "\n! c\n" + SHORT2,
    SHORT + "\n# GHZ S RI R 50\n" + SHORT2, SHORT.replace(" ", "\u2003 \x85"),
]


@pytest.mark.parametrize("text", [t + end for t in EDGES for end in ("", "\n")])
def test_hand_written_edges_parse_like_reference(text):
    # tokens at the very start and end of the text, "!" against a token,
    # "\r\r\n", a byte-order mark, "?" beside non-ASCII text, a first
    # frequency <= 0, a comment line after a comment that drops no token,
    # and runs of short tokens broken by a comment or an option line
    assert_parses_like_reference(text)
