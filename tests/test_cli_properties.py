"""The CLI's exit-code contract over the config schema.

Each example is the INI text of one to four entries of `config._SCHEMA`,
or of an unknown key or section, with valid values or edge values (0,
+-inf, nan, 1e+-300, negative numbers, `auto`, junk tokens), run in process
by one subcommand.  Every run must keep the contract that
`cli_contract.check_contract` asserts: exit 0 with finite output, or exit
2, 3 or 4 with one stderr line and no `--out` file.  The in-process cases
of the contract table are explicit examples, but for the four whose
tables of 65 536 rows and more would cost more than every drawn example.
Derandomized and without a database (and `conftest.py` moves hypothesis's
storage out of the checkout): a run repeats exactly and writes nothing into
the checkout.
"""

import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cli_contract import CASES, Case, run_case
from spdc_cascade.config import _SCHEMA

COMMANDS = ("indices 790", "emission-map", "scan", "visibility-curve", "polarization", "optimize")
EDGES = ("0", "-0", "inf", "-inf", "nan", "1e300", "-1e300", "1e-300", "-1", "auto", "AUTO", "abc", "", "1,5",
         "0x10", "true")
# values near each key's default, so that most drawn configs compute; the
# azimuth counts stay at 1024 or below, so that no map of 65 536 azimuths
# takes the run time
CHOICES = {"material": ("bbo", "quartz", "{material}", "no-such-material"), "method": ("aligned", "scan"),
           "cascade": ("true", "yes", "1", "false")}
VALID = {
    (section, key): st.integers(64, 1024).map(str) if key == "phi_points"
    else st.sampled_from(CHOICES[key]) if key in CHOICES
    else st.sampled_from(("auto", "0", "26.6", "408.9", "-100", "1000")) if default is None
    else st.sampled_from(sorted({default * f for f in (0.5, 1.0, 2.0)} | {default + d for d in (-100, -1, 1, 100)}))
    .map(repr)
    for section, keys in _SCHEMA.items() for key, (_, default) in keys.items()
}
VALID[("scan", "mystery_knob")] = VALID[("detector", "efficiency")] = st.just("1")
TABLE = [case for cases in CASES.values() for case in (cases if isinstance(cases, list) else [cases])]
MATERIALS = st.sampled_from([None, *dict.fromkeys(case.material for case in TABLE if case.material)])
EXAMPLES = [case for case in TABLE if not case.child and (case.rows or 0) < 65536]


@st.composite
def configs(draw):
    sections = {}
    for section, key in draw(st.lists(st.sampled_from(list(VALID)), min_size=1, max_size=4, unique=True)):
        value = draw(st.one_of(*[VALID[(section, key)]] * 3, st.sampled_from(EDGES)))
        sections.setdefault(section, []).append(f"{key} = {value}\n")
    ini = "".join(f"[{section}]\n" + "".join(lines) for section, lines in sections.items())
    return Case(draw(st.sampled_from(COMMANDS)), ini, code=None, material=draw(MATERIALS))


def _table_examples(test):
    for case in EXAMPLES:
        test = example(case=case)(test)
    return test


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(case=configs())
@_table_examples
def test_every_config_keeps_the_contract(case):
    with tempfile.TemporaryDirectory() as workdir:
        run_case(case, workdir)
