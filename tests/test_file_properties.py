"""Property tests of the scenario and quantizer file formats, under one
fixed Hypothesis profile (derandomized, no deadline, at most 100 examples
per kind; the scenario-array and relabelling properties, which draw many
kinds, at most 25).

* Any one field of the golden Gaussian and discrete scenario and quantizer
  documents, replaced by null, a string, a number, [] or {}, makes ``main``
  exit 0 or 2, never 3, and no output holds a NaN.
* A ``B`` array of the golden Gaussian quantizer document that is ragged
  or of the wrong size (matrix count, rows, columns or [re, im] width)
  makes ``mc-check`` and ``region`` exit 2, write no output file and print
  nothing to stdout.
* A ragged or mis-sized array in a golden scenario document (an entry of
  ``channel.H``, all of it, ``Sigma``, ``Kin``, ``px``, ``fronthaul`` or the
  discrete ``channel``) makes ``region`` exit 2, write no output file and
  print nothing to stdout.
* Relabelling the relays and the users of a random scenario, with its
  quantizers, permutes the (T, S) table of its region to match, within
  1e-12, for the Gaussian region and both discrete families.
* A save/load round trip of a random scenario, with or without embedded
  quantization tables, writes identical bytes and keeps ``scenario_sha256``.
* Any list of finite doubles and 64-bit integers written by ``json.dumps``
  reads back through the file parser as ``json.loads`` reads it, each
  double bit for bit, so the parser moves no number of a scenario and no
  ``scenario_sha256``.
"""

import contextlib
import io
import json
import pathlib
import struct
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocran.cli import main
from ocran.core import _read_json, load_scenario, scenario_sha256
from ocran.discrete import AuxChannels, DiscreteEvaluator, DiscreteScenario
from ocran.gaussian import GaussianEvaluator, GaussianScenario, QuantizerSetGaussian
from ocran.verify import (random_aux, random_correlated_scenario, random_factorizing_scenario,
                          random_gaussian_scenario, random_quantizers)

from helpers import save_scenario
from test_cli import discrete_doc, golden_gaussian_doc

FIXED_PROFILE = settings(derandomize=True, deadline=None, max_examples=100, database=None)
FEW_EXAMPLES = settings(FIXED_PROFILE, max_examples=25)

WRONG_TYPES = st.one_of(st.none(), st.text(), st.integers(), st.floats(),
                        st.just([]), st.just({}))


def golden_docs(kind: str) -> dict:
    """The golden scenario and quantizer documents of one channel kind; the
    discrete scenario embeds its quantization tables too."""
    if kind == "gaussian":
        return {"scenario": golden_gaussian_doc(), "quantizers": {"B": [[[[0.5, 0.0]]]]}}
    doc = discrete_doc()
    return {"scenario": doc, "quantizers": {"aux": doc["channel"]["aux"]}}


def field_paths(doc: dict, prefix=()):
    """The path of every field of every JSON object in ``doc``."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from field_paths(value, prefix + (key,))


def fields(kind: str) -> list:
    return [(where, path) for where, doc in golden_docs(kind).items()
            for path in field_paths(doc)]


@pytest.mark.parametrize("kind", ["gaussian", "discrete"])
@FIXED_PROFILE
@given(data=st.data())
def test_a_field_of_a_wrong_type_exits_0_or_2(kind, data):
    where, path = data.draw(st.sampled_from(fields(kind)), label="field")
    value = data.draw(WRONG_TYPES, label="value")
    docs = golden_docs(kind)
    entry = docs[where]
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        for name, doc in docs.items():
            (tmp / f"{name}.json").write_text(json.dumps(doc))
        out = tmp / "region.csv"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(["region", "--scenario", str(tmp / "scenario.json"),
                       "--quantizers", str(tmp / "quantizers.json"), "--out", str(out)])
        assert rc in (0, 2), stderr.getvalue()
        written = [p.read_text() for p in tmp.glob("region.csv*")]
        assert (rc == 0) == bool(written)
        for text in [stdout.getvalue(), *written]:
            assert "nan" not in text.lower()


def is_golden_shape(b) -> bool:
    """Whether ``b`` has the shape of the golden ``B``: one 1 x 1 matrix of one [re, im] pair."""
    return len(b) == 1 and len(b[0]) == 1 and len(b[0][0]) == 1 and len(b[0][0][0]) == 2


# each level 0-3 long and drawn on its own, so sibling lists may differ in length
MISSHAPEN_B = st.lists(st.lists(st.lists(st.lists(st.floats(-2.0, 2.0), max_size=3), max_size=3),
                                max_size=3), max_size=3).filter(lambda b: not is_golden_shape(b))


@pytest.mark.parametrize("command", ["mc-check", "region"])
@FIXED_PROFILE
@given(b=MISSHAPEN_B)
def test_a_misshapen_quantizer_array_exits_2(command, b):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        (tmp / "scenario.json").write_text(json.dumps(golden_gaussian_doc()))
        (tmp / "quantizers.json").write_text(json.dumps({"B": b}))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main([command, "--scenario", str(tmp / "scenario.json"),
                       "--quantizers", str(tmp / "quantizers.json"), "--out", str(tmp / "out")])
        assert rc == 2, stderr.getvalue()
        assert sorted(p.name for p in tmp.iterdir()) == ["quantizers.json", "scenario.json"]
        assert stdout.getvalue() == ""
        assert stderr.getvalue().startswith("error:")


SCENARIO_ARRAYS = [("gaussian", ("channel", "H", 0, 0)), ("gaussian", ("channel", "H")),
                   ("gaussian", ("channel", "Sigma")), ("gaussian", ("channel", "Kin")),
                   ("gaussian", ("fronthaul",)), ("discrete", ("channel", "px")),
                   ("discrete", ("fronthaul",)), ("discrete", ("channel", "channel"))]

# lists of floats and of such lists, at most 12 floats in all, each list 0-3
# long and drawn on its own, so sibling entries may differ in length and depth
NESTED_LISTS = st.lists(st.recursive(st.floats(-2.0, 2.0),
                                     lambda inner: st.lists(inner, max_size=3), max_leaves=12),
                        max_size=3)


def array_shape(value):
    """The shape of a rectangular nested list, or None for a ragged one."""
    try:
        return np.array(value, dtype=float).shape
    except ValueError:
        return None


@pytest.mark.parametrize("kind, path", SCENARIO_ARRAYS)
@FEW_EXAMPLES
@given(data=st.data())
def test_a_misshapen_scenario_array_exits_2(kind, path, data):
    docs = golden_docs(kind)
    entry = docs["scenario"]
    for key in path[:-1]:
        entry = entry[key]
    golden = array_shape(entry[path[-1]])
    entry[path[-1]] = data.draw(NESTED_LISTS.filter(lambda v: array_shape(v) != golden),
                                label="array")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        for name, doc in docs.items():
            (tmp / f"{name}.json").write_text(json.dumps(doc))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(["region", "--scenario", str(tmp / "scenario.json"),
                       "--quantizers", str(tmp / "quantizers.json"), "--out", str(tmp / "out")])
        assert rc == 2, stderr.getvalue()
        assert sorted(p.name for p in tmp.iterdir()) == ["quantizers.json", "scenario.json"]
        assert stdout.getvalue() == ""
        assert stderr.getvalue().startswith("error:")


def relabel_masks(perm, count: int) -> np.ndarray:
    """For each bitmask of the relabelled items, the bitmask of the same
    items under their old labels: new item i is old item perm[i]."""
    masks = np.arange(1 << count)
    return sum(((masks >> i) & 1) << old for i, old in enumerate(perm))


def relabel_gaussian(sc, q, users, relays):
    """The Gaussian scenario and quantizers relabelled so that user i is the
    old user users[i] and relay k the old relay relays[k], counted from 0."""
    sc = GaussianScenario(
        num_users=sc.num_users, num_relays=sc.num_relays, time_share=sc.time_share,
        fronthaul=tuple(sc.fronthaul[k] for k in relays),
        H=tuple(tuple(sc.H[k][l] for l in users) for k in relays),
        Sigma=tuple(sc.Sigma[k] for k in relays),
        Kin=tuple(sc.Kin[l] for l in users), power=tuple(sc.power[l] for l in users))
    return sc, QuantizerSetGaussian(B=tuple(q.B[k] for k in relays))


def relabel_discrete(sc, aux, users, relays):
    """The discrete scenario and aux tables relabelled as in ``relabel_gaussian``."""
    axes = list(users) + [sc.num_users + k for k in relays]
    sc = DiscreteScenario(
        num_users=sc.num_users, num_relays=sc.num_relays, time_share=sc.time_share,
        fronthaul=tuple(sc.fronthaul[k] for k in relays),
        px=tuple(sc.px[l] for l in users), channel=sc.channel.transpose(axes))
    return sc, AuxChannels(tables=tuple(aux.tables[k] for k in relays))


@pytest.mark.parametrize("kind", ["gaussian", "discrete factorizing", "discrete correlated"])
@FEW_EXAMPLES
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), num_users=st.integers(1, 3),
       num_relays=st.integers(1, 3))
def test_relabelling_permutes_the_region(kind, data, seed, num_users, num_relays):
    users = data.draw(st.permutations(range(num_users)), label="users")
    relays = data.draw(st.permutations(range(num_relays)), label="relays")
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        sc = random_gaussian_scenario(rng, num_users, num_relays)
        q = random_quantizers(rng, sc)
        pairs = [[GaussianEvaluator.from_quantizers(*args).region()
                  for args in ((sc, q), relabel_gaussian(sc, q, users, relays))]]
    else:
        draw = random_factorizing_scenario if kind.endswith("factorizing") else \
            random_correlated_scenario
        sc = draw(rng, num_users, num_relays)
        aux = random_aux(rng, sc)
        evs = [DiscreteEvaluator.from_aux(*args)
               for args in ((sc, aux), relabel_discrete(sc, aux, users, relays))]
        pairs = [[ev.region(which) for ev in evs] for which in ("thm1", "thm3")]
    t_old = relabel_masks(users, num_users)[1:] - 1
    s_old = relabel_masks(relays, num_relays)
    for region, relabelled in pairs:
        np.testing.assert_allclose(relabelled.bounds, region.bounds[np.ix_(t_old, s_old)],
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", ["gaussian", "discrete", "discrete with aux"])
@FIXED_PROFILE
@given(seed=st.integers(0, 2**32 - 1), users=st.integers(1, 3), relays=st.integers(1, 3),
       timeshare=st.integers(1, 2))
def test_save_load_round_trip_is_byte_identical(kind, seed, users, relays, timeshare):
    rng = np.random.default_rng(seed)
    aux = None
    if kind == "gaussian":
        sc = random_gaussian_scenario(rng, users, relays)
    else:
        sc = random_factorizing_scenario(rng, users, relays, num_timeshare=timeshare)
        if kind == "discrete with aux":
            aux = random_aux(rng, sc)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = pathlib.Path(tmp, "first.json"), pathlib.Path(tmp, "second.json")
        save_scenario(sc, first, aux)
        loaded, loaded_aux = load_scenario(first, with_aux=True)
        assert (loaded_aux is None) == (aux is None)
        save_scenario(loaded, second, loaded_aux)
        assert second.read_bytes() == first.read_bytes()
    assert scenario_sha256(loaded) == scenario_sha256(sc)


# subnormals, signed zeros and the largest doubles, in every drawn list
EDGE_DOUBLES = [5e-324, -5e-324, sys.float_info.min * (1 - 2 ** -52), 0.0, -0.0,
                sys.float_info.max, -sys.float_info.max]


def bits(value):
    """A number as its type and its bits: a double's IEEE 754 bytes, an integer itself."""
    return (float, struct.pack("<d", value)) if type(value) is float else (type(value), value)


@FIXED_PROFILE
@given(numbers=st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                  st.integers(-2 ** 63, 2 ** 64 - 1)), max_size=50))
def test_the_parser_reads_every_number_as_json_does(numbers):
    text = json.dumps(numbers + EDGE_DOUBLES)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp, "numbers.json")
        path.write_text(text)
        parsed = _read_json(path)
    assert [bits(v) for v in parsed] == [bits(v) for v in json.loads(text)]
