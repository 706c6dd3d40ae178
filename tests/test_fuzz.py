"""Property tests over malformed input: every config and every sample file
maps to a documented exit code, never to a traceback.

The examples are derandomized and bounded, so the suite stays deterministic.
"""

import copy
import pathlib

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from offsetmpc import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
BASE = yaml.safe_load((ROOT / "configs" / "cstr_tracking.yaml").read_text())

FUZZ = settings(derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _paths(node, prefix=()):
    """Key paths of every section and leaf below node."""
    if prefix:
        yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, prefix + (i,))


SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-10**6, 10**6),
                    st.floats(), st.text(max_size=8))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=6), inner,
                                            max_size=4)),
    max_leaves=8)


@settings(FUZZ, max_examples=150)
@given(path=st.sampled_from(list(_paths(BASE))), value=VALUES)
def test_check_maps_any_config_to_an_exit_code(tmp_path, path, value):
    cfg = copy.deepcopy(BASE)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    p = tmp_path / "fuzz.yaml"
    p.write_text(yaml.safe_dump(cfg))
    assert cli.main(["check", str(p)]) in {0, 2, 3, 4}


FIELDS = st.one_of(st.floats().map(repr), st.integers(-10**3, 10**3).map(str),
                   st.sampled_from(["x", "1e999", "-0", "1e-320"]))


@settings(FUZZ, max_examples=100)
@given(n_in=st.integers(0, 3),
       rows=st.lists(st.lists(FIELDS, min_size=1, max_size=4), max_size=8))
def test_grnn_fit_maps_any_sample_file_to_an_exit_code(tmp_path, n_in, rows):
    p = tmp_path / "fuzz.txt"
    p.write_text(f"# inputs {n_in}\n"
                 + "".join(" ".join(row) + "\n" for row in rows))
    assert cli.main(["grnn-fit", str(p), "--out",
                     str(tmp_path / "out")]) in {0, 2, 4}


@settings(FUZZ, max_examples=60)
@given(data=st.binary(max_size=64))
def test_any_bytes_as_an_input_file_map_to_an_exit_code(tmp_path, capsys,
                                                        data):
    """Arbitrary bytes, UTF-8 or not, as the config of check, the sample
    file of grnn-fit, the setpoints file of sweep and the training file of
    a learned run: each exits with a documented code and no traceback."""
    p = tmp_path / "fuzz.bin"
    p.write_bytes(data)
    cfg = copy.deepcopy(BASE)
    cfg["scenario"]["grnn"]["train"] = str(p)
    cfg["scenario"]["duration"] = 1
    cfg["scenario"]["schedule"] = cfg["scenario"]["schedule"][:1]
    learned = tmp_path / "learned.yaml"
    learned.write_text(yaml.safe_dump(cfg))
    out = str(tmp_path / "out")
    for argv in (["check", str(p)],
                 ["grnn-fit", str(p), "--out", out],
                 ["sweep", str(ROOT / "configs" / "cstr_tracking.yaml"),
                  "--setpoints", str(p), "--out", out],
                 ["run", "--mode", "learned", str(learned), "--out", out]):
        assert cli.main(argv) in {0, 2, 3, 4}, argv
        assert "Traceback" not in capsys.readouterr().err, argv
