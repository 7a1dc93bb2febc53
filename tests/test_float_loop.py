"""The generated float loop of the weighted scalar map, whose kernel is
written in its template (``schemes._WEIGHTED``), held bit for bit to the
composition of the library's functions that write the same formulas
(``derived_rate``, ``phim``, ``weighted_step``), as
``test_systems.TestRk4Loop`` holds the RK4 loop to an independent one; the
generated code's file names, lines and warning module; and a bytecode-only
copy of the package, which builds its loops from the templates alone.
"""

import compileall
import math
import os
import shutil
import subprocess
import sys
import textwrap
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nsfd
from nsfd.cli import TABLE2_H_FULL
from nsfd.denominator import ARG_FLOOR, SERIES_CUTOFF, constant_rate
from nsfd.model import SchemeConfig
from nsfd.problems import get_problem, get_scheme, problem_names, scheme_bundles
from nsfd.schemes import FOLD_BLOCK_FLOATS, integrate, nsfd_step_map
from nsfd.systems import DEFAULT_STARTS, get_system, second_order_config, system_step_map
from scalar_helpers import reference_states, weighted_reference

#: every registry map built by ``nsfd_step_map``: the bundles with
#: admissible weights (wood's record carries inadmissible ones)
WEIGHTED = sorted(f"{p}/{label}" for p in problem_names()
                  for label, b in scheme_bundles(p).items()
                  if b.config is not None and b.config.weights_admissible)

#: weighted maps of one's own on the logistic problem: a constant rate and
#: a rate that is a plain function (the derived one, written by hand)
USER_RATES = {"user/constant": constant_rate(2.0), "user/lambda": lambda y: -2.0 - 0.5 * y}


def _map_and_reference(name):
    """(step map, reference step) of a WEIGHTED or USER_RATES name."""
    model, label = name.split("/")
    if model == "user":
        problem, b = get_problem("logistic"), get_scheme("logistic", "snsfd1")
        spec = USER_RATES[name]
        step = nsfd_step_map(problem, b.rep, b.config, spec)
    else:
        problem, b = get_problem(model), get_scheme(model, label)
        step, spec = b.step, b.spec
    rerun = lambda y, h: step.update(np.array(y), h)  # noqa: E731  (the array path)
    return step, weighted_reference(problem, b.rep, b.config, spec, rerun)


def _update(name):
    """The ``update`` of a registry scalar map, or of a system's order-2 map."""
    model, label = name.split("/")
    if model in ("lv", "sirs"):
        system = get_system(model)
        return system_step_map(system, second_order_config(system)).update
    return get_scheme(model, label).step.update


def _same(a, b) -> bool:
    """Equal bits, a nan's sign included."""
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def test_every_registry_weighted_map_is_listed():
    assert len(WEIGHTED) == 13 and "monod/mickens" in WEIGHTED
    for name in WEIGHTED:
        code = get_scheme(*name.split("/")).step.update.advance.__code__
        assert code.co_filename == "<nsfd.schemes float loop, kernel=weighted>", name


@pytest.mark.parametrize("h", TABLE2_H_FULL)
@pytest.mark.parametrize("name", WEIGHTED + list(USER_RATES))
def test_fold_is_the_reference_at_the_table2_steps(name, h):
    # from Table 2's start over its horizon, or over a block edge and a bit
    # at the smallest steps
    step, reference = _map_and_reference(name)
    n = min(round(1.0 / h), FOLD_BLOCK_FLOATS + 904)
    traj = integrate(step, 0.5, h, n * h)
    assert traj.states.tobytes() == reference_states(reference, 0.5, h, n).tobytes()


#: (name, y, h) where the kernel takes its series, where it saturates at
#: ARG_FLOOR, and where float arithmetic overflows and the step reruns
SERIES, FLOOR, RERUN = ("logistic/snsfd1", 1.0, 1e-300), ("logistic/snsfd1", 1e100, 100.0), \
    ("powerlaw/nsfd", 1e300, 0.1)


def test_examples_reach_the_kernel_branches_and_the_rerun():
    spec = get_scheme("logistic", "snsfd1").spec
    assert abs(SERIES[2] * spec(SERIES[1])) < SERIES_CUTOFF
    assert FLOOR[2] * spec(FLOOR[1]) < ARG_FLOOR
    with pytest.raises(OverflowError):
        get_problem("powerlaw").f(RERUN[1])


STATES = st.one_of(
    st.sampled_from([0.0, 1.0, 1e100, 1e300, math.nan]),
    st.floats(5e-324, 2.2250738585072009e-308),  # subnormals
)


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(WEIGHTED + list(USER_RATES)), y=STATES, h=st.floats(1e-300, 100.0))
@example(*SERIES)
@example(*FLOOR)
@example(*RERUN)
def test_one_step_is_the_reference(name, y, h):
    # update's float path and one step of the block loop, bit for bit, on
    # the edges of the state range and of the step range (np.power in the
    # power-law model warns on a float it overflows for)
    step, reference = _map_and_reference(name)
    stored: list = []
    with np.errstate(all="ignore"):
        want = reference(y, h)
        got = step.update(y, h)
        last = step.update.advance(y, h, 1, stored.append)
    assert type(got) is float and _same(got, want)
    assert _same(last, want) and _same(stored[0], want)


class TestGeneratedLoop:
    """The generated float loops: one per kernel kind, under file names of
    the package, running in its module."""

    @pytest.mark.parametrize("names, filename", [
        (("logistic/snsfd1", "cubic/nsfd"), "<nsfd.schemes float loop, kernel=weighted>"),
        (("logistic/wood", "sine/mickens"), "<nsfd.schemes float loop, kernel=call>"),
        (("lv/nsfd2", "sirs/nsfd2"), "<nsfd.schemes tuple loop, kernel=call>"),
    ])
    def test_one_compiled_loop_per_kind(self, names, filename):
        # two maps of one kind share the code of update and of its block loop
        first, second = (_update(name) for name in names)
        assert first.__code__.co_filename == filename and first is not second
        assert first.__code__ is second.__code__
        assert first.advance.__code__ is second.advance.__code__

    def test_tracebacks_name_the_generated_lines(self):
        problem, b = get_problem("logistic"), get_scheme("logistic", "snsfd1")

        def f_minus(y):
            raise KeyError("in f_minus")

        step = nsfd_step_map(problem, replace(b.rep, f_minus=f_minus), b.config, b.spec)
        for run in (lambda: step.update(0.5, 0.1), lambda: integrate(step, 0.5, 0.1, 1.0)):
            with pytest.raises(KeyError) as info:
                run()
            frame = info.traceback[-2]
            assert str(frame.path) == "<nsfd.schemes float loop, kernel=weighted>"
            assert "fm = float(f_minus(x))" in str(frame.statement)
            assert frame.frame.f_globals["__name__"] == "nsfd.schemes"

    def test_warnings_in_the_loop_are_the_packages(self):
        # numpy-scalar weights overflow in the template's update itself: the
        # RuntimeWarning is the package's for a filter on "nsfd"
        problem, b = get_problem("logistic"), get_scheme("logistic", "snsfd1")
        config = SchemeConfig(alpha=np.float64(-0.25), beta=np.float64(1.25))
        step = nsfd_step_map(problem, b.rep, config, constant_rate(1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            warnings.filterwarnings("error", category=RuntimeWarning, module="nsfd")
            for run in (lambda: step.update(1e300, 0.1), lambda: integrate(step, 1e300, 0.1, 1.0)):
                with pytest.raises(RuntimeWarning, match="overflow") as info:
                    run()
                assert str(info.traceback[-1].path) == "<nsfd.schemes float loop, kernel=weighted>"


#: a fold of a weighted scalar map and of lv's order-2 map, the states'
#: bytes in hex, one line each; run in this process and in a bytecode-only
#: copy of the package
FOLDS = textwrap.dedent("""\
    import nsfd
    from nsfd.problems import get_scheme, problem_names, scheme_bundles
    from nsfd.schemes import integrate
    from nsfd.systems import DEFAULT_STARTS, get_system, second_order_config, system_step_map
    for name in problem_names():
        scheme_bundles(name)
    lv, sirs = (system_step_map(s, second_order_config(s)) for s in map(get_system, ("lv", "sirs")))
    print(nsfd.__file__)
    print(integrate(get_scheme("logistic", "snsfd1").step, 0.5, 0.01, 10.0).states.tobytes().hex())
    print(integrate(lv, DEFAULT_STARTS["lv"], 0.01, 10.0).states.tobytes().hex())
""")


def test_a_bytecode_only_install_builds_and_runs_every_map(tmp_path):
    # the package as a frozen application ships it: legacy .pyc files next
    # to no source, so the loops must be built from the templates alone
    package = tmp_path / "nsfd"
    shutil.copytree(Path(nsfd.__file__).parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    assert compileall.compile_dir(package, legacy=True, quiet=1)
    for source in package.glob("*.py"):
        source.unlink()
    env = {**os.environ, "PYTHONPATH": str(tmp_path)}
    out = subprocess.run([sys.executable, "-c", FOLDS], env=env, cwd=tmp_path,
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out[0] == str(package / "__init__.pyc")
    logistic = integrate(get_scheme("logistic", "snsfd1").step, 0.5, 0.01, 10.0)
    system = get_system("lv")
    lv = integrate(system_step_map(system, second_order_config(system)), DEFAULT_STARTS["lv"],
                   0.01, 10.0)
    assert out[1:] == [logistic.states.tobytes().hex(), lv.states.tobytes().hex()]
