"""Run specs generated from the config declarations.

The strategy reads each field's annotation and metadata, as `check` does,
and adds the three cross-field rules (3f+1, pool at least the booth, gamma
below the pool) and `sim.seed` 0, so every spec it draws is valid by
construction. A field pushed just past its declared bound must then be
refused by name. No simulation runs.
"""

from __future__ import annotations

import math
from dataclasses import fields, is_dataclass, replace
from typing import get_args, get_type_hints

import pytest
from hypothesis import given, settings, strategies as st

from vguard.errors import ConfigInvalid
from vguard.harness import RunSpec
from vguard.netsim import SimConfig

_SETTINGS = settings(max_examples=40, derandomize=True, deadline=None,
                     database=None)


def declared(cls):
    """(field, resolved annotation) of each field of a config dataclass."""
    hints = get_type_hints(cls)
    return [(f, hints[f.name]) for f in fields(cls)]


def values(hint, meta):
    """Valid values for one field, or None for a schedule, which keeps its
    default."""
    if type(None) in get_args(hint):
        return st.none() | values(get_args(hint)[0], meta)
    if is_dataclass(hint):
        return configs(hint)
    if hint is bool:
        return st.booleans()
    if hint is str:
        return st.text(max_size=8)
    positive, below = meta.get("positive", False), meta.get("below")
    at_most = meta.get("at_most")
    if hint is int:
        return st.integers(min_value=int(positive), max_value=at_most or 2**40)
    if hint is float:
        return st.floats(min_value=0.0, max_value=below or at_most or 1e9,
                         exclude_min=positive, exclude_max=below is not None)
    return None


def configs(cls, **fixed):
    strategies = {f.name: values(hint, f.metadata) for f, hint in declared(cls)}
    strategies = {name: s for name, s in strategies.items() if s is not None}
    return st.builds(cls, **{**strategies, **fixed})


@st.composite
def run_specs(draw):
    booth = 3 * draw(st.integers(1, 4)) + 1
    pool = draw(st.none() | st.integers(booth, booth + 8))
    gamma = draw(st.integers(1, (pool or booth) - 1))
    sim = draw(configs(SimConfig, seed=st.just(0)))
    return draw(configs(RunSpec, booth_size=st.just(booth), pool=st.just(pool),
                        gamma=st.just(gamma), sim=st.just(sim)))


def leaves(cls, prefix=""):
    """(dotted path, annotation, metadata) of each number, bool and str
    setting of a config and of the configs nested in it."""
    for f, hint in declared(cls):
        if is_dataclass(hint):
            yield from leaves(hint, f"{prefix}{f.name}.")
        elif {hint, *get_args(hint)} & {int, float, bool, str}:
            yield f"{prefix}{f.name}", hint, f.metadata


LEAVES = list(leaves(RunSpec))


def bad_values(hint, meta) -> list:
    """Values just past the field's declaration: the wrong type, and for a
    number a negative, NaN, zero where it must be positive, one where it
    must stay below one, and the next value above its bound where it may
    reach the bound."""
    kind = next(t for t in (int, float, bool, str) if t in {hint, *get_args(hint)})
    if kind is bool:
        return [1, "no"]
    if kind is str:
        return [5]
    out = ["1", True, -1]
    if kind is float:
        out += [-0.5, math.nan]
    else:
        out += [1.5]
    if meta.get("positive"):
        out.append(0)
    if "below" in meta:
        out.append(meta["below"])
    if "at_most" in meta:
        bound = meta["at_most"]
        out.append(math.nextafter(bound, math.inf) if kind is float
                   else bound + 1)
    return out


def with_leaf(config, path: str, value):
    head, _, rest = path.partition(".")
    return replace(config, **{head: with_leaf(getattr(config, head), rest, value)
                              if rest else value})


@_SETTINGS
@given(run_specs())
def test_every_generated_spec_validates(spec):
    assert spec.validate() is spec


@_SETTINGS
@given(run_specs())
def test_a_field_past_its_bound_is_refused_by_its_dotted_path(spec):
    for path, hint, meta in LEAVES:
        for bad in bad_values(hint, meta):
            with pytest.raises(ConfigInvalid) as caught:
                with_leaf(spec, path, bad).validate()
            assert str(caught.value).startswith(f"{path} must "), (path, bad)
