"""Completeness checks for the unified experiment registry.

Every capability the CLI, sweep engine, and fault campaigns consume is
derived from :mod:`repro.registry`; these tests pin down the catalog's
shape so a missing registration fails loudly instead of silently
dropping an experiment from a verb.
"""

import pytest

from repro import registry

#: The nine paper experiments plus adaptive-clocking and the generative
#: verification campaign, in `repro list` order — extend this when a new
#: experiment module registers a spec.
RUNNABLE = [
    "fig3", "fig6", "crossbar-qor", "hls-qor", "gals",
    "adaptive-clocking", "stalls", "li-latency", "backend",
    "productivity", "verify",
]
HIDDEN = ["packet_stream", "deadlock_demo", "fault_campaign"]


def test_catalog_lists_every_experiment_in_order():
    assert registry.names(runnable=True) == RUNNABLE


def test_hidden_specs_registered_but_not_runnable():
    all_names = registry.names(hidden=True)
    for name in HIDDEN:
        assert name in all_names
        assert not registry.get(name).runnable
    assert not set(HIDDEN) & set(registry.names())


@pytest.mark.parametrize("name", RUNNABLE)
def test_runnable_spec_is_complete(name):
    spec = registry.get(name)
    assert callable(spec.runner)
    assert callable(spec.formatter)
    assert spec.summary
    assert spec.schema and spec.schema_version >= 1
    # Runner and formatter compose for every runnable spec: that is the
    # contract `repro run` and the legacy verbs rely on.  (Execution is
    # covered by the CLI parity suite; here we only require presence.)
    caps = spec.capabilities()
    assert set(caps) == {"design", "sweep", "replay", "harness",
                        "compiled", "seedable", "schema"}


def test_specs_sorted_by_order_then_name():
    orders = [(s.order, s.name) for s in registry.specs(hidden=True)]
    assert orders == sorted(orders)


def test_every_sweep_has_a_resolvable_owner():
    for sweep_name in registry.sweep_specs_view():
        owner = next((s for s in registry.specs(hidden=True)
                      if s.sweep is not None and s.sweep.name == sweep_name),
                     None)
        assert owner is not None
        assert owner.sweep is not None
        assert owner.sweep.name == sweep_name
        assert registry.get_sweep(sweep_name) is owner.sweep


def test_every_harness_resolves_by_name():
    for harness_name, harness in registry.harnesses_view().items():
        assert registry.get_harness(harness_name) is harness
        assert harness.name == harness_name


def test_design_capability_matches_view():
    for name in registry.names(runnable=True):
        spec = registry.get(name)
        assert spec.capabilities()["design"] is (spec.design is not None)
        if spec.design is None:
            with pytest.raises(ValueError, match="analytic"):
                registry.build_design(name)


def test_unknown_lookups_preserve_legacy_messages():
    with pytest.raises(KeyError, match="unknown experiment 'nope'"):
        registry.build_design("nope")
    with pytest.raises(KeyError, match="unknown sweep experiment 'nope'"):
        registry.get_sweep("nope")
    with pytest.raises(KeyError, match="unknown fault-campaign harness"):
        registry.get_harness("nope")


def test_declared_compiled_eligibility():
    compiled = {n for n in RUNNABLE if registry.get(n).compiled}
    assert compiled == {"fig3", "fig6", "stalls", "li-latency"}


def test_declared_seedability():
    seedable = {n for n in RUNNABLE if registry.get(n).seedable}
    assert seedable == {"fig3", "adaptive-clocking", "stalls",
                        "li-latency", "verify"}


# ----------------------------------------------------------------------
# enumerations and late registration
# ----------------------------------------------------------------------
def test_harnesses_alias_matches_registry_order():
    # Attach order fixes the default campaign matrix and every seeded
    # campaign record.
    harnesses = registry.harnesses_view()
    assert list(harnesses) == ["stall_verification", "fig3_crossbar",
                               "gals_overhead", "packet_stream",
                               "deadlock_demo"]
    for name, harness in harnesses.items():
        assert registry.get_harness(name) is harness


def test_views_reflect_later_registrations():
    name = "registry_view_probe"
    assert name not in registry.sweep_specs_view()
    sweep = registry.SweepSpec(name=name, help="probe",
                               space=lambda **kw: [], runner=lambda p: {})
    registry.register_sweep(sweep)
    try:
        assert registry.sweep_specs_view()[name] is sweep
        assert registry.get(name).hidden
    finally:
        registry._SPECS.pop(name, None)
        registry._SWEEP_INDEX.pop(name, None)
    assert name not in registry.sweep_specs_view()


def test_attach_harness_rejects_unknown_experiment():
    before = registry.harnesses_view()
    harness = registry.get_harness("packet_stream")
    with pytest.raises(KeyError, match="unknown experiment 'nope'"):
        registry.attach_harness("nope", harness)
    assert "nope" not in registry._SPECS
    assert registry.harnesses_view() == before


def test_cross_spec_sweep_name_collision_rejected():
    taken = registry.get("fig3").sweep.name
    clash = registry.ExperimentSpec(
        name="collision_probe", summary="probe",
        sweep=registry.SweepSpec(name=taken, help="clash",
                                 space=lambda **kw: [],
                                 runner=lambda p: {}))
    with pytest.raises(ValueError, match="already registered"):
        registry.register(clash)
    assert "collision_probe" not in registry._SPECS


# ----------------------------------------------------------------------
# faults CLI choices == registered harness names
# ----------------------------------------------------------------------
def test_faults_cli_choices_derive_from_registry():
    from repro.cli import _build_parser

    parser = _build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, type(parser._subparsers._group_actions[0])))
    faults = sub.choices["faults"]
    choice_action = next(a for a in faults._actions
                         if a.dest == "experiment")
    assert tuple(choice_action.choices) == (
        tuple(registry.harnesses_view()) + ("all",))


def test_sweep_cli_choices_derive_from_registry():
    from repro.cli import _build_parser

    parser = _build_parser()
    sweep = parser._subparsers._group_actions[0].choices["sweep"]
    choice_action = next(a for a in sweep._actions
                         if a.dest == "experiment")
    assert sorted(choice_action.choices) == sorted(
        registry.sweep_specs_view())
