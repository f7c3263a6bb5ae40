"""Tests for the multi-error burst model and the symbolic-vs-bit-flip parity
study (`repro.faults` burst/bitflip, `repro.concrete.parity`,
`repro.results` parity report).

Covers: burst enumeration invariants and component-order preservation
through every carrier (pickle, broker manifest, results store — a
hypothesis property over component permutations), serial-vs-distributed
identity for a burst campaign, bit-flip read-modify-write semantics through the
shared fault-application path, the parity coverage rules, and the
superset property on factorial (every concrete bit-flip outcome class is
covered by the symbolic campaign).
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concrete import concrete_terminal, run_parity_study
from repro.concrete.parity import (SYMBOLIC_COVERS, UNDECIDED, ParityReport,
                                   ParityRow, ParityTally, covers, verdict)
from repro.constraints import Location
from repro.core import (OutcomeKind, SerialExecutionStrategy,
                        SymbolicCampaign, any_outcome)
from repro.core.campaign import InjectionResult
from repro.core.search import SearchResult, SearchStatistics
from repro.faults import (FAULT_MODELS, BitFlipFault, BitFlipFaultSpec,
                          BurstFault, BurstFaultSpec, FaultSpec, fault_model)
from repro.isa.values import ERR, is_err
from repro.machine import ExecutionConfig
from repro.machine.executor import apply_fault_set
from repro.machine.state import initial_state
from repro.net import CampaignManifest, SocketBroker
from repro.distributed import (DistributedConfig,
                               DistributedExecutionStrategy)
from repro.parallel import CampaignSpec, QuerySpec
from repro.programs import factorial_campaign, load_workload
from repro.results import (RecordingStrategy, SqliteResultStore,
                           campaign_header, format_parity_report)
from repro.results.aggregates import SolutionOutcome


@pytest.fixture(scope="module")
def factorial():
    return load_workload("factorial")


# --------------------------------------------------------------- enumeration

class TestBurstEnumeration:
    def test_every_spec_is_a_burst_of_k_distinct_colocated_components(
            self, factorial):
        specs = fault_model("burst").enumerate(factorial.program,
                                               memory=factorial.data_segment)
        assert specs
        for spec in specs:
            assert isinstance(spec, BurstFaultSpec)
            assert len(spec.components) == 2
            targets = {(c.target.kind, c.target.index)
                       for c in spec.components}
            assert len(targets) == 2  # distinct locations
            for component in spec.components:
                assert component.breakpoint_pc == spec.breakpoint_pc
                assert component.occurrence == spec.occurrence
            assert spec.target == spec.components[0].target

    def test_burst_k_grows_the_combination_size(self, factorial):
        for spec in BurstFault(k=3).enumerate(factorial.program,
                                              memory=factorial.data_segment):
            assert len(spec.components) == 3

    def test_burst_rejects_k_below_two_and_self_composition(self, factorial):
        with pytest.raises(ValueError, match="k >= 2"):
            BurstFault(k=1).enumerate(factorial.program)
        with pytest.raises(ValueError, match="compose itself"):
            BurstFault(base_models=("burst",)).enumerate(factorial.program)
        with pytest.raises(ValueError, match="compose itself"):
            BitFlipFault(base_models=("bitflip",)).enumerate(factorial.program)

    def test_labels_are_unique_across_the_space(self, factorial):
        """Checkpoint journals key on labels: two bursts (or two bit
        positions) at one site must never collide."""
        for name in ("burst", "bitflip"):
            specs = FAULT_MODELS[name].enumerate(
                factorial.program, memory=factorial.data_segment)
            labels = [spec.label() for spec in specs]
            assert len(labels) == len(set(labels))


# ------------------------------------------------- component-order invariance

def _burst_with_components(order):
    components = tuple(
        FaultSpec(breakpoint_pc=4, target=Location.register(r),
                  model="register") for r in order)
    return BurstFaultSpec(breakpoint_pc=4, target=components[0].target,
                          model="burst", components=components)


class TestComponentOrderSurvivesTheCarriers:
    @settings(max_examples=25, deadline=None)
    @given(order=st.permutations([1, 3, 4, 5]))
    def test_pickle_round_trip_preserves_component_order(self, order):
        spec = _burst_with_components(order)
        clone = pickle.loads(pickle.dumps(spec, protocol=4))
        assert clone == spec
        assert [c.target.index for c in clone.components] == list(order)
        assert all(c.value is ERR for c in clone.components)

    @settings(max_examples=10, deadline=None)
    @given(order=st.permutations([1, 3, 5]))
    def test_results_store_round_trip_preserves_order(
            self, order, tmp_path_factory):
        spec = _burst_with_components(order)
        path = str(tmp_path_factory.mktemp("store") / "results.sqlite")
        with SqliteResultStore(path) as store:
            campaign_id = store.begin_campaign({"id": "order-test"})
            store.append(campaign_id, 0, InjectionResult(injection=spec,
                                                         activated=False), [])
        with SqliteResultStore(path) as store:
            # Resume keys stored rows by (position, label).
            assert store.prune(campaign_id, [spec.label()]) == {0}
            result = store.get(campaign_id, 0)
        assert result.injection == spec
        assert [c.target.index
                for c in result.injection.components] == list(order)

    def test_broker_manifest_round_trip_preserves_order(self, factorial,
                                                        server):
        campaign = SymbolicCampaign(factorial.program,
                                    fault_model=FAULT_MODELS["burst"])
        chunk = tuple(campaign.plan_injections(sample=4, seed=7))
        assert any(len(spec.components) == 2 for spec in chunk)
        with SocketBroker(server.url) as broker, \
                SocketBroker(server.url) as consumer:
            broker.reset()
            broker.publish_manifest(CampaignManifest(
                campaign_spec=CampaignSpec.from_campaign(campaign),
                query_spec=QuerySpec.predefined("err-output"),
                campaign_id="burst-rt"))
            broker.put_task(0, chunk)
            manifest = consumer.load_manifest(timeout=5)
            claim = consumer.claim_next()
        assert manifest.campaign_spec.fault_model == FAULT_MODELS["burst"]
        assert claim.payload == chunk
        for sent, got in zip(chunk, claim.payload):
            assert [c.target.index for c in got.components] \
                == [c.target.index for c in sent.components]

    def test_campaign_header_pins_burst_k(self):
        """Resuming a k=2 campaign under k=3 must be refused: k rides the
        semantics digest."""
        k2, query = factorial_campaign(fault_model="burst")
        k3, _ = factorial_campaign(fault_model=BurstFault(k=3))
        assert campaign_header(k2, query)["semantics_digest"] \
            != campaign_header(k3, query)["semantics_digest"]

    def test_header_pins_the_dedup_knob(self):
        """--no-dedup changes what a search returns, so it is part of the
        campaign identity (search_caps)."""
        on, query = factorial_campaign(fault_model="register")
        off, _ = factorial_campaign(fault_model="register",
                                    deduplicate_states=False)
        assert campaign_header(on, query)["search_caps"] \
            != campaign_header(off, query)["search_caps"]


# ----------------------------------------------------- application semantics

class TestFaultSetApplication:
    def test_burst_writes_every_component_through_the_cow_path(self):
        state = initial_state()
        state.write_register(3, 7)
        apply_fault_set(state, (_burst_with_components([1, 3]),))
        assert is_err(state.read_register(1))
        assert is_err(state.read_register(3))

    def test_bitflip_is_a_read_modify_write_xor(self):
        state = initial_state(memory={100: 0b1010})
        state.write_register(2, 5)
        apply_fault_set(state, (
            BitFlipFaultSpec(breakpoint_pc=0, target=Location.register(2),
                             model="bitflip", bit=1),
            BitFlipFaultSpec(breakpoint_pc=0, target=Location.memory(100),
                             model="bitflip", bit=3),
        ))
        assert state.read_register(2) == 5 ^ 2
        assert state.memory.get(100) == 0b0010

    def test_flipping_an_err_leaves_err(self):
        state = initial_state()
        state.write_register(2, ERR)
        apply_fault_set(state, (BitFlipFaultSpec(
            breakpoint_pc=0, target=Location.register(2),
            model="bitflip", bit=5),))
        assert is_err(state.read_register(2))

    def test_a_concrete_flip_runs_through_the_campaign(self, factorial):
        """Concrete flips and symbolic errs share apply_fault_set inside
        run_injection: a flip of a dead register's high bit activates but
        stays harmless."""
        campaign = SymbolicCampaign(
            factorial.program, input_values=factorial.default_input,
            memory=factorial.data_segment, detectors=factorial.detectors,
            execution_config=ExecutionConfig(max_steps=2000))
        state = concrete_terminal(campaign, BitFlipFaultSpec(
            breakpoint_pc=0, target=Location.register(9), model="bitflip",
            bit=30))
        assert state is not None
        assert state.output_values() == factorial.golden_output()


# ----------------------------------------------------- backend equivalence

class TestBurstBackendEquivalence:
    def test_distributed_run_is_identical_to_serial_for_a_burst_campaign(
            self):
        """Includes the witness constraints in the projection: a burst of
        two errs can leave a purely relational constraint map (e.g.
        ``$(3) <= $(4)``), which must survive the worker->coordinator
        pickle byte-faithfully."""
        campaign, query = factorial_campaign(fault_model="burst",
                                             max_states_per_injection=4000)
        injections = campaign.plan_injections(sample=4, seed=7)
        serial = campaign.run(query, injections=injections)
        distributed = campaign.run(
            query, injections=injections,
            strategy=DistributedExecutionStrategy(
                QuerySpec.predefined("err-output"),
                DistributedConfig(workers=2, chunk_size=2)))

        def projection(result):
            return [(r.injection, r.activated,
                     [(s.state.output_values(), s.depth,
                       s.state.constraints.describe())
                      for s in r.solutions])
                    for r in result.results]

        assert projection(serial) == projection(distributed)


# ------------------------------------------------------------- parity study

class TestParityCoverage:
    def test_err_output_abstracts_any_printed_resolution(self):
        assert covers("correct", frozenset({"err-output"}), True)
        assert covers("incorrect", frozenset({"err-output"}), True)
        assert not covers("crash", frozenset({"err-output"}), True)
        assert not covers("detected", frozenset({"err-output"}), True)

    def test_incomplete_symbolic_search_covers_a_concrete_hang(self):
        assert covers("hang", frozenset(), False)
        assert not covers("hang", frozenset(), True)
        assert covers("hang", frozenset({"hang"}), True)

    def test_every_concrete_kind_has_a_coverage_rule(self):
        assert set(SYMBOLIC_COVERS) == {kind.value for kind in OutcomeKind}

    def test_factorial_symbolic_campaign_covers_every_bit_flip_class(
            self, factorial):
        """The acceptance property (paper Section 6.3): on factorial, the
        one symbolic err campaign covers every outcome class any concrete
        single-bit flip produces, at every register injection point."""
        specs = fault_model("register").enumerate(
            factorial.program, memory=factorial.data_segment)
        report = run_parity_study(
            factorial.program, specs, factorial.golden_output(),
            input_values=factorial.default_input,
            memory=factorial.data_segment,
            detectors=factorial.detectors, max_steps=2000)
        assert report.rows
        assert report.all_covered, report.format_table()
        assert "all concrete outcome classes covered" in report.summary()
        kinds = set().union(*(row.concrete_kinds for row in report.rows))
        assert "hang" in kinds  # the study exercises the hard case

    def test_burst_specs_contribute_their_component_points(self, factorial):
        bursts = fault_model("burst").enumerate(
            factorial.program, memory=factorial.data_segment)[:1]
        report = run_parity_study(
            factorial.program, bursts, factorial.golden_output(),
            input_values=factorial.default_input,
            memory=factorial.data_segment,
            detectors=factorial.detectors, max_steps=2000)
        assert len(report.rows) == len(bursts[0].components)


# ---------------------------------------------------------- parity verdicts

def _row(pc, uncovered, complete):
    return ParityRow(breakpoint_pc=pc, occurrence=1, target="$(3)",
                     symbolic_kinds=frozenset(), symbolic_complete=complete,
                     concrete_kinds=frozenset(uncovered), flips=32,
                     uncovered=tuple(uncovered))


class TestParityVerdicts:
    def test_a_point_with_nothing_missing_is_covered(self):
        assert verdict((), True) == "covered"
        assert verdict((), False) == "covered"

    def test_an_incomplete_search_that_misses_a_class_is_undecided(self):
        assert UNDECIDED == "undecided (search budget)"
        assert verdict(("correct", "crash"), False) == \
            "undecided (search budget): correct,crash"

    def test_a_complete_search_that_misses_a_class_is_uncovered(self):
        assert verdict(("crash",), True) == "UNCOVERED: crash"

    def test_the_summary_counts_every_verdict(self):
        tally = ParityTally()
        tally.add((), True)
        tally.add(("crash",), False)
        tally.add(("incorrect",), True)
        assert (tally.covered, tally.undecided, tally.uncovered) == (1, 1, 1)
        assert tally.summary(skipped=2) == (
            "parity: symbolic covers 1/3 injection points (2 never "
            "activated) — 1 undecided (search budget), 1 UNCOVERED: "
            "incorrect")

    def test_all_covered_needs_every_point_covered(self):
        tally = ParityTally()
        tally.add((), True)
        tally.add((), False)
        assert tally.summary().endswith(
            " — all concrete outcome classes covered")
        tally.add(("crash",), False)
        summary = tally.summary()
        assert "all concrete outcome classes covered" not in summary
        assert summary.endswith(
            " — 1 undecided (search budget), 0 UNCOVERED")

    def test_nothing_compared_is_not_a_pass(self):
        assert ParityTally().summary() == (
            "parity: no register or memory injection point compared")
        assert ParityTally().summary(skipped=3) == (
            "parity: no register or memory injection point compared "
            "(3 never activated)")

    @pytest.mark.parametrize("model", ["control", "fetch", "memory"])
    def test_a_study_without_register_or_memory_points_says_so(
            self, factorial, model):
        """Control and fetch faults corrupt no register or memory word, and
        factorial has no data segment for memory faults to hit."""
        specs = fault_model(model).enumerate(
            factorial.program, memory=factorial.data_segment)
        report = run_parity_study(
            factorial.program, specs, factorial.golden_output(),
            input_values=factorial.default_input,
            memory=factorial.data_segment,
            detectors=factorial.detectors, max_steps=2000)
        assert not report.rows
        summary = report.summary()
        assert summary == ("parity: no register or memory injection point "
                           "compared")
        assert "covered" not in summary
        assert report.format_table().splitlines()[-1] == summary

    def test_the_study_table_prints_each_verdict(self):
        report = ParityReport(rows=[_row(1, (), True),
                                    _row(2, ("crash",), False),
                                    _row(3, ("crash",), True)])
        lines = report.format_table().splitlines()
        assert lines[2].endswith(" covered")
        assert lines[3].endswith(" undecided (search budget): crash")
        assert lines[4].endswith(" UNCOVERED: crash")
        assert lines[5] == report.summary() == (
            "parity: symbolic covers 1/3 injection points — 1 undecided "
            "(search budget), 1 UNCOVERED: crash")
        assert not report.all_covered

    def test_a_budget_starved_study_is_never_uncovered(self, factorial):
        """Every register point of factorial under a 5-state budget: the
        searches stop early, so no miss may be reported as a refutation."""
        specs = fault_model("register").enumerate(
            factorial.program, memory=factorial.data_segment)
        report = run_parity_study(
            factorial.program, specs, factorial.golden_output(),
            input_values=factorial.default_input,
            memory=factorial.data_segment,
            detectors=factorial.detectors, max_states=5, max_steps=2000)
        incomplete = [row for row in report.rows
                      if not row.symbolic_complete]
        assert any(row.uncovered for row in incomplete)
        for row in incomplete:
            assert not verdict(row.uncovered, False).startswith("UNCOVERED")
        assert "UNCOVERED:" not in report.format_table()

    def test_the_warehouse_report_shares_the_verdicts(self):
        """A complete symbolic point that misses a class is UNCOVERED, an
        incomplete one undecided, and a point no symbolic campaign ran
        counts as complete with no outcomes."""
        store = SqliteResultStore(":memory:", batch_size=1)

        def record(model, points):
            campaign_id = store.begin_campaign(
                {"program": "p", "fault_model": model})
            for seq, (pc, kinds, complete) in enumerate(points):
                spec = FaultSpec(breakpoint_pc=pc,
                                 target=Location.register(2), model=model)
                search = SearchResult([], SearchStatistics(), complete,
                                      "exhausted" if complete else "budget")
                store.append(campaign_id, seq,
                             InjectionResult(injection=spec, activated=True,
                                             search=search),
                             [SolutionOutcome(kind=k) for k in kinds])
            store.flush()

        record("register", [(1, ("crash",), True), (2, ("crash",), True),
                            (3, (), False)])
        record("bitflip", [(1, ("crash",), True), (2, ("hang",), True),
                           (3, ("incorrect",), True),
                           (4, ("correct",), True)])
        lines = format_parity_report(store).splitlines()
        assert lines[1].endswith(" covered")
        assert lines[2].endswith(" UNCOVERED: hang")
        assert lines[3].endswith(" undecided (search budget): incorrect")
        assert lines[4].endswith(" UNCOVERED: correct")
        assert lines[5] == (
            "  parity: symbolic covers 1/4 injection points — 1 undecided "
            "(search budget), 2 UNCOVERED: correct, hang")


# ------------------------------------------------------- warehouse parity

class TestWarehouseParityReport:
    def test_report_joins_symbolic_and_bitflip_campaigns(self, factorial):
        """The `repro report --parity` flow: one symbolic census campaign
        (dedup off so hangs reach the watchdog) and one bit-flip campaign
        into the same store; the report joins them per injection point."""
        store = SqliteResultStore(":memory:", batch_size=4)
        golden = factorial.golden_output()
        for model, sample, dedup in (("register", None, False),
                                     ("bitflip", 64, True)):
            campaign, _ = factorial_campaign(
                fault_model=model, max_solutions_per_injection=10_000,
                max_states_per_injection=50_000, deduplicate_states=dedup,
                execution_config=ExecutionConfig(max_steps=2000))
            recording = RecordingStrategy(
                SerialExecutionStrategy(), store,
                meta={"program": "factorial", "fault_model": model},
                golden_output=golden)
            campaign.run(any_outcome(),
                         injections=campaign.plan_injections(sample=sample,
                                                             seed=7),
                         strategy=recording)
        text = format_parity_report(store)
        assert "factorial" in text
        assert "all concrete outcome classes covered" in text

    def test_outcome_kinds_by_point_unions_rows_at_one_point(self):
        """Two bit positions at one (pc, target) point fold into one row
        whose kinds set is the union."""
        store = SqliteResultStore(":memory:", batch_size=1)
        campaign_id = store.begin_campaign({"program": "p"})
        for seq, (bit, kind) in enumerate(((0, "hang"), (1, "incorrect"))):
            spec = BitFlipFaultSpec(breakpoint_pc=1,
                                    target=Location.register(2),
                                    model="bitflip", bit=bit)
            store.append(campaign_id, seq,
                         InjectionResult(injection=spec, activated=True),
                         [SolutionOutcome(kind=kind)])
        store.flush()
        (point, (kinds, completed)), = \
            store.outcome_kinds_by_point(campaign_id).items()
        assert point == (1, repr(Location.register(2)))
        assert kinds == {"hang", "incorrect"}
        assert completed is True

    def test_non_activated_rows_do_not_create_points(self):
        store = SqliteResultStore(":memory:", batch_size=1)
        campaign_id = store.begin_campaign({})
        spec = BitFlipFaultSpec(breakpoint_pc=9,
                                target=Location.register(1),
                                model="bitflip", bit=0)
        store.append(campaign_id, 0,
                     InjectionResult(injection=spec, activated=False), [])
        store.flush()
        assert store.outcome_kinds_by_point(campaign_id) == {}
