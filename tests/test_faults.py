"""Tests for the pluggable fault-model subsystem (`repro.faults`).

Covers: the model registry, enumeration/sampling determinism (including a
hypothesis property over seeds), FaultSpec value plumbing through the
executor's fault-application path, pickle and broker-manifest round-trips
across the filesystem and socket brokers, checkpoint-header pinning, and
serial-vs-pool equivalence for model-planned campaigns.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import Location
from repro.core import SymbolicCampaign, latent_err, output_contains_err, printed_value
from repro.distributed import CampaignManifest, FilesystemBroker
from repro.distributed.checkpoint import campaign_header
from repro.faults import (FAULT_MODELS, ControlFlowFault, FaultSpec,
                          MemoryCellFault, RegisterValueFault,
                          deterministic_sample, fault_model)
from repro.isa import assemble
from repro.isa.values import ERR
from repro.net import BrokerServer, SocketBroker
from repro.parallel import (CampaignSpec, ParallelConfig,
                            ParallelExecutionStrategy, QuerySpec)
from repro.programs import factorial_campaign, load_workload


@pytest.fixture(scope="module")
def factorial():
    return load_workload("factorial")


@pytest.fixture(scope="module")
def load_program():
    """A two-cell program that loads cell 1000 and never touches cell 2000."""
    program = assemble("""
        li $1 1000
        ldi $2 $1 0
        print $2
        halt
    """, name="loads")
    return program, {1000: 7, 2000: 9}


# ------------------------------------------------------------------ registry

class TestRegistry:
    def test_the_nine_models_are_registered(self):
        assert sorted(FAULT_MODELS) == ["bitflip", "burst", "control",
                                        "decode", "fetch", "functional-unit",
                                        "memory", "operand", "register"]
        for name, model in FAULT_MODELS.items():
            assert model.name == name

    def test_unknown_model_is_rejected_with_the_available_names(self):
        with pytest.raises(ValueError, match="register"):
            fault_model("timing")

    def test_models_are_picklable(self):
        for model in FAULT_MODELS.values():
            assert pickle.loads(pickle.dumps(model)) == model


# ------------------------------------------------------- enumeration/sampling

class TestEnumerationDeterminism:
    @pytest.mark.parametrize("name", sorted(FAULT_MODELS))
    def test_enumerated_space_is_reproducible(self, name, factorial):
        model = FAULT_MODELS[name]
        first = model.enumerate(factorial.program,
                                memory=factorial.data_segment)
        second = model.enumerate(factorial.program,
                                 memory=factorial.data_segment)
        assert first == second
        assert all(spec.model == name for spec in first)

    def test_memory_model_targets_known_cells_before_each_load(self, load_program):
        program, memory = load_program
        specs = MemoryCellFault().enumerate(program, memory=memory)
        assert {(s.breakpoint_pc, s.target.kind, s.target.index)
                for s in specs} == {(1, Location.MEMORY, 1000),
                                    (1, Location.MEMORY, 2000)}

    def test_memory_model_without_a_data_segment_falls_back_to_the_bus(
            self, load_program):
        program, _ = load_program
        specs = MemoryCellFault().enumerate(program, memory=None)
        assert [(s.breakpoint_pc, s.target.kind) for s in specs] \
            == [(2, Location.REGISTER)]

    def test_control_model_hits_the_branches(self, factorial):
        specs = ControlFlowFault().enumerate(factorial.program)
        assert specs and all(s.target.kind == Location.PC for s in specs)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           k=st.integers(min_value=1, max_value=20))
    def test_sampling_is_deterministic_order_preserving_and_a_subset(
            self, seed, k):
        program = load_workload("factorial").program
        model = FAULT_MODELS["register"]
        space = model.enumerate(program)
        sample = model.sample(program, k, seed=seed)
        assert sample == model.sample(program, k, seed=seed)
        assert len(sample) == min(k, len(space))
        positions = [space.index(spec) for spec in sample]
        assert positions == sorted(positions)  # enumeration order preserved

    def test_sample_default_seed_is_zero_not_nondeterministic(self, factorial):
        model = FAULT_MODELS["register"]
        assert model.sample(factorial.program, 3) \
            == model.sample(factorial.program, 3, seed=0)

    def test_deterministic_sample_rejects_empty_requests(self):
        with pytest.raises(ValueError, match=">= 1"):
            deterministic_sample([], 0)

    @pytest.mark.parametrize("name", sorted(FAULT_MODELS))
    def test_oversized_sample_clamps_to_the_full_space_with_a_warning(
            self, name, factorial):
        """`--sample K` with K beyond the enumerated space used to be a
        hard error from random.sample; it now clamps to the full sweep."""
        model = FAULT_MODELS[name]
        space = model.enumerate(factorial.program,
                                memory=factorial.data_segment)
        with pytest.warns(RuntimeWarning, match="exceeds the enumerated"):
            clamped = model.sample(factorial.program, len(space) + 5,
                                   memory=factorial.data_segment)
        assert clamped == space

    def test_exact_sample_size_sweeps_the_full_space_silently(self, factorial):
        import warnings

        model = FAULT_MODELS["register"]
        space = model.enumerate(factorial.program)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert model.sample(factorial.program, len(space)) == space


# ------------------------------------------------------------ spec semantics

class TestFaultSpec:
    def test_pickle_round_trip_preserves_equality_and_the_err_singleton(self):
        spec = FaultSpec(breakpoint_pc=3, target=Location.register(2),
                         description="x", model="register")
        clone = pickle.loads(pickle.dumps(spec, protocol=4))
        assert clone == spec
        assert clone.value is ERR  # the singleton survives the wire

    def test_label_names_the_model(self):
        spec = FaultSpec(breakpoint_pc=1, target=Location.register(2),
                         model="operand")
        assert spec.label().startswith("[operand] ")

    def test_concrete_value_rides_the_spec_into_the_injected_state(self):
        """run_injection writes the spec's own value, not always ERR."""
        program = assemble("li $1 5\nprint $1\nhalt\n", name="tiny")
        campaign = SymbolicCampaign(program, max_states_per_injection=500)
        spec = FaultSpec(breakpoint_pc=1, target=Location.register(1),
                         value=42, model="register")
        result = campaign.run_injection(spec, printed_value(42))
        assert result.activated and result.found_solutions

    def test_plain_injections_still_inject_err(self):
        from repro.errors import Injection
        program = assemble("li $1 5\nprint $1\nhalt\n", name="tiny")
        campaign = SymbolicCampaign(program, max_states_per_injection=500)
        result = campaign.run_injection(
            Injection(breakpoint_pc=1, target=Location.register(1)),
            output_contains_err())
        assert result.activated and result.found_solutions


# ------------------------------------------------------- campaign integration

class TestCampaignPlanning:
    def test_campaign_plans_from_the_model(self, load_program):
        program, memory = load_program
        campaign = SymbolicCampaign(program, memory=memory,
                                    fault_model=MemoryCellFault(),
                                    max_states_per_injection=2000)
        planned = campaign.plan_injections()
        assert planned == MemoryCellFault().enumerate(program, memory=memory)

    def test_latent_err_query_sees_corruption_that_never_prints(
            self, load_program):
        """Cell 2000 is never loaded: err-output misses it, latent-err
        catches the error still sitting in memory at halt."""
        program, memory = load_program
        campaign = SymbolicCampaign(program, memory=memory,
                                    fault_model=MemoryCellFault(),
                                    max_states_per_injection=2000)
        by_cell = {spec.target.index: campaign.run_injection(spec, latent_err())
                   for spec in campaign.plan_injections()}
        assert by_cell[2000].found_solutions  # latent in memory
        loud = {spec.target.index:
                campaign.run_injection(spec, output_contains_err())
                for spec in campaign.plan_injections()}
        assert loud[1000].found_solutions and not loud[2000].found_solutions

    def test_a_campaign_without_a_model_plans_register_specs(self, factorial):
        campaign = SymbolicCampaign(factorial.program)
        assert campaign.plan_injections() \
            == RegisterValueFault().enumerate(factorial.program)
        sampled = campaign.plan_injections(sample=4, seed=1)
        assert sampled == campaign.plan_injections(sample=4, seed=1)
        assert len(sampled) == 4
        assert all(spec.model == "register" for spec in sampled)

    @pytest.mark.parametrize("name", ["register", "control"])
    def test_pool_run_is_identical_to_serial_for_a_model_campaign(self, name):
        campaign, query = factorial_campaign(fault_model=name,
                                             max_states_per_injection=4000)
        injections = campaign.plan_injections(sample=5, seed=3)
        serial = campaign.run(query, injections=injections)
        query_spec = QuerySpec.predefined("err-output")
        pooled = campaign.run(query, injections=injections,
                              strategy=ParallelExecutionStrategy(
                                  query_spec, ParallelConfig(workers=2,
                                                             chunk_size=2)))
        def projection(result):
            return [(r.injection, r.activated,
                     [(s.state.output_values(), s.depth) for s in r.solutions])
                    for r in result.results]

        assert projection(serial) == projection(pooled)

    def test_checkpoint_header_pins_the_fault_model(self, factorial):
        plain, _ = factorial_campaign()
        modelled, query = factorial_campaign(fault_model="operand")
        assert campaign_header(plain, query)["fault_model"] == "register"
        header = campaign_header(modelled, query)
        assert header["fault_model"] == "operand"
        assert header["semantics_digest"] \
            != campaign_header(plain, query)["semantics_digest"]


# ------------------------------------------------- broker manifest round-trip

class BrokerPair:
    """Two independent broker clients over one queue (publisher/consumer)."""

    def __init__(self, kind, tmp_path):
        self.server = None
        if kind == "filesystem":
            root = str(tmp_path / "queue")
            self.publisher = FilesystemBroker(root)
            self.consumer = FilesystemBroker(root)
        else:
            self.server = BrokerServer().start()
            self.publisher = SocketBroker(self.server.url)
            self.consumer = SocketBroker(self.server.url)

    def close(self):
        if self.server is not None:
            self.publisher.close()
            self.consumer.close()
            self.server.stop()


@pytest.fixture(params=["filesystem", "socket"])
def broker_pair(request, tmp_path):
    pair = BrokerPair(request.param, tmp_path)
    try:
        yield pair
    finally:
        pair.close()


class TestManifestRoundTrip:
    def test_fault_specs_and_model_survive_the_broker_unchanged(
            self, broker_pair, factorial):
        """The distributed/net manifests carry FaultSpecs (in chunk payloads)
        and the planning FaultModel (in the CampaignSpec) byte-faithfully."""
        campaign = SymbolicCampaign(factorial.program,
                                    fault_model=FAULT_MODELS["operand"])
        chunk = tuple(campaign.plan_injections(sample=4, seed=9))
        manifest = CampaignManifest(
            campaign_spec=CampaignSpec.from_campaign(campaign),
            query_spec=QuerySpec.predefined("err-output"),
            campaign_id="faults-rt")
        broker_pair.publisher.reset()
        broker_pair.publisher.publish_manifest(manifest)
        broker_pair.publisher.put_task(0, chunk)

        received = broker_pair.consumer.load_manifest(timeout=5)
        assert received.campaign_spec.fault_model == FAULT_MODELS["operand"]
        rebuilt = received.campaign_spec.build()
        assert rebuilt.fault_model == campaign.fault_model

        claim = broker_pair.consumer.claim_next()
        assert claim.payload == chunk
        assert all(isinstance(spec, FaultSpec) for spec in claim.payload)
        assert all(spec.value is ERR for spec in claim.payload)
        # The consumer re-plans the same space the coordinator planned.
        assert rebuilt.plan_injections(sample=4, seed=9) == list(chunk)
