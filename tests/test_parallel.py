"""Tests for the picklable campaign specs (repro.parallel.spec) and the
sweep chunking every multi-process run ships to its workers."""

import pickle

import pytest

from repro.core import (SymbolicCampaign, chunk_injections,
                        decompose_by_chunk, default_chunk_size,
                        output_contains_err, printed_value_other_than)
from repro.constraints import Location
from repro.errors import Injection
from repro.machine import ExecutionConfig
from repro.core.search import SearchResultCache
from repro.parallel import CacheSpec, CampaignSpec, QuerySpec
from repro.programs import factorial_workload


def make_campaign(workload, **kwargs):
    defaults = dict(max_solutions_per_injection=10,
                    max_states_per_injection=10_000)
    defaults.update(kwargs)
    return SymbolicCampaign(
        workload.program,
        input_values=workload.default_input,
        memory=workload.data_segment,
        detectors=workload.detectors,
        execution_config=ExecutionConfig(max_steps=workload.recommended_max_steps),
        **defaults)


class TestChunking:
    def sample(self, count):
        return [Injection(breakpoint_pc=pc, target=Location.register(1))
                for pc in range(count)]

    def test_empty_sweep_yields_no_chunks(self):
        assert chunk_injections([], 4) == []
        assert decompose_by_chunk([], 4) == []

    def test_chunk_larger_than_sweep(self):
        chunks = chunk_injections(self.sample(3), 100)
        assert len(chunks) == 1
        assert len(chunks[0]) == 3

    def test_exact_and_remainder_chunks(self):
        assert [len(c) for c in chunk_injections(self.sample(6), 2)] == [2, 2, 2]
        assert [len(c) for c in chunk_injections(self.sample(7), 3)] == [3, 3, 1]

    def test_chunks_preserve_order(self):
        injections = self.sample(5)
        flattened = [i for chunk in chunk_injections(injections, 2)
                     for i in chunk]
        assert flattened == injections

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            chunk_injections(self.sample(3), 0)

    def test_decompose_by_chunk_identifiers(self):
        tasks = decompose_by_chunk(self.sample(5), 2)
        assert [t.identifier for t in tasks] == [0, 1, 2]
        assert all("chunk" in t.description for t in tasks)

    def test_default_chunk_size_heuristic(self):
        assert default_chunk_size(0, 4) == 1
        assert default_chunk_size(1, 4) == 1
        assert default_chunk_size(100, 4) == 7   # ceil(100 / 16)
        assert default_chunk_size(100, 1) == 25  # ceil(100 / 4)


class TestSpecs:
    def test_query_spec_roundtrip(self):
        spec = QuerySpec.predefined("wrong-final-value", expected_value=120)
        rebuilt = pickle.loads(pickle.dumps(spec))
        assert rebuilt.build().description == spec.build().description

    def test_query_spec_factory(self):
        spec = QuerySpec.from_factory(printed_value_other_than, 120)
        assert pickle.loads(pickle.dumps(spec)).build().description == \
            printed_value_other_than(120).description

    def test_query_spec_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            QuerySpec()
        with pytest.raises(ValueError):
            QuerySpec(kind="crash", factory=output_contains_err)

    def test_cache_spec_builds_a_sized_local_cache(self):
        cache = pickle.loads(pickle.dumps(CacheSpec(max_entries=5))).build()
        assert isinstance(cache, SearchResultCache)
        assert cache.max_entries == 5
        assert CacheSpec().build().max_entries is None

    def test_campaign_spec_roundtrip(self):
        campaign = make_campaign(factorial_workload())
        spec = pickle.loads(pickle.dumps(CampaignSpec.from_campaign(campaign)))
        rebuilt = spec.build()
        assert rebuilt.input_values == campaign.input_values
        assert rebuilt.max_states_per_injection == campaign.max_states_per_injection
        assert len(rebuilt.enumerate_injections()) == \
            len(campaign.enumerate_injections())

    def test_rebuilt_campaign_gives_identical_injection_results(self):
        campaign = make_campaign(factorial_workload())
        rebuilt = CampaignSpec.from_campaign(campaign).build()
        query = output_contains_err()
        injection = campaign.enumerate_injections()[0]
        original = campaign.run_injection(injection, query)
        mirrored = rebuilt.run_injection(injection, query)
        assert original.activated == mirrored.activated
        assert [s.state.output_values() for s in original.solutions] == \
            [s.state.output_values() for s in mirrored.solutions]
