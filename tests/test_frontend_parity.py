"""Cross-ISA frontend parity: every shipped workload, every frontend.

The registry's contract is that retargeting a workload through any built-in
frontend is structurally the identity: same instruction sequence, same label
table (so injection addresses stay meaningful), and therefore the same golden
outputs.  These tests sweep that contract over the whole workload registry
for both ``"mips"`` and ``"rv32im"``.
"""

import pytest

from repro.isa.registry import get_frontend
from repro.lang import compile_source
from repro.programs import WORKLOADS, load_workload

ISAS = ("mips", "rv32im")


@pytest.mark.parametrize("isa", ISAS)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
class TestWorkloadParity:
    def test_retarget_preserves_code_and_labels(self, name, isa):
        native = load_workload(name)
        retargeted = load_workload(name, isa=isa)
        assert retargeted.isa == isa
        assert retargeted.program.code == native.program.code
        assert retargeted.program.labels == native.program.labels

    def test_label_addresses_keep_their_order(self, name, isa):
        native = load_workload(name)
        retargeted = load_workload(name, isa=isa)
        native_order = sorted(native.program.labels,
                              key=lambda label: native.program.labels[label])
        retargeted_order = sorted(
            retargeted.program.labels,
            key=lambda label: retargeted.program.labels[label])
        assert native_order == retargeted_order

    def test_golden_outputs_agree(self, name, isa):
        native = load_workload(name)
        retargeted = load_workload(name, isa=isa)
        assert retargeted.golden_output() == native.golden_output()


class TestEmittedSourcesDiffer:
    """The parity above must not be vacuous: the two frontends really do
    emit different assembly for the same program."""

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_emitted_spellings_are_isa_specific(self, name):
        program = load_workload(name).program
        mips = get_frontend("mips").emit(program)
        riscv = get_frontend("rv32im").emit(program)
        assert mips != riscv
        assert "$" in mips
        assert "$" not in riscv

    @pytest.mark.parametrize("isa", ISAS)
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_emitted_source_retranslates_on_its_own(self, name, isa):
        """emit() output is self-contained assembly for that ISA — feeding
        it back through translate() alone (not retarget) reproduces the
        program, which is what "how to add a frontend" documents."""
        frontend = get_frontend(isa)
        program = load_workload(name).program
        again = frontend.translate(frontend.emit(program), name=program.name)
        assert again.code == program.code
        assert again.labels == program.labels


class TestMinicCompilerIsaTarget:
    SOURCE = """
        int main() {
            int x;
            read(x);
            print(x * 2 + 1);
            return 0;
        }
    """

    @pytest.mark.parametrize("isa", ISAS)
    def test_compile_source_isa_target(self, isa):
        native = compile_source(self.SOURCE)
        targeted = compile_source(self.SOURCE, isa=isa)
        assert targeted.isa == isa
        assert targeted.program.code == native.program.code
        assert targeted.program.labels == native.program.labels
        # function map survives retargeting (1:1 => pcs unchanged)
        assert targeted.function_region("main") == native.function_region("main")

    def test_compile_source_unknown_isa(self):
        with pytest.raises(ValueError, match="unknown ISA frontend"):
            compile_source(self.SOURCE, isa="z80")


@pytest.mark.parametrize("isa", ISAS)
def test_campaign_carries_isa_through_spec_and_header(isa):
    from repro.results import campaign_header
    from repro.parallel.spec import CampaignSpec

    workload = load_workload("factorial", isa=isa)
    campaign, query = workload.campaign(kind="err-output",
                                        fault_model="register")
    assert campaign.isa == isa
    spec = CampaignSpec.from_campaign(campaign)
    assert spec.isa == isa
    assert spec.build().isa == isa
    assert campaign_header(campaign, query)["isa"] == isa
