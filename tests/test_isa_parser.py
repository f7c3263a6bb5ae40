"""Tests for the assembler (parser) and the Program container."""

import pytest

from repro.isa.parser import AssemblyError, assemble, parse_instruction
from repro.isa.program import Program, ProgramBuilder, ProgramError
from repro.isa.instructions import make


SAMPLE = """
        ori $2 $0 #1        -- product
        read $1             ; read input
loop:   setgt $5 $3 $4      // condition
        beq $5 0 exit
        mult $2 $2 $3
        subi $3 $3 #1
        beq $0 0 loop
exit:   prints "done = "
        print $2
        halt
"""


class TestParseInstruction:
    def test_registers_and_immediates(self):
        instruction = parse_instruction("addi $3 $4 #-7")
        assert instruction.opcode == "addi"
        assert instruction.operands == (3, 4, -7)

    def test_negative_shift_count_is_rejected_with_its_line(self):
        assert parse_instruction("slli $1 $2 #0").operands == (1, 2, 0)
        with pytest.raises(AssemblyError,
                           match="line 3: srli: negative shift count -2"):
            assemble("li $2, 1\nnop\nsrli $1 $2 #-2\nhalt\n")
        for opcode in ("slli", "srli"):
            with pytest.raises(ValueError, match="negative shift count"):
                make(opcode, 1, 2, -1)
        # Other immediates may be negative.
        assert make("addi", 1, 2, -1).operands == (1, 2, -1)

    def test_bare_immediates_allowed(self):
        assert parse_instruction("beq $5 0 exit").operands == (5, 0, "exit")

    def test_commas_are_optional(self):
        assert parse_instruction("mov $3, $1").operands == (3, 1)

    def test_string_literal(self):
        instruction = parse_instruction('prints "Factorial = "')
        assert instruction.operands == ("Factorial = ",)

    def test_string_escapes(self):
        instruction = parse_instruction(r'prints "a\"b\n"')
        assert instruction.operands == ('a"b\n',)

    def test_unknown_opcode(self):
        with pytest.raises(AssemblyError):
            parse_instruction("bogus $1 $2 $3")

    def test_wrong_operand_kind(self):
        with pytest.raises(AssemblyError):
            parse_instruction("add $1 $2 7")

    def test_register_out_of_range(self):
        with pytest.raises(AssemblyError):
            parse_instruction("mov $32 $1")


class TestAssemble:
    def test_assembles_sample(self):
        program = assemble(SAMPLE, name="sample")
        assert len(program) == 10
        assert program.labels == {"loop": 2, "exit": 7}
        assert program.name == "sample"

    def test_comments_stripped(self):
        program = assemble(SAMPLE)
        assert program[0].opcode == "ori"

    def test_line_numbers_in_figure_style_are_ignored(self):
        program = assemble("1 ori $2 $0 #1\n2 halt\n")
        assert len(program) == 2

    def test_unknown_label_target_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("beq $0 0 nowhere\nhalt\n")

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("a: nop\na: halt\n")

    def test_label_on_own_line(self):
        program = assemble("start:\n  nop\n  halt\n")
        assert program.labels["start"] == 0

    def test_trailing_label_attaches_to_end(self):
        program = assemble("  beq $0 0 end\nend:\n")
        assert program.labels["end"] == 1

    def test_render_round_trip(self):
        program = assemble(SAMPLE)
        again = assemble(program.render())
        assert [i.render() for i in again] == [i.render() for i in program]
        assert again.labels == program.labels


class TestProgram:
    def test_fetch_and_validity(self):
        program = assemble("nop\nhalt\n")
        assert program.is_valid_address(0)
        assert program.is_valid_address(1)
        assert not program.is_valid_address(2)
        assert not program.is_valid_address(-1)
        assert not program.is_valid_address(True)
        assert program.fetch(0).opcode == "nop"
        assert program.fetch(5) is None

    def test_resolve(self):
        program = assemble("x: nop\nhalt\n")
        assert program.resolve("x") == 0
        with pytest.raises(ProgramError):
            program.resolve("missing")

    def test_label_addresses_sorted_unique(self):
        program = assemble("a: nop\nb: c: nop\nhalt\n")
        assert program.label_addresses() == (0, 1)
        assert program.labels_at(1) == ("b", "c")

    def test_control_transfer_targets_include_fallthrough(self):
        program = assemble("beq $0 0 end\nnop\nend: halt\n")
        targets = program.control_transfer_targets()
        assert 2 in targets      # label
        assert 1 in targets      # fall-through of the branch

    def test_source_line_defaults_to_render(self):
        program = Program(code=(make("nop"),), labels={})
        assert program.source_line(0) == "nop"


class TestProgramBuilder:
    def test_duplicate_pending_label_rejected(self):
        builder = ProgramBuilder()
        builder.label("x")
        with pytest.raises(ProgramError):
            builder.label("x")

    def test_builder_tracks_addresses(self):
        builder = ProgramBuilder()
        assert builder.next_address == 0
        builder.emit(make("nop"))
        assert builder.next_address == 1
        builder.label("end")
        program = builder.build()
        assert program.labels["end"] == 1
