"""Print/parse round-trip tests for all six ISA syntax modules."""

import pytest

from repro.asm import Instruction, IsaError, Op, get_isa, list_isas
from repro.core.errors import ReproError

#: representative instruction set per ISA, as surface syntax lines.
ROUNDTRIP_LINES = {
    "aarch64": [
        "nop",
        "ret",
        "mov w12, #1",
        "mov w12, w13",
        "adrp x8, got_x",
        "adrp x8, stack_P0+8",
        "add w12, w13, #4",
        "orr w12, w13, w14",
        "eor w12, w13, #1",
        "lsr w12, w13, #31",
        "cmp w12, #0",
        "cmp w12, w13",
        "b.eq .L0",
        "b.ne .L0",
        "cbz w12, .L1",
        "cbnz w12, .L1",
        "b .L2",
        "dmb ish",
        "dmb ishld",
        "dmb ishst",
        "isb",
        "ldr w12, [x8]",
        "ldr w12, [x8, #4]",
        "ldar w12, [x8]",
        "ldapr w12, [x8]",
        "str w12, [x8]",
        "stlr w12, [x8]",
        "ldxr w12, [x8]",
        "ldaxr w12, [x8]",
        "stxr w13, w12, [x8]",
        "stlxr w13, w12, [x8]",
        "ldp x12, x13, [x8]",
        "stp x12, x13, [x8]",
        "ldxp x12, x13, [x8]",
        "ldaxp x12, x13, [x8]",
        "stxp w14, x12, x13, [x8]",
        "stlxp w14, x12, x13, [x8]",
        "ldadd w12, w13, [x8]",
        "ldadda w12, w13, [x8]",
        "ldaddal w12, w13, [x8]",
        "ldeor w12, w13, [x8]",
        "ldset w12, w13, [x8]",
        "swp w12, w13, [x8]",
        "swpal w12, w13, [x8]",
        "stadd w12, [x8]",
        "staddl w12, [x8]",
        ".Llabel:",
    ],
    "armv7": [
        "nop",
        "bx lr",
        "mov r4, #2",
        "mov r4, r5",
        "ldr r4, =x",
        "add r4, r5, #1",
        "cmp r4, #0",
        "beq .L0",
        "bne .L0",
        "b .L1",
        "dmb ish",
        "isb",
        "ldr r4, [r10]",
        "ldr r4, [r10, #4]",
        "str r4, [r10]",
        "ldrex r4, [r10]",
        "strex r5, r4, [r10]",
    ],
    "x86_64": [
        "nop",
        "ret",
        "mov eax, 3",
        "mov eax, ecx",
        "lea r8, [rip+x]",
        "add eax, 1",
        "xor eax, ecx",
        "cmp eax, 0",
        "je .L0",
        "jne .L0",
        "jmp .L1",
        "mfence",
        "mov eax, dword ptr [r8]",
        "mov rax, qword ptr [r8]",
        "mov dword ptr [r8], eax",
        "mov dword ptr [r8], 1",
        "mov dword ptr [r8+4], eax",
        "xchg eax, dword ptr [r8]",
        "lock xadd dword ptr [r8], eax",
        "lock or dword ptr [r8], eax",
        "lock and dword ptr [r8], 7",
    ],
    "riscv64": [
        "nop",
        "ret",
        "li a5, 1",
        "la a0, x",
        "mv a5, a6",
        "addi a5, a6, 4",
        "and a5, a6, a7",
        "beq a5, a6, .L0",
        "bne a5, zero, .L0",
        "beqz a5, .L1",
        "bnez a5, .L1",
        "j .L2",
        "fence rw,rw",
        "fence r,rw",
        "fence rw,w",
        "lw a5, 0(a0)",
        "ld a5, 8(a0)",
        "sw a5, 0(a0)",
        "amoadd.w a5, a4, (a0)",
        "amoadd.w.aqrl a5, a4, (a0)",
        "amoswap.w.aq a5, a4, (a0)",
        "lr.w a5, (a0)",
        "lr.w.aq a5, (a0)",
        "sc.w a6, a5, (a0)",
        "sc.w.rl a6, a5, (a0)",
    ],
    "ppc64": [
        "nop",
        "blr",
        "li r14, 1",
        "la r9, x",
        "mr r14, r15",
        "addi r14, r15, 4",
        "cmpwi r14, 0",
        "cmpw r14, r15",
        "beq .L0",
        "bne .L0",
        "b .L1",
        "sync",
        "lwsync",
        "isync",
        "lwz r14, 0(r9)",
        "ld r14, 0(r9)",
        "stw r14, 0(r9)",
        "lwarx r14, 0, r9",
        "stwcx. r14, 0, r9",
    ],
    "mips64": [
        "nop",
        "jr $ra",
        "li $2, 1",
        "la $4, x",
        "move $2, $3",
        "addiu $2, $3, 4",
        "beq $2, $3, .L0",
        "bne $2, $zero, .L0",
        "beqz $2, .L1",
        "bnez $2, .L1",
        "b .L2",
        "sync",
        "lw $2, 0($4)",
        "sw $2, 0($4)",
        "ll $2, 0($4)",
        "sc $2, 0($4)",
    ],
}


class TestRegistry:
    def test_all_isas_registered(self):
        assert list_isas() == sorted(
            ["aarch64", "armv7", "x86_64", "riscv64", "ppc64", "mips64"]
        )

    def test_unknown_isa_raises(self):
        with pytest.raises(IsaError):
            get_isa("ia64")


@pytest.mark.parametrize("arch", sorted(ROUNDTRIP_LINES))
class TestRoundTrip:
    def test_parse_print_roundtrip(self, arch):
        """parse(line) then print must reproduce the line (modulo case)."""
        isa = get_isa(arch)
        for line in ROUNDTRIP_LINES[arch]:
            instr = isa.parse_line(line)
            printed = isa.print_instruction(instr)
            assert printed.lower() == line.lower(), (
                f"{arch}: {line!r} reprints as {printed!r}"
            )

    def test_reparse_stability(self, arch):
        """print(parse(x)) reparses to an equivalent instruction."""
        isa = get_isa(arch)
        for line in ROUNDTRIP_LINES[arch]:
            first = isa.parse_line(line)
            second = isa.parse_line(isa.print_instruction(first))
            assert first.with_text("") == second.with_text("")


class TestParserDetails:
    def test_aarch64_widths(self):
        isa = get_isa("aarch64")
        assert isa.parse_line("ldr w12, [x8]").width == 32
        assert isa.parse_line("ldr x12, [x8]").width == 64

    def test_aarch64_amo_flags(self):
        isa = get_isa("aarch64")
        amo = isa.parse_line("ldaddal w1, w2, [x8]")
        assert amo.acquire and amo.release and amo.amo_kind == "add"
        st_form = isa.parse_line("stadd w1, [x8]")
        assert st_form.dst is None  # the NORET precondition

    def test_riscv_width_from_mnemonic(self):
        isa = get_isa("riscv64")
        assert isa.parse_line("lw a5, 0(a0)").width == 32
        assert isa.parse_line("ld a5, 0(a0)").width == 64

    def test_mips_sc_success_value(self):
        isa = get_isa("mips64")
        sc = isa.parse_line("sc $2, 0($4)")
        assert sc.imm == 1  # MIPS sc writes 1 on success

    def test_x86_lock_prefix_sets_exclusive(self):
        isa = get_isa("x86_64")
        assert isa.parse_line("lock xadd dword ptr [r8], eax").exclusive
        assert isa.parse_line("xchg eax, dword ptr [r8]").exclusive

    def test_unknown_mnemonics_raise(self):
        for arch in ROUNDTRIP_LINES:
            with pytest.raises(IsaError):
                get_isa(arch).parse_line("frobnicate r1, r2")

    @pytest.mark.parametrize("arch, line", [
        ("riscv64", "li a0,"), ("aarch64", "mov w1,"), ("x86_64", "mov eax,"),
        ("ppc64", "lwz r3,"), ("armv7", "ldr r0,"),
    ])
    def test_short_operand_lists_raise_isa_error(self, arch, line):
        with pytest.raises(IsaError, match="bad operands in"):
            get_isa(arch).parse_line(line)

    def test_isa_error_is_a_repro_error(self):
        """So a campaign records a bad lift as an error cell."""
        assert issubclass(IsaError, ReproError)
        assert issubclass(IsaError, ValueError)

    def test_comments_and_blanks_skipped(self):
        isa = get_isa("aarch64")
        instrs = isa.parse_body(["", "// comment", "nop"])
        assert len(instrs) == 1 and instrs[0].op is Op.NOP
