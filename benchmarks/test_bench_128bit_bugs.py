"""§IV-C — the three 128-bit atomics bugs [36][37][39].

Paper claims:

* [37]: a 128-bit seq_cst load implemented as a bare LDP (Armv8.4) can
  reorder before a prior RMW's store;
* [39]: 128-bit atomic stores write their register pair wrong-endian,
  observable as a 2^64-swapped value;
* [36]: 128-bit *const* atomic loads crash at run time, because the
  pre-v8.4 lowering is an exclusive store-pair loop that writes to
  read-only memory (and no lock-free v8.0 fix exists).
"""

from benchmarks._report import banner, row

from repro.compiler import make_profile
from repro.lang.parser import parse_c_litmus
from repro.papertests import atomics_128
from repro.pipeline import run_test_tv

STP_ENDIAN = """
C stp_endian
{ *x = 0; }
void P0(atomic_int128* x) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
}
void P1(atomic_int128* x) {
  __int128 r0 = atomic_load_explicit(x, memory_order_relaxed);
}
exists (P1:r0=1)
"""

CONST_LOAD = """
C const_load
{ const *c = 5; }
void P0(atomic_int128* c) {
  __int128 r0 = atomic_load_explicit(c, memory_order_seq_cst);
}
exists (P0:r0=5)
"""


def test_bench_128bit_bugs(benchmark):
    banner("§IV-C: the 128-bit atomics bug reports")

    # [37] LDP seq_cst reordering
    ldp = benchmark(
        run_test_tv,
        atomics_128(),
        make_profile("llvm", "-O2", "aarch64", version=16, v84=True),
    )
    ldp_fixed = run_test_tv(
        atomics_128(),
        make_profile("llvm", "-O2", "aarch64", version=17, v84=True),
    )
    row("[37] bare-LDP seq_cst load (llvm-16, v8.4)", "bug", ldp.verdict)
    row("[37] with GCC-style barriers (fixed)", "no bug", ldp_fixed.verdict)

    # [39] wrong-endian STP
    endian = run_test_tv(
        parse_c_litmus(STP_ENDIAN, "stp_endian"),
        make_profile("llvm", "-O2", "aarch64", version=16, v84=True),
    )
    flipped = {o.as_dict().get("x") for o in endian.comparison.positive}
    row("[39] wrong-endian store value", "1 becomes 2^64",
        str((1 << 64) in flipped))

    # [36] const atomic load crash
    const_v80 = run_test_tv(
        parse_c_litmus(CONST_LOAD, "const_load"),
        make_profile("llvm", "-O2", "aarch64", version=16, v84=False),
    )
    const_fixed = run_test_tv(
        parse_c_litmus(CONST_LOAD, "const_load"),
        make_profile("llvm", "-O2", "aarch64", version=17, v84=True),
    )
    row("[36] const load via STXP loop (v8.0)", "run-time crash",
        f"const-violation={const_v80.target_result.has_const_violation}")
    row("[36] const load via LDP (fixed v8.4)", "clean",
        f"const-violation={const_fixed.target_result.has_const_violation}")

    assert ldp.verdict == "positive"
    assert ldp_fixed.verdict in ("equal", "negative")
    assert (1 << 64) in flipped
    assert const_v80.target_result.has_const_violation
    assert not const_fixed.target_result.has_const_violation
