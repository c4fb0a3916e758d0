//! Workload kernels.
//!
//! The paper's VDS runs application "versions" in rounds; these kernels
//! are the applications. Each kernel is a parameterised assembly program
//! that initialises its inputs, then executes `rounds` computation rounds,
//! ending every round with `yield` and storing a round result word at
//! [`Kernel::out_addr`]. The suite deliberately spans the
//! microarchitectural spectrum:
//!
//! | kernel   | character                      | SMT pressure          |
//! |----------|--------------------------------|-----------------------|
//! | vecsum   | streaming loads, tight loop    | LSU + issue width     |
//! | crc      | multiply-accumulate            | multiplier            |
//! | matmul   | nested loops, mul + loads      | multiplier + D-cache  |
//! | pchase   | dependent loads over a ring    | D-cache misses        |
//! | bsort    | data-dependent branches        | branch unit + flushes |
//! | control  | integer PID loop               | ALU chain             |
//!
//! Every kernel has a pure-Rust **oracle** in [`oracle`] that computes the
//! expected final result; tests pin the simulator against it, so kernels
//! double as end-to-end correctness tests of assembler + core.

use crate::asm::assemble;
use crate::program::Program;

/// A ready-to-run workload.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Short identifier (`"vecsum"` …).
    pub name: String,
    /// Assembly source.
    pub source: String,
    /// Data-memory words the kernel needs.
    pub dmem_words: usize,
    /// Word address where each round stores its result.
    pub out_addr: u32,
    /// Number of rounds the program performs before halting.
    pub rounds: u32,
}

impl Kernel {
    /// Assemble the kernel.
    ///
    /// # Panics
    /// Panics if the generated source fails to assemble (a bug in this
    /// module, covered by tests).
    pub fn program(&self) -> Program {
        assemble(&self.source)
            .unwrap_or_else(|e| panic!("kernel `{}` failed to assemble: {e}", self.name))
    }
}

/// Streaming vector sum over `n` words.
pub fn vecsum(n: u32, rounds: u32) -> Kernel {
    assert!(n >= 1 && rounds >= 1);
    let source = format!(
        r#"
        ; vecsum: X[0..{n}) = 5,8,11,…; each round stores sum+round at {n}
            li   r14, {rounds}
            addi r1, r0, 0
            li   r2, {n}
            addi r3, r0, 5
        init:
            st   r3, 0(r1)
            addi r3, r3, 3
            addi r1, r1, 1
            bne  r1, r2, init
            addi r13, r0, 0      ; round index
        round:
            addi r4, r0, 0
            addi r1, r0, 0
        sum:
            ld   r5, 0(r1)
            add  r4, r4, r5
            addi r1, r1, 1
            bne  r1, r2, sum
            add  r4, r4, r13
            st   r4, {n}(r0)
            addi r13, r13, 1
            subi r14, r14, 1
            yield
            bne  r14, r0, round
            halt
        "#
    );
    Kernel {
        name: "vecsum".into(),
        source,
        dmem_words: n as usize + 1,
        out_addr: n,
        rounds,
    }
}

/// Multiply-accumulate hash (h = h·31 + X\[i\]) over `n` words.
pub fn crc(n: u32, rounds: u32) -> Kernel {
    assert!(n >= 1 && rounds >= 1);
    let source = format!(
        r#"
        ; crc: X[i] = 7i+1; per round h = fold(h*31 + X[i]), h0 = 17+round
            li   r14, {rounds}
            addi r1, r0, 0
            li   r2, {n}
            addi r3, r0, 1
        init:
            st   r3, 0(r1)
            addi r3, r3, 7
            addi r1, r1, 1
            bne  r1, r2, init
            addi r13, r0, 0
            addi r12, r0, 31
        round:
            addi r4, r13, 17     ; h = 17 + round
            addi r1, r0, 0
        acc:
            ld   r5, 0(r1)
            mul  r4, r4, r12
            add  r4, r4, r5
            addi r1, r1, 1
            bne  r1, r2, acc
            st   r4, {n}(r0)
            addi r13, r13, 1
            subi r14, r14, 1
            yield
            bne  r14, r0, round
            halt
        "#
    );
    Kernel {
        name: "crc".into(),
        source,
        dmem_words: n as usize + 1,
        out_addr: n,
        rounds,
    }
}

/// Dense `n×n` integer matrix multiply; memory layout `A | B | C | out`.
pub fn matmul(n: u32, rounds: u32) -> Kernel {
    assert!(n >= 2 && rounds >= 1);
    let nn = n * n;
    let b_base = nn;
    let c_base = 2 * nn;
    let out = 3 * nn;
    let last_c = c_base + nn - 1;
    let source = format!(
        r#"
        ; matmul {n}x{n}: A[i]=i+1, B[i]=2i+3; round bumps A[0] then C=A*B
            li   r14, {rounds}
            addi r1, r0, 0
            li   r2, {nn}
            addi r3, r0, 1       ; A fill
            addi r4, r0, 3       ; B fill
        init:
            st   r3, 0(r1)
            st   r4, {b_base}(r1)
            addi r3, r3, 1
            addi r4, r4, 2
            addi r1, r1, 1
            bne  r1, r2, init
            li   r9, {n}
        round:
            ld   r5, 0(r0)       ; A[0] += 1
            addi r5, r5, 1
            st   r5, 0(r0)
            addi r1, r0, 0       ; i
        iloop:
            addi r2, r0, 0       ; j
        jloop:
            addi r4, r0, 0       ; acc
            addi r3, r0, 0       ; k
        kloop:
            mul  r5, r1, r9
            add  r5, r5, r3      ; A index i*n+k
            ld   r7, 0(r5)
            mul  r6, r3, r9
            add  r6, r6, r2      ; B index k*n+j
            ld   r8, {b_base}(r6)
            mul  r7, r7, r8
            add  r4, r4, r7
            addi r3, r3, 1
            bne  r3, r9, kloop
            mul  r5, r1, r9
            add  r5, r5, r2
            st   r4, {c_base}(r5)
            addi r2, r2, 1
            bne  r2, r9, jloop
            addi r1, r1, 1
            bne  r1, r9, iloop
            ld   r5, {last_c}(r0)
            st   r5, {out}(r0)
            subi r14, r14, 1
            yield
            bne  r14, r0, round
            halt
        "#
    );
    Kernel {
        name: "matmul".into(),
        source,
        dmem_words: out as usize + 1,
        out_addr: out,
        rounds,
    }
}

/// Pointer chase around a ring of `len` nodes, `steps` hops per round.
/// `len` must be coprime with the stride 7 so the ring is a single cycle.
pub fn pchase(len: u32, steps: u32, rounds: u32) -> Kernel {
    assert!(len >= 2 && !len.is_multiple_of(7) && steps >= 1 && rounds >= 1);
    let source = format!(
        r#"
        ; pchase: next[i] = (i+7) mod {len}; walk {steps} hops per round
            li   r14, {rounds}
            addi r1, r0, 0
            li   r2, {len}
        init:
            addi r3, r1, 7
            blt  r3, r2, inrange
            sub  r3, r3, r2
        inrange:
            st   r3, 0(r1)
            addi r1, r1, 1
            bne  r1, r2, init
            addi r13, r0, 0
        round:
            addi r4, r13, 0      ; p = round (mod len guaranteed small)
            blt  r4, r2, pok
            addi r4, r0, 0
        pok:
            li   r5, {steps}
        walk:
            ld   r4, 0(r4)
            subi r5, r5, 1
            bne  r5, r0, walk
            st   r4, {len}(r0)
            addi r13, r13, 1
            subi r14, r14, 1
            yield
            bne  r14, r0, round
            halt
        "#
    );
    Kernel {
        name: "pchase".into(),
        source,
        dmem_words: len as usize + 1,
        out_addr: len,
        rounds,
    }
}

/// Bubble sort of `n` words re-initialised each round; branch-heavy.
pub fn bsort(n: u32, rounds: u32) -> Kernel {
    assert!(n >= 2 && rounds >= 1);
    let mid = n / 2;
    let n1 = n - 1;
    let source = format!(
        r#"
        ; bsort: X[i] = ((37i+11) & 63) ^ round, bubble sort, out = X[{mid}]
            li   r14, {rounds}
            addi r13, r0, 0      ; round
            addi r12, r0, 37
        round:
            addi r1, r0, 0
            li   r2, {n}
        init:
            mul  r3, r1, r12
            addi r3, r3, 11
            andi r3, r3, 63
            xor  r3, r3, r13
            st   r3, 0(r1)
            addi r1, r1, 1
            bne  r1, r2, init
            ; outer i = 0..n-1
            addi r1, r0, 0
            li   r9, {n1}
        outer:
            addi r2, r0, 0       ; j
            sub  r10, r9, r1     ; n-1-i
            beq  r10, r0, onext
        inner:
            ld   r4, 0(r2)
            ld   r5, 1(r2)
            blt  r4, r5, noswap
            beq  r4, r5, noswap
            st   r5, 0(r2)
            st   r4, 1(r2)
        noswap:
            addi r2, r2, 1
            bne  r2, r10, inner
        onext:
            addi r1, r1, 1
            bne  r1, r9, outer
            ld   r4, {mid}(r0)
            st   r4, {n}(r0)
            addi r13, r13, 1
            subi r14, r14, 1
            yield
            bne  r14, r0, round
            halt
        "#
    );
    Kernel {
        name: "bsort".into(),
        source,
        dmem_words: n as usize + 1,
        out_addr: n,
        rounds,
    }
}

/// Integer PID-style control loop: `iters` updates per round.
pub fn control(iters: u32, rounds: u32) -> Kernel {
    assert!(iters >= 1 && rounds >= 1);
    let source = format!(
        r#"
        ; control: y += (3e + I) >> 3, e = target - y, I += e;
        ; target starts at 1000 and grows 50 per round. out word = y.
            li   r14, {rounds}
            li   r11, 1000       ; target
            addi r12, r0, 0      ; y
            addi r13, r0, 0      ; integral
            addi r10, r0, 3
            addi r9,  r0, 3      ; shift amount
        round:
            li   r5, {iters}
        step:
            sub  r4, r11, r12    ; e
            add  r13, r13, r4    ; I += e
            mul  r6, r4, r10
            add  r6, r6, r13
            sra  r6, r6, r9
            add  r12, r12, r6
            subi r5, r5, 1
            bne  r5, r0, step
            st   r12, 0(r0)
            addi r11, r11, 50
            subi r14, r14, 1
            yield
            bne  r14, r0, round
            halt
        "#
    );
    Kernel {
        name: "control".into(),
        source,
        dmem_words: 4,
        out_addr: 0,
        rounds,
    }
}

/// The default suite at sizes that run in tens of thousands of cycles —
/// large enough for caches and predictors to matter, small enough for
/// brisk experiments.
pub fn suite(rounds: u32) -> Vec<Kernel> {
    vec![
        vecsum(256, rounds),
        crc(128, rounds),
        matmul(8, rounds),
        pchase(512, 256, rounds),
        bsort(24, rounds),
        control(128, rounds),
    ]
}

/// Pure-Rust reference implementations. Each returns the expected value
/// of the kernel's output word after its final round.
pub mod oracle {
    /// See [`super::vecsum`].
    pub fn vecsum(n: u32, rounds: u32) -> u32 {
        let base: u32 = (0..n).fold(0u32, |a, i| a.wrapping_add(5 + 3 * i));
        base.wrapping_add(rounds - 1)
    }

    /// See [`super::crc`].
    pub fn crc(n: u32, rounds: u32) -> u32 {
        let x: Vec<u32> = (0..n).map(|i| 7 * i + 1).collect();
        let round = rounds - 1;
        let mut h = 17u32.wrapping_add(round);
        for v in x {
            h = h.wrapping_mul(31).wrapping_add(v);
        }
        h
    }

    /// See [`super::matmul`]: value of `C[n-1][n-1]` after the last round.
    pub fn matmul(n: u32, rounds: u32) -> u32 {
        let nn = n * n;
        let mut a: Vec<u32> = (0..nn).map(|i| i + 1).collect();
        let b: Vec<u32> = (0..nn).map(|i| 2 * i + 3).collect();
        let mut last = 0u32;
        for _ in 0..rounds {
            a[0] = a[0].wrapping_add(1);
            let i = n - 1;
            let j = n - 1;
            let mut acc = 0u32;
            for k in 0..n {
                acc =
                    acc.wrapping_add(a[(i * n + k) as usize].wrapping_mul(b[(k * n + j) as usize]));
            }
            last = acc;
        }
        last
    }

    /// See [`super::pchase`]: final pointer after the last round.
    pub fn pchase(len: u32, steps: u32, rounds: u32) -> u32 {
        let round = rounds - 1;
        let start = if round < len { round } else { 0 };
        // each hop advances by 7 (mod len)
        ((u64::from(start) + 7 * u64::from(steps)) % u64::from(len)) as u32
    }

    /// See [`super::bsort`]: median element after the last round's sort.
    pub fn bsort(n: u32, rounds: u32) -> u32 {
        let round = rounds - 1;
        let mut x: Vec<u32> = (0..n).map(|i| ((37 * i + 11) & 63) ^ round).collect();
        x.sort_unstable();
        x[(n / 2) as usize]
    }

    /// See [`super::control`]: y after the last round.
    pub fn control(iters: u32, rounds: u32) -> u32 {
        let mut y: i32 = 0;
        let mut integral: i32 = 0;
        let mut target: i32 = 1000;
        for _ in 0..rounds {
            for _ in 0..iters {
                let e = target - y;
                integral = integral.wrapping_add(e);
                y = y.wrapping_add((e.wrapping_mul(3).wrapping_add(integral)) >> 3);
            }
            target += 50;
        }
        y as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::{Core, CoreConfig, RunOutcome, ThreadId};

    /// Run a kernel to completion on a default core and return the value
    /// at its output address.
    fn run_kernel(k: &Kernel) -> u32 {
        let prog = k.program();
        let mut core = Core::new(CoreConfig::default());
        let t = core.add_thread(&prog, k.dmem_words);
        let mut budget = 0;
        loop {
            match core.run_until_all_blocked(50_000_000) {
                RunOutcome::AllHalted => break,
                RunOutcome::AllYielded => core.resume(t),
                other => panic!("kernel `{}` ended with {other:?}", k.name),
            }
            budget += 1;
            assert!(budget < 100_000, "kernel `{}` runaway", k.name);
        }
        core.thread(ThreadId(0)).dmem[k.out_addr as usize]
    }

    #[test]
    fn vecsum_matches_oracle() {
        for &(n, r) in &[(4u32, 1u32), (64, 3), (256, 2)] {
            assert_eq!(
                run_kernel(&vecsum(n, r)),
                oracle::vecsum(n, r),
                "n={n} r={r}"
            );
        }
    }

    #[test]
    fn crc_matches_oracle() {
        for &(n, r) in &[(8u32, 1u32), (128, 2)] {
            assert_eq!(run_kernel(&crc(n, r)), oracle::crc(n, r), "n={n} r={r}");
        }
    }

    #[test]
    fn matmul_matches_oracle() {
        for &(n, r) in &[(2u32, 1u32), (4, 2), (8, 1)] {
            assert_eq!(
                run_kernel(&matmul(n, r)),
                oracle::matmul(n, r),
                "n={n} r={r}"
            );
        }
    }

    #[test]
    fn pchase_matches_oracle() {
        for &(len, steps, r) in &[(16u32, 8u32, 1u32), (512, 256, 2)] {
            assert_eq!(
                run_kernel(&pchase(len, steps, r)),
                oracle::pchase(len, steps, r),
                "len={len} steps={steps} r={r}"
            );
        }
    }

    #[test]
    fn bsort_matches_oracle() {
        for &(n, r) in &[(8u32, 1u32), (24, 2)] {
            assert_eq!(run_kernel(&bsort(n, r)), oracle::bsort(n, r), "n={n} r={r}");
        }
    }

    #[test]
    fn control_matches_oracle() {
        for &(iters, r) in &[(16u32, 1u32), (128, 3)] {
            assert_eq!(
                run_kernel(&control(iters, r)),
                oracle::control(iters, r),
                "iters={iters} r={r}"
            );
        }
    }

    #[test]
    fn suite_assembles_and_runs() {
        for k in suite(1) {
            let _ = run_kernel(&k);
        }
    }

    #[test]
    fn rounds_yield_the_right_number_of_times() {
        let k = vecsum(8, 5);
        let prog = k.program();
        let mut core = Core::new(CoreConfig::default());
        let t = core.add_thread(&prog, k.dmem_words);
        let mut yields = 0;
        loop {
            match core.run_until_all_blocked(10_000_000) {
                RunOutcome::AllYielded => {
                    yields += 1;
                    core.resume(t);
                }
                RunOutcome::AllHalted => break,
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(yields, 5);
    }
}
