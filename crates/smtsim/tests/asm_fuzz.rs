//! The assembler is reachable from user files (`vds asm`, `vds run`,
//! `vds alpha`), so any text must assemble or fail with a one-line error,
//! never panic, and never allocate much more than its source asks for.
//!
//! A counting global allocator charges every byte requested on the test
//! thread (`alloc` and `realloc` sizes, so a buffer that doubles its way
//! up pays for every step). The data image is capped at 2^20 words
//! (4 MiB); no input may make one `assemble` call request more than a
//! fixed budget plus a small multiple of its source length.

use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vds_smtsim::asm::assemble;

struct Counting;

thread_local! {
    /// Bytes requested on this thread so far.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn charge(bytes: usize) {
    // `try_with` tolerates allocations made while the thread is torn down
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        charge(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Words in the largest accepted data image.
const MAX_DATA_WORDS: u64 = 1 << 20;

/// Bytes requested while running `f` on this thread.
fn bytes_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

#[test]
fn oversized_data_images_are_refused_before_allocation() {
    // (source, line of the directive that crosses the limit)
    for (src, line) in [
        // one past the limit, in one directive and summed over two
        (format!(".data\n.space {}\n", MAX_DATA_WORDS + 1), 2),
        (format!(".data\n.space {MAX_DATA_WORDS}\n.space 1\n"), 3),
        (format!(".data\n.space {MAX_DATA_WORDS}\n.word 7\n"), 3),
        // past u32: used to wrap the word count to 0, overflow the sum
        // or allocate gigabytes
        (".data\n.space 4294967296\n".to_string(), 2),
        (".data\n.space 4294967295\n.space 1\n".to_string(), 2),
        (".data\n.space 3000000000\n".to_string(), 2),
        (".data\n.space 9223372036854775807\n".to_string(), 2),
    ] {
        let (res, bytes) = bytes_during(|| assemble(&src));
        let e = res.expect_err(&src);
        assert!(e.msg.contains("data image exceeds"), "{src:?}: {e}");
        assert_eq!(e.line, line, "{src:?}: {e}");
        assert!(bytes < 64 * 1024, "{src:?} requested {bytes} bytes");
    }
}

#[test]
fn a_data_image_at_the_limit_assembles() {
    let src = format!(".data\n.space {}\n.word 7\n", MAX_DATA_WORDS - 1);
    let p = assemble(&src).unwrap();
    assert_eq!(p.data.len() as u64, MAX_DATA_WORDS);
    assert_eq!(p.data.last(), Some(&7));
}

/// Mnemonics with their operand shapes: `r`egister, `i`mmediate,
/// `l`abel or `a`ddress.
const SHAPES: &[(&str, &str)] = &[
    ("add", "rrr"),
    ("sub", "rrr"),
    ("sra", "rrr"),
    ("sltu", "rrr"),
    ("addi", "rri"),
    ("ori", "rri"),
    ("slli", "rri"),
    ("mul", "rrr"),
    ("div", "rrr"),
    ("beq", "rrl"),
    ("bgt", "rrl"),
    ("lui", "ri"),
    ("li", "ri"),
    ("li", "rl"),
    ("subi", "rri"),
    ("ld", "ra"),
    ("st", "ra"),
    ("jal", "rl"),
    ("jalr", "rri"),
    ("j", "l"),
    ("call", "l"),
    ("mv", "rr"),
    ("neg", "rr"),
    ("ret", ""),
    ("yield", ""),
    ("nop", ""),
    ("halt", ""),
];
const REGS: &[&str] = &["r0", "r1", "r7", "R15", "zero"];
const IMMS: &[&str] = &[
    "0",
    "7",
    "-1",
    "31",
    "32767",
    "-32768",
    "0xFFFF",
    "0xDEADBEEF",
    "'a'",
    "4294967295",
    // hex with its own sign: i64::MIN, which overflows when negated
    "0x-8000000000000000",
];
const LABELS: &[&str] = &["a", "b", "c9", "end"];
/// Addresses, a few of them malformed.
const ADDRS: &[&str] = &[
    "0(r1)",
    "a(r0)",
    "-2(r3)",
    "b",
    "(r2)",
    "4",
    ")(",
    "(\u{2029}r1",
    "2(r\r1)",
];
/// Near misses for any operand or mnemonic: registers and literals past
/// their range, malformed addresses, signs that overflow on negation,
/// unknown names, and tokens with a line break inside (a token never
/// starts or ends with one: the parser trims them).
const BAD: &[&str] = &[
    "r16",
    "r-1",
    "r",
    "zer0",
    "99999",
    "4294967296",
    "-2147483649",
    "0x",
    "--9223372036854775808",
    "0x-8000000000000000",
    "-0x-8000000000000000",
    "9223372036854775808",
    ")(",
    "1)(r1",
    "(r1",
    "3(r99)",
    "''",
    "'ab'",
    "nowhere",
    "frob",
    "é",
    "a\rb",
    "1\u{2028}2",
    "x\u{85}y",
    "2(r\r1)",
    "(\u{2029}r1",
];
/// `.space` counts around the data-image limit and past `u32`.
const SPACES: &[&str] = &[
    "0",
    "1",
    "8",
    "1048575",
    "1048576",
    "1048577",
    "4294967295",
    "4294967296",
    "3000000000",
    "-1",
    "x",
    "",
    "1\r2",
];
/// Pieces of a line that is not an instruction.
const JUNK: &[&str] = &[
    ",", ":", ";", "#", ".", " ", "\t", "\r", "a:", " b :", ":x", ".bogus", "\u{2028}", "\u{2029}",
    "\u{85}", "\0", "é", "😀", "`", "'",
];

fn pick<'a>(rng: &mut TestRng, xs: &[&'a str]) -> &'a str {
    xs[rng.below(xs.len() as u64) as usize]
}

/// Mostly well-formed lines, so whole programs assemble; otherwise
/// directives, labels, comments and junk.
fn line(rng: &mut TestRng) -> String {
    match rng.below(20) {
        0 | 1 => format!("{}:", pick(rng, LABELS)),
        2 => pick(rng, &["", "; note", "  # note", ".text", ".data"]).to_string(),
        3 => format!(".space {}", pick(rng, SPACES)),
        4 => {
            let words: Vec<&str> = (0..rng.below(4))
                .map(|_| {
                    let pool = if rng.below(4) == 0 { BAD } else { IMMS };
                    pick(rng, pool)
                })
                .collect();
            format!("{}: .word {}", pick(rng, LABELS), words.join(", "))
        }
        5 => (0..rng.below(6)).map(|_| pick(rng, JUNK)).collect(),
        _ => {
            let (mnem, shape) = SHAPES[rng.below(SHAPES.len() as u64) as usize];
            let mut ops: Vec<&str> = shape
                .chars()
                .map(|k| match k {
                    _ if rng.below(8) == 0 => pick(rng, BAD),
                    'r' => pick(rng, REGS),
                    'i' => pick(rng, IMMS),
                    'l' => pick(rng, LABELS),
                    _ => pick(rng, ADDRS),
                })
                .collect();
            if rng.below(4) == 0 {
                match rng.below(3) {
                    0 => ops.push(pick(rng, REGS)),
                    1 => drop(ops.pop()),
                    _ => {
                        let at = rng.below(ops.len() as u64 + 1) as usize;
                        ops.insert(at, pick(rng, BAD));
                    }
                }
            }
            let mnem = match rng.below(16) {
                0 => pick(rng, BAD),
                1 => pick(rng, JUNK),
                _ => mnem,
            };
            let sep = pick(rng, &[", ", ",", " ", " ,, ", "\t"]);
            format!("  {mnem} {}", ops.join(sep))
        }
    }
}

/// `src` assembles twice to the same image, or fails with a one-line
/// error on one of its lines; either way within the allocation budget.
fn check(src: &str) {
    let lines = src.lines().count().max(1);
    let (res, bytes) = bytes_during(|| assemble(src));
    // two doublings' worth of the data cap, plus the parsed source
    let budget = 16 * MAX_DATA_WORDS + 1024 * src.len() as u64;
    assert!(bytes <= budget, "{bytes} bytes for {src:?}");
    match res {
        Ok(p) => {
            assert!(p.data.len() as u64 <= MAX_DATA_WORDS);
            let again = assemble(src).unwrap();
            assert_eq!(again.text, p.text);
            assert_eq!(again.data, p.data);
        }
        Err(e) => {
            let text = e.to_string();
            assert!(
                !text.contains(['\n', '\r', '\u{85}', '\u{2028}', '\u{2029}']),
                "{text:?}"
            );
            assert!((1..=lines).contains(&e.line), "{} of {lines}", e.line);
        }
    }
}

/// Defines every label in [`LABELS`], so a line checked after it
/// reaches pass 2 unless it fails on its own.
const PREAMBLE: &str = ".data\na: .word 1\nb: .space 2\n.text\nc9: nop\nend: halt\n";

proptest! {
    #[test]
    fn any_text_assembles_or_fails_on_one_line(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let lines: Vec<String> = (0..rng.below(16))
            .map(|_| line(&mut rng) + pick(&mut rng, &["\n", "\n", "\r\n"]))
            .collect();
        check(&lines.concat());
        // a whole program usually stops at its first bad line; each line
        // on its own reaches the later passes too
        for l in &lines {
            check(&format!("{PREAMBLE}{l}"));
        }
    }
}
