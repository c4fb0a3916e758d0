//! Deterministic two-pass assembler for the tiny text format.
//!
//! Syntax, one item per line:
//!
//! ```text
//! ; comment (also `#`)
//! label:                  ; labels stand alone on their line
//!     lit   r1, 0x9E3779B9
//!     add   r0, r1, r2
//!     cmplt r3, r1, r2
//!     jnz   r3, label
//!     call  fn
//!     ld    r4, r5        ; r4 = mem[r5]
//!     st    r5, r4        ; mem[r5] = r4
//!     halt
//! ```
//!
//! Determinism contract: literals are interned into the pool in first
//! appearance order, labels are resolved in a fixed two-pass sweep, and
//! the label and literal maps are only ever looked up, never iterated —
//! the same source always yields the same `Program`, byte for byte.
//! Every lookup is a hash probe, so assembly is linear in the source.

use crate::isa::{AluOp, Instr};
use std::collections::HashMap;

/// An assembled program: decoded code plus its literal pool.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Program {
    /// Program name (journal metadata, listings).
    pub name: String,
    /// Decoded instruction stream.
    pub code: Vec<Instr>,
    /// Literal pool, first-appearance order.
    pub lits: Vec<u32>,
}

impl Program {
    /// Human-readable listing with pc, encoded word, and mnemonic —
    /// the body of `vds vm asm`.
    #[must_use]
    pub fn listing(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "; {} — {} instrs, {} literals\n",
            self.name,
            self.code.len(),
            self.lits.len()
        ));
        for (pc, instr) in self.code.iter().enumerate() {
            out.push_str(&format!(
                "{pc:4}  {:08x}  {}\n",
                instr.encode(),
                instr.render()
            ));
        }
        if !self.lits.is_empty() {
            out.push_str("; literal pool\n");
            for (i, lit) in self.lits.iter().enumerate() {
                out.push_str(&format!("{i:4}  0x{lit:08x}  ({lit})\n"));
            }
        }
        out
    }
}

/// Assembly failure with a 1-based source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AsmError {
    pub line: usize,
    pub msg: String,
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for AsmError {}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, AsmError> {
    Err(AsmError {
        line,
        msg: msg.into(),
    })
}

fn strip_comment(line: &str) -> &str {
    match line.find([';', '#']) {
        Some(i) => &line[..i],
        None => line,
    }
}

/// `s` with control characters and line separators escaped, so an
/// error message that quotes it stays on one line.
fn one_line(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_control() || matches!(c, '\u{2028}' | '\u{2029}') {
                c.escape_default().to_string()
            } else {
                c.to_string()
            }
        })
        .collect()
}

fn is_label_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn parse_reg(tok: &str, line: usize) -> Result<u8, AsmError> {
    let Some(num) = tok.strip_prefix('r') else {
        return err(line, format!("expected register, got `{tok}`"));
    };
    match num.parse::<u16>() {
        Ok(n) if n < 256 => Ok(n as u8),
        _ => err(line, format!("bad register `{tok}` (r0..r255)")),
    }
}

fn parse_imm(tok: &str, line: usize) -> Result<u32, AsmError> {
    let parsed = if let Some(hex) = tok.strip_prefix("0x").or_else(|| tok.strip_prefix("0X")) {
        u32::from_str_radix(hex, 16).ok()
    } else if let Some(neg) = tok.strip_prefix('-') {
        neg.parse::<u32>().ok().map(u32::wrapping_neg)
    } else {
        tok.parse::<u32>().ok()
    };
    match parsed {
        Some(v) => Ok(v),
        None => err(line, format!("bad literal `{tok}`")),
    }
}

/// Assemble source text into a [`Program`].
pub fn assemble(name: &str, src: &str) -> Result<Program, AsmError> {
    // pass 1: map labels to instruction indexes
    let mut labels: HashMap<&str, u16> = HashMap::new();
    let mut pc: usize = 0;
    for (n, raw) in src.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(label) = line.strip_suffix(':') {
            let label = label.trim();
            if !is_label_name(label) {
                return err(n + 1, format!("bad label `{}`", one_line(label)));
            }
            if labels.contains_key(label) {
                return err(n + 1, format!("duplicate label `{label}`"));
            }
            if pc > usize::from(u16::MAX) {
                return err(n + 1, "program too large");
            }
            labels.insert(label, pc as u16);
        } else {
            pc += 1;
        }
    }
    if pc > usize::from(u16::MAX) {
        return err(src.lines().count(), "program too large");
    }

    let find_label = |tok: &str, line: usize| -> Result<u16, AsmError> {
        match labels.get(tok) {
            Some(&t) => Ok(t),
            None => err(line, format!("unknown label `{tok}`")),
        }
    };

    // pass 2: encode, interning literals in first-appearance order
    let mut code: Vec<Instr> = Vec::new();
    let mut lits: Vec<u32> = Vec::new();
    let mut pool: HashMap<u32, u16> = HashMap::new();
    let mut intern = |v: u32, line: usize| -> Result<u16, AsmError> {
        if let Some(&i) = pool.get(&v) {
            return Ok(i);
        }
        if lits.len() > usize::from(u16::MAX) {
            return err(line, "literal pool overflow");
        }
        let i = lits.len() as u16;
        lits.push(v);
        pool.insert(v, i);
        Ok(i)
    };
    for (n, raw) in src.lines().enumerate() {
        let n = n + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() || line.ends_with(':') {
            continue;
        }
        let spaced = line.replace(',', " ");
        let toks: Vec<&str> = spaced.split_whitespace().collect();
        let Some((&mnem, args)) = toks.split_first() else {
            return err(n, "missing mnemonic");
        };
        let need = |k: usize| -> Result<(), AsmError> {
            if args.len() == k {
                Ok(())
            } else {
                err(
                    n,
                    format!("`{mnem}` takes {k} operand(s), got {}", args.len()),
                )
            }
        };
        let instr = match mnem {
            "halt" => {
                need(0)?;
                Instr::Halt
            }
            "lit" => {
                need(2)?;
                let d = parse_reg(args[0], n)?;
                let idx = intern(parse_imm(args[1], n)?, n)?;
                Instr::LoadLit { d, idx }
            }
            "mov" => {
                need(2)?;
                Instr::Mov {
                    d: parse_reg(args[0], n)?,
                    s: parse_reg(args[1], n)?,
                }
            }
            "add" | "sub" | "mul" | "xor" | "and" | "or" | "shl" | "shr" => {
                need(3)?;
                let op = match mnem {
                    "add" => AluOp::Add,
                    "sub" => AluOp::Sub,
                    "mul" => AluOp::Mul,
                    "xor" => AluOp::Xor,
                    "and" => AluOp::And,
                    "or" => AluOp::Or,
                    "shl" => AluOp::Shl,
                    _ => AluOp::Shr,
                };
                Instr::Alu {
                    op,
                    d: parse_reg(args[0], n)?,
                    a: parse_reg(args[1], n)?,
                    b: parse_reg(args[2], n)?,
                }
            }
            "cmplt" => {
                need(3)?;
                Instr::CmpLt {
                    d: parse_reg(args[0], n)?,
                    a: parse_reg(args[1], n)?,
                    b: parse_reg(args[2], n)?,
                }
            }
            "cmpeq" => {
                need(3)?;
                Instr::CmpEq {
                    d: parse_reg(args[0], n)?,
                    a: parse_reg(args[1], n)?,
                    b: parse_reg(args[2], n)?,
                }
            }
            "jmp" => {
                need(1)?;
                Instr::Jmp {
                    target: find_label(args[0], n)?,
                }
            }
            "jnz" => {
                need(2)?;
                Instr::Jnz {
                    s: parse_reg(args[0], n)?,
                    target: find_label(args[1], n)?,
                }
            }
            "jz" => {
                need(2)?;
                Instr::Jz {
                    s: parse_reg(args[0], n)?,
                    target: find_label(args[1], n)?,
                }
            }
            "call" => {
                need(1)?;
                Instr::Call {
                    target: find_label(args[0], n)?,
                }
            }
            "ret" => {
                need(0)?;
                Instr::Ret
            }
            "ld" => {
                need(2)?;
                Instr::Ld {
                    d: parse_reg(args[0], n)?,
                    a: parse_reg(args[1], n)?,
                }
            }
            "st" => {
                need(2)?;
                Instr::St {
                    a: parse_reg(args[0], n)?,
                    s: parse_reg(args[1], n)?,
                }
            }
            other => return err(n, format!("unknown mnemonic `{other}`")),
        };
        code.push(instr);
    }
    if code.is_empty() {
        return err(1, "empty program");
    }
    Ok(Program {
        name: name.to_string(),
        code,
        lits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literals_intern_in_first_appearance_order() {
        let p = assemble(
            "t",
            "lit r0, 10\nlit r1, 20\nlit r2, 10\nlit r3, 0x1e\nhalt\n",
        )
        .unwrap();
        assert_eq!(p.lits, vec![10, 20, 30]);
        assert_eq!(
            p.code[2],
            Instr::LoadLit { d: 2, idx: 0 },
            "repeated literal reuses the pool slot"
        );
    }

    #[test]
    fn labels_resolve_forward_and_backward() {
        let p = assemble(
            "t",
            "start:\njmp end\nmid:\njmp start\nend:\njmp mid\nhalt\n",
        )
        .unwrap();
        assert_eq!(
            p.code,
            vec![
                Instr::Jmp { target: 2 },
                Instr::Jmp { target: 0 },
                Instr::Jmp { target: 1 },
                Instr::Halt,
            ]
        );
    }

    #[test]
    fn negative_and_hex_literals() {
        let p = assemble("t", "lit r0, -1\nlit r1, 0xFFFFFFFF\nhalt\n").unwrap();
        assert_eq!(p.lits, vec![u32::MAX]);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let cases: &[(&str, usize, &str)] = &[
            ("halt\nfrob r0\n", 2, "unknown mnemonic"),
            ("add r0, r1\n", 1, "takes 3 operand(s)"),
            ("lit r0, zebra\n", 1, "bad literal"),
            ("mov r0, x1\n", 1, "expected register"),
            ("jmp missing\n", 1, "unknown label"),
            ("a:\na:\nhalt\n", 2, "duplicate label"),
            ("lit r999, 1\n", 1, "bad register"),
            ("", 1, "empty program"),
        ];
        for (src, line, want) in cases {
            let e = assemble("t", src).unwrap_err();
            assert_eq!(e.line, *line, "{src:?}: {e}");
            assert!(e.msg.contains(want), "{src:?}: {e}");
        }
    }

    #[test]
    fn assembly_is_deterministic() {
        let src = crate::seed_program("sort").unwrap().asm;
        let a = assemble("sort", src).unwrap();
        let b = assemble("sort", src).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn a_line_of_only_commas_is_an_error() {
        let e = assemble("t", "halt\n , ,\n").unwrap_err();
        assert_eq!(e.to_string(), "line 2: missing mnemonic");
    }

    #[test]
    fn large_sources_assemble_in_linear_time() {
        // 65k labels and 65k distinct literals, every lookup a hit
        const N: usize = 65_000;
        let mut src = String::new();
        for i in 0..N {
            src.push_str(&format!("l{i}:\nlit r1, {}\n", i * 7 + 3));
        }
        for i in 0..500 {
            src.push_str(&format!("jnz r1, l{}\n", i * 127));
        }
        let t = std::time::Instant::now();
        let p = assemble("big", &src).unwrap();
        let took = t.elapsed();
        assert_eq!((p.code.len(), p.lits.len()), (N + 500, N));
        assert_eq!(p.code[N + 1], Instr::Jnz { s: 1, target: 127 });
        assert_eq!(
            p.code[N - 1],
            Instr::LoadLit {
                d: 1,
                idx: (N - 1) as u16
            }
        );
        assert!(took.as_secs_f64() < 5.0, "assembly took {took:?}");
    }

    #[test]
    fn listing_covers_code_and_pool() {
        let p = assemble("t", "lit r0, 42\nhalt\n").unwrap();
        let l = p.listing();
        assert!(l.contains("lit   r0, [0]"), "{l}");
        assert!(l.contains("halt"), "{l}");
        assert!(l.contains("0x0000002a"), "{l}");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Mnemonics with their operand shapes: `r`egister, `i`mmediate
        /// or `l`abel.
        const SHAPES: &[(&str, &str)] = &[
            ("halt", ""),
            ("ret", ""),
            ("lit", "ri"),
            ("mov", "rr"),
            ("ld", "rr"),
            ("st", "rr"),
            ("add", "rrr"),
            ("sub", "rrr"),
            ("mul", "rrr"),
            ("xor", "rrr"),
            ("and", "rrr"),
            ("or", "rrr"),
            ("shl", "rrr"),
            ("shr", "rrr"),
            ("cmplt", "rrr"),
            ("cmpeq", "rrr"),
            ("jmp", "l"),
            ("call", "l"),
            ("jnz", "rl"),
            ("jz", "rl"),
        ];
        const REGS: &[&str] = &["r0", "r1", "r7", "r12", "r255"];
        const IMMS: &[&str] = &["0", "42", "-1", "0xFFFFFFFF", "0X1f", "4294967295"];
        const LABELS: &[&str] = &["a", "b", "_c9", "end"];
        /// Near misses for any operand or mnemonic: registers and
        /// literals past their range, malformed spellings, unknown names.
        const BAD: &[&str] = &[
            "r256",
            "r999",
            "r",
            "r-1",
            "r+3",
            "rr",
            "r0x1",
            "0x100000000",
            "4294967296",
            "-4294967296",
            "12abc",
            "-",
            "0x",
            "9z",
            "nowhere",
            "HALT",
            "nop",
            "li",
            "é",
        ];
        /// Pieces of a line that is not an instruction.
        const JUNK: &[&str] = &[
            ",", ":", ";", "#", " ", "\t", "\r", "a:", " b :", "a b:", ":x", "\u{2028}", "\u{85}",
            "\0", "é", "😀", "`", "\\", "'",
        ];

        fn pick<'a>(rng: &mut TestRng, xs: &[&'a str]) -> &'a str {
            xs[rng.below(xs.len() as u64) as usize]
        }

        /// Mostly well-formed instructions, so whole programs assemble;
        /// otherwise labels, comments, separators alone and junk.
        fn line(rng: &mut TestRng) -> String {
            match rng.below(16) {
                0 | 1 => format!("{}:", pick(rng, LABELS)),
                2 => pick(rng, &["", "; note", "  # note", "\t"]).to_string(),
                3 => (0..1 + rng.below(3))
                    .map(|_| pick(rng, &[",", " ", ",,"]))
                    .collect(),
                4 => (0..rng.below(6)).map(|_| pick(rng, JUNK)).collect(),
                _ => {
                    let (mnem, shape) = SHAPES[rng.below(SHAPES.len() as u64) as usize];
                    let mut ops: Vec<&str> = shape
                        .chars()
                        .map(|k| match k {
                            'r' => pick(rng, REGS),
                            'i' => pick(rng, IMMS),
                            _ => pick(rng, LABELS),
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
                    let mnem = if rng.below(16) == 0 {
                        pick(rng, BAD)
                    } else {
                        mnem
                    };
                    let sep = pick(rng, &[", ", ",", " ", " ,, ", "\t"]);
                    format!("  {mnem} {}", ops.join(sep))
                }
            }
        }

        proptest! {
            #[test]
            fn any_text_assembles_or_fails_on_one_line(seed in any::<u64>()) {
                let mut rng = TestRng::new(seed);
                let src: String = (0..rng.below(12))
                    .map(|_| line(&mut rng) + pick(&mut rng, &["\n", "\n", "\r\n"]))
                    .collect();
                let lines = src.lines().count().max(1);
                match assemble("t", &src) {
                    Ok(p) => {
                        prop_assert!(!p.code.is_empty());
                        prop_assert_eq!(assemble("t", &src), Ok(p));
                    }
                    Err(e) => {
                        let text = e.to_string();
                        prop_assert!(
                            !text.contains(['\n', '\r', '\u{85}', '\u{2028}', '\u{2029}']),
                            "{:?}", text
                        );
                        prop_assert!((1..=lines).contains(&e.line), "{} of {}", e.line, lines);
                    }
                }
            }
        }
    }
}
