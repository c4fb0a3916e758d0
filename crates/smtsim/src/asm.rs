//! Two-pass assembler.
//!
//! Accepts a small, line-oriented assembly dialect:
//!
//! ```text
//! ; comments start with ';' or '#'
//! .text                       ; default section
//! start:                      ; labels end with ':'
//!     addi r1, r0, 10
//!     li   r2, 0xDEADBEEF     ; pseudo: expands to lui+ori (or addi)
//!     mv   r3, r1             ; pseudo: addi r3, r1, 0
//!     ld   r4, 2(r5)          ; word offset addressing
//!     st   r4, buf(r0)        ; data labels usable as immediates
//!     beq  r1, r0, done
//!     j    start              ; pseudo: jal r0, start
//!     subi r1, r1, 1          ; pseudo: addi with negated immediate
//! done:
//!     yield
//!     halt
//! .data
//! buf:    .word 1, 2, 3       ; initialised words
//! tmp:    .space 8            ; 8 zero words
//! ```
//!
//! Registers are `r0`–`r15` with the alias `zero` for `r0`. Immediates may
//! be decimal, `0x` hex, negative, a character literal `'a'`, or a label
//! (text labels give instruction indices, data labels word addresses).
//!
//! Pass 1 sizes every line (pseudo-instructions may occupy two slots) and
//! collects labels; pass 2 emits encoded words. Errors carry 1-based line
//! numbers and fit on one line. A data image larger than 2^20 words
//! (4 MiB) is refused in pass 1, before anything is allocated.

use crate::isa::{
    AluImmOp, AluOp, BranchCond, Instr, MulOp, Reg, BRANCH_TARGET_MAX, IMM_MAX, IMM_MIN,
    TARGET_MAX, UIMM_MAX,
};
use crate::program::{Program, Symbol};
use std::collections::BTreeMap;

/// An assembly error with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
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

/// Largest data image, in words, that [`assemble`] accepts (4 MiB). The
/// committed programs use a few thousand words at most.
const MAX_DATA_WORDS: u64 = 1 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Text,
    Data,
}

/// Assemble a source string into a [`Program`].
pub fn assemble(src: &str) -> Result<Program, AsmError> {
    let lines: Vec<Line> = src
        .lines()
        .enumerate()
        .map(|(i, raw)| parse_line(i + 1, raw))
        .collect::<Result<_, _>>()?;

    // Pass 1: lay out sections, collect symbols.
    let mut symbols: BTreeMap<String, Symbol> = BTreeMap::new();
    let mut text_len: u32 = 0;
    let mut data_len: u64 = 0;
    let mut section = Section::Text;
    for line in &lines {
        if let Some(dir) = &line.directive {
            match dir {
                Directive::Text => section = Section::Text,
                Directive::Data => section = Section::Data,
                Directive::Word(ws) => data_len += ws.len() as u64,
                Directive::Space(n) => data_len = data_len.saturating_add(*n),
            }
            if data_len > MAX_DATA_WORDS {
                return err(
                    line.no,
                    format!("data image exceeds {MAX_DATA_WORDS} words"),
                );
            }
        }
        for label in &line.labels {
            let sym = match section {
                Section::Text => Symbol::Text(text_len),
                Section::Data => Symbol::Data(data_len_before(line, data_len)),
            };
            if symbols.insert(label.clone(), sym).is_some() {
                return err(line.no, format!("duplicate label `{label}`"));
            }
        }
        if let Some(stmt) = &line.stmt {
            if section != Section::Text {
                return err(line.no, "instruction outside .text");
            }
            text_len += stmt.size();
        }
    }

    // Pass 2: emit.
    let mut prog = Program {
        symbols,
        ..Program::default()
    };
    // Section bookkeeping is not needed in pass 2: pass 1 already
    // rejected instructions outside .text, and data directives carry
    // their own payloads.
    for line in &lines {
        if let Some(dir) = &line.directive {
            match dir {
                Directive::Text | Directive::Data => {}
                Directive::Word(ws) => {
                    for w in ws {
                        let v = resolve_value(w, &prog.symbols, line.no)?;
                        prog.data.push(v as u32);
                    }
                }
                Directive::Space(n) => prog.data.extend(std::iter::repeat_n(0, *n as usize)),
            }
        }
        if let Some(stmt) = &line.stmt {
            let at = prog.text.len() as u32;
            for i in stmt.lower(at, &prog.symbols, line.no)? {
                prog.text.push(crate::encode::encode(&i));
            }
        }
    }
    Ok(prog)
}

// Labels attached to a .word/.space line refer to the directive's own
// start; labels on earlier lines already saw the pre-directive length.
// Pass 1 has checked `len_after` against `MAX_DATA_WORDS`, so it fits.
fn data_len_before(line: &Line, len_after: u64) -> u32 {
    let len = match &line.directive {
        Some(Directive::Word(ws)) => len_after - ws.len() as u64,
        Some(Directive::Space(n)) => len_after - n,
        _ => len_after,
    };
    len as u32
}

#[derive(Debug, Clone)]
enum Directive {
    Text,
    Data,
    Word(Vec<String>),
    Space(u64),
}

#[derive(Debug, Clone)]
struct Line {
    no: usize,
    labels: Vec<String>,
    directive: Option<Directive>,
    stmt: Option<Stmt>,
}

/// A parsed (but not yet resolved) statement.
#[derive(Debug, Clone)]
struct Stmt {
    mnemonic: String,
    operands: Vec<String>,
}

impl Stmt {
    /// Number of machine instructions this statement expands to.
    fn size(&self) -> u32 {
        if self.mnemonic == "li" {
            // Worst case 2 (lui+ori); sized exactly in `li_size` when the
            // operand is a literal, but labels resolve in pass 2 — so we
            // must *commit* to a size in pass 1. We use the literal value
            // when parseable, else assume 2.
            match parse_int(&self.operands.get(1).cloned().unwrap_or_default()) {
                Some(v) if fits_simm16(v) => 1,
                _ => 2,
            }
        } else {
            1
        }
    }

    fn lower(
        &self,
        at: u32,
        symbols: &BTreeMap<String, Symbol>,
        line: usize,
    ) -> Result<Vec<Instr>, AsmError> {
        lower_stmt(self, at, symbols, line)
    }
}

fn strip_comment(s: &str) -> &str {
    match s.find([';', '#']) {
        Some(i) => &s[..i],
        None => s,
    }
}

fn parse_line(no: usize, raw: &str) -> Result<Line, AsmError> {
    let mut rest = strip_comment(raw).trim();
    let mut labels = Vec::new();
    // consume leading `label:` prefixes
    while let Some(colon) = rest.find(':') {
        let (head, tail) = rest.split_at(colon);
        let head = head.trim();
        if head.is_empty() || !is_ident(head) {
            break;
        }
        labels.push(head.to_string());
        rest = tail[1..].trim();
    }
    if rest.is_empty() {
        return Ok(Line {
            no,
            labels,
            directive: None,
            stmt: None,
        });
    }
    if let Some(stripped) = rest.strip_prefix('.') {
        let mut parts = stripped.splitn(2, char::is_whitespace);
        let name = parts.next().unwrap_or("");
        let args = parts.next().unwrap_or("").trim();
        let directive = match name {
            "text" => Directive::Text,
            "data" => Directive::Data,
            "word" => Directive::Word(
                args.split(',')
                    .map(|a| a.trim().to_string())
                    .filter(|a| !a.is_empty())
                    .collect(),
            ),
            "space" => {
                let n = parse_int(args)
                    .and_then(|v| u64::try_from(v).ok())
                    .ok_or_else(|| AsmError {
                        line: no,
                        msg: format!("bad .space count `{}`", one_line(args)),
                    })?;
                Directive::Space(n)
            }
            other => return err(no, format!("unknown directive `.{}`", one_line(other))),
        };
        return Ok(Line {
            no,
            labels,
            directive: Some(directive),
            stmt: None,
        });
    }
    let mut parts = rest.splitn(2, char::is_whitespace);
    let mnemonic = parts.next().unwrap().to_lowercase();
    let operands: Vec<String> = parts
        .next()
        .unwrap_or("")
        .split(',')
        .map(|o| o.trim().to_string())
        .filter(|o| !o.is_empty())
        .collect();
    Ok(Line {
        no,
        labels,
        directive: None,
        stmt: Some(Stmt { mnemonic, operands }),
    })
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().unwrap().is_ascii_alphabetic()
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        && parse_reg(s).is_none()
}

fn parse_reg(s: &str) -> Option<Reg> {
    let s = s.trim();
    if s.eq_ignore_ascii_case("zero") {
        return Some(Reg::ZERO);
    }
    let num = s.strip_prefix('r').or_else(|| s.strip_prefix('R'))?;
    let n: u8 = num.parse().ok()?;
    (n < 16).then_some(Reg(n))
}

fn parse_int(s: &str) -> Option<i64> {
    let s = s.trim();
    if let Some(ch) = s
        .strip_prefix('\'')
        .and_then(|r| r.strip_suffix('\''))
        .filter(|r| r.chars().count() == 1)
    {
        return Some(ch.chars().next().unwrap() as i64);
    }
    let (neg, body) = match s.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, s),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).ok()?
    } else {
        body.parse::<i64>().ok()?
    };
    if neg {
        v.checked_neg()
    } else {
        Some(v)
    }
}

fn fits_simm16(v: i64) -> bool {
    (i64::from(IMM_MIN)..=i64::from(IMM_MAX)).contains(&v)
}

fn resolve_value(
    tok: &str,
    symbols: &BTreeMap<String, Symbol>,
    line: usize,
) -> Result<i64, AsmError> {
    if let Some(v) = parse_int(tok) {
        return Ok(v);
    }
    if let Some(sym) = symbols.get(tok.trim()) {
        return Ok(i64::from(sym.value()));
    }
    err(
        line,
        format!("unresolved symbol or bad literal `{}`", one_line(tok)),
    )
}

/// `imm(reg)` addressing, or bare `imm` meaning `imm(r0)`.
fn parse_addr(
    tok: &str,
    symbols: &BTreeMap<String, Symbol>,
    line: usize,
) -> Result<(Reg, i32), AsmError> {
    let tok = tok.trim();
    if let Some(open) = tok.find('(') {
        let close = tok
            .rfind(')')
            .filter(|&c| c > open)
            .ok_or_else(|| AsmError {
                line,
                msg: format!("missing `)` in address `{}`", one_line(tok)),
            })?;
        let base = parse_reg(&tok[open + 1..close]).ok_or_else(|| AsmError {
            line,
            msg: format!("bad base register in `{}`", one_line(tok)),
        })?;
        let off_str = tok[..open].trim();
        let off = if off_str.is_empty() {
            0
        } else {
            resolve_value(off_str, symbols, line)?
        };
        check_simm(off, line)?;
        Ok((base, off as i32))
    } else {
        let off = resolve_value(tok, symbols, line)?;
        check_simm(off, line)?;
        Ok((Reg::ZERO, off as i32))
    }
}

fn check_simm(v: i64, line: usize) -> Result<(), AsmError> {
    if fits_simm16(v) {
        Ok(())
    } else {
        err(line, format!("immediate {v} out of signed 16-bit range"))
    }
}

fn get_reg(stmt: &Stmt, i: usize, line: usize) -> Result<Reg, AsmError> {
    let tok = get_tok(stmt, i, line)?;
    parse_reg(tok).ok_or_else(|| AsmError {
        line,
        msg: format!("expected register, got `{}`", one_line(tok)),
    })
}

fn get_tok(stmt: &Stmt, i: usize, line: usize) -> Result<&str, AsmError> {
    stmt.operands
        .get(i)
        .map(String::as_str)
        .ok_or_else(|| AsmError {
            line,
            msg: format!("`{}` missing operand {}", one_line(&stmt.mnemonic), i + 1),
        })
}

fn lower_stmt(
    stmt: &Stmt,
    at: u32,
    symbols: &BTreeMap<String, Symbol>,
    line: usize,
) -> Result<Vec<Instr>, AsmError> {
    let m = stmt.mnemonic.as_str();

    // three-register ALU ops
    if let Some(op) = AluOp::ALL.iter().find(|o| o.mnemonic() == m) {
        return Ok(vec![Instr::Alu {
            op: *op,
            rd: get_reg(stmt, 0, line)?,
            rs1: get_reg(stmt, 1, line)?,
            rs2: get_reg(stmt, 2, line)?,
        }]);
    }
    // immediate ALU ops
    if let Some(op) = AluImmOp::ALL.iter().find(|o| o.mnemonic() == m) {
        let rd = get_reg(stmt, 0, line)?;
        let rs1 = get_reg(stmt, 1, line)?;
        let v = resolve_value(get_tok(stmt, 2, line)?, symbols, line)?;
        let range_ok = if op.zero_extends() {
            (0..=i64::from(UIMM_MAX)).contains(&v)
        } else {
            fits_simm16(v)
        };
        if !range_ok {
            return err(line, format!("immediate {v} out of range for `{m}`"));
        }
        if matches!(op, AluImmOp::Slli | AluImmOp::Srli) && !(0..=31).contains(&v) {
            return err(line, format!("shift amount {v} out of 0..=31"));
        }
        return Ok(vec![Instr::AluImm {
            op: *op,
            rd,
            rs1,
            imm: v as i32,
        }]);
    }
    // multiply family
    for op in [MulOp::Mul, MulOp::Div, MulOp::Rem] {
        if op.mnemonic() == m {
            return Ok(vec![Instr::Mul {
                op,
                rd: get_reg(stmt, 0, line)?,
                rs1: get_reg(stmt, 1, line)?,
                rs2: get_reg(stmt, 2, line)?,
            }]);
        }
    }
    // branches
    for cond in [
        BranchCond::Eq,
        BranchCond::Ne,
        BranchCond::Lt,
        BranchCond::Ge,
    ] {
        if cond.mnemonic() == m {
            let rs1 = get_reg(stmt, 0, line)?;
            let rs2 = get_reg(stmt, 1, line)?;
            let t = resolve_value(get_tok(stmt, 2, line)?, symbols, line)?;
            if !(0..=i64::from(BRANCH_TARGET_MAX)).contains(&t) {
                return err(line, format!("branch target {t} out of range"));
            }
            return Ok(vec![Instr::Branch {
                cond,
                rs1,
                rs2,
                target: t as u32,
            }]);
        }
    }

    match m {
        "lui" => {
            let rd = get_reg(stmt, 0, line)?;
            let v = resolve_value(get_tok(stmt, 1, line)?, symbols, line)?;
            if !(0..=0xFFFF).contains(&v) {
                return err(line, format!("lui immediate {v} out of 16-bit range"));
            }
            Ok(vec![Instr::Lui { rd, imm: v as u16 }])
        }
        "ld" => {
            let rd = get_reg(stmt, 0, line)?;
            let (rs1, imm) = parse_addr(get_tok(stmt, 1, line)?, symbols, line)?;
            Ok(vec![Instr::Ld { rd, rs1, imm }])
        }
        "st" => {
            let rs2 = get_reg(stmt, 0, line)?;
            let (rs1, imm) = parse_addr(get_tok(stmt, 1, line)?, symbols, line)?;
            Ok(vec![Instr::St { rs2, rs1, imm }])
        }
        "jal" => {
            let rd = get_reg(stmt, 0, line)?;
            let t = resolve_value(get_tok(stmt, 1, line)?, symbols, line)?;
            if !(0..=i64::from(TARGET_MAX)).contains(&t) {
                return err(line, format!("jump target {t} out of range"));
            }
            Ok(vec![Instr::Jal {
                rd,
                target: t as u32,
            }])
        }
        "jalr" => {
            let rd = get_reg(stmt, 0, line)?;
            let rs1 = get_reg(stmt, 1, line)?;
            let v = match stmt.operands.get(2) {
                Some(tok) => {
                    let v = resolve_value(tok, symbols, line)?;
                    check_simm(v, line)?;
                    v as i32
                }
                None => 0,
            };
            Ok(vec![Instr::Jalr { rd, rs1, imm: v }])
        }
        "yield" => Ok(vec![Instr::Yield]),
        "halt" => Ok(vec![Instr::Halt]),
        "nop" => Ok(vec![Instr::Nop]),
        // ---- pseudo-instructions ----
        "j" => {
            let t = resolve_value(get_tok(stmt, 0, line)?, symbols, line)?;
            if !(0..=i64::from(TARGET_MAX)).contains(&t) {
                return err(line, format!("jump target {t} out of range"));
            }
            Ok(vec![Instr::Jal {
                rd: Reg::ZERO,
                target: t as u32,
            }])
        }
        "mv" => Ok(vec![Instr::AluImm {
            op: AluImmOp::Addi,
            rd: get_reg(stmt, 0, line)?,
            rs1: get_reg(stmt, 1, line)?,
            imm: 0,
        }]),
        // call/ret use r15 as the conventional link register
        "call" => {
            let t = resolve_value(get_tok(stmt, 0, line)?, symbols, line)?;
            if !(0..=i64::from(TARGET_MAX)).contains(&t) {
                return err(line, format!("call target {t} out of range"));
            }
            Ok(vec![Instr::Jal {
                rd: Reg(15),
                target: t as u32,
            }])
        }
        "ret" => Ok(vec![Instr::Jalr {
            rd: Reg::ZERO,
            rs1: Reg(15),
            imm: 0,
        }]),
        // bgt/ble swap operands of blt/bge: a > b ⇔ b < a
        "bgt" | "ble" => {
            let rs1 = get_reg(stmt, 0, line)?;
            let rs2 = get_reg(stmt, 1, line)?;
            let t = resolve_value(get_tok(stmt, 2, line)?, symbols, line)?;
            if !(0..=i64::from(BRANCH_TARGET_MAX)).contains(&t) {
                return err(line, format!("branch target {t} out of range"));
            }
            Ok(vec![Instr::Branch {
                cond: if m == "bgt" {
                    BranchCond::Lt
                } else {
                    BranchCond::Ge
                },
                rs1: rs2,
                rs2: rs1,
                target: t as u32,
            }])
        }
        "neg" => Ok(vec![Instr::Alu {
            op: AluOp::Sub,
            rd: get_reg(stmt, 0, line)?,
            rs1: Reg::ZERO,
            rs2: get_reg(stmt, 1, line)?,
        }]),
        "subi" => {
            let rd = get_reg(stmt, 0, line)?;
            let rs1 = get_reg(stmt, 1, line)?;
            let v = resolve_value(get_tok(stmt, 2, line)?, symbols, line)?;
            let imm = v.saturating_neg();
            check_simm(imm, line)?;
            Ok(vec![Instr::AluImm {
                op: AluImmOp::Addi,
                rd,
                rs1,
                imm: imm as i32,
            }])
        }
        "li" => {
            let rd = get_reg(stmt, 0, line)?;
            let v = resolve_value(get_tok(stmt, 1, line)?, symbols, line)?;
            if !(i64::from(i32::MIN)..=i64::from(u32::MAX)).contains(&v) {
                return err(line, format!("li value {v} out of 32-bit range"));
            }
            let bits = v as u32; // two's complement view
            let committed = stmt.size();
            if committed == 1 {
                Ok(vec![Instr::AluImm {
                    op: AluImmOp::Addi,
                    rd,
                    rs1: Reg::ZERO,
                    imm: bits as i32,
                }])
            } else {
                // label operands were sized at 2 in pass 1; emit the long
                // form even if the resolved value would fit, so addresses
                // stay consistent. `at` is unused but kept for symmetry.
                let _ = at;
                Ok(vec![
                    Instr::Lui {
                        rd,
                        imm: (bits >> 16) as u16,
                    },
                    Instr::AluImm {
                        op: AluImmOp::Ori,
                        rd,
                        rs1: rd,
                        imm: (bits & 0xFFFF) as i32,
                    },
                ])
            }
        }
        other => err(line, format!("unknown mnemonic `{}`", one_line(other))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::decode;

    fn decode_all(p: &Program) -> Vec<Instr> {
        p.text.iter().map(|&w| decode(w).unwrap()).collect()
    }

    #[test]
    fn minimal_program() {
        let p = assemble("addi r1, r0, 7\nhalt\n").unwrap();
        assert_eq!(
            decode_all(&p),
            vec![
                Instr::AluImm {
                    op: AluImmOp::Addi,
                    rd: Reg(1),
                    rs1: Reg(0),
                    imm: 7
                },
                Instr::Halt
            ]
        );
    }

    #[test]
    fn labels_and_branches() {
        let p = assemble(
            r#"
            .text
            start:
                addi r1, r0, 3
            loop:
                subi r1, r1, 1
                bne  r1, r0, loop
                j    start
                halt
            "#,
        )
        .unwrap();
        let is = decode_all(&p);
        assert_eq!(
            is[2],
            Instr::Branch {
                cond: BranchCond::Ne,
                rs1: Reg(1),
                rs2: Reg(0),
                target: 1
            }
        );
        assert_eq!(
            is[3],
            Instr::Jal {
                rd: Reg::ZERO,
                target: 0
            }
        );
    }

    #[test]
    fn data_section_words_and_space() {
        let p = assemble(
            r#"
            .data
            a:  .word 1, 2, 3
            b:  .space 2
            c:  .word 0xFF
            .text
                ld r1, a(r0)
                ld r2, c(r0)
                halt
            "#,
        )
        .unwrap();
        assert_eq!(p.data, vec![1, 2, 3, 0, 0, 0xFF]);
        assert_eq!(p.symbol("a"), Some(Symbol::Data(0)));
        assert_eq!(p.symbol("b"), Some(Symbol::Data(3)));
        assert_eq!(p.symbol("c"), Some(Symbol::Data(5)));
        let is = decode_all(&p);
        assert_eq!(
            is[1],
            Instr::Ld {
                rd: Reg(2),
                rs1: Reg(0),
                imm: 5
            }
        );
    }

    #[test]
    fn li_small_and_large() {
        let p = assemble("li r1, 100\nli r2, 0xDEADBEEF\nhalt\n").unwrap();
        let is = decode_all(&p);
        assert_eq!(is.len(), 4); // 1 + 2 + halt
        assert_eq!(
            is[0],
            Instr::AluImm {
                op: AluImmOp::Addi,
                rd: Reg(1),
                rs1: Reg(0),
                imm: 100
            }
        );
        assert_eq!(
            is[1],
            Instr::Lui {
                rd: Reg(2),
                imm: 0xDEAD
            }
        );
        assert_eq!(
            is[2],
            Instr::AluImm {
                op: AluImmOp::Ori,
                rd: Reg(2),
                rs1: Reg(2),
                imm: 0xBEEF
            }
        );
    }

    #[test]
    fn li_expansion_keeps_label_addresses_straight() {
        // The li of a large constant occupies two slots; the label after
        // it must account for that.
        let p = assemble(
            r#"
                li r1, 0x12345678
            after:
                halt
            "#,
        )
        .unwrap();
        assert_eq!(p.symbol("after"), Some(Symbol::Text(2)));
    }

    #[test]
    fn addressing_modes() {
        let p = assemble("ld r1, 4(r2)\nst r3, -4(r4)\nld r5, 9\nhalt\n").unwrap();
        let is = decode_all(&p);
        assert_eq!(
            is[0],
            Instr::Ld {
                rd: Reg(1),
                rs1: Reg(2),
                imm: 4
            }
        );
        assert_eq!(
            is[1],
            Instr::St {
                rs2: Reg(3),
                rs1: Reg(4),
                imm: -4
            }
        );
        assert_eq!(
            is[2],
            Instr::Ld {
                rd: Reg(5),
                rs1: Reg(0),
                imm: 9
            }
        );
    }

    #[test]
    fn comments_and_blank_lines() {
        let p = assemble("; header\n\n  # another\nnop ; trailing\nhalt\n").unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn zero_alias() {
        let p = assemble("add r1, zero, r2\nhalt\n").unwrap();
        assert_eq!(
            decode_all(&p)[0],
            Instr::Alu {
                op: AluOp::Add,
                rd: Reg(1),
                rs1: Reg(0),
                rs2: Reg(2)
            }
        );
    }

    #[test]
    fn char_literals() {
        let p = assemble("li r1, 'A'\nhalt\n").unwrap();
        assert_eq!(
            decode_all(&p)[0],
            Instr::AluImm {
                op: AluImmOp::Addi,
                rd: Reg(1),
                rs1: Reg(0),
                imm: 65
            }
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("nop\nfrobnicate r1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("frobnicate"));

        let e = assemble("addi r1, r0, 99999\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.msg.contains("out of range"), "{}", e.msg);

        let e = assemble("beq r1, r2, nowhere\n").unwrap_err();
        assert!(e.msg.contains("nowhere"));
    }

    #[test]
    fn duplicate_labels_rejected() {
        let e = assemble("x:\nnop\nx:\nhalt\n").unwrap_err();
        assert!(e.msg.contains("duplicate"));
    }

    #[test]
    fn instruction_in_data_section_rejected() {
        let e = assemble(".data\nnop\n").unwrap_err();
        assert!(e.msg.contains("outside .text"));
    }

    #[test]
    fn shift_range_checked() {
        let e = assemble("slli r1, r1, 32\n").unwrap_err();
        assert!(e.msg.contains("shift amount"));
    }

    #[test]
    fn call_ret_pseudo_ops() {
        let p = assemble(
            r#"
                call func
                st   r3, 0(r0)
                halt
            func:
                addi r3, r0, 77
                ret
            "#,
        )
        .unwrap();
        let is = decode_all(&p);
        assert_eq!(
            is[0],
            Instr::Jal {
                rd: Reg(15),
                target: 3
            }
        );
        assert_eq!(
            is[4],
            Instr::Jalr {
                rd: Reg::ZERO,
                rs1: Reg(15),
                imm: 0
            }
        );
    }

    #[test]
    fn bgt_ble_swap_operands() {
        let p = assemble("bgt r1, r2, 0\nble r3, r4, 0\nhalt\n").unwrap();
        let is = decode_all(&p);
        assert_eq!(
            is[0],
            Instr::Branch {
                cond: BranchCond::Lt,
                rs1: Reg(2),
                rs2: Reg(1),
                target: 0
            }
        );
        assert_eq!(
            is[1],
            Instr::Branch {
                cond: BranchCond::Ge,
                rs1: Reg(4),
                rs2: Reg(3),
                target: 0
            }
        );
    }

    #[test]
    fn neg_pseudo_op() {
        let p = assemble("neg r1, r2\nhalt\n").unwrap();
        assert_eq!(
            decode_all(&p)[0],
            Instr::Alu {
                op: AluOp::Sub,
                rd: Reg(1),
                rs1: Reg::ZERO,
                rs2: Reg(2)
            }
        );
    }

    #[test]
    fn hostile_tokens_fail_on_one_line() {
        for (src, needle) in [
            ("ld r1, )(\n", "missing `)` in address `)(`"),
            (
                "subi r1, r1, 0x-8000000000000000\n",
                "out of signed 16-bit range",
            ),
            ("li r1, --9223372036854775808\n", "bad literal"),
            ("j a\rb\n", "`a\\rb`"),
            ("ld r1, 2(r\u{2028}1)\n", "`2(r\\u{2028}1)`"),
            (".data\n.space 1\u{85}2\n", "`1\\u{85}2`"),
        ] {
            let e = assemble(src).unwrap_err();
            assert!(e.msg.contains(needle), "{src:?}: {e}");
            assert_eq!(e.to_string().lines().count(), 1, "{src:?}: {e}");
        }
    }

    #[test]
    fn label_on_same_line_as_instruction() {
        let p = assemble("start: nop\nloop: halt\n").unwrap();
        assert_eq!(p.symbol("start"), Some(Symbol::Text(0)));
        assert_eq!(p.symbol("loop"), Some(Symbol::Text(1)));
    }
}
