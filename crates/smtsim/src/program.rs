//! Executable program images.
//!
//! A [`Program`] is what the assembler produces and a hardware thread
//! executes: encoded instruction words plus an initial data-memory image
//! and a symbol table. Keeping instructions *encoded* means fault
//! injection and diversity transforms work on the same representation the
//! machine fetches.

use crate::encode::{decode, encode, DecodeError};
use crate::isa::Instr;
use std::collections::BTreeMap;

/// An assembled program image.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// Encoded instruction memory (one `u32` word per instruction).
    pub text: Vec<u32>,
    /// Initial data-memory contents, starting at data address 0.
    pub data: Vec<u32>,
    /// Label → instruction index (text labels) or data word index (data
    /// labels are prefixed with nothing; the assembler keeps them in the
    /// same namespace and records which section they were defined in).
    pub symbols: BTreeMap<String, Symbol>,
    /// Entry point (instruction index), usually 0.
    pub entry: u32,
}

/// A named location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Symbol {
    /// Instruction index in `.text`.
    Text(u32),
    /// Word address in `.data`.
    Data(u32),
}

impl Symbol {
    /// The numeric value used when the symbol appears as an operand.
    pub fn value(self) -> u32 {
        match self {
            Symbol::Text(v) | Symbol::Data(v) => v,
        }
    }
}

impl Program {
    /// Build directly from decoded instructions (no data section).
    pub fn from_instrs(instrs: &[Instr]) -> Program {
        Program {
            text: instrs.iter().map(encode).collect(),
            ..Program::default()
        }
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// `true` if the text section is empty.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// Decode instruction `idx` (strict decoding).
    pub fn instr(&self, idx: usize) -> Result<Instr, DecodeError> {
        decode(self.text[idx])
    }

    /// Decode the whole text section; fails on the first corrupt word.
    pub fn decode_all(&self) -> Result<Vec<Instr>, (usize, DecodeError)> {
        self.text
            .iter()
            .enumerate()
            .map(|(i, &w)| decode(w).map_err(|e| (i, e)))
            .collect()
    }

    /// Look up a symbol's value.
    pub fn symbol(&self, name: &str) -> Option<Symbol> {
        self.symbols.get(name).copied()
    }

    /// 64-bit FNV-1a digest of the text section — used to tell diverse
    /// versions apart and to detect program-memory corruption.
    pub fn text_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for w in &self.text {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{AluImmOp, Reg};

    fn addi(rd: u8, rs1: u8, imm: i32) -> Instr {
        Instr::AluImm {
            op: AluImmOp::Addi,
            rd: Reg(rd),
            rs1: Reg(rs1),
            imm,
        }
    }

    #[test]
    fn from_instrs_roundtrips() {
        let prog = Program::from_instrs(&[addi(1, 0, 5), Instr::Halt]);
        assert_eq!(prog.len(), 2);
        assert_eq!(prog.instr(0).unwrap(), addi(1, 0, 5));
        assert_eq!(prog.instr(1).unwrap(), Instr::Halt);
        assert_eq!(prog.decode_all().unwrap().len(), 2);
    }

    #[test]
    fn corrupt_word_detected() {
        let mut prog = Program::from_instrs(&[addi(1, 0, 5)]);
        prog.text[0] = 0xFFFF_FFFF; // opcode 63: undefined
        assert!(prog.instr(0).is_err());
        assert_eq!(prog.decode_all().unwrap_err().0, 0);
    }

    #[test]
    fn symbols() {
        let mut prog = Program::from_instrs(&[Instr::Halt]);
        prog.symbols.insert("start".into(), Symbol::Text(0));
        prog.symbols.insert("buf".into(), Symbol::Data(16));
        assert_eq!(prog.symbol("start"), Some(Symbol::Text(0)));
        assert_eq!(prog.symbol("buf").unwrap().value(), 16);
        assert_eq!(prog.symbol("nope"), None);
    }
}
