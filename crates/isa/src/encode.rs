//! Fixed-width binary instruction encoding.
//!
//! Instructions encode to 16 bytes, little-endian:
//!
//! ```text
//! [0..2)  opcode  (u16)
//! [2]     rd      (register namespace index)
//! [3]     rs1
//! [4]     rs2
//! [5..8)  reserved (zero)
//! [8..16) imm     (i64)
//! ```
//!
//! Instruction memory addresses are `pc * INST_BYTES`, which is what the
//! I-cache model indexes by.

use crate::inst::Inst;
use crate::op::Opcode;
use crate::reg::{Reg, NUM_REGS};

/// Bytes per encoded instruction.
pub const INST_BYTES: usize = 16;

/// Errors arising while decoding instruction words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input was not a multiple of [`INST_BYTES`] / ran out of bytes.
    Truncated,
    /// Unknown opcode value.
    BadOpcode(u16),
    /// Register index out of the 64-entry namespace.
    BadReg(u8),
    /// Reserved bytes were non-zero.
    BadPadding,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated instruction word"),
            DecodeError::BadOpcode(c) => write!(f, "unknown opcode {c:#06x}"),
            DecodeError::BadReg(r) => write!(f, "register index {r} out of range"),
            DecodeError::BadPadding => write!(f, "non-zero reserved bytes"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Split `N` bytes off the front of `buf`. Callers check the length
/// first, so a short buffer is a bug, not bad input.
pub(crate) fn take<const N: usize>(buf: &mut &[u8]) -> [u8; N] {
    let (head, rest) = buf.split_at(N);
    *buf = rest;
    head.try_into().expect("split_at returned N bytes")
}

/// Append the encoding of `inst` to `out`.
pub fn encode_into(inst: &Inst, out: &mut Vec<u8>) {
    out.extend_from_slice(&inst.op.code().to_le_bytes());
    out.extend_from_slice(&[
        inst.rd.index() as u8,
        inst.rs1.index() as u8,
        inst.rs2.index() as u8,
        0,
        0,
        0,
    ]);
    out.extend_from_slice(&inst.imm.to_le_bytes());
}

/// Encode one instruction to its 16-byte word.
pub fn encode(inst: &Inst) -> [u8; INST_BYTES] {
    let mut buf = Vec::with_capacity(INST_BYTES);
    encode_into(inst, &mut buf);
    buf.try_into().expect("encoding is exactly INST_BYTES")
}

/// Decode one instruction from the front of `buf`, advancing it.
pub fn decode(buf: &mut &[u8]) -> Result<Inst, DecodeError> {
    if buf.len() < INST_BYTES {
        return Err(DecodeError::Truncated);
    }
    let [c0, c1, rd, rs1, rs2, p0, p1, p2] = take(buf);
    let code = u16::from_le_bytes([c0, c1]);
    let op = Opcode::from_code(code).ok_or(DecodeError::BadOpcode(code))?;
    let reg = |b: u8| -> Result<Reg, DecodeError> {
        if (b as usize) < NUM_REGS {
            Ok(Reg::from_index(b))
        } else {
            Err(DecodeError::BadReg(b))
        }
    };
    let (rd, rs1, rs2) = (reg(rd)?, reg(rs1)?, reg(rs2)?);
    if [p0, p1, p2] != [0; 3] {
        return Err(DecodeError::BadPadding);
    }
    let imm = i64::from_le_bytes(take(buf));
    Ok(Inst {
        op,
        rd,
        rs1,
        rs2,
        imm,
    })
}

/// Encode a full instruction stream.
pub fn encode_text(insts: &[Inst]) -> Vec<u8> {
    let mut out = Vec::with_capacity(insts.len() * INST_BYTES);
    for i in insts {
        encode_into(i, &mut out);
    }
    out
}

/// Decode a full instruction stream.
pub fn decode_text(mut bytes: &[u8]) -> Result<Vec<Inst>, DecodeError> {
    if !bytes.len().is_multiple_of(INST_BYTES) {
        return Err(DecodeError::Truncated);
    }
    let mut out = Vec::with_capacity(bytes.len() / INST_BYTES);
    while !bytes.is_empty() {
        out.push(decode(&mut bytes)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::*;
    use proptest::prelude::*;

    #[test]
    fn single_round_trip() {
        let i = Inst::new(Opcode::Ld, R5, R6, R0, -128);
        let w = encode(&i);
        assert_eq!(decode(&mut &w[..]).unwrap(), i);
    }

    #[test]
    fn decode_rejects_bad_opcode() {
        let mut w = encode(&Inst::nop());
        w[0] = 0xff;
        w[1] = 0xff;
        assert_eq!(decode(&mut &w[..]), Err(DecodeError::BadOpcode(0xffff)));
    }

    #[test]
    fn decode_rejects_bad_register() {
        let mut w = encode(&Inst::nop());
        w[2] = 200;
        assert_eq!(decode(&mut &w[..]), Err(DecodeError::BadReg(200)));
    }

    #[test]
    fn decode_rejects_dirty_padding() {
        let mut w = encode(&Inst::nop());
        w[6] = 1;
        assert_eq!(decode(&mut &w[..]), Err(DecodeError::BadPadding));
    }

    #[test]
    fn decode_rejects_short_input() {
        let w = encode(&Inst::nop());
        assert_eq!(decode(&mut &w[..10]), Err(DecodeError::Truncated));
        assert_eq!(decode_text(&w[..10]), Err(DecodeError::Truncated));
    }

    fn arb_inst() -> impl Strategy<Value = Inst> {
        (
            0..Opcode::ALL.len(),
            0..NUM_REGS as u8,
            0..NUM_REGS as u8,
            0..NUM_REGS as u8,
            any::<i64>(),
        )
            .prop_map(|(op, rd, rs1, rs2, imm)| Inst {
                op: Opcode::ALL[op],
                rd: Reg::from_index(rd),
                rs1: Reg::from_index(rs1),
                rs2: Reg::from_index(rs2),
                imm,
            })
    }

    proptest! {
        #[test]
        fn prop_round_trip(inst in arb_inst()) {
            let w = encode(&inst);
            prop_assert_eq!(decode(&mut &w[..]).unwrap(), inst);
        }

        #[test]
        fn prop_stream_round_trip(insts in proptest::collection::vec(arb_inst(), 0..64)) {
            let bytes = encode_text(&insts);
            prop_assert_eq!(bytes.len(), insts.len() * INST_BYTES);
            prop_assert_eq!(decode_text(&bytes).unwrap(), insts);
        }
    }
}
