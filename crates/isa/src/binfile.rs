//! The SPEAR executable file format.
//!
//! Module ④ of the paper's compiler "attaches the p-thread information to
//! the SPEAR binary"; this module defines that on-disk container: the
//! program text (fixed 16-byte instruction words), the initial data image,
//! the symbol tables, and the p-thread table — everything the simulator's
//! loader needs, in one deterministic little-endian blob.
//!
//! ```text
//! "SPEARBIN"  magic          (8 bytes)
//! u32         format version (currently 1)
//! u32         entry pc
//! u32         instruction count, then count × 16-byte words
//! u64         initialized data length, then the bytes
//! u64         total data size
//! u32         label count,   then (u16 len, name, u32 pc)*
//! u32         symbol count,  then (u16 len, name, u64 addr)*
//! u32         p-thread count, then per entry:
//!               u32 dload_pc
//!               u32 member count, u32 members…
//!               u16 live-in count, u8 register indices…
//!               u16 region loop-header count, u32 headers…
//!               f64 region d-cycle
//!               u64 profiled misses
//! ```

use crate::encode::{decode_text, encode_text, take, DecodeError};
use crate::program::{DataImage, Program};
use crate::pthread::{PThreadEntry, PThreadTable, RegionInfo};
use crate::reg::{Reg, NUM_REGS};
use crate::SpearBinary;
use std::collections::BTreeMap;
use std::fmt;

const MAGIC: &[u8; 8] = b"SPEARBIN";
const VERSION: u32 = 1;

/// Errors while loading a SPEAR binary file.
#[derive(Debug, Clone, PartialEq)]
pub enum BinError {
    /// Missing or wrong magic bytes.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// Ran out of bytes mid-structure.
    Truncated(&'static str),
    /// A name was not valid UTF-8.
    BadName,
    /// Instruction text failed to decode.
    BadText(DecodeError),
    /// A register index was out of range.
    BadReg(u8),
    /// The loaded binary failed validation.
    Invalid(String),
}

impl fmt::Display for BinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinError::BadMagic => write!(f, "not a SPEAR binary (bad magic)"),
            BinError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            BinError::Truncated(what) => write!(f, "truncated while reading {what}"),
            BinError::BadName => write!(f, "non-UTF-8 name"),
            BinError::BadText(e) => write!(f, "bad instruction text: {e}"),
            BinError::BadReg(r) => write!(f, "register index {r} out of range"),
            BinError::Invalid(e) => write!(f, "invalid binary: {e}"),
        }
    }
}

impl std::error::Error for BinError {}

/// Smallest encoding of one p-thread entry: dload pc, member count,
/// live-in count, header count, d-cycle and miss count with empty lists.
const MIN_ENTRY_BYTES: usize = 4 + 4 + 2 + 2 + 8 + 8;

fn get_u16(buf: &mut &[u8]) -> u16 {
    u16::from_le_bytes(take(buf))
}

fn get_u32(buf: &mut &[u8]) -> u32 {
    u32::from_le_bytes(take(buf))
}

fn get_u64(buf: &mut &[u8]) -> u64 {
    u64::from_le_bytes(take(buf))
}

/// Split `n` bytes off the front of `buf` (checked by [`need`] first).
fn get_bytes<'a>(buf: &mut &'a [u8], n: usize) -> &'a [u8] {
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    head
}

fn put_name(out: &mut Vec<u8>, name: &str) {
    out.extend((name.len() as u16).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
}

fn get_name(buf: &mut &[u8]) -> Result<String, BinError> {
    need(buf, 2, "name length")?;
    let len = get_u16(buf) as usize;
    need(buf, len, "name bytes")?;
    String::from_utf8(get_bytes(buf, len).to_vec()).map_err(|_| BinError::BadName)
}

fn need(buf: &[u8], n: usize, what: &'static str) -> Result<(), BinError> {
    if buf.len() < n {
        Err(BinError::Truncated(what))
    } else {
        Ok(())
    }
}

/// Serialize a SPEAR binary to bytes.
pub fn save(binary: &SpearBinary) -> Vec<u8> {
    let p = &binary.program;
    let mut out = Vec::with_capacity(64 + p.insts.len() * 16 + p.data.init.len());
    out.extend_from_slice(MAGIC);
    out.extend(VERSION.to_le_bytes());
    out.extend(p.entry.to_le_bytes());
    out.extend((p.insts.len() as u32).to_le_bytes());
    out.extend_from_slice(&encode_text(&p.insts));
    out.extend((p.data.init.len() as u64).to_le_bytes());
    out.extend_from_slice(&p.data.init);
    out.extend((p.data.size as u64).to_le_bytes());
    out.extend((p.labels.len() as u32).to_le_bytes());
    for (name, &pc) in &p.labels {
        put_name(&mut out, name);
        out.extend(pc.to_le_bytes());
    }
    out.extend((p.data_symbols.len() as u32).to_le_bytes());
    for (name, &addr) in &p.data_symbols {
        put_name(&mut out, name);
        out.extend(addr.to_le_bytes());
    }
    out.extend((binary.table.entries.len() as u32).to_le_bytes());
    for e in &binary.table.entries {
        out.extend(e.dload_pc.to_le_bytes());
        out.extend((e.members.len() as u32).to_le_bytes());
        for &m in &e.members {
            out.extend(m.to_le_bytes());
        }
        out.extend((e.live_ins.len() as u16).to_le_bytes());
        out.extend(e.live_ins.iter().map(|r| r.index() as u8));
        out.extend((e.region.loop_headers.len() as u16).to_le_bytes());
        for &h in &e.region.loop_headers {
            out.extend(h.to_le_bytes());
        }
        out.extend(e.region.dcycle.to_le_bytes());
        out.extend(e.profiled_misses.to_le_bytes());
    }
    out
}

/// Deserialize and validate a SPEAR binary.
pub fn load(mut buf: &[u8]) -> Result<SpearBinary, BinError> {
    let buf = &mut buf;
    need(buf, 8, "magic")?;
    if get_bytes(buf, 8) != MAGIC {
        return Err(BinError::BadMagic);
    }
    need(buf, 4, "version")?;
    let version = get_u32(buf);
    if version != VERSION {
        return Err(BinError::BadVersion(version));
    }
    need(buf, 8, "header")?;
    let entry = get_u32(buf);
    let n_insts = get_u32(buf) as usize;
    need(buf, n_insts * 16, "instruction text")?;
    let insts = decode_text(get_bytes(buf, n_insts * 16)).map_err(BinError::BadText)?;

    need(buf, 8, "data length")?;
    let init_len = get_u64(buf) as usize;
    need(buf, init_len, "data image")?;
    let init = get_bytes(buf, init_len).to_vec();
    need(buf, 8, "data size")?;
    let size = get_u64(buf) as usize;

    need(buf, 4, "label count")?;
    let n_labels = get_u32(buf);
    let mut labels = BTreeMap::new();
    for _ in 0..n_labels {
        let name = get_name(buf)?;
        need(buf, 4, "label pc")?;
        labels.insert(name, get_u32(buf));
    }
    need(buf, 4, "symbol count")?;
    let n_syms = get_u32(buf);
    let mut data_symbols = BTreeMap::new();
    for _ in 0..n_syms {
        let name = get_name(buf)?;
        need(buf, 8, "symbol address")?;
        data_symbols.insert(name, get_u64(buf));
    }

    need(buf, 4, "p-thread count")?;
    let n_entries = get_u32(buf) as usize;
    // The count is untrusted: reserve no more entries than the remaining
    // bytes could hold, so a hostile count fails as truncation below
    // instead of aborting on a huge allocation.
    let mut entries = Vec::with_capacity(n_entries.min(buf.len() / MIN_ENTRY_BYTES));
    for _ in 0..n_entries {
        need(buf, 8, "p-thread header")?;
        let dload_pc = get_u32(buf);
        let n_members = get_u32(buf) as usize;
        need(buf, n_members * 4, "p-thread members")?;
        let members = (0..n_members).map(|_| get_u32(buf)).collect();
        need(buf, 2, "live-in count")?;
        let n_live = get_u16(buf) as usize;
        need(buf, n_live, "live-ins")?;
        let live_ins = get_bytes(buf, n_live)
            .iter()
            .map(|&idx| {
                if (idx as usize) < NUM_REGS {
                    Ok(Reg::from_index(idx))
                } else {
                    Err(BinError::BadReg(idx))
                }
            })
            .collect::<Result<_, _>>()?;
        need(buf, 2, "region header count")?;
        let n_headers = get_u16(buf) as usize;
        need(buf, n_headers * 4 + 16, "region")?;
        let loop_headers = (0..n_headers).map(|_| get_u32(buf)).collect();
        let dcycle = f64::from_le_bytes(take(buf));
        let profiled_misses = get_u64(buf);
        entries.push(PThreadEntry {
            dload_pc,
            members,
            live_ins,
            region: RegionInfo {
                loop_headers,
                dcycle,
            },
            profiled_misses,
        });
    }

    let binary = SpearBinary {
        program: Program {
            insts,
            labels,
            data_symbols,
            data: DataImage { init, size },
            entry,
        },
        table: PThreadTable { entries },
    };
    binary.validate().map_err(BinError::Invalid)?;
    Ok(binary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::reg::*;

    fn sample() -> SpearBinary {
        let mut a = Asm::new();
        let xs = a.alloc_u64("xs", &[1, 2, 3]);
        a.reserve("buf", 100);
        a.li(R1, xs as i64);
        a.label("loop");
        a.ld(R2, R1, 0);
        a.addi(R1, R1, 8);
        a.bne(R2, R0, "loop");
        a.halt();
        let program = a.finish().unwrap();
        let table = PThreadTable {
            entries: vec![PThreadEntry {
                dload_pc: 1,
                members: vec![1, 2],
                live_ins: vec![R1],
                region: RegionInfo {
                    loop_headers: vec![1],
                    dcycle: 42.5,
                },
                profiled_misses: 777,
            }],
        };
        SpearBinary { program, table }
    }

    #[test]
    fn round_trip() {
        let b = sample();
        let bytes = save(&b);
        let loaded = load(&bytes).unwrap();
        assert_eq!(loaded.program.insts, b.program.insts);
        assert_eq!(loaded.program.labels, b.program.labels);
        assert_eq!(loaded.program.data_symbols, b.program.data_symbols);
        assert_eq!(loaded.program.data, b.program.data);
        assert_eq!(loaded.program.entry, b.program.entry);
        assert_eq!(loaded.table, b.table);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = save(&sample());
        bytes[0] = b'X';
        assert!(matches!(load(&bytes), Err(BinError::BadMagic)));
    }

    #[test]
    fn rejects_bad_version() {
        let mut bytes = save(&sample());
        bytes[8] = 99;
        assert!(matches!(load(&bytes), Err(BinError::BadVersion(99))));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let bytes = save(&sample());
        for cut in [0, 4, 8, 12, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(load(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn rejects_corrupted_table() {
        let b = sample();
        let mut bytes = save(&b);
        // Flip the d-load pc in the table to something out of range; the
        // table is at the very end: dload_pc is 4+… walk from the back:
        // last 8 bytes misses, 8 dcycle, 4 header, 2 hc, 1 live, 2 lc,
        // 8 members, 4 mc, 4 dload_pc.
        let pos = bytes.len() - (8 + 8 + 4 + 2 + 1 + 2 + 8 + 4 + 4);
        bytes[pos..pos + 4].copy_from_slice(&999u32.to_le_bytes());
        assert!(matches!(load(&bytes), Err(BinError::Invalid(_))));
    }

    #[test]
    fn hostile_entry_count_is_truncation_not_an_abort() {
        // An empty program whose p-thread count claims 2^32 - 1 entries:
        // reserving them up front would ask for hundreds of gigabytes.
        let mut bytes = save(&SpearBinary::plain(Program::default()));
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            load(&bytes).err(),
            Some(BinError::Truncated("p-thread header"))
        );
    }

    #[test]
    fn plain_binary_round_trips() {
        let b = SpearBinary::plain(sample().program);
        let loaded = load(&save(&b)).unwrap();
        assert!(loaded.table.is_empty());
    }
}
