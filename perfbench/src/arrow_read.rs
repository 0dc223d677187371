//! A host-side reader for the engine's Arrow IPC export, working on an
//! in-memory buffer the way an analytics host would (the engine's own
//! reader, `eider_etl::arrow::ArrowFileSource`, reads files). It walks the
//! record batches in order and rebuilds plain columns. The layout is
//! documented in `eider_etl::arrow`.
//!
//! It decodes only the column types a workload exports (INTEGER, DATE,
//! BIGINT, DOUBLE) and rejects anything else, dictionary batches included.

use eider_vector::{DataChunk, LogicalType, ValidityMask, Vector, VectorData};

const MAGIC: &[u8; 8] = b"ARROW1\0\0";
const MSG_BATCH: u32 = 2;
const ENC_PLAIN: u8 = 0;

struct Bytes<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Bytes<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let end = end.ok_or_else(|| format!("arrow buffer truncated at byte {}", self.pos))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn pad8(&mut self) -> Result<(), String> {
        self.take(self.pos.next_multiple_of(8) - self.pos).map(|_| ())
    }
}

fn type_of(tag: u8) -> Result<LogicalType, String> {
    Ok(match tag {
        4 => LogicalType::Integer,
        5 => LogicalType::BigInt,
        6 => LogicalType::Double,
        8 => LogicalType::Date,
        t => return Err(format!("arrow type tag {t} is not decoded (no workload exports it)")),
    })
}

fn fixed<const W: usize, T>(
    b: &mut Bytes<'_>,
    n: usize,
    f: fn([u8; W]) -> T,
) -> Result<Vec<T>, String> {
    let raw = b.take(n * W)?;
    Ok(raw.chunks_exact(W).map(|c| f(c.try_into().expect("width"))).collect())
}

/// Decode an Arrow IPC buffer into the chunks it holds (one per record
/// batch) and the column types.
pub fn decode(buf: &[u8]) -> Result<(Vec<LogicalType>, Vec<DataChunk>), String> {
    let n = buf.len();
    if n < 20 || &buf[..8] != MAGIC || &buf[n - 8..] != MAGIC {
        return Err("not an arrow buffer".into());
    }
    let footer_len = u32::from_le_bytes(buf[n - 12..n - 8].try_into().expect("4 bytes")) as usize;
    let footer_start = (n - 12).checked_sub(footer_len).ok_or("bad arrow footer length")?;
    let mut footer = Bytes { buf: &buf[footer_start..n - 12], pos: 0 };
    let ncols = footer.u32()? as usize;
    let mut types = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        types.push(type_of(footer.take(1)?[0])?);
        let name_len = u16::from_le_bytes(footer.take(2)?.try_into().expect("2 bytes"));
        footer.take(name_len as usize)?;
    }
    let mut chunks = Vec::new();
    let mut msgs = Bytes { buf: &buf[..footer_start], pos: MAGIC.len() };
    while msgs.pos < footer_start {
        let kind = msgs.u32()?;
        let len = msgs.u32()? as usize;
        let mut body = Bytes { buf: msgs.take(len)?, pos: 0 };
        msgs.pad8()?;
        match kind {
            MSG_BATCH => {
                let rows = body.u32()? as usize;
                let mut columns = Vec::with_capacity(ncols);
                for &ty in &types {
                    if body.take(1)?[0] != ENC_PLAIN {
                        return Err("dictionary-coded arrow columns are not decoded".into());
                    }
                    body.pad8()?;
                    let bitmap = body.take(rows.div_ceil(8))?;
                    body.pad8()?;
                    let mut validity = ValidityMask::new_all_valid(rows);
                    for row in (0..rows).filter(|r| bitmap[r / 8] & (1 << (r % 8)) == 0) {
                        validity.set_invalid(row);
                    }
                    let data = match ty {
                        LogicalType::Integer | LogicalType::Date => {
                            VectorData::I32(fixed(&mut body, rows, i32::from_le_bytes)?)
                        }
                        LogicalType::BigInt => {
                            VectorData::I64(fixed(&mut body, rows, i64::from_le_bytes)?)
                        }
                        LogicalType::Double => {
                            VectorData::F64(fixed(&mut body, rows, f64::from_le_bytes)?)
                        }
                        _ => unreachable!("type_of admits only the types above"),
                    };
                    body.pad8()?;
                    columns
                        .push(Vector::from_parts(ty, data, validity).map_err(|e| e.to_string())?);
                }
                chunks.push(DataChunk::from_vectors(columns).map_err(|e| e.to_string())?);
            }
            k => {
                return Err(format!(
                    "arrow message kind {k} is not decoded (only record batches are)"
                ))
            }
        }
    }
    Ok((types, chunks))
}
