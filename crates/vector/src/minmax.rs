//! The typed min/max kernel behind zone maps, write summaries and Arrow
//! footer statistics.
//!
//! [`Vector::min_max_range`] finds the extremes of a row range in one pass
//! over the vector's own storage — the flat typed slice, or the encoded
//! parts of a FOR, RLE or dictionary vector — and builds a [`Value`] only
//! for the two winners. The order is [`EngineOrd`], which agrees with
//! [`Value::total_cmp`] on every physical type, so merging the `(lo, hi)`
//! of a slice into a running range gives exactly what folding the slice's
//! values into it one by one would.

use crate::types::LogicalType;
use crate::validity::ValidityMask;
use crate::value::Value;
use crate::vector::{value_at, Vector, VectorData};
use std::cmp::Ordering;

/// The engine's total order on one physical type: the order
/// [`Value::total_cmp`] applies to two non-NULL values of that type.
/// Integers, booleans and strings use their natural order. Doubles compare
/// numerically, with `-0.0 == 0.0`, every NaN equal to every other NaN and
/// greater than every number.
pub trait EngineOrd {
    fn engine_cmp(&self, other: &Self) -> Ordering;
}

macro_rules! natural_engine_ord {
    ($($t:ty),*) => {$(
        impl EngineOrd for $t {
            #[inline]
            fn engine_cmp(&self, other: &Self) -> Ordering {
                self.cmp(other)
            }
        }
    )*};
}

natural_engine_ord!(bool, i8, i16, i32, i64, u32, String);

impl EngineOrd for f64 {
    #[inline]
    fn engine_cmp(&self, other: &Self) -> Ordering {
        match (self.is_nan(), other.is_nan()) {
            (false, false) => self.partial_cmp(other).expect("neither side is NaN"),
            (a, b) => a.cmp(&b),
        }
    }
}

/// Indexes of the first minimum and the first maximum among the rows of
/// `data` that `validity` marks valid in `[start, end)`.
#[inline]
fn extremes<T: EngineOrd>(
    data: &[T],
    validity: &ValidityMask,
    start: usize,
    end: usize,
) -> Option<(usize, usize)> {
    if validity.words().is_none() {
        // All valid: a dense loop that keeps the winners in registers.
        let rows = &data[start..end];
        let first = rows.first()?;
        let ((mut lo, mut lo_v), (mut hi, mut hi_v)) = ((0, first), (0, first));
        for (i, x) in rows.iter().enumerate().skip(1) {
            if x.engine_cmp(lo_v) == Ordering::Less {
                (lo, lo_v) = (i, x);
            } else if x.engine_cmp(hi_v) == Ordering::Greater {
                (hi, hi_v) = (i, x);
            }
        }
        return Some((start + lo, start + hi));
    }
    let mut acc: Option<(usize, usize)> = None;
    validity.for_each_valid(start, end, |i| match &mut acc {
        None => acc = Some((i, i)),
        Some((lo, hi)) => {
            // A strict comparison keeps the first of equal extremes, as a
            // row-by-row fold does (it matters for `-0.0` vs `0.0`).
            if data[i].engine_cmp(&data[*lo]) == Ordering::Less {
                *lo = i;
            } else if data[i].engine_cmp(&data[*hi]) == Ordering::Greater {
                *hi = i;
            }
        }
    });
    acc
}

/// [`extremes`] over a flat column, lifted to `Value`s of type `ty`.
fn flat_extremes(
    data: &VectorData,
    ty: LogicalType,
    validity: &ValidityMask,
    start: usize,
    end: usize,
) -> Option<(Value, Value)> {
    let (lo, hi) = match data {
        VectorData::Bool(d) => extremes(d, validity, start, end),
        VectorData::I8(d) => extremes(d, validity, start, end),
        VectorData::I16(d) => extremes(d, validity, start, end),
        VectorData::I32(d) => extremes(d, validity, start, end),
        VectorData::I64(d) => extremes(d, validity, start, end),
        VectorData::F64(d) => extremes(d, validity, start, end),
        VectorData::Str(d) => extremes(d, validity, start, end),
    }?;
    Some((value_at(data, ty, lo), value_at(data, ty, hi)))
}

impl Vector {
    /// Min and max over the valid rows of `[offset, offset + count)`, or
    /// `None` if every row of the range is NULL (or the range is empty).
    /// This powers the per-row-group zone maps used for scan skipping (§6:
    /// "skip irrelevant blocks of rows during a scan"), the transaction
    /// write summary and the Arrow writer's footer statistics.
    ///
    /// The order is [`Value::total_cmp`]'s ([`EngineOrd`]): NaN sorts after
    /// every number and equals every NaN, `-0.0` equals `0.0`, and of equal
    /// extremes the first row's value wins — the result equals a row-by-row
    /// fold of [`Vector::get_value`] under `total_cmp`. NULL rows are
    /// skipped by the validity mask, a word at a time.
    ///
    /// Encoded vectors stay encoded: a FOR vector reduces its `u32` deltas
    /// and adds the frame back to the two winners, an RLE vector reduces
    /// the values of the runs that hold a valid row of the range, and a
    /// dictionary vector marks the codes present and compares each distinct
    /// string once. Only the two winners become [`Value`]s.
    ///
    /// Panics if the range runs past the vector's end.
    pub fn min_max_range(&self, offset: usize, count: usize) -> Option<(Value, Value)> {
        let end = offset + count;
        assert!(end <= self.len(), "min_max_range [{offset}, {end}) past length {}", self.len());
        if count == 0 {
            return None;
        }
        let ty = self.logical_type();
        let validity = self.validity();
        if let Some((frame, deltas)) = self.for_parts() {
            let (lo, hi) = extremes(deltas, validity, offset, end)?;
            let lift = |d: u32| {
                let x = frame + i64::from(d);
                if ty == LogicalType::Timestamp {
                    Value::Timestamp(x)
                } else {
                    Value::BigInt(x)
                }
            };
            return Some((lift(deltas[lo]), lift(deltas[hi])));
        }
        if let Some((runs, starts)) = self.rle_parts() {
            // Reduce over the values of the runs that overlap the range.
            // Runs are in row order, so the first run holding a winning
            // value also holds the first row with it.
            let run_of = |row: usize| starts.partition_point(|&s| s as usize <= row) - 1;
            let (first, last) = (run_of(offset), run_of(end - 1));
            let mut present = ValidityMask::new_all_valid(runs.len());
            if validity.words().is_some() {
                // A run counts only if one of its rows in the range is
                // valid: a NULL slot's stored default must not win.
                let mut hit = vec![false; last + 1 - first];
                let mut run = first;
                validity.for_each_valid(offset, end, |row| {
                    while starts.get(run + 1).is_some_and(|&s| s as usize <= row) {
                        run += 1;
                    }
                    hit[run - first] = true;
                });
                for (k, _) in hit.iter().enumerate().filter(|(_, &h)| !h) {
                    present.set_invalid(first + k);
                }
            }
            return flat_extremes(runs, ty, &present, first, last + 1);
        }
        if let Some((dict, codes)) = self.dict_parts() {
            let mut present = vec![0u64; dict.len().div_ceil(64)];
            validity.for_each_valid(offset, end, |row| {
                let c = codes[row] as usize;
                present[c / 64] |= 1 << (c % 64);
            });
            let mut best: Option<(&str, &str)> = None;
            for (w, &word) in present.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let s = dict.get((w * 64) as u32 + bits.trailing_zeros());
                    bits &= bits - 1;
                    best = Some(match best {
                        None => (s, s),
                        Some((lo, hi)) => (lo.min(s), hi.max(s)),
                    });
                }
            }
            let (lo, hi) = best?;
            return Some((Value::Varchar(lo.to_string()), Value::Varchar(hi.to_string())));
        }
        flat_extremes(self.data(), ty, validity, offset, end)
    }

    /// [`Vector::min_max_range`] over every row.
    pub fn min_max(&self) -> Option<(Value, Value)> {
        self.min_max_range(0, self.len())
    }
}
