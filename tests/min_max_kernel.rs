//! The typed min/max kernel (`Vector::min_max_range`) must return exactly
//! what a row-by-row fold of `Value`s under `Value::total_cmp` returns —
//! for every type, over flat, FOR, RLE and dictionary vectors, with NULLs
//! (whose slots hold arbitrary stored values), NaN and both signed zeros,
//! over arbitrary row ranges.

use eider_vector::{LogicalType, StrDict, ValidityMask, Value, Vector, VectorData};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::sync::Arc;

const TYPES: [LogicalType; 9] = [
    LogicalType::Boolean,
    LogicalType::TinyInt,
    LogicalType::SmallInt,
    LogicalType::Integer,
    LogicalType::BigInt,
    LogicalType::Double,
    LogicalType::Varchar,
    LogicalType::Date,
    LogicalType::Timestamp,
];

/// FOR vectors store `FRAME + key * FOR_STEP`.
const FRAME: i64 = -(1 << 40);
const FOR_STEP: u32 = 1_000_003;

fn double_of(k: u16) -> f64 {
    match k {
        0 => -0.0,
        1 => 0.0,
        2 => f64::NAN,
        3 => -f64::NAN,
        4 => f64::INFINITY,
        5 => f64::NEG_INFINITY,
        _ => (f64::from(k) - 14.0) * 0.75,
    }
}

fn string_of(k: u16) -> String {
    if k == 0 {
        String::new()
    } else {
        format!("v{k:02}")
    }
}

/// Flat data holding one value per key under `ty`'s physical type.
fn data_of(ty: LogicalType, keys: &[u16]) -> VectorData {
    let k = keys.iter().map(|&k| i64::from(k) - 12);
    match ty {
        LogicalType::Boolean => VectorData::Bool(keys.iter().map(|k| k % 2 == 1).collect()),
        LogicalType::TinyInt => VectorData::I8(k.map(|x| x as i8).collect()),
        LogicalType::SmallInt => VectorData::I16(k.map(|x| (x * 1000) as i16).collect()),
        LogicalType::Integer | LogicalType::Date => {
            VectorData::I32(k.map(|x| (x * 100_000) as i32).collect())
        }
        LogicalType::BigInt | LogicalType::Timestamp => {
            VectorData::I64(k.map(|x| x * 1_000_000_000_000).collect())
        }
        LogicalType::Double => VectorData::F64(keys.iter().map(|&k| double_of(k)).collect()),
        LogicalType::Varchar => VectorData::Str(keys.iter().map(|&k| string_of(k)).collect()),
    }
}

/// Build a vector of `ty` over `keys` in the requested representation;
/// representations that do not apply to `ty` fall back to flat. NULL
/// rows keep their key's value in the stored slot, so a kernel that reads
/// NULL slots would be caught.
fn build(ty: LogicalType, keys: &[u16], nulls: &[bool], encoding: u8) -> Vector {
    let mut validity = ValidityMask::new_all_valid(keys.len());
    for (row, _) in nulls.iter().enumerate().filter(|(_, &n)| n) {
        validity.set_invalid(row);
    }
    match encoding {
        1 if matches!(ty, LogicalType::BigInt | LogicalType::Timestamp) => {
            let deltas = keys.iter().map(|&k| u32::from(k) * FOR_STEP).collect();
            Vector::from_for(ty, FRAME, deltas, validity).unwrap()
        }
        2 if !keys.is_empty() => {
            let starts: Vec<u32> = (0..keys.len())
                .filter(|&i| i == 0 || keys[i] != keys[i - 1])
                .map(|i| i as u32)
                .collect();
            let run_keys: Vec<u16> = starts.iter().map(|&s| keys[s as usize]).collect();
            Vector::from_rle(ty, data_of(ty, &run_keys), starts, keys.len(), validity).unwrap()
        }
        3 if ty == LogicalType::Varchar => {
            // Dictionary in reverse key order, with an entry no row uses
            // that would win both extremes if it were counted.
            let mut values: Vec<String> = (0..24).rev().map(string_of).collect();
            values.push("~unused".into());
            values.insert(0, "!unused".into());
            let codes = keys.iter().map(|&k| 24 - u32::from(k)).collect();
            Vector::from_dict(ty, Arc::new(StrDict::new(values)), codes, validity).unwrap()
        }
        _ => Vector::from_parts(ty, data_of(ty, keys), validity).unwrap(),
    }
}

/// The oracle: fold `get_value` row by row under `Value::total_cmp`,
/// keeping the first of equal extremes.
fn fold_min_max(v: &Vector, offset: usize, count: usize) -> Option<(Value, Value)> {
    let mut acc: Option<(Value, Value)> = None;
    for row in offset..offset + count {
        if v.is_null(row) {
            continue;
        }
        let x = v.get_value(row);
        match &mut acc {
            None => acc = Some((x.clone(), x)),
            Some((lo, hi)) => {
                if x.total_cmp(lo) == Ordering::Less {
                    *lo = x.clone();
                }
                if x.total_cmp(hi) == Ordering::Greater {
                    *hi = x;
                }
            }
        }
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn typed_kernel_matches_the_per_cell_fold(
        ty in 0usize..TYPES.len(),
        encoding in 0u8..4,
        cells in prop::collection::vec((0u16..24, 1usize..6, any::<bool>()), 0..120),
        domain in 1u16..25,
        null_share in 0u8..4,
        range in (0usize..1000, 0usize..1000),
    ) {
        let ty = TYPES[ty];
        // A small key domain makes ties (-0.0 vs 0.0) frequent; repeat
        // each key to make runs; NULL density from none to most.
        let mut keys = Vec::new();
        let mut nulls = Vec::new();
        for (i, &(k, repeat, coin)) in cells.iter().enumerate() {
            for r in 0..repeat {
                keys.push(k % domain);
                nulls.push(match null_share {
                    0 => false,
                    1 => coin && r == 0 && i % 3 == 0,
                    2 => coin,
                    _ => coin || r % 2 == 1,
                });
            }
        }
        let v = build(ty, &keys, &nulls, encoding);
        let offset = range.0 % (keys.len() + 1);
        let count = range.1 % (keys.len() - offset + 1);
        let want = fold_min_max(&v, offset, count);
        let got = v.min_max_range(offset, count);
        // Debug form tells -0.0 from 0.0 (and NaN from any number).
        prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
        if offset == 0 && count == keys.len() {
            prop_assert_eq!(format!("{:?}", v.min_max()), format!("{want:?}"));
        }
    }
}

#[test]
fn every_encoding_is_reached() {
    let keys = [3u16, 3, 3, 7, 7, 1, 1, 1, 1, 9];
    let nulls = [false; 10];
    let encodings = [
        (LogicalType::BigInt, 1, eider_vector::Encoding::For),
        (LogicalType::Integer, 2, eider_vector::Encoding::Rle),
        (LogicalType::Varchar, 3, eider_vector::Encoding::Dict),
        (LogicalType::Double, 0, eider_vector::Encoding::Plain),
    ];
    for (ty, encoding, want) in encodings {
        assert_eq!(build(ty, &keys, &nulls, encoding).encoding(), want, "{ty}");
    }
}
