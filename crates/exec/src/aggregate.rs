//! Aggregate functions and their accumulation states.
//!
//! OLAP queries "involve multiple aggregates" (§2); these states are the
//! targets of both the vectorized engine's hash aggregation and the
//! row-at-a-time baseline, so the two engines share semantics exactly.

use eider_vector::{
    EiderError, EngineOrd, LogicalType, Result, SelectionVector, Value, Vector, VectorData,
};
use std::cmp::Ordering;
use std::collections::HashSet;

/// The aggregate function kinds eider supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    CountStar,
    Count,
    Sum,
    Avg,
    Min,
    Max,
    /// Sample standard deviation (Welford's online algorithm).
    StdDevSamp,
    /// Sample variance.
    VarSamp,
}

impl AggKind {
    pub fn by_name(name: &str) -> Option<AggKind> {
        Some(match name.to_ascii_lowercase().as_str() {
            "count" => AggKind::Count,
            "sum" => AggKind::Sum,
            "avg" | "mean" => AggKind::Avg,
            "min" => AggKind::Min,
            "max" => AggKind::Max,
            "stddev" | "stddev_samp" => AggKind::StdDevSamp,
            "variance" | "var_samp" => AggKind::VarSamp,
            _ => return None,
        })
    }

    /// Result type given the argument type.
    pub fn result_type(&self, input: Option<LogicalType>) -> LogicalType {
        match self {
            AggKind::CountStar | AggKind::Count => LogicalType::BigInt,
            AggKind::Sum => match input {
                Some(LogicalType::Double) => LogicalType::Double,
                _ => LogicalType::BigInt,
            },
            AggKind::Avg | AggKind::StdDevSamp | AggKind::VarSamp => LogicalType::Double,
            AggKind::Min | AggKind::Max => input.unwrap_or(LogicalType::Varchar),
        }
    }
}

/// Accumulator state for one aggregate in one group.
#[derive(Debug, Clone)]
pub enum AggState {
    Count(i64),
    SumInt {
        sum: i128,
        seen: bool,
    },
    SumDouble {
        sum: f64,
        seen: bool,
    },
    Avg {
        sum: f64,
        count: i64,
    },
    Min(Option<Value>),
    Max(Option<Value>),
    Welford {
        count: i64,
        mean: f64,
        m2: f64,
        variance: bool,
    },
    /// DISTINCT wrapper: dedup first, feed the inner state at finalize.
    Distinct {
        seen: HashSet<Value>,
        inner: Box<AggState>,
    },
}

impl AggState {
    /// Fresh state for an aggregate over the given input type.
    pub fn new(kind: AggKind, input: Option<LogicalType>, distinct: bool) -> AggState {
        let inner = match kind {
            AggKind::CountStar | AggKind::Count => AggState::Count(0),
            AggKind::Sum => match input {
                Some(LogicalType::Double) => AggState::SumDouble { sum: 0.0, seen: false },
                _ => AggState::SumInt { sum: 0, seen: false },
            },
            AggKind::Avg => AggState::Avg { sum: 0.0, count: 0 },
            AggKind::Min => AggState::Min(None),
            AggKind::Max => AggState::Max(None),
            AggKind::StdDevSamp => {
                AggState::Welford { count: 0, mean: 0.0, m2: 0.0, variance: false }
            }
            AggKind::VarSamp => AggState::Welford { count: 0, mean: 0.0, m2: 0.0, variance: true },
        };
        if distinct {
            AggState::Distinct { seen: HashSet::new(), inner: Box::new(inner) }
        } else {
            inner
        }
    }

    /// Fold one input value into the state. `COUNT(*)` passes a non-null
    /// placeholder for every row; all other aggregates skip NULLs.
    pub fn update(&mut self, v: &Value) -> Result<()> {
        match self {
            AggState::Distinct { seen, inner } => {
                if v.is_null() {
                    return Ok(());
                }
                if seen.insert(v.clone()) {
                    inner.update(v)?;
                }
                Ok(())
            }
            _ => self.update_inner(v),
        }
    }

    fn update_inner(&mut self, v: &Value) -> Result<()> {
        if v.is_null() {
            return Ok(());
        }
        match self {
            AggState::Count(c) => *c += 1,
            AggState::SumInt { sum, seen } => {
                let x = v
                    .as_i64()
                    .ok_or_else(|| EiderError::TypeMismatch(format!("SUM over non-numeric {v}")))?;
                *sum += i128::from(x);
                *seen = true;
            }
            AggState::SumDouble { sum, seen } => {
                let x = v
                    .as_f64()
                    .ok_or_else(|| EiderError::TypeMismatch(format!("SUM over non-numeric {v}")))?;
                *sum += x;
                *seen = true;
            }
            AggState::Avg { sum, count } => {
                let x = v
                    .as_f64()
                    .ok_or_else(|| EiderError::TypeMismatch(format!("AVG over non-numeric {v}")))?;
                *sum += x;
                *count += 1;
            }
            AggState::Min(cur) => {
                if cur.as_ref().is_none_or(|m| v.total_cmp(m) == Ordering::Less) {
                    *cur = Some(v.clone());
                }
            }
            AggState::Max(cur) => {
                if cur.as_ref().is_none_or(|m| v.total_cmp(m) == Ordering::Greater) {
                    *cur = Some(v.clone());
                }
            }
            AggState::Welford { count, mean, m2, .. } => {
                let x = v.as_f64().ok_or_else(|| {
                    EiderError::TypeMismatch(format!("STDDEV/VAR over non-numeric {v}"))
                })?;
                *count += 1;
                let delta = x - *mean;
                *mean += delta / *count as f64;
                *m2 += delta * (x - *mean);
            }
            AggState::Distinct { .. } => unreachable!("handled in update"),
        }
        Ok(())
    }

    /// Fold another accumulator of the *same shape* into this one, as if
    /// every value `other` saw had been fed to `self`. This is the
    /// combine step of parallel aggregation: each worker accumulates a
    /// partial state over its morsels and the finalize phase merges them.
    ///
    /// All states merge exactly except `Welford`, which uses Chan et al.'s
    /// parallel variance combination (exact in real arithmetic, subject to
    /// the usual floating-point rounding), and `Distinct`, which unions
    /// the seen sets.
    pub fn merge(&mut self, other: &AggState) -> Result<()> {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += *b,
            (
                AggState::SumInt { sum, seen },
                AggState::SumInt { sum: other_sum, seen: other_seen },
            ) => {
                *sum += *other_sum;
                *seen |= *other_seen;
            }
            (
                AggState::SumDouble { sum, seen },
                AggState::SumDouble { sum: other_sum, seen: other_seen },
            ) => {
                *sum += *other_sum;
                *seen |= *other_seen;
            }
            (
                AggState::Avg { sum, count },
                AggState::Avg { sum: other_sum, count: other_count },
            ) => {
                *sum += *other_sum;
                *count += *other_count;
            }
            (AggState::Min(cur), AggState::Min(other)) => {
                if let Some(v) = other {
                    if cur.as_ref().is_none_or(|m| v.total_cmp(m) == Ordering::Less) {
                        *cur = Some(v.clone());
                    }
                }
            }
            (AggState::Max(cur), AggState::Max(other)) => {
                if let Some(v) = other {
                    if cur.as_ref().is_none_or(|m| v.total_cmp(m) == Ordering::Greater) {
                        *cur = Some(v.clone());
                    }
                }
            }
            (
                AggState::Welford { count, mean, m2, .. },
                AggState::Welford { count: count2, mean: mean2, m2: m2_2, .. },
            ) => {
                if *count2 > 0 {
                    if *count == 0 {
                        (*count, *mean, *m2) = (*count2, *mean2, *m2_2);
                    } else {
                        let total = *count + *count2;
                        let delta = *mean2 - *mean;
                        *mean += delta * *count2 as f64 / total as f64;
                        *m2 += *m2_2
                            + delta * delta * (*count as f64) * (*count2 as f64) / total as f64;
                        *count = total;
                    }
                }
            }
            (AggState::Distinct { seen, inner }, AggState::Distinct { seen: other_seen, .. }) => {
                // Iterate the incoming set in value order, not HashSet
                // order: the inner accumulator may be order-sensitive in
                // floating point (SUM(DISTINCT v)), and parallel merges
                // must be reproducible run to run.
                let mut incoming: Vec<&Value> = other_seen.iter().collect();
                incoming.sort_by(|a, b| a.total_cmp(b));
                for v in incoming {
                    if seen.insert(v.clone()) {
                        inner.update(v)?;
                    }
                }
            }
            (a, b) => {
                return Err(EiderError::Internal(format!(
                    "cannot merge mismatched aggregate states {a:?} / {b:?}"
                )))
            }
        }
        Ok(())
    }

    /// Produce the aggregate result.
    pub fn finalize(&self) -> Result<Value> {
        Ok(match self {
            AggState::Count(c) => Value::BigInt(*c),
            AggState::SumInt { sum, seen } => {
                if !*seen {
                    Value::Null
                } else {
                    Value::BigInt(i64::try_from(*sum).map_err(|_| {
                        EiderError::Execution("SUM result exceeds BIGINT range".into())
                    })?)
                }
            }
            AggState::SumDouble { sum, seen } => {
                if !*seen {
                    Value::Null
                } else {
                    Value::Double(*sum)
                }
            }
            AggState::Avg { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Double(*sum / *count as f64)
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.clone().unwrap_or(Value::Null),
            AggState::Welford { count, m2, variance, .. } => {
                if *count < 2 {
                    Value::Null
                } else {
                    let var = *m2 / (*count - 1) as f64;
                    Value::Double(if *variance { var } else { var.sqrt() })
                }
            }
            AggState::Distinct { inner, .. } => inner.finalize()?,
        })
    }

    /// Bulk-update kernel: fold a whole vector (optionally restricted to
    /// `sel`'s rows) into this state in one typed loop — the §2
    /// "low cycles per value" path for SUM/COUNT/AVG/MIN/MAX/STDDEV over
    /// the numeric physical types. Returns `Ok(false)` when no kernel
    /// covers this state/vector combination (DISTINCT, booleans, string
    /// sums, ...); the caller then falls back to per-row [`AggState::update`].
    pub fn update_vector(&mut self, v: &Vector, sel: Option<&SelectionVector>) -> Result<bool> {
        // COUNT only needs validity, not data.
        if let AggState::Count(c) = self {
            match sel {
                None => *c += v.validity().count_valid() as i64,
                Some(sel) => {
                    let validity = v.validity();
                    *c += sel.iter().filter(|&&i| validity.is_valid(i as usize)).count() as i64;
                }
            }
            return Ok(true);
        }
        // Compressed-domain fast paths. Only the exact-integer states
        // (SUM over an integer input, MIN/MAX) aggregate straight off the
        // encoded form: integer arithmetic is associative, so folding a
        // whole FOR frame or RLE run at once is bit-identical to the
        // per-row loop. Floating-point states fall through to the lazily
        // decoded path below, which keeps their summation order.
        if let Some((frame, deltas)) = v.for_parts() {
            let validity = v.validity();
            match self {
                AggState::SumInt { sum, seen } => {
                    // sum = frame * valid_count + sum(valid deltas).
                    let (mut acc, mut n): (i128, i128) = (0, 0);
                    match sel {
                        None if validity.all_valid() => {
                            n = deltas.len() as i128;
                            acc = deltas.iter().map(|&d| i128::from(d)).sum();
                        }
                        None => {
                            for (i, &d) in deltas.iter().enumerate() {
                                if validity.is_valid(i) {
                                    acc += i128::from(d);
                                    n += 1;
                                }
                            }
                        }
                        Some(sel) => {
                            for &i in sel.iter() {
                                let i = i as usize;
                                if validity.is_valid(i) {
                                    acc += i128::from(deltas[i]);
                                    n += 1;
                                }
                            }
                        }
                    }
                    *sum += i128::from(frame) * n + acc;
                    *seen |= n > 0;
                    return Ok(true);
                }
                AggState::Min(_) | AggState::Max(_) => {
                    // The frame offset is order-preserving: reduce over the
                    // u32 deltas and add the frame back once at the end.
                    let want = if matches!(self, AggState::Max(_)) {
                        Ordering::Greater
                    } else {
                        Ordering::Less
                    };
                    let mut best: Option<u32> = None;
                    let mut consider = |d: u32| {
                        best = Some(match best {
                            None => d,
                            Some(b) if d.cmp(&b) == want => d,
                            Some(b) => b,
                        });
                    };
                    match sel {
                        None => {
                            for (i, &d) in deltas.iter().enumerate() {
                                if validity.is_valid(i) {
                                    consider(d);
                                }
                            }
                        }
                        Some(sel) => {
                            for &i in sel.iter() {
                                let i = i as usize;
                                if validity.is_valid(i) {
                                    consider(deltas[i]);
                                }
                            }
                        }
                    }
                    if let Some(b) = best {
                        self.update(&value_of(v.logical_type(), &(frame + i64::from(b))))?;
                    }
                    return Ok(true);
                }
                _ => {}
            }
        }
        if sel.is_none() && v.validity().all_valid() {
            if let Some((runs, starts)) = v.rle_parts() {
                let len = v.len();
                let run_len =
                    |i: usize| starts.get(i + 1).map_or(len, |&s| s as usize) - starts[i] as usize;
                macro_rules! rle_kernels {
                    ($rv:expr, $t:ty, $as_i64:expr) => {
                        match self {
                            AggState::SumInt { sum, seen } => {
                                // One multiply per run instead of one add
                                // per row; exact in i128.
                                for (i, x) in $rv.iter().enumerate() {
                                    *sum += i128::from($as_i64(x)) * run_len(i) as i128;
                                }
                                *seen |= !$rv.is_empty();
                                return Ok(true);
                            }
                            AggState::Min(_) | AggState::Max(_) => {
                                // Run lengths are irrelevant to extremes:
                                // reduce over the run values alone.
                                let want = if matches!(self, AggState::Max(_)) {
                                    Ordering::Greater
                                } else {
                                    Ordering::Less
                                };
                                let mut best: Option<$t> = None;
                                for x in $rv.iter() {
                                    best = Some(match best {
                                        None => *x,
                                        Some(b) if x.cmp(&b) == want => *x,
                                        Some(b) => b,
                                    });
                                }
                                if let Some(b) = best {
                                    self.update(&value_of(v.logical_type(), &b))?;
                                }
                                return Ok(true);
                            }
                            _ => {}
                        }
                    };
                }
                match runs {
                    VectorData::I8(rv) => rle_kernels!(rv, i8, |x: &i8| i64::from(*x)),
                    VectorData::I16(rv) => rle_kernels!(rv, i16, |x: &i16| i64::from(*x)),
                    VectorData::I32(rv) => rle_kernels!(rv, i32, |x: &i32| i64::from(*x)),
                    VectorData::I64(rv) => rle_kernels!(rv, i64, |x: &i64| *x),
                    _ => {}
                }
            }
        }
        macro_rules! reduce {
            ($d:expr, $body:expr) => {{
                let d = $d;
                let validity = v.validity();
                let mut apply = $body;
                match sel {
                    None => {
                        if validity.all_valid() {
                            for x in d.iter() {
                                apply(x);
                            }
                        } else {
                            for (i, x) in d.iter().enumerate() {
                                if validity.is_valid(i) {
                                    apply(x);
                                }
                            }
                        }
                    }
                    Some(sel) => {
                        for &i in sel.iter() {
                            let i = i as usize;
                            if validity.is_valid(i) {
                                apply(&d[i]);
                            }
                        }
                    }
                }
            }};
        }
        macro_rules! numeric_kernels {
            ($d:expr, $t:ty, $as_i64:expr, $as_f64:expr) => {
                match self {
                    AggState::SumInt { sum, seen } => {
                        let mut acc: i128 = 0;
                        let mut any = false;
                        reduce!($d, |x| {
                            acc += i128::from($as_i64(x));
                            any = true;
                        });
                        *sum += acc;
                        *seen |= any;
                        Ok(true)
                    }
                    AggState::SumDouble { sum, seen } => {
                        let mut any = false;
                        reduce!($d, |x| {
                            *sum += $as_f64(x);
                            any = true;
                        });
                        *seen |= any;
                        Ok(true)
                    }
                    AggState::Avg { sum, count } => {
                        reduce!($d, |x| {
                            *sum += $as_f64(x);
                            *count += 1;
                        });
                        Ok(true)
                    }
                    AggState::Min(_) | AggState::Max(_) => {
                        // Reduce to the chunk-local extreme first, then do a
                        // single Value comparison against the stored state.
                        // `engine_cmp` is `Value::total_cmp`'s order (NaN
                        // after every number), and a strict comparison keeps
                        // the first of equal extremes, as the per-row path
                        // does.
                        let want = if matches!(self, AggState::Max(_)) {
                            Ordering::Greater
                        } else {
                            Ordering::Less
                        };
                        let mut best: Option<$t> = None;
                        reduce!($d, |x: &$t| {
                            best = match best {
                                None => Some(*x),
                                Some(b) => {
                                    if x.engine_cmp(&b) == want {
                                        Some(*x)
                                    } else {
                                        Some(b)
                                    }
                                }
                            };
                        });
                        if let Some(b) = best {
                            self.update(&value_of(v.logical_type(), &b))?;
                        }
                        Ok(true)
                    }
                    AggState::Welford { count, mean, m2, .. } => {
                        reduce!($d, |x| {
                            let xf = $as_f64(x);
                            *count += 1;
                            let delta = xf - *mean;
                            *mean += delta / *count as f64;
                            *m2 += delta * (xf - *mean);
                        });
                        Ok(true)
                    }
                    _ => Ok(false),
                }
            };
        }
        match v.data() {
            VectorData::I8(d) => {
                numeric_kernels!(d, i8, |x: &i8| i64::from(*x), |x: &i8| *x as f64)
            }
            VectorData::I16(d) => {
                numeric_kernels!(d, i16, |x: &i16| i64::from(*x), |x: &i16| *x as f64)
            }
            VectorData::I32(d) => {
                numeric_kernels!(d, i32, |x: &i32| i64::from(*x), |x: &i32| *x as f64)
            }
            VectorData::I64(d) => numeric_kernels!(d, i64, |x: &i64| *x, |x: &i64| *x as f64),
            VectorData::F64(d) => match self {
                // SUM over an integer state never sees doubles (the state is
                // chosen from the input type), so only the double-native
                // kernels apply here; the rest falls back.
                AggState::SumDouble { .. }
                | AggState::Avg { .. }
                | AggState::Min(_)
                | AggState::Max(_)
                | AggState::Welford { .. } => {
                    numeric_kernels!(d, f64, |x: &f64| *x as i64, |x: &f64| *x)
                }
                _ => Ok(false),
            },
            VectorData::Bool(_) | VectorData::Str(_) => Ok(false),
        }
    }

    /// Rough heap footprint for memory accounting.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<AggState>()
            + match self {
                AggState::Distinct { seen, .. } => seen.len() * 48,
                _ => 0,
            }
    }
}

/// Native-to-`Value` lift that preserves the column's logical type
/// (`I32` storage may be `INTEGER` or `DATE`, `I64` may be `TIMESTAMP`).
trait TypedValue: Copy {
    fn to_value(self, ty: LogicalType) -> Value;
}

impl TypedValue for i8 {
    fn to_value(self, _ty: LogicalType) -> Value {
        Value::TinyInt(self)
    }
}
impl TypedValue for i16 {
    fn to_value(self, _ty: LogicalType) -> Value {
        Value::SmallInt(self)
    }
}
impl TypedValue for i32 {
    fn to_value(self, ty: LogicalType) -> Value {
        if ty == LogicalType::Date {
            Value::Date(self)
        } else {
            Value::Integer(self)
        }
    }
}
impl TypedValue for i64 {
    fn to_value(self, ty: LogicalType) -> Value {
        if ty == LogicalType::Timestamp {
            Value::Timestamp(self)
        } else {
            Value::BigInt(self)
        }
    }
}
impl TypedValue for f64 {
    fn to_value(self, _ty: LogicalType) -> Value {
        Value::Double(self)
    }
}

fn value_of<T: TypedValue>(ty: LogicalType, x: &T) -> Value {
    x.to_value(ty)
}

/// Scatter-update kernel for grouped aggregation: fold every row of `arg`
/// into `states[group_ids[row]][agg_idx]` with the aggregate's typed
/// update inlined per physical type. `arg = None` is COUNT(*) (every row
/// counts). DISTINCT states and unkernelled combinations fall back to the
/// per-row [`AggState::update`] semantics inside the same loop, so the
/// two paths cannot diverge.
pub fn update_grouped_states(
    states: &mut [AggState],
    width: usize,
    agg_idx: usize,
    group_ids: &[u32],
    arg: Option<&Vector>,
) -> Result<()> {
    let Some(v) = arg else {
        for &g in group_ids {
            match &mut states[g as usize * width + agg_idx] {
                AggState::Count(c) => *c += 1,
                st => st.update(&Value::Boolean(true))?,
            }
        }
        return Ok(());
    };
    debug_assert_eq!(v.len(), group_ids.len());
    let validity = v.validity();
    let ty = v.logical_type();
    macro_rules! grouped_loop {
        ($d:expr, $as_i64:expr, $as_f64:expr) => {{
            let d = $d;
            for (row, &g) in group_ids.iter().enumerate() {
                if !validity.is_valid(row) {
                    continue;
                }
                let x = d[row];
                match &mut states[g as usize * width + agg_idx] {
                    AggState::Count(c) => *c += 1,
                    AggState::SumInt { sum, seen } => {
                        *sum += i128::from($as_i64(x));
                        *seen = true;
                    }
                    AggState::SumDouble { sum, seen } => {
                        *sum += $as_f64(x);
                        *seen = true;
                    }
                    AggState::Avg { sum, count } => {
                        *sum += $as_f64(x);
                        *count += 1;
                    }
                    AggState::Welford { count, mean, m2, .. } => {
                        let xf = $as_f64(x);
                        *count += 1;
                        let delta = xf - *mean;
                        *mean += delta / *count as f64;
                        *m2 += delta * (xf - *mean);
                    }
                    // MIN/MAX and DISTINCT go through the shared per-row
                    // update (stack-only `Value`s for these types).
                    st => st.update(&value_of(ty, &x))?,
                }
            }
        }};
    }
    match v.data() {
        VectorData::I8(d) => grouped_loop!(d, |x: i8| i64::from(x), |x: i8| x as f64),
        VectorData::I16(d) => grouped_loop!(d, |x: i16| i64::from(x), |x: i16| x as f64),
        VectorData::I32(d) => grouped_loop!(d, |x: i32| i64::from(x), |x: i32| x as f64),
        VectorData::I64(d) => grouped_loop!(d, |x: i64| x, |x: i64| x as f64),
        VectorData::F64(d) => {
            // An integral SUM state never legitimately sees doubles; route
            // that combination through the per-row path so it errors the
            // same way the `Value` path always has.
            for (row, &g) in group_ids.iter().enumerate() {
                if !validity.is_valid(row) {
                    continue;
                }
                let x = d[row];
                match &mut states[g as usize * width + agg_idx] {
                    AggState::Count(c) => *c += 1,
                    AggState::SumDouble { sum, seen } => {
                        *sum += x;
                        *seen = true;
                    }
                    AggState::Avg { sum, count } => {
                        *sum += x;
                        *count += 1;
                    }
                    AggState::Welford { count, mean, m2, .. } => {
                        *count += 1;
                        let delta = x - *mean;
                        *mean += delta / *count as f64;
                        *m2 += delta * (x - *mean);
                    }
                    st => st.update(&Value::Double(x))?,
                }
            }
        }
        VectorData::Str(d) => {
            // MIN/MAX over strings compare borrowed; the fallback only
            // clones when a row actually becomes the new extreme.
            for (row, &g) in group_ids.iter().enumerate() {
                if !validity.is_valid(row) {
                    continue;
                }
                let x = &d[row];
                match &mut states[g as usize * width + agg_idx] {
                    AggState::Count(c) => *c += 1,
                    AggState::Min(cur) => {
                        if cur.as_ref().and_then(Value::as_str).is_none_or(|m| x.as_str() < m) {
                            *cur = Some(Value::Varchar(x.clone()));
                        }
                    }
                    AggState::Max(cur) => {
                        if cur.as_ref().and_then(Value::as_str).is_none_or(|m| x.as_str() > m) {
                            *cur = Some(Value::Varchar(x.clone()));
                        }
                    }
                    st => st.update(&Value::Varchar(x.clone()))?,
                }
            }
        }
        VectorData::Bool(d) => {
            for (row, &g) in group_ids.iter().enumerate() {
                if !validity.is_valid(row) {
                    continue;
                }
                match &mut states[g as usize * width + agg_idx] {
                    AggState::Count(c) => *c += 1,
                    st => st.update(&Value::Boolean(d[row]))?,
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(kind: AggKind, ty: Option<LogicalType>, distinct: bool, vals: &[Value]) -> Value {
        let mut s = AggState::new(kind, ty, distinct);
        for v in vals {
            s.update(v).unwrap();
        }
        s.finalize().unwrap()
    }

    #[test]
    fn count_ignores_nulls() {
        let vals = vec![Value::Integer(1), Value::Null, Value::Integer(3)];
        assert_eq!(run(AggKind::Count, None, false, &vals), Value::BigInt(2));
    }

    #[test]
    fn sum_int_and_double() {
        let ints = vec![Value::Integer(1), Value::Integer(2), Value::Null];
        assert_eq!(run(AggKind::Sum, Some(LogicalType::Integer), false, &ints), Value::BigInt(3));
        let dbls = vec![Value::Double(1.5), Value::Double(2.5)];
        assert_eq!(run(AggKind::Sum, Some(LogicalType::Double), false, &dbls), Value::Double(4.0));
        assert_eq!(run(AggKind::Sum, Some(LogicalType::Integer), false, &[]), Value::Null);
    }

    #[test]
    fn sum_uses_wide_accumulator() {
        // Summing many i64::MAX values must not overflow mid-stream.
        let vals = vec![
            Value::BigInt(i64::MAX),
            Value::BigInt(i64::MAX),
            Value::BigInt(-i64::MAX),
            Value::BigInt(-i64::MAX + 5),
        ];
        assert_eq!(run(AggKind::Sum, Some(LogicalType::BigInt), false, &vals), Value::BigInt(5));
        // But a final result out of range errors.
        let mut s = AggState::new(AggKind::Sum, Some(LogicalType::BigInt), false);
        s.update(&Value::BigInt(i64::MAX)).unwrap();
        s.update(&Value::BigInt(1)).unwrap();
        assert!(s.finalize().is_err());
    }

    #[test]
    fn avg_min_max() {
        let vals = vec![Value::Integer(10), Value::Integer(20), Value::Null];
        assert_eq!(run(AggKind::Avg, None, false, &vals), Value::Double(15.0));
        assert_eq!(run(AggKind::Min, Some(LogicalType::Integer), false, &vals), Value::Integer(10));
        assert_eq!(run(AggKind::Max, Some(LogicalType::Integer), false, &vals), Value::Integer(20));
        assert_eq!(run(AggKind::Min, Some(LogicalType::Integer), false, &[]), Value::Null);
    }

    #[test]
    fn stddev_and_variance() {
        let vals: Vec<Value> =
            [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].iter().map(|&f| Value::Double(f)).collect();
        let var = run(AggKind::VarSamp, None, false, &vals);
        if let Value::Double(v) = var {
            assert!((v - 4.571428571428571).abs() < 1e-9);
        } else {
            panic!("{var:?}");
        }
        let sd = run(AggKind::StdDevSamp, None, false, &vals);
        if let Value::Double(v) = sd {
            assert!((v - 4.571428571428571f64.sqrt()).abs() < 1e-9);
        } else {
            panic!("{sd:?}");
        }
        assert_eq!(run(AggKind::StdDevSamp, None, false, &vals[..1]), Value::Null);
    }

    #[test]
    fn distinct_aggregates() {
        let vals = vec![
            Value::Integer(5),
            Value::Integer(5),
            Value::Integer(7),
            Value::Null,
            Value::Integer(7),
        ];
        assert_eq!(run(AggKind::Count, None, true, &vals), Value::BigInt(2));
        assert_eq!(run(AggKind::Sum, Some(LogicalType::Integer), true, &vals), Value::BigInt(12));
    }

    #[test]
    fn merge_equals_sequential_update() {
        // Splitting any value stream across partial states and merging
        // must match feeding one state sequentially.
        let vals: Vec<Value> = (0..100)
            .map(|i| if i % 11 == 0 { Value::Null } else { Value::Integer((i * 37) % 50 - 25) })
            .collect();
        let cases: Vec<(AggKind, bool)> = vec![
            (AggKind::CountStar, false),
            (AggKind::Count, false),
            (AggKind::Sum, false),
            (AggKind::Avg, false),
            (AggKind::Min, false),
            (AggKind::Max, false),
            (AggKind::VarSamp, false),
            (AggKind::StdDevSamp, false),
            (AggKind::Count, true),
            (AggKind::Sum, true),
        ];
        for (kind, distinct) in cases {
            let ty = Some(LogicalType::Integer);
            let mut whole = AggState::new(kind, ty, distinct);
            for v in &vals {
                whole.update(v).unwrap();
            }
            let mut merged = AggState::new(kind, ty, distinct);
            for part in vals.chunks(17) {
                let mut partial = AggState::new(kind, ty, distinct);
                for v in part {
                    partial.update(v).unwrap();
                }
                merged.merge(&partial).unwrap();
            }
            let (a, b) = (whole.finalize().unwrap(), merged.finalize().unwrap());
            match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => {
                    assert!((x - y).abs() < 1e-9, "{kind:?} distinct={distinct}: {x} vs {y}")
                }
                _ => assert_eq!(a, b, "{kind:?} distinct={distinct}"),
            }
        }
    }

    #[test]
    fn update_vector_matches_per_row_updates() {
        use eider_vector::Vector;
        let cases: Vec<(LogicalType, Vec<Value>)> = vec![
            (
                LogicalType::Integer,
                (0..200)
                    .map(|i| if i % 7 == 0 { Value::Null } else { Value::Integer(i * 3 - 100) })
                    .collect(),
            ),
            (
                LogicalType::Double,
                (0..200)
                    .map(|i| {
                        if i % 5 == 0 {
                            Value::Null
                        } else {
                            Value::Double(f64::from(i) * 0.25 - 10.0)
                        }
                    })
                    .collect(),
            ),
            (LogicalType::BigInt, (0..100).map(|i| Value::BigInt(i64::from(i) << 20)).collect()),
        ];
        let kinds = [
            AggKind::Count,
            AggKind::Sum,
            AggKind::Avg,
            AggKind::Min,
            AggKind::Max,
            AggKind::VarSamp,
        ];
        for (ty, vals) in cases {
            let v = Vector::from_values(ty, &vals).unwrap();
            for kind in kinds {
                let mut bulk = AggState::new(kind, Some(ty), false);
                assert!(bulk.update_vector(&v, None).unwrap(), "{kind:?} over {ty}");
                let mut scalar = AggState::new(kind, Some(ty), false);
                for val in &vals {
                    scalar.update(val).unwrap();
                }
                let (a, b) = (bulk.finalize().unwrap(), scalar.finalize().unwrap());
                match (a.as_f64(), b.as_f64()) {
                    (Some(x), Some(y)) => {
                        assert!((x - y).abs() < 1e-9, "{kind:?} over {ty}: {x} vs {y}")
                    }
                    _ => assert_eq!(a, b, "{kind:?} over {ty}"),
                }
            }
        }
    }

    #[test]
    fn bulk_min_max_match_per_row_on_nan() {
        use eider_vector::Vector;
        // NaN sorts after every number: MAX is NaN and MIN is 1.0 in
        // BOTH input orders, on the per-row path and the bulk kernel.
        for vals in [
            vec![Value::Double(1.0), Value::Double(f64::NAN)],
            vec![Value::Double(f64::NAN), Value::Double(1.0)],
        ] {
            let v = Vector::from_values(LogicalType::Double, &vals).unwrap();
            for kind in [AggKind::Min, AggKind::Max] {
                let mut bulk = AggState::new(kind, Some(LogicalType::Double), false);
                assert!(bulk.update_vector(&v, None).unwrap());
                let mut scalar = AggState::new(kind, Some(LogicalType::Double), false);
                for val in &vals {
                    scalar.update(val).unwrap();
                }
                let (a, b) = (bulk.finalize().unwrap(), scalar.finalize().unwrap());
                // Compare bit patterns (NaN != NaN under ==).
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "{kind:?} over {vals:?}");
                let want = if kind == AggKind::Max { "NaN" } else { "1.0" };
                assert_eq!(format!("{a:?}"), format!("Double({want})"), "{kind:?} over {vals:?}");
            }
        }
    }

    #[test]
    fn update_vector_respects_selection() {
        use eider_vector::Vector;
        let v = Vector::from_values(
            LogicalType::Integer,
            &(0..10).map(Value::Integer).collect::<Vec<_>>(),
        )
        .unwrap();
        let sel = SelectionVector::from_indexes(vec![1, 3, 5]);
        let mut s = AggState::new(AggKind::Sum, Some(LogicalType::Integer), false);
        assert!(s.update_vector(&v, Some(&sel)).unwrap());
        assert_eq!(s.finalize().unwrap(), Value::BigInt(9));
    }

    #[test]
    fn update_vector_rejects_distinct() {
        use eider_vector::Vector;
        let v = Vector::from_values(LogicalType::Integer, &[Value::Integer(1)]).unwrap();
        let mut s = AggState::new(AggKind::Sum, Some(LogicalType::Integer), true);
        assert!(!s.update_vector(&v, None).unwrap(), "DISTINCT must take the per-row path");
    }

    #[test]
    fn grouped_kernel_matches_per_row_updates() {
        use eider_vector::Vector;
        let vals: Vec<Value> = (0..300)
            .map(|i| if i % 9 == 0 { Value::Null } else { Value::Integer(i % 40) })
            .collect();
        let v = Vector::from_values(LogicalType::Integer, &vals).unwrap();
        let group_ids: Vec<u32> = (0..300u32).map(|i| i % 4).collect();
        let kinds = [AggKind::Count, AggKind::Sum, AggKind::Avg, AggKind::Min, AggKind::Max];
        for kind in kinds {
            for distinct in [false, true] {
                let mut grouped: Vec<AggState> = (0..4)
                    .map(|_| AggState::new(kind, Some(LogicalType::Integer), distinct))
                    .collect();
                update_grouped_states(&mut grouped, 1, 0, &group_ids, Some(&v)).unwrap();
                for (g, state) in grouped.iter().enumerate() {
                    let mut scalar = AggState::new(kind, Some(LogicalType::Integer), distinct);
                    for (row, val) in vals.iter().enumerate() {
                        if group_ids[row] as usize == g {
                            scalar.update(val).unwrap();
                        }
                    }
                    assert_eq!(
                        state.finalize().unwrap(),
                        scalar.finalize().unwrap(),
                        "{kind:?} distinct={distinct} group {g}"
                    );
                }
            }
        }
    }

    #[test]
    fn merge_rejects_mismatched_states() {
        let mut a = AggState::new(AggKind::Count, None, false);
        let b = AggState::new(AggKind::Avg, None, false);
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn result_types() {
        assert_eq!(AggKind::Sum.result_type(Some(LogicalType::Integer)), LogicalType::BigInt);
        assert_eq!(AggKind::Sum.result_type(Some(LogicalType::Double)), LogicalType::Double);
        assert_eq!(AggKind::Avg.result_type(Some(LogicalType::Integer)), LogicalType::Double);
        assert_eq!(AggKind::Min.result_type(Some(LogicalType::Varchar)), LogicalType::Varchar);
        assert_eq!(AggKind::by_name("STDDEV"), Some(AggKind::StdDevSamp));
        assert_eq!(AggKind::by_name("nope"), None);
    }
}
