//! Typed columnar storage: one contiguous buffer per column plus a null
//! bitmap, with dictionary encoding for strings.
//!
//! [`Column`] replaces the former `Vec<Value>` cell storage. Each variant
//! holds a dense typed buffer (`Vec<i64>`, `Vec<f64>`, `Vec<bool>`, or
//! `Vec<u32>` dictionary codes into a shared [`StrDict`]) and a
//! [`NullBitmap`]; NULL slots keep a default payload and are masked by the
//! bitmap. Operators work directly on the typed buffers — `gather` is a
//! typed copy, predicates scan slices, and the feature encoder reads
//! dictionary codes instead of hashing `Value`s — while the [`Value`]-based
//! cell API ([`Column::value`], [`Column::push`]) remains as a
//! compatibility layer for row-at-a-time callers.
//!
//! Invariants:
//! * `values.len() == nulls.len()` for every variant;
//! * a `Str` column's codes always index into its dictionary, and the
//!   dictionary never contains duplicate strings (codes are canonical:
//!   equal strings ⇔ equal codes within one column);
//! * the dictionary is append-only and shared via [`Arc`], so `gather`,
//!   `project`, and table clones reuse it without copying.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

use crate::error::{Result, StorageError};
use crate::value::{canonical_f64_bits, DataType, Value};

/// A packed validity bitmap: bit `i` set ⇔ row `i` is NULL.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NullBitmap {
    words: Vec<u64>,
    len: usize,
    set_bits: usize,
}

impl NullBitmap {
    /// An empty bitmap.
    pub fn new() -> NullBitmap {
        NullBitmap::default()
    }

    /// An all-valid bitmap of length `n`.
    pub fn all_valid(n: usize) -> NullBitmap {
        NullBitmap {
            words: vec![0; n.div_ceil(64)],
            len: n,
            set_bits: 0,
        }
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no rows are covered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Is row `i` NULL?
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        self.set_bits
    }

    /// True when any row is NULL.
    pub fn any_null(&self) -> bool {
        self.set_bits > 0
    }

    /// Append one row.
    #[inline]
    pub fn push(&mut self, null: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if null {
            self.words[self.len / 64] |= 1 << (self.len % 64);
            self.set_bits += 1;
        }
        self.len += 1;
    }

    /// Set row `i`'s nullness in place.
    pub fn set(&mut self, i: usize, null: bool) {
        debug_assert!(i < self.len);
        let was = self.is_null(i);
        if was == null {
            return;
        }
        if null {
            self.words[i / 64] |= 1 << (i % 64);
            self.set_bits += 1;
        } else {
            self.words[i / 64] &= !(1 << (i % 64));
            self.set_bits -= 1;
        }
    }

    /// Bitmap containing rows `indices`, in order.
    pub fn gather(&self, indices: &[usize]) -> NullBitmap {
        let mut out = NullBitmap::all_valid(indices.len());
        if self.any_null() {
            for (k, &i) in indices.iter().enumerate() {
                if self.is_null(i) {
                    out.set(k, true);
                }
            }
        }
        out
    }

    /// Bitmap covering rows `start..start + len`, in order. Word-aligned
    /// starts copy whole words; unaligned starts fall back to a bit loop.
    pub fn slice(&self, start: usize, len: usize) -> NullBitmap {
        debug_assert!(start + len <= self.len);
        if !self.any_null() {
            return NullBitmap::all_valid(len);
        }
        if start.is_multiple_of(64) {
            let first = start / 64;
            let mut words: Vec<u64> = self.words[first..first + len.div_ceil(64)].to_vec();
            if let (Some(last), false) = (words.last_mut(), len.is_multiple_of(64)) {
                *last &= (1u64 << (len % 64)) - 1;
            }
            let set_bits = words.iter().map(|w| w.count_ones() as usize).sum();
            return NullBitmap {
                words,
                len,
                set_bits,
            };
        }
        let mut out = NullBitmap::all_valid(len);
        for i in 0..len {
            if self.is_null(start + i) {
                out.set(i, true);
            }
        }
        out
    }

    fn reserve(&mut self, additional: usize) {
        let needed = (self.len + additional).div_ceil(64);
        self.words.reserve(needed.saturating_sub(self.words.len()));
    }

    fn reserve_exact(&mut self, additional: usize) {
        let needed = (self.len + additional).div_ceil(64);
        self.words
            .reserve_exact(needed.saturating_sub(self.words.len()));
    }

    /// The packed words backing the bitmap (bit `i` of word `i / 64` is
    /// row `i`'s NULL flag). Exposed for serialization.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuild a bitmap of `len` rows from its packed words (the inverse
    /// of [`NullBitmap::words`]). The word count must be exactly
    /// `len.div_ceil(64)` and bits at positions ≥ `len` must be zero —
    /// both are validated so untrusted bytes cannot produce a bitmap
    /// whose `null_count` disagrees with its reads.
    pub fn from_words(len: usize, words: Vec<u64>) -> Result<NullBitmap> {
        if words.len() != len.div_ceil(64) {
            return Err(StorageError::SchemaMismatch(format!(
                "null bitmap for {len} rows needs {} word(s), got {}",
                len.div_ceil(64),
                words.len()
            )));
        }
        if !len.is_multiple_of(64) {
            if let Some(&last) = words.last() {
                if last >> (len % 64) != 0 {
                    return Err(StorageError::SchemaMismatch(
                        "null bitmap has bits set past its length".into(),
                    ));
                }
            }
        }
        let set_bits = words.iter().map(|w| w.count_ones() as usize).sum();
        Ok(NullBitmap {
            words,
            len,
            set_bits,
        })
    }
}

/// An append-only string dictionary: `code → Arc<str>` with reverse
/// interning. Shared across gathered/projected columns via `Arc`.
#[derive(Debug, Clone, Default)]
pub struct StrDict {
    strings: Vec<Arc<str>>,
    index: HashMap<Arc<str>, u32>,
}

impl StrDict {
    /// Number of distinct strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when no strings are interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// The string for `code`.
    #[inline]
    pub fn get(&self, code: u32) -> &Arc<str> {
        &self.strings[code as usize]
    }

    /// The code for `s`, if interned.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.index.get(s).copied()
    }

    /// Intern `s`, returning its (possibly new) code.
    pub fn intern(&mut self, s: &Arc<str>) -> u32 {
        if let Some(&c) = self.index.get(s.as_ref()) {
            return c;
        }
        let code = self.strings.len() as u32;
        self.strings.push(Arc::clone(s));
        self.index.insert(Arc::clone(s), code);
        code
    }

    /// All interned strings, in code order.
    pub fn strings(&self) -> &[Arc<str>] {
        &self.strings
    }

    /// Approximate heap footprint in bytes (strings + interning index).
    pub fn approx_bytes(&self) -> usize {
        self.strings
            .iter()
            // Each string is held twice (vec + index key) via `Arc`, so
            // count the payload once plus two pointer-sized handles.
            .map(|s| s.len() + 2 * std::mem::size_of::<Arc<str>>())
            .sum::<usize>()
            + self.index.capacity() * std::mem::size_of::<u32>()
    }
}

/// A typed column: dense values + null bitmap (+ dictionary for strings).
#[derive(Debug, Clone)]
pub enum Column {
    /// 64-bit integers.
    Int {
        /// Dense payload (NULL slots hold 0).
        values: Vec<i64>,
        /// Validity.
        nulls: NullBitmap,
    },
    /// 64-bit floats.
    Float {
        /// Dense payload (NULL slots hold 0.0).
        values: Vec<f64>,
        /// Validity.
        nulls: NullBitmap,
    },
    /// Booleans.
    Bool {
        /// Dense payload (NULL slots hold false).
        values: Vec<bool>,
        /// Validity.
        nulls: NullBitmap,
    },
    /// Dictionary-encoded strings.
    Str {
        /// Per-row dictionary codes (NULL slots hold 0 or any valid code).
        codes: Vec<u32>,
        /// Shared dictionary.
        dict: Arc<StrDict>,
        /// Validity.
        nulls: NullBitmap,
    },
}

impl Column {
    /// An empty column of the given type.
    pub fn new(dt: DataType) -> Column {
        Column::with_capacity(dt, 0)
    }

    /// An empty column with reserved capacity.
    pub fn with_capacity(dt: DataType, cap: usize) -> Column {
        match dt {
            DataType::Int => Column::Int {
                values: Vec::with_capacity(cap),
                nulls: NullBitmap::new(),
            },
            DataType::Float => Column::Float {
                values: Vec::with_capacity(cap),
                nulls: NullBitmap::new(),
            },
            DataType::Bool => Column::Bool {
                values: Vec::with_capacity(cap),
                nulls: NullBitmap::new(),
            },
            DataType::Str => Column::Str {
                codes: Vec::with_capacity(cap),
                dict: Arc::new(StrDict::default()),
                nulls: NullBitmap::new(),
            },
        }
    }

    /// Build a column of type `dt` from materialized values (Ints coerce
    /// into Float columns, mirroring [`crate::Schema::check_row`]).
    pub fn from_values(dt: DataType, values: &[Value]) -> Result<Column> {
        let mut c = Column::with_capacity(dt, values.len());
        for v in values {
            c.push(v)?;
        }
        Ok(c)
    }

    /// Build a column from values, inferring the narrowest type that fits:
    /// all-integer → `Int`, numeric mixtures (Int/Float/Bool-free) →
    /// `Float`, uniform strings/bools → `Str`/`Bool`; an all-NULL input
    /// defaults to `Float`. Incompatible mixtures are an error.
    pub fn from_values_inferred(values: &[Value]) -> Result<Column> {
        let mut dt: Option<DataType> = None;
        for v in values {
            let vt = match v.data_type() {
                None => continue,
                Some(t) => t,
            };
            dt = Some(match (dt, vt) {
                (None, t) => t,
                (Some(a), b) if a == b => a,
                (Some(DataType::Int), DataType::Float) | (Some(DataType::Float), DataType::Int) => {
                    DataType::Float
                }
                (Some(a), b) => {
                    return Err(StorageError::TypeError(format!(
                        "cannot build a typed column from mixed {a} and {b} values"
                    )))
                }
            });
        }
        Column::from_values(dt.unwrap_or(DataType::Float), values)
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int { .. } => DataType::Int,
            Column::Float { .. } => DataType::Float,
            Column::Bool { .. } => DataType::Bool,
            Column::Str { .. } => DataType::Str,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int { values, .. } => values.len(),
            Column::Float { values, .. } => values.len(),
            Column::Bool { values, .. } => values.len(),
            Column::Str { codes, .. } => codes.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The null bitmap.
    pub fn nulls(&self) -> &NullBitmap {
        match self {
            Column::Int { nulls, .. }
            | Column::Float { nulls, .. }
            | Column::Bool { nulls, .. }
            | Column::Str { nulls, .. } => nulls,
        }
    }

    /// Is row `i` NULL?
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.nulls().is_null(i)
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        self.nulls().null_count()
    }

    /// Reserve capacity for `additional` more rows.
    pub fn reserve(&mut self, additional: usize) {
        match self {
            Column::Int { values, nulls } => {
                values.reserve(additional);
                nulls.reserve(additional);
            }
            Column::Float { values, nulls } => {
                values.reserve(additional);
                nulls.reserve(additional);
            }
            Column::Bool { values, nulls } => {
                values.reserve(additional);
                nulls.reserve(additional);
            }
            Column::Str { codes, nulls, .. } => {
                codes.reserve(additional);
                nulls.reserve(additional);
            }
        }
    }

    /// Reserve capacity for exactly `additional` more rows, without the
    /// amortized slack of [`Column::reserve`].
    pub fn reserve_exact(&mut self, additional: usize) {
        match self {
            Column::Int { values, nulls } => {
                values.reserve_exact(additional);
                nulls.reserve_exact(additional);
            }
            Column::Float { values, nulls } => {
                values.reserve_exact(additional);
                nulls.reserve_exact(additional);
            }
            Column::Bool { values, nulls } => {
                values.reserve_exact(additional);
                nulls.reserve_exact(additional);
            }
            Column::Str { codes, nulls, .. } => {
                codes.reserve_exact(additional);
                nulls.reserve_exact(additional);
            }
        }
    }

    /// Append a value. Ints coerce into Float columns; any other type
    /// mismatch is an error. NULL is always accepted (nullability is the
    /// schema's concern, checked by [`crate::Schema::check_row`]).
    pub fn push(&mut self, v: &Value) -> Result<()> {
        match (self, v) {
            (Column::Int { values, nulls }, Value::Int(x)) => {
                values.push(*x);
                nulls.push(false);
            }
            (Column::Float { values, nulls }, Value::Float(x)) => {
                values.push(*x);
                nulls.push(false);
            }
            (Column::Float { values, nulls }, Value::Int(x)) => {
                values.push(*x as f64);
                nulls.push(false);
            }
            (Column::Bool { values, nulls }, Value::Bool(b)) => {
                values.push(*b);
                nulls.push(false);
            }
            (Column::Str { codes, dict, nulls }, Value::Str(s)) => {
                let code = Arc::make_mut(dict).intern(s);
                codes.push(code);
                nulls.push(false);
            }
            (c, Value::Null) => {
                match c {
                    Column::Int { values, nulls } => {
                        values.push(0);
                        nulls.push(true);
                    }
                    Column::Float { values, nulls } => {
                        values.push(0.0);
                        nulls.push(true);
                    }
                    Column::Bool { values, nulls } => {
                        values.push(false);
                        nulls.push(true);
                    }
                    Column::Str { codes, nulls, .. } => {
                        codes.push(0);
                        nulls.push(true);
                    }
                };
            }
            (c, v) => {
                return Err(StorageError::TypeError(format!(
                    "cannot store {v} in a {} column",
                    c.data_type()
                )))
            }
        }
        Ok(())
    }

    /// Append every row of `other`: typed concatenation straight off the
    /// buffers — Ints widen into Float columns, string codes are
    /// re-interned into this column's dictionary (copied verbatim when
    /// both sides share one), NULLs carry over. No per-cell [`Value`]
    /// materialization.
    pub fn append_column(&mut self, other: &Column) -> Result<()> {
        self.reserve(other.len());
        match (self, other) {
            (
                Column::Int { values, nulls },
                Column::Int {
                    values: ov,
                    nulls: on,
                },
            ) => {
                values.extend_from_slice(ov);
                for i in 0..ov.len() {
                    nulls.push(on.is_null(i));
                }
            }
            (
                Column::Float { values, nulls },
                Column::Float {
                    values: ov,
                    nulls: on,
                },
            ) => {
                values.extend_from_slice(ov);
                for i in 0..ov.len() {
                    nulls.push(on.is_null(i));
                }
            }
            (
                Column::Float { values, nulls },
                Column::Int {
                    values: ov,
                    nulls: on,
                },
            ) => {
                values.extend(ov.iter().map(|&v| v as f64));
                for i in 0..ov.len() {
                    nulls.push(on.is_null(i));
                }
            }
            (
                Column::Bool { values, nulls },
                Column::Bool {
                    values: ov,
                    nulls: on,
                },
            ) => {
                values.extend_from_slice(ov);
                for i in 0..ov.len() {
                    nulls.push(on.is_null(i));
                }
            }
            (
                Column::Str { codes, dict, nulls },
                Column::Str {
                    codes: oc,
                    dict: od,
                    nulls: on,
                },
            ) => {
                if Arc::ptr_eq(dict, od) {
                    codes.extend_from_slice(oc);
                    for i in 0..oc.len() {
                        nulls.push(on.is_null(i));
                    }
                } else {
                    let d = Arc::make_mut(dict);
                    for (i, &code) in oc.iter().enumerate() {
                        let null = on.is_null(i);
                        codes.push(if null { 0 } else { d.intern(od.get(code)) });
                        nulls.push(null);
                    }
                }
            }
            (c, o) => {
                return Err(StorageError::TypeError(format!(
                    "cannot append a {} column to a {} column",
                    o.data_type(),
                    c.data_type()
                )))
            }
        }
        Ok(())
    }

    /// Materialize row `i` as a [`Value`].
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match self {
            Column::Int { values, .. } => Value::Int(values[i]),
            Column::Float { values, .. } => Value::Float(values[i]),
            Column::Bool { values, .. } => Value::Bool(values[i]),
            Column::Str { codes, dict, .. } => Value::Str(Arc::clone(dict.get(codes[i]))),
        }
    }

    /// Numeric view of row `i` (Int/Float pass through, Bool maps to 0/1);
    /// `None` for NULL or strings.
    #[inline]
    pub fn f64_at(&self, i: usize) -> Option<f64> {
        if self.is_null(i) {
            return None;
        }
        match self {
            Column::Int { values, .. } => Some(values[i] as f64),
            Column::Float { values, .. } => Some(values[i]),
            Column::Bool { values, .. } => Some(if values[i] { 1.0 } else { 0.0 }),
            Column::Str { .. } => None,
        }
    }

    /// String view of row `i` (`None` for NULL or non-string columns).
    #[inline]
    pub fn str_at(&self, i: usize) -> Option<&str> {
        if self.is_null(i) {
            return None;
        }
        match self {
            Column::Str { codes, dict, .. } => Some(dict.get(codes[i])),
            _ => None,
        }
    }

    /// Overwrite row `i` (same coercion rules as [`Column::push`]).
    pub fn set(&mut self, i: usize, v: &Value) -> Result<()> {
        match (self, v) {
            (Column::Int { values, nulls }, Value::Int(x)) => {
                values[i] = *x;
                nulls.set(i, false);
            }
            (Column::Float { values, nulls }, Value::Float(x)) => {
                values[i] = *x;
                nulls.set(i, false);
            }
            (Column::Float { values, nulls }, Value::Int(x)) => {
                values[i] = *x as f64;
                nulls.set(i, false);
            }
            (Column::Bool { values, nulls }, Value::Bool(b)) => {
                values[i] = *b;
                nulls.set(i, false);
            }
            (Column::Str { codes, dict, nulls }, Value::Str(s)) => {
                codes[i] = match dict.code_of(s) {
                    Some(c) => c,
                    None => Arc::make_mut(dict).intern(s),
                };
                nulls.set(i, false);
            }
            (c, Value::Null) => match c {
                Column::Int { nulls, .. }
                | Column::Float { nulls, .. }
                | Column::Bool { nulls, .. }
                | Column::Str { nulls, .. } => nulls.set(i, true),
            },
            (c, v) => {
                return Err(StorageError::TypeError(format!(
                    "cannot store {v} in a {} column",
                    c.data_type()
                )))
            }
        }
        Ok(())
    }

    /// Typed copy of rows `indices`, in order. For string columns this
    /// copies codes only; the dictionary is shared.
    pub fn gather(&self, indices: &[usize]) -> Column {
        match self {
            Column::Int { values, nulls } => Column::Int {
                values: indices.iter().map(|&i| values[i]).collect(),
                nulls: nulls.gather(indices),
            },
            Column::Float { values, nulls } => Column::Float {
                values: indices.iter().map(|&i| values[i]).collect(),
                nulls: nulls.gather(indices),
            },
            Column::Bool { values, nulls } => Column::Bool {
                values: indices.iter().map(|&i| values[i]).collect(),
                nulls: nulls.gather(indices),
            },
            Column::Str { codes, dict, nulls } => Column::Str {
                codes: indices.iter().map(|&i| codes[i]).collect(),
                dict: Arc::clone(dict),
                nulls: nulls.gather(indices),
            },
        }
    }

    /// Typed copy of the contiguous rows `start..start + len` — the
    /// column-level morsel primitive. Payload bytes are copied verbatim
    /// (same bits, same null pattern), and string columns share the
    /// dictionary, so a sliced column is indistinguishable from the same
    /// rows of the original.
    pub fn slice(&self, start: usize, len: usize) -> Column {
        match self {
            Column::Int { values, nulls } => Column::Int {
                values: values[start..start + len].to_vec(),
                nulls: nulls.slice(start, len),
            },
            Column::Float { values, nulls } => Column::Float {
                values: values[start..start + len].to_vec(),
                nulls: nulls.slice(start, len),
            },
            Column::Bool { values, nulls } => Column::Bool {
                values: values[start..start + len].to_vec(),
                nulls: nulls.slice(start, len),
            },
            Column::Str { codes, dict, nulls } => Column::Str {
                codes: codes[start..start + len].to_vec(),
                dict: Arc::clone(dict),
                nulls: nulls.slice(start, len),
            },
        }
    }

    /// Materialize every row (compatibility shim; prefer the typed
    /// accessors on hot paths).
    pub fn to_values(&self) -> Vec<Value> {
        (0..self.len()).map(|i| self.value(i)).collect()
    }

    /// Iterate over materialized values.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.value(i))
    }

    /// Typed integer buffer, when this is an Int column.
    pub fn as_int(&self) -> Option<(&[i64], &NullBitmap)> {
        match self {
            Column::Int { values, nulls } => Some((values, nulls)),
            _ => None,
        }
    }

    /// Typed float buffer, when this is a Float column.
    pub fn as_float(&self) -> Option<(&[f64], &NullBitmap)> {
        match self {
            Column::Float { values, nulls } => Some((values, nulls)),
            _ => None,
        }
    }

    /// Typed bool buffer, when this is a Bool column.
    pub fn as_bool(&self) -> Option<(&[bool], &NullBitmap)> {
        match self {
            Column::Bool { values, nulls } => Some((values, nulls)),
            _ => None,
        }
    }

    /// Dictionary codes + dictionary, when this is a Str column.
    pub fn as_str(&self) -> Option<(&[u32], &StrDict, &NullBitmap)> {
        match self {
            Column::Str { codes, dict, nulls } => Some((codes, dict, nulls)),
            _ => None,
        }
    }

    /// Approximate memory footprint in bytes: the typed payload buffer
    /// plus the null bitmap. A `Str` column counts its codes and — because
    /// dictionaries are shared across gathered/projected copies — an
    /// *amortized* share of its dictionary. Used for the byte-budgeted
    /// artifact-store eviction policy; approximate by design.
    pub fn approx_bytes(&self) -> usize {
        let bitmap = self.nulls().words().len() * 8;
        bitmap
            + match self {
                Column::Int { values, .. } => values.len() * 8,
                Column::Float { values, .. } => values.len() * 8,
                Column::Bool { values, .. } => values.len(),
                Column::Str { codes, dict, .. } => codes.len() * 4 + dict.approx_bytes(),
            }
    }

    /// Compare rows `i` and `j` with the same total order as
    /// [`Value::cmp`]: NULL sorts first, payloads compare typed (floats by
    /// `total_cmp`, strings lexicographically).
    pub fn cmp_rows(&self, i: usize, j: usize) -> Ordering {
        match (self.is_null(i), self.is_null(j)) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Less,
            (false, true) => return Ordering::Greater,
            (false, false) => {}
        }
        match self {
            Column::Int { values, .. } => values[i].cmp(&values[j]),
            Column::Float { values, .. } => values[i].total_cmp(&values[j]),
            Column::Bool { values, .. } => values[i].cmp(&values[j]),
            Column::Str { codes, dict, .. } => {
                if codes[i] == codes[j] {
                    Ordering::Equal
                } else {
                    dict.get(codes[i]).as_ref().cmp(dict.get(codes[j]).as_ref())
                }
            }
        }
    }

    /// Append row `i`'s *strict-equality key* to `out`: a `(tag, bits)`
    /// pair such that two rows of the **same table** produce equal parts
    /// iff their [`Value`]s are strictly equal (`Value::eq`). Floats use
    /// canonical bits (NaN/-0 normalized); strings use dictionary codes,
    /// which are canonical within one column.
    #[inline]
    pub fn write_key_part(&self, i: usize, out: &mut Vec<u64>) {
        if self.is_null(i) {
            out.push(KEY_TAG_NULL);
            out.push(0);
            return;
        }
        match self {
            Column::Int { values, .. } => {
                out.push(KEY_TAG_INT);
                out.push(values[i] as u64);
            }
            Column::Float { values, .. } => {
                out.push(KEY_TAG_FLOAT);
                out.push(canonical_f64_bits(values[i]));
            }
            Column::Bool { values, .. } => {
                out.push(KEY_TAG_BOOL);
                out.push(values[i] as u64);
            }
            Column::Str { codes, .. } => {
                out.push(KEY_TAG_STR);
                out.push(codes[i] as u64);
            }
        }
    }
}

impl PartialEq for Column {
    /// Semantic equality: same type, length, null pattern, and strictly
    /// equal payloads ([`Value::eq`] semantics — floats by canonical bits,
    /// strings by content, not by dictionary code).
    fn eq(&self, other: &Self) -> bool {
        if self.data_type() != other.data_type() || self.len() != other.len() {
            return false;
        }
        (0..self.len()).all(|i| match (self.is_null(i), other.is_null(i)) {
            (true, true) => true,
            (false, false) => match (self, other) {
                (Column::Int { values: a, .. }, Column::Int { values: b, .. }) => a[i] == b[i],
                (Column::Float { values: a, .. }, Column::Float { values: b, .. }) => {
                    canonical_f64_bits(a[i]) == canonical_f64_bits(b[i])
                }
                (Column::Bool { values: a, .. }, Column::Bool { values: b, .. }) => a[i] == b[i],
                (
                    Column::Str {
                        codes: a, dict: da, ..
                    },
                    Column::Str {
                        codes: b, dict: db, ..
                    },
                ) => da.get(a[i]) == db.get(b[i]),
                _ => unreachable!("same data_type checked above"),
            },
            _ => false,
        })
    }
}

/// Key-part tags for [`Column::write_key_part`] (distinct per variant so
/// cross-variant values never collide, matching strict [`Value`] equality).
pub(crate) const KEY_TAG_NULL: u64 = 0;
pub(crate) const KEY_TAG_INT: u64 = 1;
pub(crate) const KEY_TAG_FLOAT: u64 = 2;
pub(crate) const KEY_TAG_BOOL: u64 = 3;
pub(crate) const KEY_TAG_STR: u64 = 4;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_typed() {
        let mut c = Column::new(DataType::Int);
        c.push(&Value::Int(5)).unwrap();
        c.push(&Value::Null).unwrap();
        c.push(&Value::Int(-3)).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.value(0), Value::Int(5));
        assert_eq!(c.value(1), Value::Null);
        assert_eq!(c.null_count(), 1);
        assert!(c.push(&Value::str("x")).is_err());
    }

    #[test]
    fn int_coerces_into_float_column() {
        let mut c = Column::new(DataType::Float);
        c.push(&Value::Int(2)).unwrap();
        assert_eq!(c.value(0), Value::Float(2.0));
    }

    #[test]
    fn string_dictionary_interns() {
        let mut c = Column::new(DataType::Str);
        for s in ["a", "b", "a", "a"] {
            c.push(&Value::str(s)).unwrap();
        }
        let (codes, dict, _) = c.as_str().unwrap();
        assert_eq!(dict.len(), 2, "two distinct strings");
        assert_eq!(codes, &[0, 1, 0, 0]);
        assert_eq!(c.str_at(1), Some("b"));
    }

    #[test]
    fn gather_shares_dictionary() {
        let mut c = Column::new(DataType::Str);
        for s in ["x", "y", "z"] {
            c.push(&Value::str(s)).unwrap();
        }
        let g = c.gather(&[2, 0]);
        let (codes, dict, _) = g.as_str().unwrap();
        assert_eq!(codes, &[2, 0]);
        let (_, orig_dict, _) = c.as_str().unwrap();
        assert_eq!(dict.len(), orig_dict.len());
        assert_eq!(g.value(0), Value::str("z"));
    }

    #[test]
    fn gather_preserves_nulls() {
        let mut c = Column::new(DataType::Float);
        c.push(&Value::Float(1.0)).unwrap();
        c.push(&Value::Null).unwrap();
        c.push(&Value::Float(3.0)).unwrap();
        let g = c.gather(&[1, 2, 1]);
        assert!(g.is_null(0) && g.is_null(2));
        assert_eq!(g.value(1), Value::Float(3.0));
    }

    #[test]
    fn cmp_rows_matches_value_order() {
        let mut c = Column::new(DataType::Float);
        for v in [Value::Float(2.0), Value::Null, Value::Float(-1.0)] {
            c.push(&v).unwrap();
        }
        assert_eq!(c.cmp_rows(1, 0), Ordering::Less, "NULL sorts first");
        assert_eq!(c.cmp_rows(0, 2), Ordering::Greater);
        assert_eq!(c.cmp_rows(1, 1), Ordering::Equal);
    }

    #[test]
    fn key_parts_follow_strict_equality() {
        let mut f = Column::new(DataType::Float);
        f.push(&Value::Float(0.0)).unwrap();
        f.push(&Value::Float(-0.0)).unwrap();
        f.push(&Value::Float(f64::NAN)).unwrap();
        f.push(&Value::Float(f64::NAN)).unwrap();
        let part = |c: &Column, i| {
            let mut k = Vec::new();
            c.write_key_part(i, &mut k);
            k
        };
        assert_eq!(part(&f, 0), part(&f, 1), "-0.0 == 0.0");
        assert_eq!(part(&f, 2), part(&f, 3), "NaN == NaN (strict)");
        let mut i = Column::new(DataType::Int);
        i.push(&Value::Int(0)).unwrap();
        assert_ne!(part(&i, 0), part(&f, 0), "Int(0) != Float(0.0) strictly");
    }

    #[test]
    fn set_updates_in_place() {
        let mut c = Column::new(DataType::Str);
        c.push(&Value::str("old")).unwrap();
        c.set(0, &Value::str("new")).unwrap();
        assert_eq!(c.value(0), Value::str("new"));
        c.set(0, &Value::Null).unwrap();
        assert!(c.is_null(0));
    }

    #[test]
    fn slice_matches_per_row_reads() {
        let mut c = Column::new(DataType::Int);
        for i in 0..200 {
            let v = if i % 7 == 0 {
                Value::Null
            } else {
                Value::Int(i)
            };
            c.push(&v).unwrap();
        }
        // Aligned and unaligned starts, including a tail shorter than a word.
        for (start, len) in [(0, 200), (64, 100), (3, 61), (190, 10), (5, 0)] {
            let s = c.slice(start, len);
            assert_eq!(s.len(), len);
            for i in 0..len {
                assert_eq!(s.value(i), c.value(start + i), "start={start} i={i}");
            }
            assert_eq!(
                s.null_count(),
                (0..len).filter(|&i| c.is_null(start + i)).count()
            );
        }
    }

    #[test]
    fn slice_shares_string_dictionary() {
        let mut c = Column::new(DataType::Str);
        for s in ["a", "b", "c", "a", "b"] {
            c.push(&Value::str(s)).unwrap();
        }
        let s = c.slice(2, 3);
        let (_, sd, _) = s.as_str().unwrap();
        let (_, cd, _) = c.as_str().unwrap();
        assert!(std::ptr::eq(sd, cd) || sd.len() == cd.len());
        assert_eq!(s.value(0), Value::str("c"));
        assert_eq!(s.value(2), Value::str("b"));
    }

    #[test]
    fn null_bitmap_word_boundaries() {
        let mut b = NullBitmap::new();
        for i in 0..130 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 130);
        for i in 0..130 {
            assert_eq!(b.is_null(i), i % 3 == 0, "row {i}");
        }
        assert_eq!(b.null_count(), (0..130).filter(|i| i % 3 == 0).count());
    }
}
