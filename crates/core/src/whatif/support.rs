//! The §3.3 support index: "iterating only over combinations with
//! non-zero support".
//!
//! A [`SupportIndex`] numbers the distinct combinations of a list of view
//! columns: every view row gets the dense id of its value combination (its
//! *cell*). Rows sharing a cell hold identical raw feature values, so an
//! update function maps them to identical post-update features and the
//! estimator's model predicts them identically.
//!
//! Ids are exact: two rows share a cell iff every listed column holds the
//! same value, compared at least as finely as any model can tell apart
//! (floats by raw bits, so `-0.0`/`0.0` and distinct NaN payloads are
//! different cells; NULL is its own value). The index is derived from the
//! view's data alone and is never serialized. [`SupportIndexes`] owns the
//! indexes of one view, built lazily once per column list.
//!
//! Cells are numbered in first-occurrence order, and the index also keeps
//! each cell's row count and first row. A what-if with no `When`, no `For`
//! and no peer summary updates every row, so its affected rows are exactly
//! the cells with those counts: the estimator reads the representatives
//! and counts from here and folds cells without touching a row.
//!
//! An update rewrites only its own columns, so cells that agree on the
//! other features can share their post-update features: a `Set` maps all
//! of them to one point. A [`Projection`] groups the cells by their values
//! on a subset of the indexed columns (the non-updated features) into
//! *projection classes*. It is computed from the cells' first rows in
//! O(cells), once per kept column list, and cached on the index, so it is
//! dropped with the view. The estimator keys each affected cell by its
//! class (refined by whatever else still varies: a `Scale`/`Shift`
//! result, an un-`When`'d row's own values, a post peer mean) and
//! assembles, encodes and predicts one representative per key: O(distinct
//! post-update rows), not O(cells).
//!
//! The index serves fitting as well as evaluation. A forest fitted
//! without a peer summary or a binding sample cap encodes only each
//! cell's first row and trains over the representatives plus the per-row
//! cell ids (`hyper_ml::RandomForest::fit_on_cells`): cell ids in
//! first-occurrence order make the forest's layout the one it would
//! derive from the whole encoded view, so the fit is bit-identical and
//! the evaluation that follows finds the index already built.

use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};

use hyper_storage::{Column, Table};

use crate::error::Result;
use crate::session::cache::KeyedCache;

/// Dense cell ids of one view over one column list.
#[derive(Debug)]
pub(crate) struct SupportIndex {
    /// Cell id of each view row (ids are numbered in first-occurrence
    /// order, `0..cells`).
    cell_of: Vec<u32>,
    /// Rows in each cell.
    count_of: Vec<u32>,
    /// First row of each cell (increasing, as ids follow first
    /// occurrence).
    first_row: Vec<u32>,
    /// Projections of the cells onto column subsets, by kept column list
    /// (few per index: one per distinct set of updated columns).
    projections: Mutex<Vec<(Vec<usize>, Arc<Projection>)>>,
}

/// The cells of one [`SupportIndex`] grouped by their values on a subset
/// of its columns: two cells share a class iff they agree on every kept
/// column (compared as exactly as cells are). Classes are numbered densely
/// in cell order.
#[derive(Debug)]
pub(crate) struct Projection {
    /// Class of each cell, by cell id.
    class_of: Vec<u32>,
    /// Number of distinct classes.
    classes: usize,
}

impl Projection {
    /// Class of cell `cell`.
    #[inline]
    pub(crate) fn class(&self, cell: usize) -> usize {
        self.class_of[cell] as usize
    }

    /// Number of distinct classes.
    pub(crate) fn classes(&self) -> usize {
        self.classes
    }
}

/// Dense ids of the value combinations of `cols` (each `n` long) over
/// rows `0..n`, numbered in first-occurrence order, and their number.
/// O(n · cols): each column's values are mapped to small per-column codes,
/// and the running ids are combined with them and renumbered densely after
/// every column, so `id · radix` stays below `n · radix` and never
/// overflows a `u64`.
fn dense_ids(n: usize, cols: &[&Column]) -> (Vec<u32>, usize) {
    // Ids, codes and the renumbering tables' empty marker are `u32`.
    assert!(n < u32::MAX as usize, "a support index covers < 2^32 rows");
    let mut ids = vec![0u32; n];
    let mut distinct = usize::from(n > 0);
    let mut codes = vec![0u32; n];
    // Combined keys below this bound renumber through a direct table
    // (4 bytes a slot); larger key spaces go through a hash map.
    let direct_limit = n.max(1 << 12) as u64;
    for col in cols {
        let radix = column_codes(col, &mut codes) as u64;
        let space = distinct as u64 * radix;
        let mut next = 0u32;
        if space <= direct_limit {
            let mut id_of = vec![u32::MAX; space as usize];
            for (id, &code) in ids.iter_mut().zip(&codes) {
                let slot = &mut id_of[*id as usize * radix as usize + code as usize];
                if *slot == u32::MAX {
                    *slot = next;
                    next += 1;
                }
                *id = *slot;
            }
        } else {
            let mut id_of: HashMap<u64, u32> = HashMap::new();
            for (id, &code) in ids.iter_mut().zip(&codes) {
                *id = *id_of
                    .entry(*id as u64 * radix + code as u64)
                    .or_insert_with(|| {
                        next += 1;
                        next - 1
                    });
            }
        }
        distinct = next as usize;
    }
    (ids, distinct)
}

impl SupportIndex {
    /// Index `cols` of `table` in O(rows · cols) (see [`dense_ids`]).
    pub(crate) fn build(table: &Table, cols: &[usize]) -> SupportIndex {
        let n = table.num_rows();
        let columns: Vec<&Column> = cols.iter().map(|&c| table.column(c)).collect();
        let (cell_of, cells) = dense_ids(n, &columns);
        let mut count_of = vec![0u32; cells];
        let mut first_row = Vec::with_capacity(cells);
        for (i, &id) in cell_of.iter().enumerate() {
            let count = &mut count_of[id as usize];
            if *count == 0 {
                first_row.push(i as u32);
            }
            *count += 1;
        }
        SupportIndex {
            cell_of,
            count_of,
            first_row,
            projections: Mutex::new(Vec::new()),
        }
    }

    /// The projection of this index's cells onto the view columns `kept`
    /// (a subset of the indexed columns), built once per column list in
    /// O(cells · kept) from the cells' first rows. `table` must be the
    /// table the index was built over.
    pub(crate) fn projection(&self, table: &Table, kept: &[usize]) -> Arc<Projection> {
        // Held while building: concurrent evaluations of one update list
        // build its projection once.
        let mut built = self.projections.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, p)) = built.iter().find(|(cols, _)| cols == kept) {
            return Arc::clone(p);
        }
        let reps: Vec<usize> = self.first_row.iter().map(|&i| i as usize).collect();
        let gathered: Vec<Column> = kept
            .iter()
            .map(|&c| table.column(c).gather(&reps))
            .collect();
        let (class_of, classes) = dense_ids(reps.len(), &gathered.iter().collect::<Vec<_>>());
        let p = Arc::new(Projection { class_of, classes });
        built.push((kept.to_vec(), Arc::clone(&p)));
        p
    }

    /// Projections built so far (each kept-column list builds once).
    #[cfg(test)]
    pub(crate) fn projections_built(&self) -> usize {
        self.projections.lock().unwrap().len()
    }

    /// Cell id of view row `i`.
    #[inline]
    pub(crate) fn cell(&self, i: usize) -> usize {
        self.cell_of[i] as usize
    }

    /// Cell id of every view row.
    pub(crate) fn cell_ids(&self) -> &[u32] {
        &self.cell_of
    }

    /// Number of distinct cells.
    pub(crate) fn cells(&self) -> usize {
        self.count_of.len()
    }

    /// Rows in each cell, by cell id.
    pub(crate) fn counts(&self) -> &[u32] {
        &self.count_of
    }

    /// First row of each cell, by cell id.
    pub(crate) fn first_rows(&self) -> &[u32] {
        &self.first_row
    }
}

/// Write a per-row code for `col` into `codes` (equal codes ⇔ equal
/// values, NULL is code 0) and return the radix (every code is below it).
fn column_codes(col: &Column, codes: &mut [u32]) -> u32 {
    let nulls = col.nulls();
    // Codes through a first-occurrence map, for columns without a small
    // direct code.
    fn mapped<K: std::hash::Hash + Eq>(
        codes: &mut [u32],
        keys: impl Iterator<Item = Option<K>>,
    ) -> u32 {
        let mut code_of: HashMap<K, u32> = HashMap::new();
        for (out, key) in codes.iter_mut().zip(keys) {
            *out = match key {
                None => 0,
                Some(k) => {
                    let next = code_of.len() as u32 + 1;
                    *code_of.entry(k).or_insert(next)
                }
            };
        }
        code_of.len() as u32 + 1
    }
    match col {
        Column::Int { values, .. } => {
            let valid = || (0..values.len()).filter(|&i| !nulls.is_null(i));
            let min = valid().map(|i| values[i]).min().unwrap_or(0);
            let max = valid().map(|i| values[i]).max().unwrap_or(0);
            let range = max.abs_diff(min);
            if range < values.len().max(1 << 12) as u64 {
                // Small range: the offset from the minimum is the code.
                for (i, out) in codes.iter_mut().enumerate() {
                    *out = if nulls.is_null(i) {
                        0
                    } else {
                        values[i].abs_diff(min) as u32 + 1
                    };
                }
                range as u32 + 2
            } else {
                mapped(
                    codes,
                    (0..values.len()).map(|i| (!nulls.is_null(i)).then_some(values[i])),
                )
            }
        }
        Column::Float { values, .. } => mapped(
            codes,
            (0..values.len()).map(|i| (!nulls.is_null(i)).then_some(values[i].to_bits())),
        ),
        Column::Bool { values, .. } => {
            for (i, out) in codes.iter_mut().enumerate() {
                *out = if nulls.is_null(i) {
                    0
                } else {
                    values[i] as u32 + 1
                };
            }
            3
        }
        Column::Str {
            codes: dict_codes,
            dict,
            ..
        } => {
            // Dictionary codes are canonical within one column.
            for (i, out) in codes.iter_mut().enumerate() {
                *out = if nulls.is_null(i) {
                    0
                } else {
                    dict_codes[i] + 1
                };
            }
            dict.len() as u32 + 1
        }
    }
}

/// The support indexes of one relevant view, one per column list, built
/// on first use and single-flighted: concurrent evaluations needing the
/// same index build it once. Owned by the view, so an index can never be
/// applied to rows other than the ones it numbered. Cloning yields an
/// empty set (indexes are rebuilt on demand).
pub(crate) struct SupportIndexes {
    built: KeyedCache<SupportIndex>,
    hits: AtomicU64,
    builds: AtomicU64,
}

impl SupportIndexes {
    /// Bytes charged per view row in the view's footprint: one `u32` cell
    /// id (the common single-index case; the per-cell counts and first
    /// rows are not charged, as cells are usually far fewer than rows).
    pub(crate) const BYTES_PER_ROW: usize = 4;

    /// The index of `cols` over `table` (the owning view's data).
    pub(crate) fn get(&self, table: &Table, cols: &[usize]) -> Result<Arc<SupportIndex>> {
        let key = cols
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let unbounded = AtomicU64::new(0);
        self.built
            .get_or_build(&key, &self.hits, &self.builds, &unbounded, || {
                Ok(SupportIndex::build(table, cols))
            })
    }

    /// Indexes built so far (each column list builds once).
    #[cfg(test)]
    pub(crate) fn builds(&self) -> u64 {
        self.builds.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl Default for SupportIndexes {
    fn default() -> SupportIndexes {
        SupportIndexes {
            built: KeyedCache::new(None),
            hits: AtomicU64::new(0),
            builds: AtomicU64::new(0),
        }
    }
}

impl Clone for SupportIndexes {
    fn clone(&self) -> SupportIndexes {
        SupportIndexes::default()
    }
}

impl std::fmt::Debug for SupportIndexes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SupportIndexes").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyper_storage::{DataType, Field, Schema, TableBuilder, Value};

    fn table(cols: Vec<(&str, DataType, Vec<Value>)>) -> Table {
        let schema = Schema::new(
            cols.iter()
                .map(|(name, dt, _)| Field::nullable(*name, *dt))
                .collect(),
        )
        .unwrap();
        let n = cols[0].2.len();
        let mut t = TableBuilder::new("t", schema);
        for i in 0..n {
            t.push(cols.iter().map(|(_, _, v)| v[i].clone()).collect())
                .unwrap();
        }
        t.build()
    }

    /// Two rows share a cell iff their listed values are identical
    /// (floats by raw bits, NULL distinct from every value).
    fn assert_exact(t: &Table, cols: &[usize]) {
        let idx = SupportIndex::build(t, cols);
        let key = |i: usize| -> Vec<(Option<u64>, Option<String>)> {
            cols.iter()
                .map(|&c| match t.column(c).value(i) {
                    Value::Null => (None, None),
                    Value::Float(f) => (Some(f.to_bits()), None),
                    Value::Int(v) => (Some(v as u64), Some("i".into())),
                    Value::Bool(b) => (Some(b as u64), Some("b".into())),
                    Value::Str(s) => (None, Some(format!("s{s}"))),
                })
                .collect()
        };
        let n = t.num_rows();
        let mut max = 0;
        for i in 0..n {
            max = max.max(idx.cell(i) + 1);
            for j in 0..n {
                assert_eq!(
                    idx.cell(i) == idx.cell(j),
                    key(i) == key(j),
                    "rows {i}, {j}"
                );
            }
        }
        assert_eq!(idx.cells(), max, "ids are dense");
        assert!(
            idx.first_rows().windows(2).all(|w| w[0] < w[1]),
            "ids follow first occurrence"
        );
        for c in 0..idx.cells() {
            let rows: Vec<usize> = (0..n).filter(|&i| idx.cell(i) == c).collect();
            assert_eq!(idx.counts()[c] as usize, rows.len(), "cell {c} count");
            assert_eq!(idx.first_rows()[c] as usize, rows[0], "cell {c} first row");
        }
    }

    #[test]
    fn cells_are_exact_over_every_column_type() {
        use Value::*;
        let t = table(vec![
            (
                "i",
                DataType::Int,
                vec![
                    Int(3),
                    Int(3),
                    Null,
                    Int(-7),
                    Int(3),
                    Int(i64::MAX),
                    Null,
                    Int(0),
                ],
            ),
            (
                "f",
                DataType::Float,
                vec![
                    Float(0.0),
                    Float(-0.0),
                    Float(0.0),
                    Null,
                    Float(0.0),
                    Float(f64::NAN),
                    Float(1.5),
                    Float(0.0),
                ],
            ),
            (
                "s",
                DataType::Str,
                vec![
                    Str("a".into()),
                    Str("a".into()),
                    Null,
                    Str("b".into()),
                    Str("a".into()),
                    Str("b".into()),
                    Null,
                    Str("a".into()),
                ],
            ),
            (
                "b",
                DataType::Bool,
                vec![
                    Bool(true),
                    Bool(true),
                    Null,
                    Bool(false),
                    Bool(true),
                    Null,
                    Bool(false),
                    Bool(true),
                ],
            ),
        ]);
        for cols in [
            vec![0],
            vec![1],
            vec![2],
            vec![3],
            vec![0, 1],
            vec![2, 0, 3],
            vec![0, 1, 2, 3],
        ] {
            assert_exact(&t, &cols);
        }
        let idx = SupportIndex::build(&t, &[0, 1, 2, 3]);
        assert_eq!(idx.cell(0), idx.cell(4), "identical rows share a cell");
        assert_ne!(idx.cell(0), idx.cell(1), "-0.0 and 0.0 are different cells");
        assert_eq!(
            SupportIndex::build(&t, &[]).cells(),
            1,
            "no columns: one cell"
        );
    }

    #[test]
    fn wide_key_spaces_take_the_map_path_and_stay_exact() {
        // Int values spread over a huge range take mapped codes, and
        // 37 cells × 132 float codes exceed the direct-table bound.
        let n = 600;
        let ints: Vec<Value> = (0..n)
            .map(|i| Value::Int((i % 37) * 1_000_000_007))
            .collect();
        let floats: Vec<Value> = (0..n)
            .map(|i| Value::Float((i % 131) as f64 / 7.0))
            .collect();
        let t = table(vec![
            ("i", DataType::Int, ints),
            ("f", DataType::Float, floats),
        ]);
        assert_exact(&t, &[0, 1]);
        // 37 and 131 are coprime and 600 < 37 · 131: every row is its own
        // cell.
        assert_eq!(SupportIndex::build(&t, &[0, 1]).cells(), n as usize);
    }

    #[test]
    fn each_column_list_builds_once_and_clones_start_empty() {
        let t = table(vec![(
            "i",
            DataType::Int,
            vec![Value::Int(1), Value::Int(2)],
        )]);
        let set = SupportIndexes::default();
        let a = set.get(&t, &[0]).unwrap();
        let b = set.get(&t, &[0]).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(set.builds(), 1);
        set.get(&t, &[]).unwrap();
        assert_eq!(set.builds(), 2);
        assert_eq!(set.clone().builds(), 0);
    }
}
