//! In-memory tables over typed columnar storage.
//!
//! A [`Table`] is a schema plus one typed [`Column`] per field: `Int`
//! columns are `Vec<i64>`, `Float` are `Vec<f64>`, `Bool` are `Vec<bool>`,
//! and `Str` columns are dictionary-encoded (`Vec<u32>` codes into an
//! `Arc`-shared [`crate::StrDict`]); every column carries a null bitmap.
//! Hot operators (`gather`, filtering, join key extraction, feature
//! encoding) work on the typed buffers directly; tables are built through
//! [`TableBuilder`], and a single cell materializes as a [`Value`] through
//! [`Column::value`] (`table.column(c).value(i)`).
//!
//! NULL semantics: a NULL cell is a set bit in the column's bitmap; the
//! payload slot holds a type-default placeholder that no reader observes.
//! [`Column::value`] returns [`Value::Null`] for such cells, and typed
//! readers check `is_null` (or the bitmap slice) before the payload.

use std::fmt;
use std::sync::OnceLock;

use crate::column::Column;
use crate::error::{Result, StorageError};
use crate::fingerprint::{hash_table, Fingerprint};
use crate::schema::{Field, Schema};
use crate::value::{DataType, Row, Value};

/// Columnar table construction, row by row or column by column. The
/// builder owns one
/// typed [`Column`] per schema field; rows validate against the schema as
/// they are appended ([`TableBuilder::push`] / the chainable
/// [`TableBuilder::row`]), and whole typed columns can be installed
/// directly ([`TableBuilder::set_column`]) when the producer works
/// column-at-a-time (CSV parsing, dataset generators).
///
/// ```
/// use hyper_storage::{DataType, Field, Schema, TableBuilder, Value};
///
/// let schema = Schema::new(vec![
///     Field::new("id", DataType::Int),
///     Field::new("brand", DataType::Str),
/// ]).unwrap();
/// let t = TableBuilder::new("product", schema)
///     .row(vec![1.into(), "asus".into()]).unwrap()
///     .row(vec![2.into(), "hp".into()]).unwrap()
///     .build();
/// assert_eq!(t.num_rows(), 2);
/// assert_eq!(t.column(1).value(0), Value::str("asus"));
/// ```
#[derive(Debug, Clone)]
pub struct TableBuilder {
    name: String,
    schema: Schema,
    columns: Vec<Column>,
    primary_key: Vec<usize>,
}

impl TableBuilder {
    /// Start an empty builder over `schema`.
    pub fn new(name: impl Into<String>, schema: Schema) -> TableBuilder {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::new(f.data_type))
            .collect();
        TableBuilder {
            name: name.into(),
            schema,
            columns,
            primary_key: Vec::new(),
        }
    }

    /// Start a builder and declare the primary-key columns by name.
    pub fn with_key(
        name: impl Into<String>,
        schema: Schema,
        key_columns: &[&str],
    ) -> Result<TableBuilder> {
        let mut b = TableBuilder::new(name, schema);
        let mut key = Vec::with_capacity(key_columns.len());
        for k in key_columns {
            key.push(b.schema.index_of(k)?);
        }
        b.primary_key = key;
        Ok(b)
    }

    /// Reserve capacity for `additional` more rows in every column.
    pub fn reserve(&mut self, additional: usize) {
        for c in &mut self.columns {
            c.reserve(additional);
        }
    }

    /// Append one row after validating it against the schema.
    pub fn push(&mut self, row: Row) -> Result<()> {
        self.schema.check_row(&row)?;
        for (col, v) in self.columns.iter_mut().zip(&row) {
            col.push(v)?;
        }
        Ok(())
    }

    /// Chainable [`TableBuilder::push`].
    pub fn row(mut self, row: Row) -> Result<TableBuilder> {
        self.push(row)?;
        Ok(self)
    }

    /// Append many rows.
    pub fn rows(mut self, rows: impl IntoIterator<Item = Row>) -> Result<TableBuilder> {
        for r in rows {
            self.push(r)?;
        }
        Ok(self)
    }

    /// Install a fully-built typed column for the named field, replacing
    /// whatever the builder held for it. The column's type must match the
    /// schema (Int columns are accepted for Float fields, mirroring the
    /// row path's coercion), its length must agree with the builder's
    /// other non-empty columns, and NULLs require a nullable field.
    pub fn set_column(&mut self, name: &str, column: Column) -> Result<()> {
        let idx = self.schema.index_of(name)?;
        let field = self.schema.field(idx);
        // Int → Float widening, mirroring `Column::push`'s row-path
        // coercion.
        let column = match (&column, field.data_type) {
            (Column::Int { values, nulls }, crate::value::DataType::Float) => Column::Float {
                values: values.iter().map(|&v| v as f64).collect(),
                nulls: nulls.clone(),
            },
            _ => column,
        };
        if column.data_type() != field.data_type {
            return Err(StorageError::TypeError(format!(
                "column `{name}` is {}, got a {} column",
                field.data_type,
                column.data_type()
            )));
        }
        if !field.nullable && column.null_count() > 0 {
            return Err(StorageError::SchemaMismatch(format!(
                "column `{name}` is not nullable but holds {} NULLs",
                column.null_count()
            )));
        }
        if let Some(n) = self
            .columns
            .iter()
            .enumerate()
            .filter(|&(c, col)| c != idx && !col.is_empty())
            .map(|(_, col)| col.len())
            .next()
        {
            if column.len() != n {
                return Err(StorageError::SchemaMismatch(format!(
                    "column `{name}` has {} rows, builder has {n}",
                    column.len()
                )));
            }
        }
        self.columns[idx] = column;
        Ok(())
    }

    /// Rows appended so far.
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// Finish: every column must have the same length (guaranteed when
    /// rows came through [`TableBuilder::push`]; asserted here because
    /// [`TableBuilder::set_column`] can install columns independently and
    /// mixing the two styles without filling every column is a
    /// programming error).
    pub fn build(self) -> Table {
        assert!(
            self.columns.windows(2).all(|w| w[0].len() == w[1].len()),
            "ragged columns: install every column before build()"
        );
        let mut t = Table::from_columns(self.name, self.schema, self.columns);
        t.primary_key = self.primary_key;
        t
    }
}

/// A named relation: schema + typed columns + optional primary key.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<Column>,
    /// Indices of the primary-key columns (possibly empty for derived views).
    primary_key: Vec<usize>,
    /// Memoized content fingerprint, cleared by every content-mutating
    /// method. A `Database::fingerprint` recombines per-table digests, so
    /// only tables that actually changed re-hash their cells.
    memo: OnceLock<u64>,
}

impl Table {
    /// Create an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::new(f.data_type))
            .collect();
        Table {
            name: name.into(),
            schema,
            columns,
            primary_key: Vec::new(),
            memo: OnceLock::new(),
        }
    }

    /// Create an empty table and declare its primary-key columns by name.
    pub fn with_key(name: impl Into<String>, schema: Schema, key_columns: &[&str]) -> Result<Self> {
        let mut t = Table::new(name, schema);
        let mut key = Vec::with_capacity(key_columns.len());
        for k in key_columns {
            key.push(t.schema.index_of(k)?);
        }
        t.primary_key = key;
        Ok(t)
    }

    /// Assemble a table directly from typed columns (lengths must agree
    /// with each other; types must match the schema).
    pub(crate) fn from_columns(
        name: impl Into<String>,
        schema: Schema,
        columns: Vec<Column>,
    ) -> Table {
        debug_assert_eq!(schema.len(), columns.len());
        debug_assert!(columns.windows(2).all(|w| w[0].len() == w[1].len()));
        Table {
            name: name.into(),
            schema,
            columns,
            primary_key: Vec::new(),
            memo: OnceLock::new(),
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the table (used when registering derived views).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.memo = OnceLock::new();
        self.name = name.into();
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Primary-key column indices.
    pub fn primary_key(&self) -> &[usize] {
        &self.primary_key
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.schema.len()
    }

    /// Reserve capacity for `additional` more rows in every column.
    pub fn reserve(&mut self, additional: usize) {
        for c in &mut self.columns {
            c.reserve(additional);
        }
    }

    /// Reserve capacity for exactly `additional` more rows in every
    /// column, without amortized slack.
    pub fn reserve_exact(&mut self, additional: usize) {
        for c in &mut self.columns {
            c.reserve_exact(additional);
        }
    }

    /// Typed column by index.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Typed column by name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        Ok(self.column(self.schema.index_of(name)?))
    }

    /// Overwrite one cell. With typed columns this is fallible: the value
    /// must match the column type (Ints coerce into Float columns).
    pub fn set(&mut self, row: usize, col: usize, v: Value) -> Result<()> {
        self.memo = OnceLock::new();
        self.columns[col].set(row, &v)
    }

    /// Append every row of `rows` (typed column concatenation — the
    /// ingest path; see [`crate::Column::append_column`]). Schemas must
    /// match by column name and type (Ints widen into Float columns);
    /// NULLs in non-nullable fields are rejected.
    pub fn append_rows(&mut self, rows: &Table) -> Result<()> {
        if rows.num_columns() != self.num_columns() {
            return Err(StorageError::SchemaMismatch(format!(
                "append to `{}`: {} column(s), got {}",
                self.name,
                self.num_columns(),
                rows.num_columns()
            )));
        }
        for (mine, theirs) in self.schema.fields().iter().zip(rows.schema.fields()) {
            if !mine.name.eq_ignore_ascii_case(&theirs.name) {
                return Err(StorageError::SchemaMismatch(format!(
                    "append to `{}`: expected column `{}`, got `{}`",
                    self.name, mine.name, theirs.name
                )));
            }
        }
        for (i, (col, incoming)) in self.columns.iter().zip(&rows.columns).enumerate() {
            let field = self.schema.field(i);
            let widens =
                col.data_type() == DataType::Float && incoming.data_type() == DataType::Int;
            if incoming.data_type() != col.data_type() && !widens {
                return Err(StorageError::TypeError(format!(
                    "append to `{}`: column `{}` is {}, got {}",
                    self.name,
                    field.name,
                    col.data_type(),
                    incoming.data_type()
                )));
            }
            if !field.nullable && incoming.null_count() > 0 {
                return Err(StorageError::SchemaMismatch(format!(
                    "append to `{}`: column `{}` is not nullable but the delta holds {} NULL(s)",
                    self.name,
                    field.name,
                    incoming.null_count()
                )));
            }
        }
        self.memo = OnceLock::new();
        for (col, incoming) in self.columns.iter_mut().zip(&rows.columns) {
            col.append_column(incoming)?;
        }
        Ok(())
    }

    /// Build a new table containing only the rows at `indices` (in order).
    /// A typed copy per column — no `Value` materialization; string
    /// dictionaries are shared, not rebuilt.
    pub fn gather(&self, indices: &[usize]) -> Table {
        Table {
            name: self.name.clone(),
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.gather(indices)).collect(),
            primary_key: self.primary_key.clone(),
            memo: OnceLock::new(),
        }
    }

    /// Project to the named columns, producing a new table (columns are
    /// cloned buffers; string dictionaries are shared).
    pub fn project(&self, names: &[&str]) -> Result<Table> {
        let mut fields = Vec::with_capacity(names.len());
        let mut idxs = Vec::with_capacity(names.len());
        for n in names {
            let i = self.schema.index_of(n)?;
            fields.push(self.schema.field(i).clone());
            idxs.push(i);
        }
        let schema = Schema::new(fields)?;
        let columns = idxs.iter().map(|&i| self.columns[i].clone()).collect();
        Ok(Table {
            name: self.name.clone(),
            schema,
            columns,
            primary_key: Vec::new(),
            memo: OnceLock::new(),
        })
    }

    /// Add a new column with the given values.
    pub fn add_column(&mut self, field: Field, values: Vec<Value>) -> Result<()> {
        if values.len() != self.num_rows() {
            return Err(StorageError::SchemaMismatch(format!(
                "column `{}` has {} values, table has {} rows",
                field.name,
                values.len(),
                self.num_rows()
            )));
        }
        let column = Column::from_values(field.data_type, &values)?;
        self.memo = OnceLock::new();
        self.schema.push(field)?;
        self.columns.push(column);
        Ok(())
    }

    /// Sort rows by the given column (ascending), stable. Comparison runs
    /// on the typed buffer ([`Column::cmp_rows`]); NULLs sort first.
    pub fn sort_by_column(&self, name: &str) -> Result<Table> {
        let idx = self.schema.index_of(name)?;
        let col = &self.columns[idx];
        let mut order: Vec<usize> = (0..self.num_rows()).collect();
        order.sort_by(|&a, &b| col.cmp_rows(a, b));
        Ok(self.gather(&order))
    }

    /// Content fingerprint: a stable 64-bit hash of name, schema, key,
    /// and every cell (see [`crate::fingerprint`]). Equal-content tables
    /// hash equal regardless of how they were built. Memoized per table:
    /// sibling mutations in the same [`crate::Database`] do not force
    /// this table to re-hash its cells.
    pub fn fingerprint(&self) -> u64 {
        *self.memo.get_or_init(|| {
            let mut h = Fingerprint::new();
            hash_table(self, &mut h);
            h.finish()
        })
    }

    /// Per-row content fingerprints: one stable 64-bit digest per tuple,
    /// covering the table name and every cell's content (type-tagged;
    /// strings hash their characters, not dictionary codes) but **not**
    /// the row index — so a tuple keeps its digest when unrelated rows
    /// are appended or deleted around it. Block-scoped invalidation XORs
    /// these per Prop.-1 block to detect which blocks a delta touched.
    pub fn row_fingerprints(&self) -> Vec<u64> {
        crate::fingerprint::hash_rows(self)
    }

    /// Approximate memory footprint in bytes (typed column buffers, null
    /// bitmaps, amortized dictionary shares). Used by the byte-budgeted
    /// shared-artifact eviction policy.
    pub fn approx_bytes(&self) -> usize {
        self.columns.iter().map(Column::approx_bytes).sum()
    }

    /// Verify the declared primary key is unique; returns the offending key
    /// rendering on failure. Hashes typed key parts straight off the
    /// column buffers — no per-row `Value` materialization.
    pub fn check_key_unique(&self) -> Result<()> {
        if self.primary_key.is_empty() {
            return Ok(());
        }
        let key_cols: Vec<&Column> = self.primary_key.iter().map(|&c| &self.columns[c]).collect();
        let mut seen = std::collections::HashSet::with_capacity(self.num_rows());
        let mut key: Vec<u64> = Vec::with_capacity(key_cols.len() * 2);
        for i in 0..self.num_rows() {
            key.clear();
            for c in &key_cols {
                c.write_key_part(i, &mut key);
            }
            if !seen.insert(key.clone()) {
                let rendered: Vec<String> =
                    key_cols.iter().map(|c| c.value(i).to_string()).collect();
                return Err(StorageError::DuplicateKey(rendered.join(",")));
            }
        }
        Ok(())
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} {}", self.name, self.schema)?;
        let n = self.num_rows().min(20);
        for i in 0..n {
            let cells: Vec<String> = (0..self.num_columns())
                .map(|c| self.column(c).value(i).to_string())
                .collect();
            writeln!(f, "  {}", cells.join(" | "))?;
        }
        if self.num_rows() > n {
            writeln!(f, "  … {} more rows", self.num_rows() - n)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn sample() -> Table {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("brand", DataType::Str),
            Field::new("price", DataType::Float),
        ])
        .unwrap();
        TableBuilder::with_key("product", schema, &["id"])
            .unwrap()
            .rows([
                vec![1.into(), "vaio".into(), 999.0.into()],
                vec![2.into(), "asus".into(), 529.0.into()],
                vec![3.into(), "hp".into(), 599.0.into()],
            ])
            .unwrap()
            .build()
    }

    #[test]
    fn build_and_read() {
        let t = sample();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.column(1).value(1), Value::str("asus"));
        assert_eq!(t.column(2).value(2), Value::Float(599.0));
    }

    #[test]
    fn builder_rejects_bad_rows() {
        let t = sample();
        let mut b = TableBuilder::new("t", t.schema().clone());
        assert!(b.push(vec![4.into(), 5.into(), 1.0.into()]).is_err());
        assert!(b.push(vec![4.into()]).is_err());
        assert_eq!(b.num_rows(), 0, "failed insert must not partially apply");
    }

    #[test]
    fn set_column_widens_int_into_float_fields() {
        let t = sample();
        let mut b = TableBuilder::new("t", t.schema().clone());
        b.set_column(
            "price",
            Column::from_values(DataType::Int, &[5.into(), 7.into()]).unwrap(),
        )
        .unwrap();
        b.set_column(
            "id",
            Column::from_values(DataType::Int, &[1.into(), 2.into()]).unwrap(),
        )
        .unwrap();
        b.set_column(
            "brand",
            Column::from_values(DataType::Str, &["a".into(), "b".into()]).unwrap(),
        )
        .unwrap();
        let t = b.build();
        assert_eq!(t.column(2).value(0), Value::Float(5.0));
    }

    #[test]
    fn builder_set_column_validates() {
        let t = sample();
        let mut b = TableBuilder::new("t", t.schema().clone());
        // Type mismatch.
        assert!(b
            .set_column(
                "id",
                Column::from_values(DataType::Str, &["x".into()]).unwrap()
            )
            .is_err());
        // NULL into a non-nullable field.
        assert!(b
            .set_column(
                "id",
                Column::from_values(DataType::Int, &[Value::Null]).unwrap()
            )
            .is_err());
        // Length mismatch against an installed column.
        b.set_column(
            "id",
            Column::from_values(DataType::Int, &[1.into(), 2.into()]).unwrap(),
        )
        .unwrap();
        assert!(b
            .set_column(
                "price",
                Column::from_values(DataType::Float, &[1.0.into()]).unwrap()
            )
            .is_err());
    }

    #[test]
    fn columns_are_typed() {
        let t = sample();
        assert!(t.column(0).as_int().is_some());
        assert!(t.column(2).as_float().is_some());
        let (codes, dict, _) = t.column(1).as_str().unwrap();
        assert_eq!(codes.len(), 3);
        assert_eq!(dict.len(), 3);
    }

    #[test]
    fn gather_and_project() {
        let t = sample();
        let g = t.gather(&[2, 0]);
        assert_eq!(g.num_rows(), 2);
        assert_eq!(g.column(1).value(0), Value::str("hp"));
        let p = t.project(&["brand"]).unwrap();
        assert_eq!(p.num_columns(), 1);
        assert_eq!(p.column(0).len(), 3);
        assert!(t.project(&["missing"]).is_err());
    }

    #[test]
    fn sort_by_column_orders_rows() {
        let t = sample();
        let s = t.sort_by_column("price").unwrap();
        assert_eq!(s.column(1).value(0), Value::str("asus"));
        assert_eq!(s.column(1).value(2), Value::str("vaio"));
    }

    #[test]
    fn key_uniqueness() {
        let t = sample();
        assert!(t.check_key_unique().is_ok());
        let dup = TableBuilder::with_key("product", t.schema().clone(), &["id"])
            .unwrap()
            .rows([
                vec![1.into(), "vaio".into(), 999.0.into()],
                vec![1.into(), "dup".into(), 1.0.into()],
            ])
            .unwrap()
            .build();
        assert!(dup.check_key_unique().is_err());
    }

    #[test]
    fn multi_column_key_uniqueness() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Str),
            Field::new("x", DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::with_key("t", schema, &["a", "b"]).unwrap();
        b.push(vec![1.into(), "l".into(), 0.0.into()]).unwrap();
        b.push(vec![1.into(), "r".into(), 0.0.into()]).unwrap();
        b.push(vec![2.into(), "l".into(), 0.0.into()]).unwrap();
        assert!(
            b.clone().build().check_key_unique().is_ok(),
            "distinct (a, b) combinations are unique"
        );
        b.push(vec![1.into(), "r".into(), 9.0.into()]).unwrap();
        let err = b.build().check_key_unique().unwrap_err();
        assert!(
            matches!(&err, StorageError::DuplicateKey(k) if k == "1,r"),
            "duplicate composite key is reported: {err}"
        );
    }

    #[test]
    fn add_column_validates_length() {
        let mut t = sample();
        assert!(t
            .add_column(
                Field::new("stock", DataType::Int),
                vec![1.into(), 2.into(), 3.into()]
            )
            .is_ok());
        assert!(t
            .add_column(Field::new("bad", DataType::Int), vec![1.into()])
            .is_err());
    }

    #[test]
    fn nulls_round_trip_through_columns() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::nullable("b", DataType::Str),
        ])
        .unwrap();
        let t = TableBuilder::new("t", schema)
            .row(vec![1.into(), Value::Null])
            .unwrap()
            .row(vec![2.into(), "x".into()])
            .unwrap()
            .build();
        assert_eq!(t.column(1).value(0), Value::Null);
        assert_eq!(t.column(0).value(0), Value::Int(1));
        assert_eq!(t.column(1).null_count(), 1);
    }
}
