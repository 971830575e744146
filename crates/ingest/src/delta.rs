//! Typed delta batches and their transactional application.

use hyper_storage::{Database, Table};

use crate::error::{IngestError, Result};

/// One relation's mutations within a batch: rows to delete (by index in
/// the pre-delta table) and rows to append (a typed [`Table`] with the
/// target's schema, usually built through
/// [`hyper_storage::TableBuilder`]).
#[derive(Debug, Clone)]
pub struct TableDelta {
    /// Target relation name.
    pub relation: String,
    /// Rows to append, if any. Column names and types must match the
    /// target (Ints widen into Float columns).
    pub appends: Option<Table>,
    /// Indices of rows to delete from the pre-delta table. Duplicates
    /// are tolerated; out-of-range indices reject the whole batch.
    pub deletes: Vec<usize>,
}

/// A transactional set of per-relation mutations.
///
/// Application order is the `ops` order; two ops naming the same
/// relation compose sequentially (the second sees the first's result,
/// with deletes still indexing that intermediate table).
#[derive(Debug, Clone, Default)]
pub struct DeltaBatch {
    /// The per-relation mutations, applied in order.
    pub ops: Vec<TableDelta>,
}

impl DeltaBatch {
    /// An empty batch.
    pub fn new() -> DeltaBatch {
        DeltaBatch::default()
    }

    /// Append the rows of `table` to the relation named by its table
    /// name (chainable).
    pub fn append(mut self, table: Table) -> DeltaBatch {
        self.ops.push(TableDelta {
            relation: table.name().to_string(),
            appends: Some(table),
            deletes: Vec::new(),
        });
        self
    }

    /// Delete the given row indices from `relation` (chainable).
    pub fn delete(
        mut self,
        relation: impl Into<String>,
        rows: impl Into<Vec<usize>>,
    ) -> DeltaBatch {
        self.ops.push(TableDelta {
            relation: relation.into(),
            appends: None,
            deletes: rows.into(),
        });
        self
    }

    /// True when the batch contains no mutations at all.
    pub fn is_empty(&self) -> bool {
        self.ops.iter().all(|op| {
            op.deletes.is_empty() && op.appends.as_ref().is_none_or(|t| t.num_rows() == 0)
        })
    }

    /// Touched relation names, deduplicated, in first-touch order.
    pub fn relations(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for op in &self.ops {
            if !out.contains(&op.relation.as_str()) {
                out.push(&op.relation);
            }
        }
        out
    }

    /// Total appended rows across ops.
    pub fn appended_rows(&self) -> usize {
        self.ops
            .iter()
            .filter_map(|op| op.appends.as_ref())
            .map(Table::num_rows)
            .sum()
    }

    /// Total deleted row indices across ops.
    pub fn deleted_rows(&self) -> usize {
        self.ops.iter().map(|op| op.deletes.len()).sum()
    }

    /// Apply the batch to `db`, producing the post-delta database.
    ///
    /// Transactional: the input is never mutated, and any validation
    /// failure (unknown relation, schema mismatch, out-of-range delete,
    /// duplicate primary key in the result) returns an error with no
    /// partial state escaping. Deletes are applied before appends within
    /// one op; key uniqueness is re-checked on every touched relation.
    pub fn apply(&self, db: &Database) -> Result<Database> {
        let mut out = db.clone();
        for op in &self.ops {
            let base = out.table(&op.relation)?;
            let n = base.num_rows();
            let mut table = if op.deletes.is_empty() {
                base.clone()
            } else {
                let mut deleted = vec![false; n];
                for &i in &op.deletes {
                    if i >= n {
                        return Err(IngestError::BadDelete {
                            relation: op.relation.clone(),
                            index: i,
                            rows: n,
                        });
                    }
                    deleted[i] = true;
                }
                let keep: Vec<usize> = (0..n).filter(|&i| !deleted[i]).collect();
                base.gather(&keep)
            };
            if let Some(appends) = &op.appends {
                // Every batch makes a new version of the table, so the
                // amortized slack of a doubling growth would never be
                // used: it would only leave each version with up to twice
                // the memory it needs.
                table.reserve_exact(appends.num_rows());
                table.append_rows(appends)?;
            }
            table.check_key_unique()?;
            out.replace_table(table)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyper_storage::{DataType, Field, Schema, StorageError, TableBuilder};

    fn db() -> Database {
        let mut db = Database::new();
        let items = TableBuilder::with_key(
            "items",
            Schema::new(vec![
                Field::new("id", DataType::Int),
                Field::new("price", DataType::Float),
                Field::new("tag", DataType::Str),
            ])
            .unwrap(),
            &["id"],
        )
        .unwrap()
        .rows((0..5).map(|i| vec![i.into(), (i as f64).into(), format!("t{i}").as_str().into()]))
        .unwrap()
        .build();
        let other = TableBuilder::new(
            "other",
            Schema::new(vec![Field::new("x", DataType::Int)]).unwrap(),
        )
        .rows([vec![1.into()], vec![2.into()]])
        .unwrap()
        .build();
        db.add_table(items).unwrap();
        db.add_table(other).unwrap();
        db
    }

    fn append_rows(rows: impl IntoIterator<Item = (i64, f64, &'static str)>) -> Table {
        TableBuilder::new(
            "items",
            Schema::new(vec![
                Field::new("id", DataType::Int),
                Field::new("price", DataType::Float),
                Field::new("tag", DataType::Str),
            ])
            .unwrap(),
        )
        .rows(
            rows.into_iter()
                .map(|(id, p, t)| vec![id.into(), p.into(), t.into()]),
        )
        .unwrap()
        .build()
    }

    #[test]
    fn append_and_delete_compose() {
        let db = db();
        let batch = DeltaBatch::new()
            .delete("items", vec![1, 3])
            .append(append_rows([(10, 99.5, "new")]));
        let out = batch.apply(&db).unwrap();
        let t = out.table("items").unwrap();
        assert_eq!(t.num_rows(), 4, "5 - 2 deleted + 1 appended");
        let ids: Vec<i64> = t.column_by_name("id").unwrap().as_int().unwrap().0.to_vec();
        assert_eq!(ids, vec![0, 2, 4, 10]);
        assert_eq!(
            t.column_by_name("tag").unwrap().str_at(3),
            Some("new"),
            "string dictionary remapped into the target"
        );
        // Transactional: the input database is untouched.
        assert_eq!(db.table("items").unwrap().num_rows(), 5);
        assert_eq!(batch.relations(), vec!["items"]);
        assert_eq!(batch.appended_rows(), 1);
        assert_eq!(batch.deleted_rows(), 2);
    }

    #[test]
    fn bad_deltas_reject_without_partial_state() {
        let db = db();
        let fp = db.fingerprint();
        // Out-of-range delete.
        let err = DeltaBatch::new()
            .delete("items", vec![99])
            .apply(&db)
            .unwrap_err();
        assert!(matches!(err, IngestError::BadDelete { index: 99, .. }));
        // Unknown relation.
        assert!(DeltaBatch::new()
            .delete("ghost", vec![0])
            .apply(&db)
            .is_err());
        // Duplicate primary key.
        let err = DeltaBatch::new()
            .append(append_rows([(0, 1.0, "dup")]))
            .apply(&db)
            .unwrap_err();
        assert!(matches!(
            err,
            IngestError::Storage(StorageError::DuplicateKey(_))
        ));
        assert_eq!(db.fingerprint(), fp, "input untouched on every failure");
    }

    #[test]
    fn same_relation_ops_apply_sequentially() {
        let db = db();
        let batch = DeltaBatch::new()
            .append(append_rows([(10, 1.0, "a")]))
            .delete("items", vec![5]); // deletes the row just appended
        let out = batch.apply(&db).unwrap();
        assert_eq!(out.table("items").unwrap().num_rows(), 5);
        assert!(DeltaBatch::new().is_empty());
        assert!(!batch.is_empty());
    }
}
