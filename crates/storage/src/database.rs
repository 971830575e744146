//! Multi-relation databases with foreign-key metadata.

use std::collections::HashMap;
use std::sync::OnceLock;

use crate::error::{Result, StorageError};
use crate::table::Table;

/// A declared foreign-key relationship `child.columns → parent.columns`.
///
/// HypeR uses these to connect tuples across relations when grounding the
/// causal graph and when building relevant views.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    /// Referencing table.
    pub child_table: String,
    /// Referencing columns (in the child).
    pub child_columns: Vec<String>,
    /// Referenced table.
    pub parent_table: String,
    /// Referenced columns (in the parent, typically its primary key).
    pub parent_columns: Vec<String>,
}

/// A named collection of tables, preserving registration order.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: Vec<Table>,
    by_name: HashMap<String, usize>,
    foreign_keys: Vec<ForeignKey>,
    /// Memoized content fingerprint, cleared by every `&mut` accessor —
    /// session construction fingerprints the (usually immutable,
    /// `Arc`-shared) database per build, which must not re-hash every
    /// cell each time.
    fingerprint: OnceLock<u64>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Register a table; names must be unique.
    pub fn add_table(&mut self, table: Table) -> Result<()> {
        if self.by_name.contains_key(table.name()) {
            return Err(StorageError::DuplicateTable(table.name().to_string()));
        }
        self.fingerprint = OnceLock::new();
        self.by_name
            .insert(table.name().to_string(), self.tables.len());
        self.tables.push(table);
        Ok(())
    }

    /// Replace a table that already exists (e.g. after a hypothetical update).
    pub fn replace_table(&mut self, table: Table) -> Result<()> {
        self.fingerprint = OnceLock::new();
        match self.by_name.get(table.name()) {
            Some(&i) => {
                self.tables[i] = table;
                Ok(())
            }
            None => Err(StorageError::UnknownTable(table.name().to_string())),
        }
    }

    /// Declare a foreign key after validating that both sides exist.
    pub fn add_foreign_key(&mut self, fk: ForeignKey) -> Result<()> {
        {
            let child = self.table(&fk.child_table)?;
            for c in &fk.child_columns {
                child.schema().index_of(c)?;
            }
            let parent = self.table(&fk.parent_table)?;
            for c in &fk.parent_columns {
                parent.schema().index_of(c)?;
            }
            if fk.child_columns.len() != fk.parent_columns.len() {
                return Err(StorageError::SchemaMismatch(
                    "foreign key column count mismatch".into(),
                ));
            }
        }
        self.fingerprint = OnceLock::new();
        self.foreign_keys.push(fk);
        Ok(())
    }

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.by_name
            .get(name)
            .map(|&i| &self.tables[i])
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// Mutable lookup. (Invalidate the memoized fingerprint up front —
    /// the caller may mutate the table through the returned reference.)
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.fingerprint = OnceLock::new();
        match self.by_name.get(name) {
            Some(&i) => Ok(&mut self.tables[i]),
            None => Err(StorageError::UnknownTable(name.to_string())),
        }
    }

    /// All tables in registration order.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// All declared foreign keys.
    pub fn foreign_keys(&self) -> &[ForeignKey] {
        &self.foreign_keys
    }

    /// Foreign keys touching the given table (as child or parent).
    pub fn foreign_keys_of(&self, table: &str) -> Vec<&ForeignKey> {
        self.foreign_keys
            .iter()
            .filter(|fk| fk.child_table == table || fk.parent_table == table)
            .collect()
    }

    /// True iff the named table exists.
    pub fn contains(&self, name: &str) -> bool {
        self.by_name.contains_key(name)
    }

    /// Content fingerprint of the whole database: tables (in registration
    /// order) and foreign keys. Databases with equal content fingerprint
    /// equal whether or not they share `Arc`s or construction history —
    /// this keys the process-wide shared artifact store. Computed once
    /// and memoized (every `&mut` accessor clears the memo), so
    /// per-request session construction over a shared `Arc<Database>`
    /// does not re-hash the data.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut h = crate::fingerprint::Fingerprint::new();
            h.write_u64(self.tables.len() as u64);
            for t in &self.tables {
                h.write_u64(t.fingerprint());
            }
            h.write_u64(self.foreign_keys.len() as u64);
            for fk in &self.foreign_keys {
                h.write_str(&fk.child_table);
                for c in &fk.child_columns {
                    h.write_str(c);
                }
                h.write_str(&fk.parent_table);
                for c in &fk.parent_columns {
                    h.write_str(c);
                }
            }
            h.finish()
        })
    }

    /// Find the unique table holding a column named `attr`, if unambiguous.
    ///
    /// The paper assumes update/output attributes appear in a single relation
    /// (§2); this helper enforces that assumption.
    pub fn table_of_attribute(&self, attr: &str) -> Result<&Table> {
        let mut found: Option<&Table> = None;
        for t in &self.tables {
            if t.schema().contains(attr) {
                if found.is_some() {
                    return Err(StorageError::SchemaMismatch(format!(
                        "attribute `{attr}` appears in multiple relations; qualify it"
                    )));
                }
                found = Some(t);
            }
        }
        found.ok_or_else(|| StorageError::UnknownColumn(attr.to_string()))
    }

    /// Total number of tuples across relations.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(Table::num_rows).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::value::DataType;

    fn db() -> Database {
        let mut db = Database::new();
        let prod = Table::with_key(
            "product",
            Schema::new(vec![
                Field::new("pid", DataType::Int),
                Field::new("price", DataType::Float),
            ])
            .unwrap(),
            &["pid"],
        )
        .unwrap();
        let rev = Table::with_key(
            "review",
            Schema::new(vec![
                Field::new("pid", DataType::Int),
                Field::new("rid", DataType::Int),
                Field::new("rating", DataType::Int),
            ])
            .unwrap(),
            &["pid", "rid"],
        )
        .unwrap();
        db.add_table(prod).unwrap();
        db.add_table(rev).unwrap();
        db.add_foreign_key(ForeignKey {
            child_table: "review".into(),
            child_columns: vec!["pid".into()],
            parent_table: "product".into(),
            parent_columns: vec!["pid".into()],
        })
        .unwrap();
        db
    }

    #[test]
    fn registration_and_lookup() {
        let db = db();
        assert!(db.contains("product"));
        assert!(db.table("review").is_ok());
        assert!(db.table("missing").is_err());
        assert_eq!(db.tables().len(), 2);
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = db();
        let t = Table::new("product", Schema::new(vec![]).unwrap());
        assert!(db.add_table(t).is_err());
    }

    #[test]
    fn foreign_key_validation() {
        let mut db = db();
        let bad = ForeignKey {
            child_table: "review".into(),
            child_columns: vec!["nope".into()],
            parent_table: "product".into(),
            parent_columns: vec!["pid".into()],
        };
        assert!(db.add_foreign_key(bad).is_err());
        assert_eq!(db.foreign_keys_of("product").len(), 1);
    }

    #[test]
    fn attribute_resolution() {
        let db = db();
        assert_eq!(db.table_of_attribute("price").unwrap().name(), "product");
        assert_eq!(db.table_of_attribute("rating").unwrap().name(), "review");
        // pid is ambiguous.
        assert!(db.table_of_attribute("pid").is_err());
        assert!(db.table_of_attribute("ghost").is_err());
    }

    #[test]
    fn fingerprint_memo_invalidates_on_mutation() {
        let mut db = db();
        let before = db.fingerprint();
        assert_eq!(before, db.fingerprint(), "memoized value is stable");
        let schema = db.table("product").unwrap().schema().clone();
        let t = crate::table::TableBuilder::new("product", schema)
            .row(vec![9.into(), 1.0.into()])
            .unwrap()
            .build();
        db.replace_table(t).unwrap();
        assert_ne!(before, db.fingerprint(), "mutation clears the memo");
    }

    #[test]
    fn sibling_append_rehashes_only_the_mutated_table() {
        let mut db = db();
        db.fingerprint(); // memoize every per-table digest + the combine
        let before = crate::fingerprint::HASH_TABLE_CALLS.with(|c| c.get());

        // Append a row to `review`; `product` is untouched.
        let review = db.table("review").unwrap();
        let row = crate::table::TableBuilder::new("review", review.schema().clone())
            .row(vec![1.into(), 9.into(), 5.into()])
            .unwrap()
            .build();
        db.table_mut("review").unwrap().append_rows(&row).unwrap();
        db.fingerprint();

        let after = crate::fingerprint::HASH_TABLE_CALLS.with(|c| c.get());
        assert_eq!(
            after - before,
            1,
            "only the mutated table re-hashes; the sibling's memo survives"
        );
    }

    #[test]
    fn replace_table_swaps_contents() {
        let mut db = db();
        let schema = db.table("product").unwrap().schema().clone();
        let t = crate::table::TableBuilder::new("product", schema)
            .row(vec![1.into(), 10.0.into()])
            .unwrap()
            .build();
        db.replace_table(t).unwrap();
        assert_eq!(db.table("product").unwrap().num_rows(), 1);
    }
}
