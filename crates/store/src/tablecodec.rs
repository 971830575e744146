//! Codecs for relational storage: schemas, typed columns, tables, and
//! whole databases.
//!
//! Columns serialize their *typed* buffers directly — `i64`/`f64` words,
//! one byte per bool, `u32` dictionary codes — plus the packed null-bitmap
//! words, so a snapshot round-trip is exact (float bit patterns included)
//! and decoding is a bulk copy, not a per-`Value` parse.
//!
//! String dictionaries are hoisted: within one table (or one database),
//! every distinct `Arc<StrDict>` is written **once** in a dictionary
//! block, and `Str` columns reference it by index. Columns produced by
//! `gather`/`project` share dictionaries in memory; the snapshot preserves
//! that sharing on disk and on reload instead of duplicating the strings
//! per column.
//!
//! Tables and databases end with their content fingerprint
//! ([`hyper_storage::Fingerprint`] machinery). Decoding recomputes the
//! fingerprint of the reconstructed value and rejects the snapshot with
//! [`StoreError::FingerprintMismatch`] when they disagree — a second line
//! of defense behind the container checksums, and the property that makes
//! warm-started sessions safe: an artifact only ever joins the cache shard
//! its data actually belongs to.

use std::collections::HashMap;
use std::sync::Arc;

use hyper_storage::{
    Column, DataType, Database, Field, ForeignKey, NullBitmap, Schema, StrDict, Table, TableBuilder,
};

use crate::codec::{ByteReader, ByteWriter};
use crate::error::{Result, StoreError};

fn corrupt(msg: impl Into<String>) -> StoreError {
    StoreError::Corrupt(msg.into())
}

// ------------------------------------------------------------ data types

fn dtype_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Str => 3,
    }
}

fn dtype_from_tag(tag: u8) -> Result<DataType> {
    Ok(match tag {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Str,
        t => return Err(corrupt(format!("invalid data-type tag {t}"))),
    })
}

// --------------------------------------------------------------- schemas

/// Encode a schema: field count, then `(name, type, nullable)` triples.
pub fn encode_schema(w: &mut ByteWriter, schema: &Schema) {
    w.write_u64(schema.len() as u64);
    for f in schema.fields() {
        w.write_str(&f.name);
        w.write_u8(dtype_tag(f.data_type));
        w.write_bool(f.nullable);
    }
}

/// Decode a schema.
pub fn decode_schema(r: &mut ByteReader<'_>) -> Result<Schema> {
    let n = r.read_len(3, "schema field count")?;
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.read_string("field name")?;
        let dt = dtype_from_tag(r.read_u8("field type")?)?;
        let nullable = r.read_bool("field nullability")?;
        fields.push(if nullable {
            Field::nullable(name, dt)
        } else {
            Field::new(name, dt)
        });
    }
    Schema::new(fields).map_err(|e| corrupt(format!("invalid schema: {e}")))
}

// ---------------------------------------------------------- dictionaries

/// Deduplicates `Arc<StrDict>`s by pointer identity while encoding, so a
/// dictionary shared by several columns (or tables) is written once.
#[derive(Default)]
pub(crate) struct DictRegistry {
    by_ptr: HashMap<usize, u32>,
    dicts: Vec<Arc<StrDict>>,
}

impl DictRegistry {
    fn index_of(&mut self, dict: &Arc<StrDict>) -> u32 {
        let ptr = Arc::as_ptr(dict) as usize;
        if let Some(&i) = self.by_ptr.get(&ptr) {
            return i;
        }
        let i = self.dicts.len() as u32;
        self.by_ptr.insert(ptr, i);
        self.dicts.push(Arc::clone(dict));
        i
    }

    fn write(&self, w: &mut ByteWriter) {
        w.write_u64(self.dicts.len() as u64);
        for d in &self.dicts {
            w.write_u64(d.len() as u64);
            for s in d.strings() {
                w.write_str(s);
            }
        }
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Vec<Arc<StrDict>>> {
        let n = r.read_len(8, "dictionary count")?;
        let mut dicts = Vec::with_capacity(n);
        for _ in 0..n {
            let len = r.read_len(8, "dictionary size")?;
            let mut dict = StrDict::default();
            for _ in 0..len {
                let s: Arc<str> = Arc::from(r.read_str("dictionary string")?);
                let code = dict.intern(&s);
                if code as usize + 1 != dict.len() {
                    return Err(corrupt("duplicate string in dictionary"));
                }
            }
            dicts.push(Arc::new(dict));
        }
        Ok(dicts)
    }
}

// --------------------------------------------------------------- columns

fn encode_nulls(w: &mut ByteWriter, nulls: &NullBitmap) {
    if nulls.any_null() {
        w.write_bool(true);
        for &word in nulls.words() {
            w.write_u64(word);
        }
    } else {
        w.write_bool(false);
    }
}

fn decode_nulls(r: &mut ByteReader<'_>, len: usize) -> Result<NullBitmap> {
    if !r.read_bool("null-bitmap flag")? {
        return Ok(NullBitmap::all_valid(len));
    }
    let words = len.div_ceil(64);
    let mut buf = Vec::with_capacity(words);
    for _ in 0..words {
        buf.push(r.read_u64("null-bitmap word")?);
    }
    NullBitmap::from_words(len, buf).map_err(|e| corrupt(format!("invalid null bitmap: {e}")))
}

fn encode_column(w: &mut ByteWriter, col: &Column, dicts: &mut DictRegistry) {
    w.write_u8(dtype_tag(col.data_type()));
    w.write_u64(col.len() as u64);
    encode_nulls(w, col.nulls());
    match col {
        Column::Int { values, .. } => {
            for &v in values {
                w.write_i64(v);
            }
        }
        Column::Float { values, .. } => {
            for &v in values {
                w.write_f64(v);
            }
        }
        Column::Bool { values, .. } => {
            for &v in values {
                w.write_bool(v);
            }
        }
        Column::Str { codes, dict, .. } => {
            w.write_u32(dicts.index_of(dict));
            for &c in codes {
                w.write_u32(c);
            }
        }
    }
}

fn decode_column(r: &mut ByteReader<'_>, dicts: &[Arc<StrDict>]) -> Result<Column> {
    let dt = dtype_from_tag(r.read_u8("column type")?)?;
    let len = r.read_len(1, "column length")?;
    let nulls = decode_nulls(r, len)?;
    // Bulk reads: one bounds check per column, then a typed conversion
    // over the raw payload slice.
    Ok(match dt {
        DataType::Int => {
            let raw = r.read_raw(len * 8, "int column payload")?;
            let values = raw
                .chunks_exact(8)
                .map(|c| i64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                .collect();
            Column::Int { values, nulls }
        }
        DataType::Float => {
            let raw = r.read_raw(len * 8, "float column payload")?;
            let values = raw
                .chunks_exact(8)
                .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8-byte chunk"))))
                .collect();
            Column::Float { values, nulls }
        }
        DataType::Bool => {
            let raw = r.read_raw(len, "bool column payload")?;
            if let Some(&bad) = raw.iter().find(|&&b| b > 1) {
                return Err(corrupt(format!("invalid boolean byte {bad} in bool cell")));
            }
            Column::Bool {
                values: raw.iter().map(|&b| b == 1).collect(),
                nulls,
            }
        }
        DataType::Str => {
            let di = r.read_u32("dictionary index")? as usize;
            let dict = dicts
                .get(di)
                .ok_or_else(|| corrupt(format!("column references missing dictionary {di}")))?;
            let raw = r.read_raw(len * 4, "string code payload")?;
            let mut codes = Vec::with_capacity(len);
            for (i, c) in raw.chunks_exact(4).enumerate() {
                let c = u32::from_le_bytes(c.try_into().expect("4-byte chunk"));
                if c as usize >= dict.len() && !nulls.is_null(i) {
                    return Err(corrupt(format!(
                        "string code {c} out of range for a {}-entry dictionary",
                        dict.len()
                    )));
                }
                // NULL slots may carry any placeholder code; clamp so the
                // payload can never index out of bounds.
                codes.push(if c as usize >= dict.len() { 0 } else { c });
            }
            Column::Str {
                codes,
                dict: Arc::clone(dict),
                nulls,
            }
        }
    })
}

// ---------------------------------------------------------------- tables

/// Table body: name, schema, primary key, columns (dictionaries go to the
/// shared registry, written separately).
fn encode_table_body(w: &mut ByteWriter, table: &Table, dicts: &mut DictRegistry) {
    w.write_str(table.name());
    encode_schema(w, table.schema());
    w.write_u64(table.primary_key().len() as u64);
    for &k in table.primary_key() {
        w.write_u64(k as u64);
    }
    for c in 0..table.num_columns() {
        encode_column(w, table.column(c), dicts);
    }
}

fn decode_table_body(r: &mut ByteReader<'_>, dicts: &[Arc<StrDict>]) -> Result<Table> {
    let name = r.read_string("table name")?;
    let schema = decode_schema(r)?;
    let nkeys = r.read_len(8, "primary-key count")?;
    let mut key_names = Vec::with_capacity(nkeys);
    for _ in 0..nkeys {
        let k = r.read_u64("primary-key index")? as usize;
        if k >= schema.len() {
            return Err(corrupt(format!(
                "primary-key column {k} out of range for a {}-column schema",
                schema.len()
            )));
        }
        key_names.push(schema.field(k).name.clone());
    }
    let mut columns = Vec::with_capacity(schema.len());
    for i in 0..schema.len() {
        let col = decode_column(r, dicts)?;
        if col.data_type() != schema.field(i).data_type {
            return Err(corrupt(format!(
                "column `{}` is declared {} but encoded as {}",
                schema.field(i).name,
                schema.field(i).data_type,
                col.data_type()
            )));
        }
        columns.push(col);
    }
    if let Some(n) = columns.first().map(Column::len) {
        if columns.iter().any(|c| c.len() != n) {
            return Err(corrupt(format!("table `{name}` has ragged columns")));
        }
    }
    let key_refs: Vec<&str> = key_names.iter().map(String::as_str).collect();
    let mut b = TableBuilder::with_key(name, schema.clone(), &key_refs)
        .map_err(|e| corrupt(format!("invalid primary key: {e}")))?;
    for (i, col) in columns.into_iter().enumerate() {
        b.set_column(&schema.field(i).name.clone(), col)
            .map_err(|e| corrupt(format!("invalid column payload: {e}")))?;
    }
    Ok(b.build())
}

/// Encode a table: shared-dictionary block, body, content fingerprint.
pub fn encode_table(w: &mut ByteWriter, table: &Table) {
    let mut dicts = DictRegistry::default();
    let mut body = ByteWriter::new();
    encode_table_body(&mut body, table, &mut dicts);
    dicts.write(w);
    w.write_raw(body.as_slice());
    w.write_u64(table.fingerprint());
}

/// Decode a table, validating its recorded fingerprint against the
/// fingerprint recomputed from the decoded data.
pub fn decode_table(r: &mut ByteReader<'_>) -> Result<Table> {
    let dicts = DictRegistry::read(r)?;
    let table = decode_table_body(r, &dicts)?;
    let recorded = r.read_u64("table fingerprint")?;
    let actual = table.fingerprint();
    if recorded != actual {
        return Err(StoreError::FingerprintMismatch {
            expected: recorded,
            found: actual,
            what: format!("table `{}`", table.name()),
        });
    }
    Ok(table)
}

// -------------------------------------------------------------- database

/// Encode a whole database: one shared-dictionary block for every table,
/// the table bodies, foreign keys, and the database content fingerprint.
pub fn encode_database(w: &mut ByteWriter, db: &Database) {
    let mut dicts = DictRegistry::default();
    let mut body = ByteWriter::new();
    body.write_u64(db.tables().len() as u64);
    for t in db.tables() {
        encode_table_body(&mut body, t, &mut dicts);
    }
    dicts.write(w);
    w.write_raw(body.as_slice());
    w.write_u64(db.foreign_keys().len() as u64);
    for fk in db.foreign_keys() {
        w.write_str(&fk.child_table);
        w.write_u64(fk.child_columns.len() as u64);
        for c in &fk.child_columns {
            w.write_str(c);
        }
        w.write_str(&fk.parent_table);
        w.write_u64(fk.parent_columns.len() as u64);
        for c in &fk.parent_columns {
            w.write_str(c);
        }
    }
    w.write_u64(db.fingerprint());
}

/// Decode a database, validating foreign keys against the decoded tables
/// and the recorded content fingerprint against the recomputed one.
pub fn decode_database(r: &mut ByteReader<'_>) -> Result<Database> {
    let dicts = DictRegistry::read(r)?;
    let ntables = r.read_len(8, "table count")?;
    let mut db = Database::new();
    for _ in 0..ntables {
        let t = decode_table_body(r, &dicts)?;
        db.add_table(t)
            .map_err(|e| corrupt(format!("invalid table set: {e}")))?;
    }
    let nfks = r.read_len(8, "foreign-key count")?;
    for _ in 0..nfks {
        let child_table = r.read_string("foreign-key child table")?;
        let nc = r.read_len(8, "foreign-key child column count")?;
        let mut child_columns = Vec::with_capacity(nc);
        for _ in 0..nc {
            child_columns.push(r.read_string("foreign-key child column")?);
        }
        let parent_table = r.read_string("foreign-key parent table")?;
        let np = r.read_len(8, "foreign-key parent column count")?;
        let mut parent_columns = Vec::with_capacity(np);
        for _ in 0..np {
            parent_columns.push(r.read_string("foreign-key parent column")?);
        }
        db.add_foreign_key(ForeignKey {
            child_table,
            child_columns,
            parent_table,
            parent_columns,
        })
        .map_err(|e| corrupt(format!("invalid foreign key: {e}")))?;
    }
    let recorded = r.read_u64("database fingerprint")?;
    let actual = db.fingerprint();
    if recorded != actual {
        return Err(StoreError::FingerprintMismatch {
            expected: recorded,
            found: actual,
            what: "database".into(),
        });
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyper_storage::Value;

    fn sample_table() -> Table {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("brand", DataType::Str),
            Field::nullable("price", DataType::Float),
            Field::nullable("ok", DataType::Bool),
        ])
        .unwrap();
        TableBuilder::with_key("product", schema, &["id"])
            .unwrap()
            .rows([
                vec![1.into(), "vaio".into(), 999.0.into(), true.into()],
                vec![2.into(), "asus".into(), Value::Null, Value::Null],
                vec![3.into(), "vaio".into(), (-0.0).into(), false.into()],
            ])
            .unwrap()
            .build()
    }

    #[test]
    fn table_round_trips_exactly() {
        let t = sample_table();
        let mut w = ByteWriter::new();
        encode_table(&mut w, &t);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = decode_table(&mut r).unwrap();
        assert!(r.is_at_end());
        assert_eq!(back.fingerprint(), t.fingerprint());
        assert_eq!(back.primary_key(), t.primary_key());
        for c in 0..t.num_columns() {
            assert_eq!(back.column(c), t.column(c), "column {c}");
        }
    }

    #[test]
    fn shared_dictionaries_written_once() {
        // A gathered table shares its dictionary with the original; a
        // database holding both stores the strings once.
        let t = sample_table();
        let g = {
            let mut g = t.gather(&[0, 2]);
            g.set_name("gathered");
            g
        };
        let mut db = Database::new();
        db.add_table(t).unwrap();
        db.add_table(g).unwrap();

        let mut w = ByteWriter::new();
        encode_database(&mut w, &db);
        let shared_len = w.len();

        // Re-encode with the sharing broken (fresh dictionary per table).
        let mut db2 = Database::new();
        for t in db.tables() {
            let rebuilt = {
                let mut b = TableBuilder::new(t.name(), t.schema().clone());
                for c in 0..t.num_columns() {
                    let col = t.column(c);
                    let vals: Vec<Value> = col.iter().collect();
                    let fresh = Column::from_values(col.data_type(), &vals).unwrap();
                    b.set_column(&t.schema().field(c).name.clone(), fresh)
                        .unwrap();
                }
                b.build()
            };
            db2.add_table(rebuilt).unwrap();
        }
        let mut w2 = ByteWriter::new();
        encode_database(&mut w2, &db2);
        assert!(
            shared_len < w2.len(),
            "shared-dict encoding ({shared_len}B) should be smaller than \
             per-table dictionaries ({}B)",
            w2.len()
        );

        // And both decode back to fingerprint-identical databases.
        let mut r = ByteReader::new(w.as_slice());
        let back = decode_database(&mut r).unwrap();
        assert_eq!(back.fingerprint(), db.fingerprint());
    }

    #[test]
    fn tampered_cell_is_a_fingerprint_mismatch() {
        let t = sample_table();
        let mut w = ByteWriter::new();
        encode_table(&mut w, &t);
        let mut bytes = w.into_bytes();
        // Flip a mantissa bit of the unique 999.0 cell: still a valid
        // float, still a structurally valid table — only the content hash
        // can catch it.
        let needle = 999.0f64.to_bits().to_le_bytes();
        let pos = bytes
            .windows(8)
            .position(|w| w == needle)
            .expect("price payload present");
        bytes[pos] ^= 0x02;
        let mut r = ByteReader::new(&bytes);
        let err = decode_table(&mut r).unwrap_err();
        assert!(
            matches!(err, StoreError::FingerprintMismatch { .. }),
            "got {err}"
        );
    }
}
