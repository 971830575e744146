//! `hyper-snapshot` — save, inspect, and load durable `HYPR1` scenario
//! snapshots (database + causal graph).
//!
//! ```text
//! hyper-snapshot save --dataset german-syn --rows 10000 --seed 1 --out german.hypr
//! hyper-snapshot save --csv data.csv --table mytable --out data.hypr
//! hyper-snapshot inspect german.hypr
//! hyper-snapshot load german.hypr
//! ```
//!
//! `save` builds a snapshot from a bundled dataset generator (with its
//! causal graph) or a CSV whose first line is the header row (no
//! separate schema file — types are inferred per column, empty cells
//! are NULL, fields split on plain commas with no quoting; no graph).
//! `inspect` prints the section table and fingerprints
//! without decoding the data sections. `load` fully decodes and
//! re-validates checksums, structure, and content fingerprints — its
//! exit code is the file's health check.

use std::process::ExitCode;

use hyper_repro::datasets;
use hyper_repro::storage::{Column, DataType, Database, Field, Schema, TableBuilder, Value};
use hyper_repro::store::{Snapshot, StoreError};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  hyper-snapshot save --dataset <german-syn|german|adult|amazon|student-syn> \
         [--rows N] [--seed S] --out FILE\n  hyper-snapshot save --csv FILE --table NAME --out FILE\n  \
         hyper-snapshot inspect FILE\n  hyper-snapshot load FILE"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    match command.as_str() {
        "save" => {
            let Some(out) = flag("--out") else {
                return usage();
            };
            let snapshot = if let Some(name) = flag("--dataset") {
                let rows: usize = flag("--rows")
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(10_000);
                let seed: u64 = flag("--seed").and_then(|s| s.parse().ok()).unwrap_or(1);
                let data = match name.as_str() {
                    "german-syn" => datasets::german_syn(rows, seed),
                    "german" => datasets::german(seed),
                    "adult" => datasets::adult(rows, seed),
                    "amazon" => datasets::amazon(rows, 3, seed),
                    "student-syn" => datasets::student_syn(rows, 4, seed),
                    other => {
                        eprintln!("unknown dataset `{other}`");
                        return usage();
                    }
                };
                Snapshot::new(data.db, Some(data.graph))
            } else if let Some(path) = flag("--csv") {
                let Some(table) = flag("--table") else {
                    return usage();
                };
                let text = match std::fs::read_to_string(&path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("cannot read {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                match load_csv_inferred(&table, &text) {
                    Ok(db) => Snapshot::new(db, None),
                    Err(e) => {
                        eprintln!("cannot parse {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            } else {
                return usage();
            };
            if let Err(e) = snapshot.save(&out) {
                eprintln!("save failed: {e}");
                return ExitCode::FAILURE;
            }
            let bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
            println!(
                "wrote {out}: {} table(s), {} total row(s), {} KiB, db fingerprint {:#018x}",
                snapshot.database.tables().len(),
                snapshot.database.total_rows(),
                bytes / 1024,
                snapshot.database.fingerprint(),
            );
            ExitCode::SUCCESS
        }
        "inspect" => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            match Snapshot::inspect(path) {
                Ok(info) => {
                    println!("{path}: HYPR1 snapshot, {} bytes", info.file_bytes);
                    println!(
                        "  database fingerprint: {:#018x}",
                        info.database_fingerprint
                    );
                    if info.graph_fingerprint != 0 {
                        println!("  graph fingerprint:    {:#018x}", info.graph_fingerprint);
                    } else {
                        println!("  graph fingerprint:    (no graph)");
                    }
                    println!("  sections:");
                    for (tag, len) in &info.sections {
                        println!("    {tag:<4} {len:>10} bytes");
                    }
                    println!("  tables:");
                    for (name, rows, cols) in &info.tables {
                        println!("    {name:<20} {rows:>8} rows × {cols} columns");
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("inspect failed: {e}");
                    exit_code_for(&e)
                }
            }
        }
        "load" => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            match Snapshot::load(path) {
                Ok(s) => {
                    println!(
                        "{path}: OK — {} table(s), {} row(s), graph: {}, db fingerprint {:#018x}",
                        s.database.tables().len(),
                        s.database.total_rows(),
                        if s.graph.is_some() { "yes" } else { "no" },
                        s.database.fingerprint(),
                    );
                    for t in s.database.tables() {
                        println!(
                            "  {:<20} {:>8} rows × {} columns (fingerprint {:#018x})",
                            t.name(),
                            t.num_rows(),
                            t.num_columns(),
                            t.fingerprint(),
                        );
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("load failed: {e}");
                    exit_code_for(&e)
                }
            }
        }
        _ => usage(),
    }
}

/// Distinct exit codes per failure family, so scripts can tell a damaged
/// file (3) from a format-version skew (4) from plain I/O trouble (1).
fn exit_code_for(e: &StoreError) -> ExitCode {
    ExitCode::from(match e {
        StoreError::Io(_) => 1,
        StoreError::Corrupt(_) | StoreError::FingerprintMismatch { .. } => 3,
        StoreError::VersionMismatch { .. } => 4,
        StoreError::Query(_) => 2,
    })
}

/// Load a CSV with a header row, inferring each column's type from its
/// values (Int ⊂ Float; otherwise Str; empty cells are NULL). Fields
/// are split on raw commas — RFC-4180 quoting is **not** supported, so
/// quoted input is rejected up front instead of silently ingesting
/// quote characters (or splitting inside a quoted field).
fn load_csv_inferred(table: &str, text: &str) -> Result<Database, String> {
    if text.contains('"') {
        return Err(
            "quoted CSV is not supported (fields are split on raw commas); \
             strip quotes or use values without embedded commas"
                .into(),
        );
    }
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty file")?;
    let names: Vec<&str> = header.split(',').map(str::trim).collect();
    let mut cells: Vec<Vec<String>> = vec![Vec::new(); names.len()];
    for (lineno, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let row: Vec<&str> = line.split(',').map(str::trim).collect();
        if row.len() != names.len() {
            return Err(format!(
                "line {}: {} field(s), expected {}",
                lineno + 2,
                row.len(),
                names.len()
            ));
        }
        for (c, v) in row.iter().enumerate() {
            cells[c].push((*v).to_string());
        }
    }
    let infer = |col: &[String]| -> DataType {
        let non_empty = col.iter().filter(|v| !v.is_empty());
        let mut dt = DataType::Int;
        for v in non_empty {
            if v.parse::<i64>().is_ok() {
                continue;
            }
            if v.parse::<f64>().is_ok() {
                if dt == DataType::Int {
                    dt = DataType::Float;
                }
                continue;
            }
            return DataType::Str;
        }
        dt
    };
    let fields: Vec<Field> = names
        .iter()
        .zip(&cells)
        .map(|(n, col)| Field::nullable((*n).to_string(), infer(col)))
        .collect();
    let schema = Schema::new(fields.clone()).map_err(|e| e.to_string())?;
    let mut b = TableBuilder::new(table, schema);
    for (field, col) in fields.iter().zip(&cells) {
        let mut column = Column::new(field.data_type);
        for v in col {
            let value = if v.is_empty() {
                Value::Null
            } else {
                match field.data_type {
                    DataType::Int => Value::Int(v.parse().unwrap()),
                    DataType::Float => Value::Float(v.parse().unwrap()),
                    _ => Value::str(v),
                }
            };
            column.push(&value).map_err(|e| e.to_string())?;
        }
        b.set_column(&field.name, column)
            .map_err(|e| e.to_string())?;
    }
    let mut db = Database::new();
    db.add_table(b.build()).map_err(|e| e.to_string())?;
    Ok(db)
}
