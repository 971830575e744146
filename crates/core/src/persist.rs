//! The disk-backed artifact tier: `HYPR1` codecs for the engine's cached
//! artifacts and the [`DiskTier`] that files them under a session's
//! persist directory.
//!
//! The three artifact kinds the in-memory caches hold — relevant views,
//! fitted [`CausalEstimator`]s, and Prop.-1 block decompositions — are
//! each fully self-contained on disk: an estimator snapshot carries its
//! feature layout, fitted encoder, fitted model(s) (forests with exact
//! `f64` bit patterns → bit-identical predictions), the bound ψ/Y
//! expression trees, and peer-summary state, so a restarted process
//! deserializes it and evaluates without retraining. It holds no update
//! functions and no update list: each query supplies its updates at
//! evaluation, so one file serves every update over the same feature set.
//!
//! Layout under `SessionBuilder::persist_dir(root)`:
//!
//! ```text
//! root/<db_fp:016x>-<graph_fp:016x>/      one directory per shard
//!     views/<fnv(key):016x>.hypr
//!     estimators/<fnv(key):016x>.hypr
//!     blocks/<fnv(key):016x>.hypr
//! ```
//!
//! File names hash the cache key; the *full* key plus both shard
//! fingerprints live inside each file and are verified on read (see
//! [`hyper_store::artifact`]), so hash collisions and stale persist
//! directories read as typed errors, which the cache treats as misses.
//! Corrupt files are likewise misses — never panics, never wrong
//! artifacts.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use hyper_causal::BlockDecomposition;
use hyper_query::{
    HOp, QualifiedName, SelectItem, SelectStmt, TableRef, Temporal, UseClause, UseCondition,
};
use hyper_storage::AggFunc;
use hyper_store::{
    artifact::{read_artifact, write_artifact, ArtifactKind, ArtifactMeta},
    causalcodec, fnv1a, mlcodec, tablecodec, ByteReader, ByteWriter, StoreError,
};

use crate::hexpr::BoundHExpr;
use crate::view::{ColumnOrigin, RelevantView, ViewProvenance};
use crate::whatif::estimator::{CausalEstimator, CellTable, FittedModel, PeerSummary};
use crate::whatif::support::SupportIndexes;

type SResult<T> = hyper_store::Result<T>;

fn corrupt(msg: impl Into<String>) -> StoreError {
    StoreError::Corrupt(msg.into())
}

// ------------------------------------------------------------ small enums

fn encode_agg(w: &mut ByteWriter, agg: AggFunc) {
    w.write_u8(match agg {
        AggFunc::Count => 0,
        AggFunc::Sum => 1,
        AggFunc::Avg => 2,
        AggFunc::Min => 3,
        AggFunc::Max => 4,
    });
}

fn decode_agg(r: &mut ByteReader<'_>) -> SResult<AggFunc> {
    Ok(match r.read_u8("aggregate tag")? {
        0 => AggFunc::Count,
        1 => AggFunc::Sum,
        2 => AggFunc::Avg,
        3 => AggFunc::Min,
        4 => AggFunc::Max,
        t => return Err(corrupt(format!("invalid aggregate tag {t}"))),
    })
}

fn encode_hop(w: &mut ByteWriter, op: HOp) {
    w.write_u8(match op {
        HOp::Eq => 0,
        HOp::Ne => 1,
        HOp::Lt => 2,
        HOp::Le => 3,
        HOp::Gt => 4,
        HOp::Ge => 5,
        HOp::And => 6,
        HOp::Or => 7,
        HOp::Add => 8,
        HOp::Sub => 9,
        HOp::Mul => 10,
        HOp::Div => 11,
    });
}

fn decode_hop(r: &mut ByteReader<'_>) -> SResult<HOp> {
    Ok(match r.read_u8("operator tag")? {
        0 => HOp::Eq,
        1 => HOp::Ne,
        2 => HOp::Lt,
        3 => HOp::Le,
        4 => HOp::Gt,
        5 => HOp::Ge,
        6 => HOp::And,
        7 => HOp::Or,
        8 => HOp::Add,
        9 => HOp::Sub,
        10 => HOp::Mul,
        11 => HOp::Div,
        t => return Err(corrupt(format!("invalid operator tag {t}"))),
    })
}

// ---------------------------------------------------- bound expressions

/// Maximum expression nesting accepted from disk: deep enough for any
/// real predicate, shallow enough that hostile bytes cannot overflow the
/// decoder's stack.
const MAX_EXPR_DEPTH: usize = 512;

fn encode_bound_hexpr(w: &mut ByteWriter, e: &BoundHExpr) {
    match e {
        BoundHExpr::Attr(t, col) => {
            w.write_u8(0);
            w.write_u8(match t {
                Temporal::Pre => 0,
                Temporal::Post => 1,
            });
            w.write_u64(*col as u64);
        }
        BoundHExpr::Lit(v) => {
            w.write_u8(1);
            w.write_value(v);
        }
        BoundHExpr::Not(inner) => {
            w.write_u8(2);
            encode_bound_hexpr(w, inner);
        }
        BoundHExpr::Binary(op, l, r) => {
            w.write_u8(3);
            encode_hop(w, *op);
            encode_bound_hexpr(w, l);
            encode_bound_hexpr(w, r);
        }
        BoundHExpr::InList {
            expr,
            list,
            negated,
        } => {
            w.write_u8(4);
            encode_bound_hexpr(w, expr);
            w.write_u64(list.len() as u64);
            for v in list {
                w.write_value(v);
            }
            w.write_bool(*negated);
        }
    }
}

fn decode_bound_hexpr(r: &mut ByteReader<'_>, depth: usize) -> SResult<BoundHExpr> {
    if depth > MAX_EXPR_DEPTH {
        return Err(corrupt("expression nests too deeply"));
    }
    Ok(match r.read_u8("expression tag")? {
        0 => {
            let t = match r.read_u8("temporal tag")? {
                0 => Temporal::Pre,
                1 => Temporal::Post,
                t => return Err(corrupt(format!("invalid temporal tag {t}"))),
            };
            BoundHExpr::Attr(t, r.read_u64("column index")? as usize)
        }
        1 => BoundHExpr::Lit(r.read_value("literal")?),
        2 => BoundHExpr::Not(Box::new(decode_bound_hexpr(r, depth + 1)?)),
        3 => {
            let op = decode_hop(r)?;
            let l = decode_bound_hexpr(r, depth + 1)?;
            let rhs = decode_bound_hexpr(r, depth + 1)?;
            BoundHExpr::Binary(op, Box::new(l), Box::new(rhs))
        }
        4 => {
            let expr = decode_bound_hexpr(r, depth + 1)?;
            let n = r.read_len(1, "in-list length")?;
            let mut list = Vec::with_capacity(n);
            for _ in 0..n {
                list.push(r.read_value("in-list value")?);
            }
            BoundHExpr::InList {
                expr: Box::new(expr),
                list,
                negated: r.read_bool("in-list negation")?,
            }
        }
        t => return Err(corrupt(format!("invalid expression tag {t}"))),
    })
}

// ----------------------------------------------------------- use clauses

fn encode_opt_str(w: &mut ByteWriter, s: &Option<String>) {
    match s {
        None => w.write_u8(0),
        Some(s) => {
            w.write_u8(1);
            w.write_str(s);
        }
    }
}

fn decode_opt_str(r: &mut ByteReader<'_>, what: &str) -> SResult<Option<String>> {
    Ok(match r.read_u8(what)? {
        0 => None,
        1 => Some(r.read_string(what)?),
        t => return Err(corrupt(format!("invalid option flag {t} for {what}"))),
    })
}

fn encode_qname(w: &mut ByteWriter, q: &QualifiedName) {
    encode_opt_str(w, &q.qualifier);
    w.write_str(&q.name);
}

fn decode_qname(r: &mut ByteReader<'_>) -> SResult<QualifiedName> {
    Ok(QualifiedName {
        qualifier: decode_opt_str(r, "name qualifier")?,
        name: r.read_string("qualified name")?,
    })
}

fn encode_use_clause(w: &mut ByteWriter, u: &UseClause) {
    match u {
        UseClause::Table(name) => {
            w.write_u8(0);
            w.write_str(name);
        }
        UseClause::Select(s) => {
            w.write_u8(1);
            w.write_u64(s.items.len() as u64);
            for item in &s.items {
                match item {
                    SelectItem::Column { name, alias } => {
                        w.write_u8(0);
                        encode_qname(w, name);
                        encode_opt_str(w, alias);
                    }
                    SelectItem::Aggregate { func, arg, alias } => {
                        w.write_u8(1);
                        encode_agg(w, *func);
                        encode_qname(w, arg);
                        w.write_str(alias);
                    }
                }
            }
            w.write_u64(s.from.len() as u64);
            for t in &s.from {
                w.write_str(&t.table);
                encode_opt_str(w, &t.alias);
            }
            w.write_u64(s.conditions.len() as u64);
            for c in &s.conditions {
                match c {
                    UseCondition::Join(l, r) => {
                        w.write_u8(0);
                        encode_qname(w, l);
                        encode_qname(w, r);
                    }
                    UseCondition::Filter { column, op, value } => {
                        w.write_u8(1);
                        encode_qname(w, column);
                        encode_hop(w, *op);
                        w.write_value(value);
                    }
                }
            }
            w.write_u64(s.group_by.len() as u64);
            for g in &s.group_by {
                encode_qname(w, g);
            }
        }
    }
}

fn decode_use_clause(r: &mut ByteReader<'_>) -> SResult<UseClause> {
    Ok(match r.read_u8("use-clause tag")? {
        0 => UseClause::Table(r.read_string("use table")?),
        1 => {
            let n = r.read_len(2, "select item count")?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(match r.read_u8("select item tag")? {
                    0 => SelectItem::Column {
                        name: decode_qname(r)?,
                        alias: decode_opt_str(r, "column alias")?,
                    },
                    1 => SelectItem::Aggregate {
                        func: decode_agg(r)?,
                        arg: decode_qname(r)?,
                        alias: r.read_string("aggregate alias")?,
                    },
                    t => return Err(corrupt(format!("invalid select item tag {t}"))),
                });
            }
            let n = r.read_len(9, "from count")?;
            let mut from = Vec::with_capacity(n);
            for _ in 0..n {
                from.push(TableRef {
                    table: r.read_string("from table")?,
                    alias: decode_opt_str(r, "table alias")?,
                });
            }
            let n = r.read_len(2, "condition count")?;
            let mut conditions = Vec::with_capacity(n);
            for _ in 0..n {
                conditions.push(match r.read_u8("condition tag")? {
                    0 => UseCondition::Join(decode_qname(r)?, decode_qname(r)?),
                    1 => UseCondition::Filter {
                        column: decode_qname(r)?,
                        op: decode_hop(r)?,
                        value: r.read_value("filter literal")?,
                    },
                    t => return Err(corrupt(format!("invalid condition tag {t}"))),
                });
            }
            let n = r.read_len(9, "group-by count")?;
            let mut group_by = Vec::with_capacity(n);
            for _ in 0..n {
                group_by.push(decode_qname(r)?);
            }
            UseClause::Select(SelectStmt {
                items,
                from,
                conditions,
                group_by,
            })
        }
        t => return Err(corrupt(format!("invalid use-clause tag {t}"))),
    })
}

fn encode_provenance(w: &mut ByteWriter, p: &ViewProvenance) {
    match p {
        ViewProvenance::AllRows { relation } => {
            w.write_u8(0);
            w.write_str(relation);
        }
        ViewProvenance::Filtered { relation } => {
            w.write_u8(1);
            w.write_str(relation);
        }
        ViewProvenance::Opaque { relations } => {
            w.write_u8(2);
            w.write_u64(relations.len() as u64);
            for rel in relations {
                w.write_str(rel);
            }
        }
    }
}

fn decode_provenance(r: &mut ByteReader<'_>) -> SResult<ViewProvenance> {
    Ok(match r.read_u8("provenance tag")? {
        0 => ViewProvenance::AllRows {
            relation: r.read_string("provenance relation")?,
        },
        1 => ViewProvenance::Filtered {
            relation: r.read_string("provenance relation")?,
        },
        2 => {
            let n = r.read_len(8, "provenance relation count")?;
            let mut relations = Vec::with_capacity(n);
            for _ in 0..n {
                relations.push(r.read_string("provenance relation")?);
            }
            ViewProvenance::Opaque { relations }
        }
        t => return Err(corrupt(format!("invalid provenance tag {t}"))),
    })
}

// -------------------------------------------------------- relevant views

fn encode_view(w: &mut ByteWriter, view: &RelevantView) {
    tablecodec::encode_table(w, &view.table);
    w.write_u64(view.origins.len() as u64);
    for o in &view.origins {
        w.write_str(&o.relation);
        w.write_str(&o.attribute);
        match o.aggregated {
            None => w.write_u8(0),
            Some(agg) => {
                w.write_u8(1);
                encode_agg(w, agg);
            }
        }
    }
    encode_use_clause(w, &view.use_clause);
    encode_provenance(w, &view.provenance);
}

fn decode_view(r: &mut ByteReader<'_>) -> SResult<RelevantView> {
    let table = tablecodec::decode_table(r)?;
    let n = r.read_len(17, "origin count")?;
    if n != table.num_columns() {
        return Err(corrupt(format!(
            "view has {} column(s) but {n} origin(s)",
            table.num_columns()
        )));
    }
    let mut origins = Vec::with_capacity(n);
    for _ in 0..n {
        let relation = r.read_string("origin relation")?;
        let attribute = r.read_string("origin attribute")?;
        let aggregated = match r.read_u8("origin aggregation flag")? {
            0 => None,
            1 => Some(decode_agg(r)?),
            t => return Err(corrupt(format!("invalid aggregation flag {t}"))),
        };
        origins.push(ColumnOrigin {
            relation,
            attribute,
            aggregated,
        });
    }
    let use_clause = decode_use_clause(r)?;
    let provenance = decode_provenance(r)?;
    Ok(RelevantView {
        table,
        origins,
        use_clause,
        provenance,
        support: SupportIndexes::default(),
    })
}

// ------------------------------------------------------------ estimators

fn encode_cell_table(w: &mut ByteWriter, t: &CellTable) {
    w.write_u64(t.marginal_dims.len() as u64);
    for &d in &t.marginal_dims {
        w.write_u64(d as u64);
    }
    w.write_f64(t.global);
    for map in [&t.cells, &t.marginal] {
        // Canonical order: sort entries by key so equal tables encode to
        // equal bytes regardless of hash-map iteration order.
        let mut entries: Vec<(&Vec<u64>, &(f64, u32))> = map.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        w.write_u64(entries.len() as u64);
        for (key, (sum, count)) in entries {
            w.write_u64(key.len() as u64);
            for &k in key {
                w.write_u64(k);
            }
            w.write_f64(*sum);
            w.write_u32(*count);
        }
    }
}

fn decode_cell_table(r: &mut ByteReader<'_>) -> SResult<CellTable> {
    let nd = r.read_len(8, "marginal dimension count")?;
    let mut marginal_dims = Vec::with_capacity(nd);
    for _ in 0..nd {
        marginal_dims.push(r.read_u64("marginal dimension")? as usize);
    }
    let global = r.read_f64("cell-table global mean")?;
    let mut maps = Vec::with_capacity(2);
    for what in ["cell", "marginal"] {
        let n = r.read_len(20, "cell count")?;
        let mut map = std::collections::HashMap::with_capacity(n);
        for _ in 0..n {
            let klen = r.read_len(8, "cell key length")?;
            let mut key = Vec::with_capacity(klen);
            for _ in 0..klen {
                key.push(r.read_u64("cell key word")?);
            }
            let sum = r.read_f64("cell sum")?;
            let count = r.read_u32("cell count")?;
            if map.insert(key, (sum, count)).is_some() {
                return Err(corrupt(format!("duplicate {what} key")));
            }
        }
        maps.push(map);
    }
    let marginal = maps.pop().expect("two maps pushed");
    let cells = maps.pop().expect("two maps pushed");
    Ok(CellTable {
        cells,
        marginal,
        global,
        marginal_dims,
    })
}

fn encode_model(w: &mut ByteWriter, m: &FittedModel) {
    match m {
        FittedModel::Forest(f) => {
            w.write_u8(0);
            mlcodec::encode_forest(w, f);
        }
        FittedModel::Cells(c) => {
            w.write_u8(2);
            encode_cell_table(w, c);
        }
    }
}

/// Tag 1 (a linear model, a family the engine no longer fits) is an
/// invalid tag: a file holding one is a disk miss, and the estimator
/// refits.
fn decode_model(r: &mut ByteReader<'_>) -> SResult<FittedModel> {
    Ok(match r.read_u8("model tag")? {
        0 => FittedModel::Forest(mlcodec::decode_forest(r)?),
        2 => FittedModel::Cells(decode_cell_table(r)?),
        t => return Err(corrupt(format!("invalid model tag {t}"))),
    })
}

/// Opening byte of an estimator payload. `0xE2` stored the update columns
/// as the leading features and a cell table's marginal as a leading
/// `skip`; the layout before it stored each update column's function and
/// opened with the aggregate tag (0–4). A payload in either fails here
/// with a typed version error instead of being misread.
const ESTIMATOR_LAYOUT: u8 = 0xE3;

fn encode_estimator(w: &mut ByteWriter, e: &CausalEstimator) {
    w.write_u8(ESTIMATOR_LAYOUT);
    encode_agg(w, e.agg);
    w.write_u64(e.feature_cols.len() as u64);
    for &c in &e.feature_cols {
        w.write_u64(c as u64);
    }
    mlcodec::encode_encoder(w, &e.encoder);
    encode_model(w, &e.model);
    match &e.denom_model {
        None => w.write_u8(0),
        Some(m) => {
            w.write_u8(1);
            encode_model(w, m);
        }
    }
    for expr in [&e.psi, &e.y] {
        match expr {
            None => w.write_u8(0),
            Some(b) => {
                w.write_u8(1);
                encode_bound_hexpr(w, b);
            }
        }
    }
    match &e.peer {
        None => w.write_u8(0),
        Some((p, pre, post)) => {
            w.write_u8(1);
            w.write_u64(p.update_col as u64);
            w.write_u64(p.group_col as u64);
            for means in [pre, post] {
                w.write_u64(means.len() as u64);
                for &m in means {
                    w.write_f64(m);
                }
            }
        }
    }
    w.write_u64(e.trained_rows as u64);
}

fn decode_estimator(r: &mut ByteReader<'_>) -> SResult<CausalEstimator> {
    let layout = r.read_u8("estimator layout")?;
    if layout != ESTIMATOR_LAYOUT {
        return Err(StoreError::VersionMismatch {
            found: layout.into(),
            expected: ESTIMATOR_LAYOUT.into(),
        });
    }
    let agg = decode_agg(r)?;
    let nf = r.read_len(8, "feature column count")?;
    let mut feature_cols = Vec::with_capacity(nf);
    for _ in 0..nf {
        feature_cols.push(r.read_u64("feature column")? as usize);
    }
    let encoder = mlcodec::decode_encoder(r)?;
    let model = decode_model(r)?;
    let denom_model = match r.read_u8("denominator-model flag")? {
        0 => None,
        1 => Some(decode_model(r)?),
        t => return Err(corrupt(format!("invalid denominator flag {t}"))),
    };
    let mut exprs = Vec::with_capacity(2);
    for what in ["psi", "y"] {
        exprs.push(match r.read_u8("expression flag")? {
            0 => None,
            1 => Some(Arc::new(decode_bound_hexpr(r, 0)?)),
            t => return Err(corrupt(format!("invalid {what} flag {t}"))),
        });
    }
    let y = exprs.pop().expect("two expressions pushed");
    let psi = exprs.pop().expect("two expressions pushed");
    let peer = match r.read_u8("peer flag")? {
        0 => None,
        1 => {
            let update_col = r.read_u64("peer update column")? as usize;
            let group_col = r.read_u64("peer group column")? as usize;
            let mut means = Vec::with_capacity(2);
            for _ in 0..2 {
                let n = r.read_len(8, "peer mean count")?;
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    v.push(r.read_f64("peer mean")?);
                }
                means.push(v);
            }
            let post = means.pop().expect("two mean vectors pushed");
            let pre = means.pop().expect("two mean vectors pushed");
            Some((
                PeerSummary {
                    update_col,
                    group_col,
                },
                pre,
                post,
            ))
        }
        t => return Err(corrupt(format!("invalid peer flag {t}"))),
    };
    let trained_rows = r.read_u64("trained row count")? as usize;
    // Context-free structural invariants (the fetch site additionally
    // validates column indices against the live view before evaluation).
    if encoder.columns().len() != feature_cols.len() {
        return Err(corrupt(format!(
            "estimator encoder covers {} column(s) but {} feature column(s) are declared",
            encoder.columns().len(),
            feature_cols.len()
        )));
    }
    if !feature_cols.windows(2).all(|w| w[0] < w[1]) {
        return Err(corrupt(
            "estimator feature columns are not strictly ascending",
        ));
    }
    if let Some((p, pre, post)) = &peer {
        if pre.len() != post.len() {
            return Err(corrupt("estimator peer-mean vectors disagree in length"));
        }
        if feature_cols.binary_search(&p.update_col).is_err() {
            return Err(corrupt(
                "estimator peer summary is over a column that is not a feature",
            ));
        }
    }
    // Every fitted model must expect exactly the feature width the
    // encoder produces (plus the appended peer column, when present):
    // a forest tree splitting past that width would index out of bounds
    // at prediction time.
    let expected_width = encoder.width() + usize::from(peer.is_some());
    for m in std::iter::once(&model).chain(denom_model.iter()) {
        match m {
            FittedModel::Forest(f) => {
                if let Some(w) = f.trees().first().map(|t| t.n_features()) {
                    if w != expected_width {
                        return Err(corrupt(format!(
                            "estimator model expects {w} feature(s) but the encoder \
                             produces {expected_width}"
                        )));
                    }
                }
            }
            // A cell table reads its marginal dimensions out of each row.
            FittedModel::Cells(t) => {
                if t.marginal_dims.iter().any(|&d| d >= expected_width) {
                    return Err(corrupt(format!(
                        "cell table conditions on a dimension past the encoder's \
                         {expected_width}"
                    )));
                }
            }
        }
    }
    Ok(CausalEstimator {
        agg,
        feature_cols,
        encoder,
        model,
        denom_model,
        psi,
        y,
        peer,
        trained_rows,
    })
}

// --------------------------------------------------- the artifact trait

/// An artifact the disk tier can spill and recover.
pub(crate) trait DiskArtifact: Sized {
    /// Which directory/kind tag this artifact files under.
    const KIND: ArtifactKind;
    /// Serialize the payload bytes.
    fn encode_payload(&self) -> Vec<u8>;
    /// Deserialize and fully validate payload bytes.
    fn decode_payload(bytes: &[u8]) -> SResult<Self>;
    /// Approximate in-memory footprint, for the byte-budgeted eviction
    /// policy.
    fn approx_bytes(&self) -> usize;
}

impl DiskArtifact for RelevantView {
    const KIND: ArtifactKind = ArtifactKind::View;

    fn encode_payload(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        encode_view(&mut w, self);
        w.into_bytes()
    }

    fn decode_payload(bytes: &[u8]) -> SResult<Self> {
        let mut r = ByteReader::new(bytes);
        let v = decode_view(&mut r)?;
        r.expect_end("relevant view")?;
        Ok(v)
    }

    fn approx_bytes(&self) -> usize {
        self.table.approx_bytes()
            + self.origins.len() * 64
            + self.table.num_rows() * SupportIndexes::BYTES_PER_ROW
    }
}

impl DiskArtifact for CausalEstimator {
    const KIND: ArtifactKind = ArtifactKind::Estimator;

    fn encode_payload(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        encode_estimator(&mut w, self);
        w.into_bytes()
    }

    fn decode_payload(bytes: &[u8]) -> SResult<Self> {
        let mut r = ByteReader::new(bytes);
        let e = decode_estimator(&mut r)?;
        r.expect_end("estimator")?;
        Ok(e)
    }

    fn approx_bytes(&self) -> usize {
        let model_bytes = |m: &FittedModel| match m {
            FittedModel::Forest(f) => f.approx_bytes(),
            FittedModel::Cells(c) => (c.cells.len() + c.marginal.len()) * 64,
        };
        let peer_bytes = self
            .peer
            .as_ref()
            .map_or(0, |(_, pre, post)| (pre.len() + post.len()) * 8);
        model_bytes(&self.model)
            + self.denom_model.as_ref().map_or(0, model_bytes)
            + self.encoder.approx_bytes()
            + peer_bytes
            + 256
    }
}

impl DiskArtifact for BlockDecomposition {
    const KIND: ArtifactKind = ArtifactKind::Blocks;

    fn encode_payload(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        causalcodec::encode_blocks(&mut w, self);
        w.into_bytes()
    }

    fn decode_payload(bytes: &[u8]) -> SResult<Self> {
        let mut r = ByteReader::new(bytes);
        let b = causalcodec::decode_blocks(&mut r)?;
        r.expect_end("block decomposition")?;
        Ok(b)
    }

    fn approx_bytes(&self) -> usize {
        // TupleRef in the blocks vec + the inverse map entry.
        self.blocks().iter().map(Vec::len).sum::<usize>() * 56 + self.num_blocks() * 32
    }
}

// ------------------------------------------------------------- disk tier

/// A session's slice of the persist directory: artifact files for one
/// `(database, graph)` fingerprint pair. Reads verify identity + checksums
/// ([`read_artifact`]); writes are atomic and best-effort — a full disk
/// degrades persistence, never correctness.
pub(crate) struct DiskTier {
    shard_dir: PathBuf,
    db_fp: u64,
    graph_fp: u64,
}

impl std::fmt::Debug for DiskTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskTier")
            .field("dir", &self.shard_dir)
            .finish()
    }
}

impl DiskTier {
    /// Tier rooted at `persist_dir` for the given shard fingerprints. No
    /// I/O happens here; directories appear on first write.
    pub(crate) fn new(persist_dir: &Path, db_fp: u64, graph_fp: u64) -> DiskTier {
        DiskTier {
            shard_dir: persist_dir.join(format!("{db_fp:016x}-{graph_fp:016x}")),
            db_fp,
            graph_fp,
        }
    }

    fn path_for(&self, kind: ArtifactKind, key: &str) -> PathBuf {
        self.shard_dir
            .join(kind.dir_name())
            .join(format!("{:016x}.hypr", fnv1a(key.as_bytes())))
    }

    fn meta_for(&self, kind: ArtifactKind, key: &str) -> ArtifactMeta {
        ArtifactMeta {
            kind,
            key: key.to_string(),
            db_fingerprint: self.db_fp,
            graph_fingerprint: self.graph_fp,
        }
    }

    /// Load and validate an artifact; `Ok(None)` when no file exists,
    /// `Err` when a file exists but cannot be trusted (corrupt, version
    /// mismatch, wrong key/fingerprints).
    pub(crate) fn try_load<T: DiskArtifact>(&self, key: &str) -> SResult<Option<T>> {
        let path = self.path_for(T::KIND, key);
        if !path.exists() {
            return Ok(None);
        }
        let payload = read_artifact(&path, &self.meta_for(T::KIND, key))?;
        Ok(Some(T::decode_payload(&payload)?))
    }

    /// Load an artifact, treating *any* failure as a miss (the cache will
    /// rebuild and overwrite the bad file).
    pub(crate) fn load<T: DiskArtifact>(&self, key: &str) -> Option<T> {
        let _span = hyper_trace::span(hyper_trace::Phase::SnapshotLoad);
        self.try_load(key).ok().flatten()
    }

    /// Spill an artifact (best-effort; errors are swallowed — persistence
    /// is an optimization, and the next process simply rebuilds).
    pub(crate) fn store<T: DiskArtifact>(&self, key: &str, value: &T) {
        let payload = value.encode_payload();
        let path = self.path_for(T::KIND, key);
        if let Some(dir) = path.parent() {
            if std::fs::create_dir_all(dir).is_err() {
                return;
            }
        }
        let _ = write_artifact(&path, &self.meta_for(T::KIND, key), payload);
    }

    /// Does a (possibly invalid) artifact file exist for `key`? Used by
    /// explain-provenance only; readers still validate on load.
    pub(crate) fn has(&self, kind: ArtifactKind, key: &str) -> bool {
        self.path_for(kind, key).exists()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyper_query::HExpr;
    use hyper_storage::{DataType, Field, Schema, TableBuilder, Value};

    fn sample_view() -> RelevantView {
        let schema = Schema::new(vec![
            Field::new("price", DataType::Float),
            Field::new("brand", DataType::Str),
        ])
        .unwrap();
        let table = TableBuilder::new("relevant_view", schema)
            .rows([vec![1.5.into(), "a".into()], vec![2.5.into(), "b".into()]])
            .unwrap()
            .build();
        RelevantView {
            table,
            origins: vec![
                ColumnOrigin {
                    relation: "product".into(),
                    attribute: "price".into(),
                    aggregated: None,
                },
                ColumnOrigin {
                    relation: "product".into(),
                    attribute: "brand".into(),
                    aggregated: Some(AggFunc::Min),
                },
            ],
            use_clause: UseClause::Select(SelectStmt {
                items: vec![
                    SelectItem::Column {
                        name: QualifiedName::bare("price"),
                        alias: None,
                    },
                    SelectItem::Aggregate {
                        func: AggFunc::Min,
                        arg: QualifiedName::qualified("T1", "brand"),
                        alias: "brand".into(),
                    },
                ],
                from: vec![TableRef {
                    table: "product".into(),
                    alias: Some("T1".into()),
                }],
                conditions: vec![UseCondition::Filter {
                    column: QualifiedName::bare("price"),
                    op: HOp::Gt,
                    value: Value::Float(1.0),
                }],
                group_by: vec![QualifiedName::bare("price")],
            }),
            provenance: ViewProvenance::Opaque {
                relations: vec!["product".into()],
            },
            support: Default::default(),
        }
    }

    #[test]
    fn view_round_trips() {
        let v = sample_view();
        let bytes = v.encode_payload();
        let back = RelevantView::decode_payload(&bytes).unwrap();
        assert_eq!(back.table.fingerprint(), v.table.fingerprint());
        assert_eq!(back.origins, v.origins);
        assert_eq!(back.use_clause, v.use_clause);
        assert_eq!(back.provenance, v.provenance);
    }

    #[test]
    fn bound_hexpr_round_trips() {
        let schema = sample_view().table.schema().clone();
        let e = HExpr::attr("price")
            .gt(1.0)
            .and(HExpr::post("brand").in_list(["a", "b"]));
        let bound = crate::hexpr::bind_hexpr(&e, &schema, Temporal::Pre).unwrap();
        let mut w = ByteWriter::new();
        encode_bound_hexpr(&mut w, &bound);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = decode_bound_hexpr(&mut r, 0).unwrap();
        assert!(r.is_at_end());
        let row = vec![Value::Float(2.0), Value::str("b")];
        assert_eq!(
            back.eval_bool(&row, &row).unwrap(),
            bound.eval_bool(&row, &row).unwrap()
        );
    }

    #[test]
    fn retired_linear_model_tag_is_invalid() {
        let mut w = ByteWriter::new();
        w.write_u8(1);
        let bytes = w.into_bytes();
        match decode_model(&mut ByteReader::new(&bytes)) {
            Err(StoreError::Corrupt(m)) => assert!(m.contains("invalid model tag 1"), "{m}"),
            Err(e) => panic!("expected a corrupt-tag error, got {e}"),
            Ok(_) => panic!("tag 1 must not decode"),
        }
    }

    #[test]
    fn disk_tier_misses_on_absent_stale_and_corrupt() {
        let dir = std::env::temp_dir().join(format!("hyper_disk_tier_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let tier = DiskTier::new(&dir, 7, 9);
        assert!(tier.load::<RelevantView>("k").is_none(), "absent is a miss");

        let v = sample_view();
        tier.store("k", &v);
        assert!(tier.try_load::<RelevantView>("k").unwrap().is_some());

        // Same directory, different data → typed fingerprint error, and a
        // plain miss through the lenient path.
        let stale = DiskTier::new(&dir, 8, 9);
        // Same file name only if the key hashes equal — same key, so yes.
        std::fs::rename(
            tier.path_for(ArtifactKind::View, "k"),
            stale
                .path_for(ArtifactKind::View, "k")
                .parent()
                .map(|p| {
                    std::fs::create_dir_all(p).unwrap();
                    p.join(format!("{:016x}.hypr", fnv1a("k".as_bytes())))
                })
                .unwrap(),
        )
        .unwrap();
        let err = stale.try_load::<RelevantView>("k").unwrap_err();
        assert!(matches!(err, StoreError::FingerprintMismatch { .. }));
        assert!(stale.load::<RelevantView>("k").is_none());

        // Corrupt file → typed error, lenient miss.
        let path = stale.path_for(ArtifactKind::View, "k");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, bytes).unwrap();
        assert!(matches!(
            stale.try_load::<RelevantView>("k").unwrap_err(),
            StoreError::Corrupt(_)
        ));
        assert!(stale.load::<RelevantView>("k").is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The payload bytes of a persisted estimator are pinned: a forest
    /// (numerator and `Avg` denominator) over a one-hot and a numeric
    /// feature, fitted by a session. The tree codec writes the exported
    /// `TreeNode` arena, so a change to the in-memory node layout must
    /// leave these bytes as they are.
    #[test]
    fn estimator_payload_bytes_are_pinned() {
        let data = hyper_datasets::german_syn(2_000, 3);
        let session = crate::HyperSession::builder(data.db.clone())
            .graph(data.graph.clone())
            .share_artifacts(false)
            .build();
        session
            .whatif_text(
                "Use german_syn When age = 1 Update(status) = 3 \
                 Output Avg(Post(credit_amount)) For Post(credit) = 'Good'",
            )
            .unwrap();
        let estimators = session.cache().estimator_entries();
        assert_eq!(estimators.len(), 1);
        let est = &estimators[0].1;
        assert!(matches!(est.model, FittedModel::Forest(_)));
        assert!(est.denom_model.is_some(), "an Avg with a For condition");
        let bytes = est.encode_payload();
        assert_eq!(
            (bytes.len(), fnv1a(&bytes)),
            (151_065, 0x03609d85236bc2af),
            "{} bytes, fnv1a {:#018x}",
            bytes.len(),
            fnv1a(&bytes)
        );
    }
}
