//! Integration tests for the disk-backed artifact tier and the
//! byte-budgeted shared-store eviction policy.
//!
//! Every test uses a dataset `(n, seed)` pair unique within the whole
//! test suite (the shared store is keyed by content fingerprints) and
//! its own persist directory under the system temp dir.

mod common;

use std::path::PathBuf;
use std::sync::Arc;

use common::confounded_db;
use hyper_core::{HyperSession, SharedArtifactStore};

const WHATIF: &str = "Use d Update(b) = 1 Output Count(Post(y) = 1)";

/// These tests clear and cap the process-global [`SharedArtifactStore`];
/// serialize them so the harness's parallel threads cannot interleave
/// those global effects.
static GLOBAL_STORE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn store_lock() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL_STORE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A fresh, empty persist directory that cleans itself up.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("hyper_persist_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self) -> &PathBuf {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// The headline: a "restarted process" (shared store cleared, fresh
/// session over a fresh but content-equal database) answers from disk —
/// zero estimator trainings, identical value.
#[test]
fn warm_start_after_simulated_restart() {
    let _guard = store_lock();
    let dir = TempDir::new("warm_start");
    let (db1, _, graph1) = confounded_db(1601, 41);

    // First life of the process: build + spill.
    let cold = HyperSession::builder(db1)
        .graph(graph1)
        .persist_dir(dir.path())
        .build();
    let before = cold.whatif_text(WHATIF).unwrap();
    let cs = cold.stats();
    assert_eq!(cs.estimator_misses, 1, "cold run trains");
    assert_eq!(cs.estimator_disk_hits, 0);

    // Simulated restart: all in-memory state gone, data re-loaded
    // independently (equal content ⇒ equal fingerprints ⇒ same disk
    // shard).
    SharedArtifactStore::global().clear();
    let (db2, _, graph2) = confounded_db(1601, 41);
    let warm = HyperSession::builder(db2)
        .graph(graph2)
        .persist_dir(dir.path())
        .build();
    let after = warm.whatif_text(WHATIF).unwrap();
    let ws = warm.stats();
    assert_eq!(ws.estimator_misses, 0, "warm start must not retrain");
    assert_eq!(ws.view_misses, 0, "…or rebuild the view");
    assert_eq!(ws.estimator_disk_hits, 1, "the estimator came from disk");
    assert_eq!(ws.view_disk_hits, 1, "the view came from disk");
    assert_eq!(
        before.value, after.value,
        "a deserialized estimator answers bit-identically"
    );
}

/// Isolated sessions (share_artifacts(false)) still get the disk tier.
#[test]
fn disk_tier_works_without_the_shared_store() {
    let _guard = store_lock();
    let dir = TempDir::new("isolated");
    let (db, _, graph) = confounded_db(1602, 42);
    let db = Arc::new(db);
    let graph = Arc::new(graph);

    let first = HyperSession::builder(Arc::clone(&db))
        .graph(Arc::clone(&graph))
        .share_artifacts(false)
        .persist_dir(dir.path())
        .build();
    let a = first.whatif_text(WHATIF).unwrap();
    assert_eq!(first.stats().estimator_misses, 1);

    let second = HyperSession::builder(db)
        .graph(graph)
        .share_artifacts(false)
        .persist_dir(dir.path())
        .build();
    let b = second.whatif_text(WHATIF).unwrap();
    let st = second.stats();
    assert_eq!(st.estimator_misses, 0);
    assert_eq!(st.estimator_disk_hits, 1);
    assert_eq!(a.value, b.value);
}

/// A persist dir written by *different* data is never trusted: the shard
/// directory is fingerprint-addressed, so the session simply rebuilds.
#[test]
fn stale_persist_dir_is_ignored() {
    let _guard = store_lock();
    let dir = TempDir::new("stale");
    let (db_a, _, graph_a) = confounded_db(1603, 43);
    let warmup = HyperSession::builder(db_a)
        .graph(graph_a)
        .persist_dir(dir.path())
        .build();
    warmup.whatif_text(WHATIF).unwrap();

    // Different data (another seed) against the same directory.
    let (db_b, _, graph_b) = confounded_db(1604, 44);
    let other = HyperSession::builder(db_b)
        .graph(graph_b)
        .persist_dir(dir.path())
        .build();
    other.whatif_text(WHATIF).unwrap();
    let st = other.stats();
    assert_eq!(st.estimator_disk_hits, 0, "foreign artifacts never load");
    assert_eq!(st.estimator_misses, 1, "…so the session retrains");
}

/// Corrupt artifact files (truncated or bit-flipped) are typed-error
/// misses: the query still answers correctly and the bad file is
/// overwritten by the rebuilt artifact.
#[test]
fn corrupt_artifact_files_fall_back_to_rebuild() {
    let _guard = store_lock();
    let dir = TempDir::new("corrupt");
    let (db, _, graph) = confounded_db(1605, 45);
    let db = Arc::new(db);
    let graph = Arc::new(graph);

    let cold = HyperSession::builder(Arc::clone(&db))
        .graph(Arc::clone(&graph))
        .persist_dir(dir.path())
        .build();
    let expected = cold.whatif_text(WHATIF).unwrap();

    // Damage every artifact file: truncate estimators, flip a byte in
    // the rest.
    let mut damaged = 0;
    for entry in walk(dir.path()) {
        let bytes = std::fs::read(&entry).unwrap();
        if entry.to_string_lossy().contains("estimators") {
            std::fs::write(&entry, &bytes[..bytes.len() / 2]).unwrap();
        } else {
            let mut bytes = bytes;
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x20;
            std::fs::write(&entry, bytes).unwrap();
        }
        damaged += 1;
    }
    assert!(damaged >= 2, "expected spilled view + estimator files");

    SharedArtifactStore::global().clear();
    let warm = HyperSession::builder(db)
        .graph(graph)
        .persist_dir(dir.path())
        .build();
    let got = warm.whatif_text(WHATIF).unwrap();
    let st = warm.stats();
    assert_eq!(st.estimator_disk_hits, 0, "corrupt files never load");
    assert_eq!(st.estimator_misses, 1, "…the estimator is retrained");
    assert_eq!(got.value, expected.value);

    // The rebuild overwrote the damaged files: a third restart warm-starts.
    SharedArtifactStore::global().clear();
    let (db3, _, graph3) = confounded_db(1605, 45);
    let third = HyperSession::builder(db3)
        .graph(graph3)
        .persist_dir(dir.path())
        .build();
    third.whatif_text(WHATIF).unwrap();
    assert_eq!(third.stats().estimator_disk_hits, 1);
}

/// The byte budget evicts LRU shared-store entries, and — with
/// persistence on — evicted artifacts re-serve from disk instead of
/// retraining.
#[test]
fn byte_budget_evicts_to_disk() {
    let _guard = store_lock();
    let dir = TempDir::new("budget");
    let (db, _, graph) = confounded_db(1606, 46);
    let session = HyperSession::builder(db)
        .graph(graph)
        .persist_dir(dir.path())
        .build();
    // Distinct outputs → distinct estimator cache entries (the output is
    // part of the key; the update constant is not — every `Update(b) = c`
    // shares one model).
    let query = |c: i64| format!("Use d Update(b) = 1 Output Count(Post(y) = {c})");

    let store = SharedArtifactStore::global();
    session.whatif_text(&query(0)).unwrap();
    // Cap the store just above its current footprint: every further
    // estimator insert must now force LRU evictions.
    let evictions_before = store.stats().evictions;
    store.set_budget_bytes(store.stats().approx_bytes + 128);

    for c in 1..6 {
        session.whatif_text(&query(c)).unwrap();
    }
    let stats = store.stats();
    assert!(
        stats.evictions > evictions_before,
        "budget must force evictions (held {} bytes, budget {})",
        stats.approx_bytes,
        stats.budget_bytes
    );
    assert!(
        stats.approx_bytes <= stats.budget_bytes
            || stats.views + stats.estimators + stats.blocks <= 1,
        "store stays at its watermark"
    );

    // Restore the unbounded default for the rest of the suite.
    store.set_budget_bytes(0);

    // Evicted artifacts re-serve from disk: a fresh session (empty local
    // tier) replays the sweep with zero retraining.
    let (db2, _, graph2) = confounded_db(1606, 46);
    let replay = HyperSession::builder(db2)
        .graph(graph2)
        .persist_dir(dir.path())
        .build();
    for c in 0..6 {
        replay.whatif_text(&query(c)).unwrap();
    }
    let st = replay.stats();
    assert_eq!(st.estimator_misses, 0, "nothing retrains after eviction");
    assert!(
        st.estimator_disk_hits + st.estimator_shared_hits >= 6,
        "evicted estimators re-serve from disk (or survived in the store)"
    );
}

fn walk(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            out.extend(walk(&p));
        } else {
            out.push(p);
        }
    }
    out
}

/// Run `queries` on a fresh isolated session over `dir`, on the
/// `confounded_db(n, seed)` data, and return the values with the
/// session's stats.
fn run_isolated(
    dir: &TempDir,
    data: (usize, u64),
    queries: &[&str],
) -> (Vec<f64>, hyper_core::SessionStats) {
    let (n, seed) = data;
    let (db, _, graph) = confounded_db(n, seed);
    let session = HyperSession::builder(db)
        .graph(graph)
        .share_artifacts(false)
        .persist_dir(dir.path())
        .build();
    let values = queries
        .iter()
        .map(|q| session.whatif_text(q).unwrap().value)
        .collect();
    (values, session.stats())
}

/// The estimator payload holds no update function: one spilled file
/// serves `Set`, `Scale` and `Shift` updates of the same column after a
/// restart, bit-identical to the process that trained it.
#[test]
fn function_free_estimator_round_trips_through_disk() {
    let _guard = store_lock();
    let dir = TempDir::new("function_free");
    let queries = [
        "Use d Update(b) = 1 Output Count(Post(y) = 1)",
        "Use d Update(b) = 0 Output Count(Post(y) = 1)",
        "Use d Update(b) = 0.5 * Pre(b) Output Count(Post(y) = 1)",
        "Use d Update(b) = 1 + Pre(b) Output Count(Post(y) = 1)",
    ];

    let (trained, first) = run_isolated(&dir, (1607, 47), &queries);
    assert_eq!(first.estimator_misses, 1, "one model for every update of b");
    let files: Vec<PathBuf> = walk(dir.path())
        .into_iter()
        .filter(|p| p.to_string_lossy().contains("estimators"))
        .collect();
    assert_eq!(files.len(), 1, "one estimator file: {files:?}");

    let (restored, second) = run_isolated(&dir, (1607, 47), &queries);
    assert_eq!(second.estimator_misses, 0, "nothing retrains");
    assert_eq!(
        second.estimator_disk_hits, 1,
        "the one file is decoded once"
    );
    for (a, b) in trained.iter().zip(&restored) {
        assert_eq!(a.to_bits(), b.to_bits(), "{trained:?} vs {restored:?}");
    }
}

/// An estimator file in the pre-change payload layout (update functions
/// stored after each update column, no layout byte) is a miss and a
/// retrain, never a panic or a wrong value. Such a file normally sits
/// under the old key's hash, which the current key never produces; this
/// test plants the old layout under the *current* key — the worst case —
/// to check the decoder refuses it.
#[test]
fn pre_change_estimator_file_is_a_miss() {
    use hyper_store::{read_artifact, write_artifact, ArtifactKind, ArtifactMeta, ByteWriter};

    let _guard = store_lock();
    let dir = TempDir::new("pre_change");
    let (expected, _) = run_isolated(&dir, (1608, 48), &[WHATIF]);

    // Locate the spilled estimator and its identity.
    let path = walk(dir.path())
        .into_iter()
        .find(|p| p.to_string_lossy().contains("estimators"))
        .expect("an estimator file was spilled");
    let shard = path.parent().and_then(|p| p.parent()).unwrap();
    let shard_name = shard.file_name().unwrap().to_string_lossy().into_owned();
    let (db_fp, graph_fp) = shard_name.split_once('-').unwrap();
    let (db, _, graph) = confounded_db(1608, 48);
    let key = HyperSession::builder(db)
        .graph(graph)
        .share_artifacts(false)
        .build()
        .explain(WHATIF)
        .unwrap()
        .estimator
        .unwrap()
        .key;
    let meta = ArtifactMeta {
        kind: ArtifactKind::Estimator,
        key,
        db_fingerprint: u64::from_str_radix(db_fp, 16).unwrap(),
        graph_fingerprint: u64::from_str_radix(graph_fp, 16).unwrap(),
    };
    let payload = read_artifact(&path, &meta).unwrap();

    // Rewrite it in the old layout: drop the layout byte, and store
    // `Set(1)` after the single update column.
    let body = &payload[1..];
    let n_features = u64::from_le_bytes(body[1..9].try_into().unwrap()) as usize;
    let after_update_col = 1 + 8 + 8 * n_features + 8 + 8;
    let mut func = ByteWriter::new();
    func.write_u8(0);
    func.write_value(&hyper_storage::Value::Int(1));
    let mut old = body[..after_update_col].to_vec();
    old.extend_from_slice(&func.into_bytes());
    old.extend_from_slice(&body[after_update_col..]);
    write_artifact(&path, &meta, old).unwrap();

    let (got, st) = run_isolated(&dir, (1608, 48), &[WHATIF]);
    assert_eq!(st.estimator_disk_hits, 0, "the old layout never loads");
    assert_eq!(st.estimator_misses, 1, "…so the estimator retrains");
    assert_eq!(got[0].to_bits(), expected[0].to_bits());

    // The retrain overwrote the file: the next restart warm-starts.
    let (again, st) = run_isolated(&dir, (1608, 48), &[WHATIF]);
    assert_eq!(st.estimator_disk_hits, 1);
    assert_eq!(again[0].to_bits(), expected[0].to_bits());
}

/// An estimator file in the `0xE2` layout of the `m2:` keys (update
/// columns stored after the feature columns, which they led) is a miss
/// and a retrain, and the retrain rewrites the file in the current
/// layout. An `m2:` key hashes to another file name than its `m3:`
/// successor, so this plants the old layout under the *current* key —
/// the worst case — to check the decoder refuses it.
#[test]
fn m2_layout_estimator_file_is_a_miss_and_is_rewritten() {
    use hyper_store::{read_artifact, write_artifact, ArtifactKind, ArtifactMeta};

    let _guard = store_lock();
    let dir = TempDir::new("m2_layout");
    let (expected, _) = run_isolated(&dir, (1611, 51), &[WHATIF]);

    let path = walk(dir.path())
        .into_iter()
        .find(|p| p.to_string_lossy().contains("estimators"))
        .expect("an estimator file was spilled");
    let shard = path.parent().and_then(|p| p.parent()).unwrap();
    let shard_name = shard.file_name().unwrap().to_string_lossy().into_owned();
    let (db_fp, graph_fp) = shard_name.split_once('-').unwrap();
    let (db, _, graph) = confounded_db(1611, 51);
    let key = HyperSession::builder(db)
        .graph(graph)
        .share_artifacts(false)
        .build()
        .explain(WHATIF)
        .unwrap()
        .estimator
        .unwrap()
        .key;
    assert!(key.contains("\u{1f}m3:"), "{key:?}");
    let meta = ArtifactMeta {
        kind: ArtifactKind::Estimator,
        key,
        db_fingerprint: u64::from_str_radix(db_fp, 16).unwrap(),
        graph_fingerprint: u64::from_str_radix(graph_fp, 16).unwrap(),
    };
    let payload = read_artifact(&path, &meta).unwrap();
    assert_eq!(payload[0], 0xE3, "the current layout byte");

    // Rewrite it in the 0xE2 layout: its layout byte, and one update
    // column (the first feature) after the feature columns.
    let n_features = u64::from_le_bytes(payload[2..10].try_into().unwrap()) as usize;
    let after_features = 2 + 8 + 8 * n_features;
    let mut old = vec![0xE2];
    old.extend_from_slice(&payload[1..after_features]);
    old.extend_from_slice(&1u64.to_le_bytes());
    old.extend_from_slice(&payload[10..18]);
    old.extend_from_slice(&payload[after_features..]);
    write_artifact(&path, &meta, old).unwrap();

    let (got, st) = run_isolated(&dir, (1611, 51), &[WHATIF]);
    assert_eq!(st.estimator_disk_hits, 0, "the 0xE2 layout never loads");
    assert_eq!(st.estimator_misses, 1, "…so the estimator retrains");
    assert_eq!(got[0].to_bits(), expected[0].to_bits());
    assert_eq!(
        read_artifact(&path, &meta).unwrap()[0],
        0xE3,
        "the retrain rewrote the file"
    );

    let (again, st) = run_isolated(&dir, (1611, 51), &[WHATIF]);
    assert_eq!(st.estimator_disk_hits, 1, "the next restart warm-starts");
    assert_eq!(again[0].to_bits(), expected[0].to_bits());
}

/// Artifacts recovered from the disk tier carry no support index (it is
/// derived data, never spilled): the recovered view rebuilds it on first
/// use, and the recovered estimator then answers every `When` mask
/// bit-identically to a session that never touched the disk.
#[test]
fn disk_recovered_estimator_rebuilds_the_support_index() {
    let _guard = store_lock();
    let dir = TempDir::new("support_index");
    let queries = [
        "Use d Update(b) = 1 Output Count(Post(y) = 1)",
        "Use d When z = 0 Update(b) = 1 Output Count(Post(y) = 1)",
        "Use d When z = 1 Update(b) = 0.5 * Pre(b) Output Count(Post(y) = 1)",
    ];
    run_isolated(&dir, (1609, 49), &queries);
    let (restored, st) = run_isolated(&dir, (1609, 49), &queries);
    assert_eq!(st.view_disk_hits, 1, "the view came from disk");
    assert_eq!(st.estimator_disk_hits, 1, "the estimator came from disk");
    assert_eq!(st.estimator_misses, 0);

    let (db, _, graph) = confounded_db(1609, 49);
    let fresh = HyperSession::builder(db)
        .graph(graph)
        .share_artifacts(false)
        .build();
    for (q, got) in queries.iter().zip(&restored) {
        let want = fresh.whatif_text(q).unwrap().value;
        assert_eq!(got.to_bits(), want.to_bits(), "{q}: {got:?} vs {want:?}");
    }
}
