//! Cross-tuple effect tests: the §2.2 summary-function (ψ) feature lets a
//! price update on one set of products move the predicted ratings of
//! *competitor* products in the same category (the dashed edges of
//! Figure 2).

use hyper_core::{EngineConfig, HyperSession};
use hyper_query::{parse_query, HypotheticalQuery, WhatIfQuery};
use hyper_storage::{DataType, Database, Field, Schema, TableBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A single-relation market where a product's rating rises when its price
/// is *below* the mean competitor price in its category:
/// `rating = 3 + (peer_mean_price − price) / 100 + noise`.
fn market_db(n: usize, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = Schema::new(vec![
        Field::new("pid", DataType::Int),
        Field::new("category", DataType::Str),
        Field::new("brand", DataType::Str),
        Field::new("price", DataType::Float),
        Field::new("rating", DataType::Float),
    ])
    .unwrap();
    let mut t = TableBuilder::with_key("product", schema, &["pid"]).unwrap();

    // Generate prices first so peer means are computable.
    let cats = ["a", "b", "c", "d"];
    let brands = ["asus", "vaio", "hp"];
    let mut rows: Vec<(i64, &str, &str, f64)> = Vec::with_capacity(n);
    for i in 0..n {
        let cat = cats[rng.gen_range(0..cats.len())];
        let brand = brands[rng.gen_range(0..brands.len())];
        let price = 300.0 + 400.0 * rng.gen::<f64>();
        rows.push((i as i64, cat, brand, price));
    }
    // Peer means per category (leave-one-out).
    let mut sums: std::collections::HashMap<&str, (f64, usize)> = Default::default();
    for &(_, cat, _, price) in &rows {
        let e = sums.entry(cat).or_insert((0.0, 0));
        e.0 += price;
        e.1 += 1;
    }
    for (pid, cat, brand, price) in rows {
        let (s, c) = sums[cat];
        let peer_mean = if c > 1 {
            (s - price) / (c - 1) as f64
        } else {
            price
        };
        let rating = 3.0 + (peer_mean - price) / 100.0 + 0.2 * (rng.gen::<f64>() - 0.5);
        t.push(vec![
            pid.into(),
            cat.into(),
            brand.into(),
            price.into(),
            rating.into(),
        ])
        .unwrap();
    }
    let mut db = Database::new();
    db.add_table(t.build()).unwrap();
    db
}

/// Price → rating intra-tuple, plus the dashed cross-tuple price edge
/// grouped by category.
fn market_graph() -> hyper_causal::CausalGraph {
    let mut g = hyper_causal::CausalGraph::new();
    let price = g.node("product", "price");
    let rating = g.node("product", "rating");
    g.add_edge(price, rating, hyper_causal::EdgeKind::Intra)
        .unwrap();
    g.add_edge(
        price,
        rating,
        hyper_causal::EdgeKind::SameValue {
            group_by: "category".into(),
        },
    )
    .unwrap();
    g
}

fn whatif(text: &str) -> WhatIfQuery {
    match parse_query(text).unwrap() {
        HypotheticalQuery::WhatIf(q) => q,
        _ => panic!("expected what-if"),
    }
}

#[test]
fn competitor_price_hike_helps_unchanged_products() {
    let db = market_db(4000, 5);
    let graph = market_graph();
    // Raise asus prices massively; measure ratings of NON-asus products.
    let q = whatif(
        "Use product When brand = 'asus'
         Update(price) = 300 + Pre(price)
         Output Avg(Post(rating))
         For Pre(brand) <> 'asus'",
    );
    let with_peers = HyperSession::new(db.clone(), Some(&graph))
        .whatif(&q)
        .unwrap();
    let without_peers = HyperSession::new(db.clone(), Some(&graph))
        .with_config(EngineConfig {
            peer_summaries: false,
            ..EngineConfig::hyper()
        })
        .whatif(&q)
        .unwrap();
    // Without cross-tuple summaries, non-updated rows are treated as
    // unaffected: the result is exactly the observed average.
    let t = db.table("product").unwrap();
    let mut obs_sum = 0.0;
    let mut obs_n = 0usize;
    for i in 0..t.num_rows() {
        if t.column(2).str_at(i) != Some("asus") {
            obs_sum += t.column(4).f64_at(i).unwrap();
            obs_n += 1;
        }
    }
    let observed = obs_sum / obs_n as f64;
    assert!(
        (without_peers.value - observed).abs() < 1e-9,
        "without peers, unchanged rows keep observed ratings"
    );
    // With peer summaries, competitors benefit from asus' price hike.
    assert!(
        with_peers.value > observed + 0.05,
        "peer-aware estimate {:.3} should exceed observed {:.3}",
        with_peers.value,
        observed
    );
}

#[test]
fn peer_effect_direction_reverses_with_price_cut() {
    let db = market_db(4000, 7);
    let graph = market_graph();
    let hike = whatif(
        "Use product When brand = 'asus'
         Update(price) = 300 + Pre(price)
         Output Avg(Post(rating))
         For Pre(brand) <> 'asus'",
    );
    let cut = whatif(
        "Use product When brand = 'asus'
         Update(price) = 0.5 * Pre(price)
         Output Avg(Post(rating))
         For Pre(brand) <> 'asus'",
    );
    let session = HyperSession::new(db.clone(), Some(&graph));
    let up = session.whatif(&hike).unwrap().value;
    let down = session.whatif(&cut).unwrap().value;
    assert!(
        up > down + 0.05,
        "competitor hike ({up:.3}) must help more than competitor cut ({down:.3})"
    );
}

#[test]
fn no_cross_tuple_edge_means_no_peer_feature() {
    let db = market_db(1000, 9);
    // Graph without the SameValue edge: peers are ignored even when the
    // config allows them.
    let mut graph = hyper_causal::CausalGraph::new();
    let price = graph.node("product", "price");
    let rating = graph.node("product", "rating");
    graph
        .add_edge(price, rating, hyper_causal::EdgeKind::Intra)
        .unwrap();
    let q = whatif(
        "Use product When brand = 'asus'
         Update(price) = 300 + Pre(price)
         Output Avg(Post(rating))
         For Pre(brand) <> 'asus'",
    );
    let r = HyperSession::new(db.clone(), Some(&graph))
        .whatif(&q)
        .unwrap();
    // Non-updated rows unaffected → exact observed mean.
    let t = db.table("product").unwrap();
    let mut obs_sum = 0.0;
    let mut obs_n = 0usize;
    for i in 0..t.num_rows() {
        if t.column(2).str_at(i) != Some("asus") {
            obs_sum += t.column(4).f64_at(i).unwrap();
            obs_n += 1;
        }
    }
    assert!((r.value - obs_sum / obs_n as f64).abs() < 1e-9);
}
