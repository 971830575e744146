//! Engine configuration: the HypeR variants of the paper's evaluation
//! (§5.1 "Variations" and "Baselines").

/// How the backdoor adjustment set is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackdoorMode {
    /// Minimal valid set from the causal graph (plain **HypeR**).
    FromGraph,
    /// No graph available: condition on *all* other attributes
    /// (**HypeR-NB**, §2.2 "Background knowledge on causal DAG").
    Canonical,
    /// No adjustment at all: the purely correlational **Indep** baseline
    /// ("ignores the causal graph and assumes that there is no dependency
    /// between different attributes and tuples").
    None,
}

/// Which regression family estimates the conditional probabilities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimatorKind {
    /// Bagged CART forest (the paper's choice; handles non-linearities).
    /// Fitted on the encoded view through [`hyper_ml::RandomForest::fit_on`]:
    /// one cell layout over the resident matrix, with row-wise trees when
    /// continuous features leave too many cells.
    Forest,
    /// Empirical cell means over supported `(B, C)` value combinations —
    /// the literal computation of §3.3/Eqs. 35–40 for discrete data
    /// (`Pr_D(ψ | B = f(b), C = c)` as a conditional frequency, iterating
    /// only over combinations with non-zero support). Exact in the large-n
    /// limit on discrete domains; falls back to coarser conditioning when a
    /// post-update combination was never observed.
    Cells,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Adjustment-set policy.
    pub backdoor: BackdoorMode,
    /// Conditional-probability estimator family.
    pub estimator: EstimatorKind,
    /// Train estimators on at most this many rows (**HypeR-sampled**;
    /// the paper settles on 100k — §5.2).
    pub sample_cap: Option<usize>,
    /// Trees in the random forest (the paper uses scikit-learn's
    /// defaults; we default lower for interactive latency). The trees
    /// are not scikit-learn's default regressor in one more way: above 3
    /// features each node considers only ⌈√d⌉ of the d features
    /// (`hyper-ml`'s `ForestParams`), where scikit-learn considers all.
    /// That biases Fig. 10a's estimates low; ROADMAP.md item 2 measures
    /// the bias.
    pub n_trees: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Include cross-tuple summary features (the ψ functions of §2.2) when
    /// the causal graph has same-value edges from an updated attribute.
    pub peer_summaries: bool,
    /// RNG seed for estimator training and sampling.
    pub seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            backdoor: BackdoorMode::FromGraph,
            estimator: EstimatorKind::Forest,
            sample_cap: None,
            n_trees: 16,
            max_depth: 10,
            peer_summaries: true,
            seed: 0,
        }
    }
}

impl EngineConfig {
    /// Plain HypeR with a known causal graph.
    pub fn hyper() -> Self {
        EngineConfig::default()
    }

    /// HypeR-NB: no background knowledge; canonical (all-attribute)
    /// adjustment set.
    pub fn hyper_nb() -> Self {
        EngineConfig {
            backdoor: BackdoorMode::Canonical,
            ..EngineConfig::default()
        }
    }

    /// HypeR-sampled with the given training-row cap (paper uses 100k).
    pub fn hyper_sampled(cap: usize) -> Self {
        EngineConfig {
            sample_cap: Some(cap),
            ..EngineConfig::default()
        }
    }

    /// The Indep baseline.
    pub fn indep() -> Self {
        EngineConfig {
            backdoor: BackdoorMode::None,
            peer_summaries: false,
            ..EngineConfig::default()
        }
    }
}

/// Options controlling how-to optimization (§4.3).
#[derive(Debug, Clone)]
pub struct HowToOptions {
    /// Number of equi-width buckets for continuous attributes (Fig. 9
    /// sweeps this).
    pub buckets: usize,
    /// Maximum number of attributes that may be updated simultaneously
    /// (`None` = unlimited; the Student-Syn experiment uses 1).
    pub max_attrs_updated: Option<usize>,
}

impl Default for HowToOptions {
    fn default() -> Self {
        HowToOptions {
            buckets: 8,
            max_attrs_updated: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_variants() {
        assert_eq!(EngineConfig::hyper().backdoor, BackdoorMode::FromGraph);
        assert_eq!(EngineConfig::hyper_nb().backdoor, BackdoorMode::Canonical);
        assert_eq!(EngineConfig::indep().backdoor, BackdoorMode::None);
        assert_eq!(
            EngineConfig::hyper_sampled(100_000).sample_cap,
            Some(100_000)
        );
        assert!(EngineConfig::hyper().sample_cap.is_none());
    }
}
