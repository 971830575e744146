//! Probabilistic how-to query evaluation (paper §4): optimize over the
//! space of candidate what-if queries by bucketizing candidate updates and
//! solving a 0-1 Integer Program.

pub mod baseline;
pub mod candidates;
pub mod multi;
pub mod optimizer;

#[cfg(test)]
mod tests;

use std::time::Duration;

use hyper_query::UpdateSpec;

/// Result of a how-to query.
#[derive(Debug, Clone)]
pub struct HowToResult {
    /// The chosen updates (attributes not listed are "no change" — §4.1's
    /// output format).
    pub chosen: Vec<UpdateSpec>,
    /// Predicted objective value after applying the chosen updates.
    pub objective: f64,
    /// Objective value with no update (the optimizer's reference point).
    pub baseline: f64,
    /// Total candidate updates enumerated across attributes.
    pub candidates: usize,
    /// What-if evaluations performed.
    pub whatif_evals: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
}

impl HowToResult {
    /// Render the paper-style output, e.g. `{Price: 586.2, Color: no change}`.
    pub fn render(&self, all_attrs: &[String]) -> String {
        let mut parts = Vec::with_capacity(all_attrs.len());
        for a in all_attrs {
            match self.chosen.iter().find(|u| u.attr.eq_ignore_ascii_case(a)) {
                Some(u) => parts.push(format!("{a}: {}", u.func)),
                None => parts.push(format!("{a}: no change")),
            }
        }
        format!("{{{}}}", parts.join(", "))
    }
}
