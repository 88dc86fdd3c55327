//! Feature-space registry: servability as a checkable property.
//!
//! §4 of the paper distinguishes *non-servable* feature sets ("too slow,
//! expensive, or private to use in production" — aggregate statistics,
//! expensive model inference, web-crawl results) from *servable* ones
//! (real-time event-level signals, cheap hashed text features). Labeling
//! functions may read anything; production models may not. This module
//! gives each feature set a declaration — name, servability, per-example
//! cost, privacy flag — so `drybell-serving` can *enforce* the distinction
//! instead of trusting engineers to remember it.

use drybell_obs::Json;
use std::collections::HashMap;

/// Identifier of a registered feature space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FeatureSpaceId(pub u32);

impl FeatureSpaceId {
    /// The id as it appears in an exported model file: a bare integer.
    pub fn to_json(&self) -> Json {
        Json::from(self.0)
    }

    /// Read an id back from [`FeatureSpaceId::to_json`]'s form.
    pub fn from_json(v: &Json) -> Result<FeatureSpaceId, String> {
        v.as_u64()
            .and_then(|id| u32::try_from(id).ok())
            .map(FeatureSpaceId)
            .ok_or_else(|| "feature space id is not a u32".to_owned())
    }
}

/// Declaration of one feature space.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureSpace {
    /// Unique name, e.g. `"hashed-unigrams"` or `"nlp-entities"`.
    pub name: String,
    /// Whether production serving may read this space.
    pub servable: bool,
    /// Declared cost of computing the features for one example, in
    /// microseconds. Serving checks the *sum* over a model's spaces
    /// against the latency budget.
    pub cost_us: u64,
    /// Private data (aggregate user statistics etc.) must never leave the
    /// offline environment regardless of cost.
    pub private: bool,
}

impl FeatureSpace {
    /// A servable space with the given per-example cost.
    pub fn servable(name: &str, cost_us: u64) -> FeatureSpace {
        FeatureSpace {
            name: name.to_owned(),
            servable: true,
            cost_us,
            private: false,
        }
    }

    /// A non-servable space (too slow/expensive for production).
    pub fn non_servable(name: &str, cost_us: u64) -> FeatureSpace {
        FeatureSpace {
            name: name.to_owned(),
            servable: false,
            cost_us,
            private: false,
        }
    }

    /// A private space (never servable, independent of cost).
    pub fn private(name: &str, cost_us: u64) -> FeatureSpace {
        FeatureSpace {
            name: name.to_owned(),
            servable: false,
            cost_us,
            private: true,
        }
    }
}

/// Registry of feature spaces for one application.
#[derive(Debug, Clone, Default)]
pub struct SpaceRegistry {
    spaces: Vec<FeatureSpace>,
    by_name: HashMap<String, FeatureSpaceId>,
}

impl SpaceRegistry {
    /// An empty registry.
    pub fn new() -> SpaceRegistry {
        SpaceRegistry::default()
    }

    /// Register a space; returns its id, or `None` if the name is taken.
    pub fn register(&mut self, space: FeatureSpace) -> Option<FeatureSpaceId> {
        if self.by_name.contains_key(&space.name) {
            return None;
        }
        let id = FeatureSpaceId(self.spaces.len() as u32);
        self.by_name.insert(space.name.clone(), id);
        self.spaces.push(space);
        Some(id)
    }

    /// Space declaration by id.
    pub fn get(&self, id: FeatureSpaceId) -> &FeatureSpace {
        &self.spaces[id.0 as usize]
    }

    /// Space id by name.
    pub fn lookup(&self, name: &str) -> Option<FeatureSpaceId> {
        self.by_name.get(name).copied()
    }

    /// Number of registered spaces.
    pub fn len(&self) -> usize {
        self.spaces.len()
    }

    /// `true` if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.spaces.is_empty()
    }

    /// Total declared per-example cost of the given spaces.
    pub fn total_cost_us(&self, ids: &[FeatureSpaceId]) -> u64 {
        ids.iter().map(|&id| self.get(id).cost_us).sum()
    }

    /// The spaces (by name) that block serving: non-servable or private.
    pub fn blocking_spaces(&self, ids: &[FeatureSpaceId]) -> Vec<&str> {
        ids.iter()
            .filter_map(|&id| {
                let s = self.get(id);
                (!s.servable || s.private).then_some(s.name.as_str())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> (
        SpaceRegistry,
        FeatureSpaceId,
        FeatureSpaceId,
        FeatureSpaceId,
    ) {
        let mut r = SpaceRegistry::new();
        let text = r
            .register(FeatureSpace::servable("hashed-unigrams", 40))
            .unwrap();
        let nlp = r
            .register(FeatureSpace::non_servable("nlp-entities", 50_000))
            .unwrap();
        let agg = r
            .register(FeatureSpace::private("aggregate-stats", 5))
            .unwrap();
        (r, text, nlp, agg)
    }

    #[test]
    fn register_and_lookup() {
        let (r, text, nlp, _) = registry();
        assert_eq!(r.lookup("hashed-unigrams"), Some(text));
        assert_eq!(r.lookup("nlp-entities"), Some(nlp));
        assert_eq!(r.lookup("missing"), None);
        assert_eq!(r.len(), 3);
        assert_eq!(r.get(text).cost_us, 40);
    }

    #[test]
    fn duplicate_names_rejected() {
        let (mut r, _, _, _) = registry();
        assert!(r
            .register(FeatureSpace::servable("hashed-unigrams", 1))
            .is_none());
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn servability_checks() {
        let (r, text, nlp, agg) = registry();
        assert_eq!(
            r.blocking_spaces(&[text, nlp, agg]),
            vec!["nlp-entities", "aggregate-stats"]
        );
        assert!(r.blocking_spaces(&[text]).is_empty());
    }

    #[test]
    fn cost_accumulates() {
        let (r, text, nlp, agg) = registry();
        assert_eq!(r.total_cost_us(&[text, nlp, agg]), 50_045);
        assert_eq!(r.total_cost_us(&[]), 0);
    }
}
