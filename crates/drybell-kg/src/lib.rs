//! # drybell-kg
//!
//! A synthetic knowledge graph standing in for Google's Knowledge Graph,
//! which the product-classification labeling functions query "for
//! translations of keywords in ten languages" (§3.2) and for category
//! membership of products and accessories.
//!
//! The graph stores typed entities (products, accessories, categories,
//! brands), typed edges (`InCategory`, `Subcategory`, `AccessoryOf`,
//! `RelatedTo`), and multilingual aliases. [`commerce::commerce_graph`]
//! builds the reference instance used throughout the reproduction: a
//! category tree of electronics with a *photography* subtree (the paper's
//! "category of interest", expanded to include accessories and parts) and
//! alias tables across the ten languages of `drybell-nlp`'s detector.

#![warn(missing_docs)]
#![deny(unsafe_code)]
// Non-test code only; DESIGN.md "Guards" says what each lint stands for.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![cfg_attr(not(test), warn(clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::iter_over_hash_type))]
#![cfg_attr(not(test), warn(clippy::let_underscore_must_use))]
#![cfg_attr(not(test), warn(clippy::unused_result_ok))]
#![cfg_attr(not(test), warn(clippy::allow_attributes))]
#![cfg_attr(not(test), warn(clippy::allow_attributes_without_reason))]

pub mod commerce;

use drybell_obs::FnvHashMap;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::OnceLock;

/// Opaque entity identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntityId(pub u32);

/// What kind of node an entity is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A sellable product ("camera").
    Product,
    /// An accessory or part ("tripod").
    Accessory,
    /// A category node ("photography").
    Category,
    /// A brand ("Acme").
    Brand,
}

/// Typed, directed edge labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Product/accessory → its category.
    InCategory,
    /// Child category → parent category.
    Subcategory,
    /// Accessory → the product it complements.
    AccessoryOf,
    /// Symmetric topical association.
    RelatedTo,
}

/// One entity with its canonical (English) name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entity {
    /// The entity's id.
    pub id: EntityId,
    /// Canonical lowercase English name.
    pub name: String,
    /// Node kind.
    pub kind: NodeKind,
}

/// Errors from graph construction and queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KgError {
    /// An entity name was registered twice.
    DuplicateName(String),
    /// An operation referenced an unknown entity.
    UnknownEntity(String),
}

impl fmt::Display for KgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KgError::DuplicateName(n) => write!(f, "duplicate entity name: {n}"),
            KgError::UnknownEntity(n) => write!(f, "unknown entity: {n}"),
        }
    }
}

impl std::error::Error for KgError {}

/// The in-memory knowledge graph.
///
/// ```
/// use drybell_kg::{EdgeKind, KnowledgeGraph, NodeKind};
/// let mut g = KnowledgeGraph::new();
/// let gear = g.add_entity("camera-gear", NodeKind::Category).unwrap();
/// let cam = g.add_entity("camera", NodeKind::Product).unwrap();
/// g.add_edge(cam, EdgeKind::InCategory, gear);
/// g.add_alias(cam, "es", "camara");
/// assert!(g.in_category_subtree(cam, gear));
/// assert_eq!(g.resolve_alias("camara"), Some(("es", cam)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct KnowledgeGraph {
    entities: Vec<Entity>,
    by_name: FnvHashMap<String, EntityId>,
    /// Adjacency: per entity, outgoing `(edge, target)` pairs.
    edges: Vec<Vec<(EdgeKind, EntityId)>>,
    /// alias (any language) → (language code, entity).
    aliases: FnvHashMap<String, (String, EntityId)>,
    /// entity → all its aliases as (language code, alias).
    alias_index: HashMap<EntityId, Vec<(String, String)>>,
    /// Per entity, the categories above it: what `in_category_subtree`
    /// reads. Filled by the first query after an edit; `add_entity` and
    /// `add_edge` empty it.
    category_closure: OnceLock<Vec<Vec<EntityId>>>,
}

/// `term.to_lowercase()`, the form names and aliases are stored in —
/// borrowed when the term is ASCII with no capital and so is that form
/// already, which is every word of a lower-case document.
fn lower_key(term: &str) -> Cow<'_, str> {
    let is_lower_ascii = term
        .bytes()
        .all(|b| b.is_ascii() && !b.is_ascii_uppercase());
    if is_lower_ascii {
        Cow::Borrowed(term)
    } else {
        Cow::Owned(term.to_lowercase())
    }
}

impl KnowledgeGraph {
    /// An empty graph.
    pub fn new() -> KnowledgeGraph {
        KnowledgeGraph::default()
    }

    /// Add an entity with a unique canonical name (stored lowercase).
    pub fn add_entity(&mut self, name: &str, kind: NodeKind) -> Result<EntityId, KgError> {
        let name = name.to_lowercase();
        if self.by_name.contains_key(&name) {
            return Err(KgError::DuplicateName(name));
        }
        let id = EntityId(self.entities.len() as u32);
        self.entities.push(Entity {
            id,
            name: name.clone(),
            kind,
        });
        self.by_name.insert(name.clone(), id);
        self.edges.push(Vec::new());
        self.category_closure = OnceLock::new();
        // The canonical name is an English alias of itself.
        self.aliases.insert(name.clone(), ("en".to_owned(), id));
        self.alias_index
            .entry(id)
            .or_default()
            .push(("en".to_owned(), name));
        Ok(id)
    }

    /// Add a directed edge. `RelatedTo` edges are stored symmetrically.
    pub fn add_edge(&mut self, from: EntityId, kind: EdgeKind, to: EntityId) {
        self.category_closure = OnceLock::new();
        self.edges[from.0 as usize].push((kind, to));
        if kind == EdgeKind::RelatedTo {
            self.edges[to.0 as usize].push((kind, from));
        }
    }

    /// Register a foreign-language alias for an entity. Later
    /// registrations of the same alias string are ignored (first wins),
    /// mirroring how alias tables keep one primary sense.
    pub fn add_alias(&mut self, id: EntityId, lang: &str, alias: &str) {
        let alias = alias.to_lowercase();
        self.aliases
            .entry(alias.clone())
            .or_insert_with(|| (lang.to_owned(), id));
        self.alias_index
            .entry(id)
            .or_default()
            .push((lang.to_owned(), alias));
    }

    /// Number of entities.
    pub fn len(&self) -> usize {
        self.entities.len()
    }

    /// `true` if the graph has no entities.
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }

    /// Entity by canonical name (case-insensitive).
    pub fn lookup(&self, name: &str) -> Option<EntityId> {
        self.by_name.get(lower_key(name).as_ref()).copied()
    }

    /// Entity metadata.
    pub fn entity(&self, id: EntityId) -> &Entity {
        &self.entities[id.0 as usize]
    }

    /// Resolve any-language alias to `(language code, entity)` —
    /// the query the multilingual keyword LFs issue per token.
    pub fn resolve_alias(&self, term: &str) -> Option<(&str, EntityId)> {
        self.aliases
            .get(lower_key(term).as_ref())
            .map(|(lang, id)| (lang.as_str(), *id))
    }

    /// All `(language, alias)` pairs of an entity, including its canonical
    /// English name.
    pub fn aliases_of(&self, id: EntityId) -> &[(String, String)] {
        self.alias_index
            .get(&id)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// The alias of `name` in language `lang`, if registered.
    pub fn translation(&self, name: &str, lang: &str) -> Option<&str> {
        let id = self.lookup(name)?;
        self.aliases_of(id)
            .iter()
            .find(|(l, _)| l == lang)
            .map(|(_, a)| a.as_str())
    }

    /// Outgoing `(edge, target)` pairs of an entity.
    pub fn neighbors(&self, id: EntityId) -> &[(EdgeKind, EntityId)] {
        &self.edges[id.0 as usize]
    }

    /// `true` if `id` belongs to the category subtree rooted at `root`:
    /// reachable via one `InCategory` edge followed by any number of
    /// `Subcategory` edges.
    pub fn in_category_subtree(&self, id: EntityId, root: EntityId) -> bool {
        let above = self.category_closure.get_or_init(|| {
            let entities = self.entities.iter();
            entities.map(|e| self.categories_above(e.id)).collect()
        });
        above[id.0 as usize].contains(&root)
    }

    /// Every category whose subtree holds `id`, nearest first: a
    /// breadth-first walk from the direct categories of `id` (or `id`
    /// itself if it is a category) up the `Subcategory` edges.
    fn categories_above(&self, id: EntityId) -> Vec<EntityId> {
        let mut frontier: VecDeque<EntityId> = VecDeque::new();
        let mut seen: HashSet<EntityId> = HashSet::new();
        let mut above = Vec::new();
        if self.entity(id).kind == NodeKind::Category {
            frontier.push_back(id);
        } else {
            for &(kind, to) in self.neighbors(id) {
                if kind == EdgeKind::InCategory {
                    frontier.push_back(to);
                }
            }
        }
        while let Some(cat) = frontier.pop_front() {
            if !seen.insert(cat) {
                continue;
            }
            above.push(cat);
            for &(kind, to) in self.neighbors(cat) {
                if kind == EdgeKind::Subcategory {
                    frontier.push_back(to);
                }
            }
        }
        above
    }

    /// All products/accessories in the subtree rooted at category `root`.
    pub fn members_of_subtree(&self, root: EntityId) -> Vec<EntityId> {
        self.entities
            .iter()
            .filter(|e| {
                matches!(e.kind, NodeKind::Product | NodeKind::Accessory)
                    && self.in_category_subtree(e.id, root)
            })
            .map(|e| e.id)
            .collect()
    }

    /// Breadth-first search: all entities within `max_hops` of `start`
    /// following any edge kind. Used by graph-based LFs over relationship
    /// graphs (§3.3).
    pub fn within_hops(&self, start: EntityId, max_hops: usize) -> Vec<(EntityId, usize)> {
        let mut seen: HashMap<EntityId, usize> = HashMap::new();
        seen.insert(start, 0);
        let mut q = VecDeque::new();
        q.push_back((start, 0usize));
        while let Some((id, d)) = q.pop_front() {
            if d == max_hops {
                continue;
            }
            for &(_, to) in self.neighbors(id) {
                if let std::collections::hash_map::Entry::Vacant(e) = seen.entry(to) {
                    e.insert(d + 1);
                    q.push_back((to, d + 1));
                }
            }
        }
        let mut out: Vec<(EntityId, usize)> = seen.into_iter().collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (KnowledgeGraph, EntityId, EntityId, EntityId, EntityId) {
        let mut g = KnowledgeGraph::new();
        let root = g.add_entity("electronics", NodeKind::Category).unwrap();
        let photo = g.add_entity("photography", NodeKind::Category).unwrap();
        let cam = g.add_entity("camera", NodeKind::Product).unwrap();
        let case = g.add_entity("phone-case", NodeKind::Accessory).unwrap();
        let mobile = g.add_entity("mobile", NodeKind::Category).unwrap();
        g.add_edge(photo, EdgeKind::Subcategory, root);
        g.add_edge(mobile, EdgeKind::Subcategory, root);
        g.add_edge(cam, EdgeKind::InCategory, photo);
        g.add_edge(case, EdgeKind::InCategory, mobile);
        (g, root, photo, cam, case)
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut g = KnowledgeGraph::new();
        g.add_entity("Camera", NodeKind::Product).unwrap();
        assert_eq!(
            g.add_entity("camera", NodeKind::Product),
            Err(KgError::DuplicateName("camera".into()))
        );
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let (g, _, _, cam, _) = tiny();
        assert_eq!(g.lookup("CAMERA"), Some(cam));
        assert_eq!(g.lookup("missing"), None);
        assert_eq!(g.entity(cam).kind, NodeKind::Product);
    }

    #[test]
    fn category_subtree_membership() {
        let (g, root, photo, cam, case) = tiny();
        assert!(g.in_category_subtree(cam, photo));
        assert!(g.in_category_subtree(cam, root));
        assert!(!g.in_category_subtree(case, photo));
        assert!(g.in_category_subtree(case, root));
        // A category is in its own subtree.
        assert!(g.in_category_subtree(photo, photo));
    }

    /// `in_category_subtree` as a walk per query, stopping at `root`: the
    /// reference the per-entity lists are held to.
    fn walks_up_to(g: &KnowledgeGraph, id: EntityId, root: EntityId) -> bool {
        let mut frontier: VecDeque<EntityId> = VecDeque::new();
        let mut seen: HashSet<EntityId> = HashSet::new();
        if g.entity(id).kind == NodeKind::Category {
            frontier.push_back(id);
        } else {
            for &(kind, to) in g.neighbors(id) {
                if kind == EdgeKind::InCategory {
                    frontier.push_back(to);
                }
            }
        }
        while let Some(cat) = frontier.pop_front() {
            if cat == root {
                return true;
            }
            if !seen.insert(cat) {
                continue;
            }
            for &(kind, to) in g.neighbors(cat) {
                if kind == EdgeKind::Subcategory {
                    frontier.push_back(to);
                }
            }
        }
        false
    }

    fn cyclic() -> (KnowledgeGraph, EntityId, EntityId, EntityId) {
        let mut g = KnowledgeGraph::new();
        let a = g.add_entity("a", NodeKind::Category).unwrap();
        let b = g.add_entity("b", NodeKind::Category).unwrap();
        let c = g.add_entity("unrelated", NodeKind::Category).unwrap();
        g.add_edge(a, EdgeKind::Subcategory, b);
        g.add_edge(b, EdgeKind::Subcategory, a);
        (g, a, b, c)
    }

    /// Every (entity, root) pair, roots of every kind included.
    fn assert_subtrees_match_the_walk(g: &KnowledgeGraph) -> usize {
        let ids = || (0..g.len() as u32).map(EntityId);
        let mut members = 0;
        for id in ids() {
            for root in ids() {
                let inside = g.in_category_subtree(id, root);
                assert_eq!(inside, walks_up_to(g, id, root), "{id:?} in {root:?}");
                members += usize::from(inside);
            }
        }
        members
    }

    #[test]
    fn subtree_lists_match_a_walk_per_query() {
        let commerce = commerce::commerce_graph().graph;
        assert!(assert_subtrees_match_the_walk(&commerce) > 50);
        assert_subtrees_match_the_walk(&tiny().0);
        assert_eq!(assert_subtrees_match_the_walk(&cyclic().0), 5);
        // A clone answers the same, taken before the first query or after.
        let fresh = commerce::commerce_graph().graph;
        assert_subtrees_match_the_walk(&fresh.clone());
        assert_subtrees_match_the_walk(&commerce.clone());
    }

    #[test]
    fn a_query_after_an_edit_sees_the_edit() {
        let (mut g, root, photo, cam, case) = tiny();
        assert!(!g.in_category_subtree(case, photo));
        g.add_edge(case, EdgeKind::InCategory, photo);
        assert!(g.in_category_subtree(case, photo));
        // A new entity is known to the next query, and a new category
        // above an old one reaches what was below it.
        let lens = g.add_entity("lens", NodeKind::Accessory).unwrap();
        assert!(!g.in_category_subtree(lens, photo));
        g.add_edge(lens, EdgeKind::InCategory, photo);
        assert!(g.in_category_subtree(lens, root));
        let all = g.add_entity("everything", NodeKind::Category).unwrap();
        assert!(!g.in_category_subtree(cam, all));
        g.add_edge(root, EdgeKind::Subcategory, all);
        assert!(g.in_category_subtree(cam, all));
        assert_subtrees_match_the_walk(&g);
    }

    #[test]
    fn subtree_members() {
        let (g, root, photo, cam, case) = tiny();
        assert_eq!(g.members_of_subtree(photo), vec![cam]);
        let mut all = g.members_of_subtree(root);
        all.sort();
        assert_eq!(all, vec![cam, case]);
    }

    #[test]
    fn aliases_resolve_across_languages() {
        let (mut g, _, _, cam, _) = tiny();
        g.add_alias(cam, "es", "Camara");
        g.add_alias(cam, "de", "kamera");
        assert_eq!(g.resolve_alias("camara"), Some(("es", cam)));
        assert_eq!(g.resolve_alias("KAMERA"), Some(("de", cam)));
        assert_eq!(g.resolve_alias("camera"), Some(("en", cam)));
        assert_eq!(g.translation("camera", "es"), Some("camara"));
        assert_eq!(g.translation("camera", "fr"), None);
        assert_eq!(g.aliases_of(cam).len(), 3);
    }

    #[test]
    fn first_alias_registration_wins() {
        let (mut g, _, _, cam, case) = tiny();
        g.add_alias(cam, "es", "equipo");
        g.add_alias(case, "es", "equipo");
        assert_eq!(g.resolve_alias("equipo"), Some(("es", cam)));
    }

    #[test]
    fn related_to_is_symmetric() {
        let (mut g, _, _, cam, case) = tiny();
        g.add_edge(cam, EdgeKind::RelatedTo, case);
        assert!(g
            .neighbors(case)
            .iter()
            .any(|&(k, to)| k == EdgeKind::RelatedTo && to == cam));
    }

    #[test]
    fn bfs_within_hops() {
        let (g, root, photo, cam, _) = tiny();
        let reach = g.within_hops(cam, 2);
        // cam -(InCategory)-> photo -(Subcategory)-> root
        assert!(reach.contains(&(cam, 0)));
        assert!(reach.contains(&(photo, 1)));
        assert!(reach.contains(&(root, 2)));
        let reach1 = g.within_hops(cam, 1);
        assert!(!reach1.iter().any(|&(id, _)| id == root));
    }

    #[test]
    fn cyclic_categories_terminate() {
        let (g, a, b, c) = cyclic();
        assert!(g.in_category_subtree(a, b));
        assert!(!g.in_category_subtree(a, c));
    }
}
