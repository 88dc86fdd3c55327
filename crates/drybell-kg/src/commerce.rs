//! The reference commerce knowledge graph.
//!
//! Models the paper's product-classification setting (§3.2): a category of
//! interest — *photography* — that was "expanded to include many types of
//! accessories and parts", sibling categories whose accessories are *not*
//! of interest, and alias tables giving "translations of keywords in ten
//! languages". `drybell-datagen` synthesizes product content using exactly
//! these alias strings, so knowledge-graph LFs have true multilingual
//! signal to find.

use crate::{EdgeKind, EntityId, KnowledgeGraph, NodeKind};

/// Language codes in the fixed column order of the translation tables
/// (matching `drybell-nlp`'s `Lang::ALL`).
pub const LANGS: [&str; 10] = ["en", "es", "fr", "de", "it", "pt", "nl", "sv", "pl", "tr"];

/// Translations of the photography-subtree vocabulary. Columns follow
/// [`LANGS`]. ASCII-folded; duplicates across languages are intentional
/// (loanwords) and harmless because they alias the same entity.
pub const PHOTO_TRANSLATIONS: &[(&str, [&str; 10])] = &[
    (
        "camera",
        [
            "camera",
            "camara",
            "appareil",
            "kamera",
            "fotocamera",
            "maquina",
            "fototoestel",
            "systemkamera",
            "aparat",
            "kamerasi",
        ],
    ),
    (
        "lens",
        [
            "lens",
            "lente",
            "objectif",
            "objektiv",
            "obiettivo",
            "objetiva",
            "cameralens",
            "objektivet",
            "obiektyw",
            "mercek",
        ],
    ),
    (
        "tripod",
        [
            "tripod",
            "tripode",
            "trepied",
            "stativ",
            "treppiede",
            "tripe",
            "statief",
            "stativet",
            "statyw",
            "sehpa",
        ],
    ),
    (
        "flash",
        [
            "flash",
            "destello",
            "eclair",
            "blitz",
            "lampeggiatore",
            "flashe",
            "flits",
            "blixt",
            "lampa",
            "flas",
        ],
    ),
    (
        "battery",
        [
            "battery",
            "bateria",
            "batterie",
            "akku",
            "batteria",
            "pilha",
            "accu",
            "batteri",
            "akumulator",
            "pil",
        ],
    ),
    (
        "charger",
        [
            "charger",
            "cargador",
            "chargeur",
            "ladegeraet",
            "caricatore",
            "carregador",
            "oplader",
            "laddare",
            "ladowarka",
            "sarj",
        ],
    ),
    (
        "filter",
        [
            "filter",
            "filtro",
            "filtre",
            "lichtfilter",
            "filtrante",
            "filtragem",
            "kleurfilter",
            "filtret",
            "filtr",
            "filtresi",
        ],
    ),
    (
        "strap",
        [
            "strap", "correa", "sangle", "gurt", "cinghia", "alca", "riem", "rem", "pasek", "kayis",
        ],
    ),
    (
        "drone",
        [
            "drone",
            "dron",
            "quadricoptere",
            "drohne",
            "quadricottero",
            "quadricoptero",
            "quadcopter",
            "dronare",
            "kwadrokopter",
            "insansiz",
        ],
    ),
    (
        "gimbal",
        [
            "gimbal",
            "estabilizador",
            "stabilisateur",
            "stabilisator",
            "stabilizzatore",
            "giroscopio",
            "cardanus",
            "stabilisator-sv",
            "stabilizator",
            "yalpa",
        ],
    ),
];

/// Translations of accessories that are *not* in the category of interest
/// (used by negative-keyword LFs).
pub const OTHER_TRANSLATIONS: &[(&str, [&str; 10])] = &[
    (
        "headphones",
        [
            "headphones",
            "auriculares",
            "casque",
            "kopfhoerer",
            "cuffie",
            "fones",
            "koptelefoon",
            "horlurar",
            "sluchawki",
            "kulaklik",
        ],
    ),
    (
        "speaker",
        [
            "speaker",
            "altavoz",
            "enceinte",
            "lautsprecher",
            "altoparlante",
            "caixa",
            "luidspreker",
            "hogtalare",
            "glosnik",
            "hoparlor",
        ],
    ),
    (
        "keyboard",
        [
            "keyboard",
            "teclado",
            "clavier",
            "tastatur",
            "tastiera",
            "tecladinho",
            "toetsenbord",
            "tangentbord",
            "klawiatura",
            "klavye",
        ],
    ),
];

/// The built commerce graph with handles to its key nodes.
#[derive(Debug, Clone)]
pub struct CommerceGraph {
    /// The underlying graph.
    pub graph: KnowledgeGraph,
    /// Root category.
    pub electronics: EntityId,
    /// The category of interest (§3.2), including accessories and parts.
    pub photography: EntityId,
    /// Camera bodies / drones subcategory.
    pub cameras: EntityId,
    /// Photography accessories subcategory (in the expanded category of
    /// interest).
    pub camera_accessories: EntityId,
    /// Sibling category whose members are negatives.
    pub mobile: EntityId,
    /// Sibling category whose members are negatives.
    pub computing: EntityId,
    /// Audio accessories — accessories *outside* the category of interest.
    pub audio_accessories: EntityId,
}

impl CommerceGraph {
    /// `true` if the entity is a member of the photography subtree.
    pub fn in_photography(&self, id: EntityId) -> bool {
        self.graph.in_category_subtree(id, self.photography)
    }

    /// `true` if the entity is an accessory outside photography.
    pub fn is_foreign_accessory(&self, id: EntityId) -> bool {
        self.graph.entity(id).kind == NodeKind::Accessory && !self.in_photography(id)
    }

    /// `true` if the alias (in any language) names a member of the
    /// photography subtree — the core positive-keyword LF query.
    pub fn alias_in_photography(&self, term: &str) -> bool {
        self.graph
            .resolve_alias(term)
            .is_some_and(|(_, id)| self.in_photography(id))
    }

    /// `true` if the alias names an accessory outside photography — the
    /// negative-keyword LF query ("other accessories not of interest").
    pub fn alias_is_foreign_accessory(&self, term: &str) -> bool {
        self.graph
            .resolve_alias(term)
            .is_some_and(|(_, id)| self.is_foreign_accessory(id))
    }
}

/// Build the reference commerce graph.
#[expect(
    clippy::expect_used,
    reason = "every entity name below is a distinct constant; a duplicate is a bug in this table"
)]
pub fn commerce_graph() -> CommerceGraph {
    let mut g = KnowledgeGraph::new();
    let electronics = g
        .add_entity("electronics", NodeKind::Category)
        .expect("fresh");
    let photography = g
        .add_entity("photography", NodeKind::Category)
        .expect("fresh");
    let cameras = g.add_entity("cameras", NodeKind::Category).expect("fresh");
    let camera_accessories = g
        .add_entity("camera-accessories", NodeKind::Category)
        .expect("fresh");
    let mobile = g.add_entity("mobile", NodeKind::Category).expect("fresh");
    let computing = g
        .add_entity("computing", NodeKind::Category)
        .expect("fresh");
    let audio_accessories = g
        .add_entity("audio-accessories", NodeKind::Category)
        .expect("fresh");

    g.add_edge(photography, EdgeKind::Subcategory, electronics);
    g.add_edge(cameras, EdgeKind::Subcategory, photography);
    g.add_edge(camera_accessories, EdgeKind::Subcategory, photography);
    g.add_edge(mobile, EdgeKind::Subcategory, electronics);
    g.add_edge(computing, EdgeKind::Subcategory, electronics);
    g.add_edge(audio_accessories, EdgeKind::Subcategory, computing);

    // Photography products and their multilingual aliases.
    let add_with_aliases = |g: &mut KnowledgeGraph,
                            word: &str,
                            table: &[(&str, [&str; 10])],
                            kind: NodeKind,
                            category: EntityId|
     -> EntityId {
        let id = g.add_entity(word, kind).expect("unique product word");
        g.add_edge(id, EdgeKind::InCategory, category);
        if let Some((_, row)) = table.iter().find(|(w, _)| *w == word) {
            for (lang, alias) in LANGS.iter().zip(row.iter()) {
                if *lang != "en" {
                    g.add_alias(id, lang, alias);
                }
            }
        }
        id
    };

    let camera = add_with_aliases(
        &mut g,
        "camera",
        PHOTO_TRANSLATIONS,
        NodeKind::Product,
        cameras,
    );
    let drone = add_with_aliases(
        &mut g,
        "drone",
        PHOTO_TRANSLATIONS,
        NodeKind::Product,
        cameras,
    );
    for acc in [
        "lens", "tripod", "flash", "battery", "charger", "filter", "strap", "gimbal",
    ] {
        let id = add_with_aliases(
            &mut g,
            acc,
            PHOTO_TRANSLATIONS,
            NodeKind::Accessory,
            camera_accessories,
        );
        g.add_edge(id, EdgeKind::AccessoryOf, camera);
    }

    // Non-photography products.
    for p in ["phone", "tablet"] {
        let id = g.add_entity(p, NodeKind::Product).expect("unique");
        g.add_edge(id, EdgeKind::InCategory, mobile);
    }
    for p in ["laptop", "monitor", "printer", "router", "console"] {
        let id = g.add_entity(p, NodeKind::Product).expect("unique");
        g.add_edge(id, EdgeKind::InCategory, computing);
    }
    // Accessories outside the category of interest.
    for a in ["headphones", "speaker", "keyboard"] {
        let id = add_with_aliases(
            &mut g,
            a,
            OTHER_TRANSLATIONS,
            NodeKind::Accessory,
            audio_accessories,
        );
        let _ = id;
    }

    // Brands related to photography products (graph-based LF fodder).
    for b in ["acme", "globex", "initech"] {
        let id = g.add_entity(b, NodeKind::Brand).expect("unique");
        g.add_edge(id, EdgeKind::RelatedTo, camera);
        g.add_edge(id, EdgeKind::RelatedTo, drone);
    }

    CommerceGraph {
        graph: g,
        electronics,
        photography,
        cameras,
        camera_accessories,
        mobile,
        computing,
        audio_accessories,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn photography_subtree_is_the_expanded_category() {
        let cg = commerce_graph();
        // Core product.
        assert!(cg.alias_in_photography("camera"));
        // Accessories and parts are *included* after the strategy change.
        assert!(cg.alias_in_photography("tripod"));
        assert!(cg.alias_in_photography("strap"));
        // Non-photography items are excluded.
        assert!(!cg.alias_in_photography("laptop"));
        assert!(!cg.alias_in_photography("headphones"));
        assert!(!cg.alias_in_photography("nonsense"));
    }

    #[test]
    fn translations_resolve_to_the_same_entity() {
        let cg = commerce_graph();
        for (word, row) in PHOTO_TRANSLATIONS {
            let canonical = cg.graph.lookup(word).unwrap();
            for alias in row {
                let (_, id) = cg
                    .graph
                    .resolve_alias(alias)
                    .unwrap_or_else(|| panic!("alias {alias} of {word} must resolve"));
                assert_eq!(id, canonical, "alias {alias} of {word}");
            }
        }
    }

    #[test]
    fn all_ten_languages_are_covered() {
        let cg = commerce_graph();
        let camera = cg.graph.lookup("camera").unwrap();
        let langs: Vec<&str> = cg
            .graph
            .aliases_of(camera)
            .iter()
            .map(|(l, _)| l.as_str())
            .collect();
        for lang in LANGS {
            assert!(langs.contains(&lang), "missing {lang} alias for camera");
        }
    }

    #[test]
    fn foreign_accessories_are_negative_signals() {
        let cg = commerce_graph();
        assert!(cg.alias_is_foreign_accessory("headphones"));
        assert!(cg.alias_is_foreign_accessory("auriculares"));
        assert!(!cg.alias_is_foreign_accessory("tripod"));
        assert!(!cg.alias_is_foreign_accessory("laptop")); // product, not accessory
    }

    #[test]
    fn multilingual_positive_keywords_work() {
        let cg = commerce_graph();
        // Spanish, German, Polish forms of photography words.
        for alias in ["camara", "objektiv", "statyw", "sehpa", "akumulator"] {
            assert!(cg.alias_in_photography(alias), "{alias}");
        }
    }

    #[test]
    fn brands_connect_to_products() {
        let cg = commerce_graph();
        let acme = cg.graph.lookup("acme").unwrap();
        let camera = cg.graph.lookup("camera").unwrap();
        assert!(cg.graph.neighbors(acme).iter().any(|&(_, to)| to == camera));
    }

    #[test]
    fn translation_table_has_no_cross_entity_collisions() {
        // Within the photography table, each alias string must map to one
        // word only (so LF votes are unambiguous).
        let mut seen: std::collections::HashMap<&str, &str> = std::collections::HashMap::new();
        for (word, row) in PHOTO_TRANSLATIONS.iter().chain(OTHER_TRANSLATIONS) {
            for alias in row {
                if let Some(prev) = seen.insert(alias, word) {
                    assert_eq!(prev, *word, "alias {alias} is shared by {prev} and {word}");
                }
            }
        }
    }
}
