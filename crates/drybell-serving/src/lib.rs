//! # drybell-serving
//!
//! The TFX analog (§5.3): model export, staged deployment, and — the part
//! that makes §4's cross-feature story enforceable — **servability
//! checks**. A model declares the feature spaces it reads; the registry
//! refuses to stage any model that touches a non-servable or private
//! space, or whose total declared feature cost exceeds the production
//! latency budget. Labeling functions face no such check (they run
//! offline), which is exactly the asymmetry that lets DryBell transfer
//! knowledge from non-servable resources into servable models.
//!
//! Models are exported to JSON files with a manifest, mimicking how TFX
//! "automatically stage\[s\] a model for serving" once trained. Each type in
//! an exported model has a `to_json`/`from_json` pair over
//! [`drybell_obs::Json`]; [`ServingRegistry::load_from_dir`] treats the
//! directory as outside input and admits a model only if it parses, its
//! shapes agree, and it passes the same checks `stage` makes.

#![warn(missing_docs)]
#![deny(unsafe_code)]
// Non-test code only; DESIGN.md "Guards" says what each lint stands for.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![cfg_attr(not(test), warn(clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic))]
#![cfg_attr(not(test), warn(clippy::unreachable))]
#![cfg_attr(not(test), warn(clippy::todo))]
#![cfg_attr(not(test), warn(clippy::unimplemented))]
#![cfg_attr(not(test), warn(clippy::indexing_slicing))]
#![cfg_attr(not(test), warn(clippy::iter_over_hash_type))]
#![cfg_attr(not(test), warn(clippy::let_underscore_must_use))]
#![cfg_attr(not(test), warn(clippy::unused_result_ok))]
#![cfg_attr(not(test), warn(clippy::allow_attributes))]
#![cfg_attr(not(test), warn(clippy::allow_attributes_without_reason))]

pub mod frontend;
pub mod shadow;

pub use frontend::{Frontend, FrontendConfig, OwnedInput, Pending, Scored};
pub use shadow::{ScoreHistogram, ShadowEval, ShadowReport, WindowedShadow, SCORE_BUCKETS};

use drybell_features::{FeatureSpaceId, SpaceRegistry, SparseVector};
use drybell_ml::{LogisticRegression, MlError, Mlp, MlpScratch, WeightCache};
use drybell_obs::Json;
use std::collections::HashMap;
use std::fmt;
use std::path::{Component, Path};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Errors from staging, promoting, or scoring models.
#[derive(Debug)]
pub enum ServingError {
    /// The model reads feature spaces that cannot be served.
    NotServable {
        /// Model name.
        model: String,
        /// The offending space names.
        blocking: Vec<String>,
    },
    /// The model's declared feature cost exceeds the latency budget.
    OverBudget {
        /// Model name.
        model: String,
        /// Declared per-example cost in microseconds.
        cost_us: u64,
        /// The registry's budget in microseconds.
        budget_us: u64,
    },
    /// No model with the given name/stage.
    UnknownModel(String),
    /// A model with this name and version is already registered.
    DuplicateVersion {
        /// Model name.
        model: String,
        /// Duplicated version.
        version: u32,
    },
    /// Input kind does not match the model (sparse vs dense).
    WrongInputKind {
        /// Model name.
        model: String,
        /// What the model expects.
        expected: &'static str,
    },
    /// The model rejected the input (e.g. a dense vector of the wrong
    /// width). Scoring degrades instead of panicking.
    ScoreFailed {
        /// Model name.
        model: String,
        /// The underlying model error.
        source: MlError,
    },
    /// The front-end admission queue is at capacity; the request was
    /// rejected rather than queued (load shedding).
    QueueFull {
        /// The configured queue depth that was exceeded.
        depth: usize,
    },
    /// The front-end is shutting down; the request cannot be served.
    Shutdown,
    /// Filesystem failure during export/load.
    Io(String),
    /// A file in an export directory cannot be admitted: it does not
    /// parse, its shapes disagree, or the manifest row that names it is
    /// inconsistent.
    BadExport {
        /// The offending file, relative to the export directory.
        file: String,
        /// What is wrong with it.
        reason: String,
    },
    /// A loaded model file disagrees with the manifest that points at it.
    ManifestMismatch {
        /// Model name and version, e.g. `"m v2"`.
        model: String,
        /// The family recorded in the manifest.
        expected: String,
        /// The family of the deserialized model.
        found: String,
    },
}

impl fmt::Display for ServingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServingError::NotServable { model, blocking } => write!(
                f,
                "model {model:?} reads non-servable feature spaces: {}",
                blocking.join(", ")
            ),
            ServingError::OverBudget {
                model,
                cost_us,
                budget_us,
            } => write!(
                f,
                "model {model:?} needs {cost_us}us of features, budget is {budget_us}us"
            ),
            ServingError::UnknownModel(name) => write!(f, "unknown model {name:?}"),
            ServingError::DuplicateVersion { model, version } => {
                write!(f, "model {model:?} version {version} already registered")
            }
            ServingError::WrongInputKind { model, expected } => {
                write!(f, "model {model:?} expects {expected} input")
            }
            ServingError::ScoreFailed { model, source } => {
                write!(f, "model {model:?} rejected the input: {source}")
            }
            ServingError::QueueFull { depth } => {
                write!(f, "admission queue full (depth {depth}); request rejected")
            }
            ServingError::Shutdown => write!(f, "serving front-end is shutting down"),
            ServingError::Io(msg) => write!(f, "serving I/O error: {msg}"),
            ServingError::BadExport { file, reason } => {
                write!(f, "cannot load {file}: {reason}")
            }
            ServingError::ManifestMismatch {
                model,
                expected,
                found,
            } => write!(
                f,
                "model {model} is a {found} but the manifest says {expected}"
            ),
        }
    }
}

impl std::error::Error for ServingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServingError::ScoreFailed { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// A trained model in exportable form.
#[derive(Debug, Clone)]
pub enum ExportedModel {
    /// Sparse logistic regression (content tasks).
    LogReg(LogisticRegression),
    /// Dense MLP (real-time events task).
    Mlp(Mlp),
}

impl ExportedModel {
    /// Human-readable model family.
    pub fn family(&self) -> &'static str {
        match self {
            ExportedModel::LogReg(_) => "logistic-regression",
            ExportedModel::Mlp(_) => "mlp",
        }
    }

    /// The model under its variant name: `{"LogReg": …}` or `{"Mlp": …}`.
    pub fn to_json(&self) -> Json {
        match self {
            ExportedModel::LogReg(m) => Json::obj(vec![("LogReg", m.to_json())]),
            ExportedModel::Mlp(m) => Json::obj(vec![("Mlp", m.to_json())]),
        }
    }

    /// Read a model back from [`ExportedModel::to_json`]'s form.
    pub fn from_json(v: &Json) -> Result<ExportedModel, String> {
        match v {
            Json::Obj(fields) => match fields.as_slice() {
                [(tag, m)] if tag == "LogReg" => {
                    LogisticRegression::from_json(m).map(ExportedModel::LogReg)
                }
                [(tag, m)] if tag == "Mlp" => Mlp::from_json(m).map(ExportedModel::Mlp),
                _ => Err("model must be {\"LogReg\": …} or {\"Mlp\": …}".to_owned()),
            },
            _ => Err("model must be an object".to_owned()),
        }
    }
}

/// Member `key` of the object `v`, converted by `read`.
fn field<'a, T>(
    v: &'a Json,
    key: &str,
    read: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<T, String> {
    v.get(key)
        .and_then(read)
        .ok_or_else(|| format!("field `{key}` is missing or malformed"))
}

fn as_u32(v: &Json) -> Option<u32> {
    v.as_u64().and_then(|n| u32::try_from(n).ok())
}

fn as_string(v: &Json) -> Option<String> {
    v.as_str().map(str::to_owned)
}

/// A model plus everything serving needs to know about it.
#[derive(Debug, Clone)]
pub struct ModelSpec {
    /// Model name (one serving slot per name).
    pub name: String,
    /// Monotonically increasing version.
    pub version: u32,
    /// The feature spaces the model reads at serving time.
    pub feature_spaces: Vec<FeatureSpaceId>,
    /// The trained model.
    pub model: ExportedModel,
}

impl ModelSpec {
    /// The spec as one exported model file carries it.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::from(self.name.as_str())),
            ("version", Json::from(self.version)),
            (
                "feature_spaces",
                Json::Arr(
                    self.feature_spaces
                        .iter()
                        .map(FeatureSpaceId::to_json)
                        .collect(),
                ),
            ),
            ("model", self.model.to_json()),
        ])
    }

    /// Read a spec back from [`ModelSpec::to_json`]'s form.
    pub fn from_json(v: &Json) -> Result<ModelSpec, String> {
        Ok(ModelSpec {
            name: field(v, "name", as_string)?,
            version: field(v, "version", as_u32)?,
            feature_spaces: match field(v, "feature_spaces", Some)? {
                Json::Arr(ids) => ids.iter().map(FeatureSpaceId::from_json).collect(),
                _ => Err("field `feature_spaces` is not an array".to_owned()),
            }?,
            model: field(v, "model", Some).and_then(ExportedModel::from_json)?,
        })
    }
}

/// Lifecycle stage of a registered model version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Validated and waiting for promotion.
    Staged,
    /// Live in production.
    Serving,
}

impl Stage {
    /// The variant name as a string, as the export manifest carries it.
    pub fn to_json(&self) -> Json {
        Json::from(match self {
            Stage::Staged => "Staged",
            Stage::Serving => "Serving",
        })
    }

    /// Read a stage back from [`Stage::to_json`]'s form.
    pub fn from_json(v: &Json) -> Result<Stage, String> {
        match v.as_str() {
            Some("Staged") => Ok(Stage::Staged),
            Some("Serving") => Ok(Stage::Serving),
            _ => Err(format!("unknown Stage {v}")),
        }
    }
}

/// Scoring input: sparse (logistic regression) or dense (MLP).
#[derive(Clone, Copy)]
pub enum ScoreInput<'a> {
    /// Hashed sparse features.
    Sparse(&'a SparseVector),
    /// Dense feature vector.
    Dense(&'a [f64]),
}

/// Every staged/serving version of one named model, oldest first.
type ModelVersions = Vec<(Arc<ModelSpec>, Stage)>;

/// The model registry: validates, stages, promotes, and serves models.
///
/// Specs are stored as `Arc<ModelSpec>` so scoring paths can take the
/// registry lock only long enough to clone a handle, then run the model
/// outside it. Per-request scoring should go through a [`Frontend`],
/// whose workers score against a pinned snapshot and touch no registry
/// lock at all.
pub struct ServingRegistry {
    spaces: SpaceRegistry,
    /// Production latency budget per example, in microseconds.
    budget_us: u64,
    models: Mutex<HashMap<String, ModelVersions>>,
    /// Live publication cells, one per subscribed model name. `promote`
    /// republishes into these so front-ends hot-swap without polling.
    /// Lock order: `cells` strictly before `models` (enforced by taking
    /// `cells` first in both `promote` and `epoch_cell`).
    cells: Mutex<HashMap<String, Arc<EpochCell>>>,
    /// `obs/serving/shadow_score_us`, interned once at
    /// [`ServingRegistry::with_telemetry`] for the shadow evaluator.
    shadow_score_us: Option<Arc<drybell_obs::Histogram>>,
}

impl ServingRegistry {
    /// Create a registry over the given feature spaces with a per-example
    /// latency budget (microseconds).
    pub fn new(spaces: SpaceRegistry, budget_us: u64) -> ServingRegistry {
        ServingRegistry {
            spaces,
            budget_us,
            models: Mutex::new(HashMap::new()),
            cells: Mutex::new(HashMap::new()),
            shadow_score_us: None,
        }
    }

    /// Record shadow-comparison latency into `telemetry`'s
    /// `obs/serving/shadow_score_us` (see [`ShadowEval`]).
    pub fn with_telemetry(mut self, telemetry: &drybell_obs::Telemetry) -> ServingRegistry {
        self.shadow_score_us = Some(telemetry.metrics().histogram("obs/serving/shadow_score_us"));
        self
    }

    /// The latency budget.
    pub fn budget_us(&self) -> u64 {
        self.budget_us
    }

    /// Validate a model spec against servability and the latency budget.
    pub fn validate(&self, spec: &ModelSpec) -> Result<(), ServingError> {
        // The registry looks ids up by index, and a spec read from a file
        // can hold an id it never issued: that space is not servable.
        let unknown = |id: &&FeatureSpaceId| id.0 as usize >= self.spaces.len();
        let blocking: Vec<String> = match spec.feature_spaces.iter().find(unknown) {
            Some(id) => vec![format!("unregistered space #{}", id.0)],
            None => {
                let blocking = self.spaces.blocking_spaces(&spec.feature_spaces);
                blocking.into_iter().map(str::to_owned).collect()
            }
        };
        if !blocking.is_empty() {
            return Err(ServingError::NotServable {
                model: spec.name.clone(),
                blocking,
            });
        }
        let cost = self.spaces.total_cost_us(&spec.feature_spaces);
        if cost > self.budget_us {
            return Err(ServingError::OverBudget {
                model: spec.name.clone(),
                cost_us: cost,
                budget_us: self.budget_us,
            });
        }
        Ok(())
    }

    /// Stage a model for serving (validation included).
    pub fn stage(&self, spec: ModelSpec) -> Result<(), ServingError> {
        self.validate(&spec)?;
        let mut models = lock(&self.models);
        let versions = models.entry(spec.name.clone()).or_default();
        if versions.iter().any(|(s, _)| s.version == spec.version) {
            return Err(ServingError::DuplicateVersion {
                model: spec.name,
                version: spec.version,
            });
        }
        versions.push((Arc::new(spec), Stage::Staged));
        Ok(())
    }

    /// Promote a staged version to serving (demoting any currently
    /// serving version of the same name back to staged), atomically
    /// republishing to any live [`EpochCell`] subscribers so running
    /// front-ends hot-swap with zero scoring-path locks.
    pub fn promote(&self, name: &str, version: u32) -> Result<(), ServingError> {
        // `cells` before `models` — the workspace-wide lock order for
        // this pair (see the `cells` field doc).
        let cells = lock(&self.cells);
        let promoted = {
            let mut models = lock(&self.models);
            let versions = models
                .get_mut(name)
                .ok_or_else(|| ServingError::UnknownModel(name.to_owned()))?;
            if !versions.iter().any(|(s, _)| s.version == version) {
                return Err(ServingError::UnknownModel(format!("{name} v{version}")));
            }
            let mut promoted = None;
            for (spec, stage) in versions.iter_mut() {
                *stage = if spec.version == version {
                    promoted = Some(Arc::clone(spec));
                    Stage::Serving
                } else if *stage == Stage::Serving {
                    Stage::Staged
                } else {
                    *stage
                };
            }
            promoted
        };
        if let (Some(spec), Some(cell)) = (promoted, cells.get(name)) {
            cell.publish(spec);
        }
        Ok(())
    }

    /// The live publication cell for `name`, creating (and seeding with
    /// the current serving version) on first subscription. Subsequent
    /// [`ServingRegistry::promote`] calls republish into the same cell,
    /// so front-ends holding it observe promotions without polling the
    /// registry.
    pub fn epoch_cell(&self, name: &str) -> Result<Arc<EpochCell>, ServingError> {
        let mut cells = lock(&self.cells);
        if let Some(cell) = cells.get(name) {
            return Ok(Arc::clone(cell));
        }
        // Holding `cells` across the seed resolution (which takes
        // `models` — the agreed lock order) closes the race where a
        // promote lands between resolving the spec and inserting the
        // cell, which would freeze the cell on a stale version.
        let spec = self.resolve_serving(name)?;
        let cell = Arc::new(EpochCell::new(spec));
        cells.insert(name.to_owned(), Arc::clone(&cell));
        Ok(cell)
    }

    /// The serving version of `name`, if promoted.
    pub fn serving_version(&self, name: &str) -> Option<u32> {
        self.resolve_serving(name).ok().map(|spec| spec.version)
    }

    /// The shared `obs/serving/shadow_score_us` histogram, for callers
    /// (the shadow evaluator) that batch their own latency samples in a
    /// [`drybell_obs::LocalHistogram`] instead of paying the shared
    /// atomics per scored example.
    pub(crate) fn shadow_latency_sink(&self) -> Option<Arc<drybell_obs::Histogram>> {
        self.shadow_score_us.clone()
    }

    /// The serving `Arc<ModelSpec>` for `name`: the lock is held only
    /// long enough to clone the handle.
    pub(crate) fn resolve_serving(&self, name: &str) -> Result<Arc<ModelSpec>, ServingError> {
        find_serving(&lock(&self.models), name)
    }

    /// The `Arc<ModelSpec>` for a specific registered version (any stage).
    pub(crate) fn resolve_version(
        &self,
        name: &str,
        version: u32,
    ) -> Result<Arc<ModelSpec>, ServingError> {
        find_version(&lock(&self.models), name, version)
    }

    /// Export every registered model version to `dir` as JSON, plus a
    /// `manifest.json` describing stages: one compact `ModelSpec` per
    /// `<name>-v<version>.json`, and a two-space-indented manifest sorted
    /// by name and version.
    pub fn export_to_dir(&self, dir: &Path) -> Result<(), ServingError> {
        let io = |e: std::io::Error| ServingError::Io(e.to_string());
        std::fs::create_dir_all(dir).map_err(io)?;
        let models = lock(&self.models);
        let mut manifest: Vec<ManifestEntry> = Vec::new();
        #[expect(
            clippy::iter_over_hash_type,
            reason = "each model is its own file, and the manifest is sorted below"
        )]
        for versions in models.values() {
            for (spec, stage) in versions {
                let file = format!("{}-v{}.json", spec.name, spec.version);
                std::fs::write(dir.join(&file), spec.to_json().to_line()).map_err(io)?;
                manifest.push(ManifestEntry {
                    name: spec.name.clone(),
                    version: spec.version,
                    stage: *stage,
                    file,
                    family: spec.model.family().to_owned(),
                });
            }
        }
        manifest.sort_by(|a, b| (&a.name, a.version).cmp(&(&b.name, b.version)));
        let body = Json::Arr(manifest.iter().map(ManifestEntry::to_json).collect()).to_pretty();
        std::fs::write(dir.join(MANIFEST), body).map_err(io)
    }

    /// Load a registry previously written by [`ServingRegistry::export_to_dir`].
    ///
    /// The directory is outside input. A file that does not parse or whose
    /// shapes disagree, a manifest row that points outside `dir` or
    /// disagrees with its file, and a second `Serving` row for one name
    /// are [`ServingError::BadExport`]; a repeated `(name, version)` is
    /// [`ServingError::DuplicateVersion`]; and every spec passes
    /// [`ServingRegistry::validate`], as it would through `stage`.
    pub fn load_from_dir(
        spaces: SpaceRegistry,
        budget_us: u64,
        dir: &Path,
    ) -> Result<ServingRegistry, ServingError> {
        let read = |file: &str| {
            let body = std::fs::read_to_string(dir.join(file))
                .map_err(|e| ServingError::Io(format!("{file}: {e}")))?;
            drybell_obs::parse_json(&body).map_err(|e| bad_export(file, e.to_string()))
        };
        let manifest = match read(MANIFEST)? {
            Json::Arr(rows) => rows
                .iter()
                .map(ManifestEntry::from_json)
                .collect::<Result<Vec<_>, _>>()
                .map_err(|reason| bad_export(MANIFEST, reason))?,
            _ => return Err(bad_export(MANIFEST, "not an array".to_owned())),
        };
        let registry = ServingRegistry::new(spaces, budget_us);
        {
            let mut models = lock(&registry.models);
            for entry in manifest {
                let file = entry.file.as_str();
                // One plain name, so `dir.join` cannot leave `dir`: no root,
                // no separator, no `..`.
                let mut parts = Path::new(file).components();
                let plain = matches!(parts.next(), Some(Component::Normal(_)));
                if !plain || parts.next().is_some() {
                    let reason = format!("{file:?} is not a file name in the export directory");
                    return Err(bad_export(MANIFEST, reason));
                }
                let spec = ModelSpec::from_json(&read(file)?)
                    .map_err(|reason| bad_export(file, reason))?;
                if spec.model.family() != entry.family {
                    return Err(ServingError::ManifestMismatch {
                        model: format!("{} v{}", entry.name, entry.version),
                        expected: entry.family,
                        found: spec.model.family().to_owned(),
                    });
                }
                if (&spec.name, spec.version) != (&entry.name, entry.version) {
                    let reason = format!(
                        "holds {} v{} but the manifest says {} v{}",
                        spec.name, spec.version, entry.name, entry.version
                    );
                    return Err(bad_export(file, reason));
                }
                registry.validate(&spec)?;
                let versions = models.entry(spec.name.clone()).or_default();
                if versions.iter().any(|(s, _)| s.version == spec.version) {
                    return Err(ServingError::DuplicateVersion {
                        model: spec.name,
                        version: spec.version,
                    });
                }
                let serving = |st: Stage| st == Stage::Serving;
                if serving(entry.stage) && versions.iter().any(|(_, st)| serving(*st)) {
                    let reason = format!("more than one Serving version of {}", spec.name);
                    return Err(bad_export(MANIFEST, reason));
                }
                versions.push((Arc::new(spec), entry.stage));
            }
        }
        Ok(registry)
    }
}

/// File name of the export manifest.
const MANIFEST: &str = "manifest.json";

fn bad_export(file: &str, reason: String) -> ServingError {
    ServingError::BadExport {
        file: file.to_owned(),
        reason,
    }
}

/// Lock `mutex`, recovering the guard if an earlier holder panicked.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The registry's one lookup: the first version of `name` in the locked
/// `models` map that `pick` accepts, its handle cloned out. `missing`
/// completes the [`ServingError::UnknownModel`] message when `name` is
/// registered without such a version.
fn find_spec(
    models: &HashMap<String, ModelVersions>,
    name: &str,
    pick: impl Fn(&ModelSpec, Stage) -> bool,
    missing: fmt::Arguments<'_>,
) -> Result<Arc<ModelSpec>, ServingError> {
    let versions = models
        .get(name)
        .ok_or_else(|| ServingError::UnknownModel(name.to_owned()))?;
    versions
        .iter()
        .find(|(spec, stage)| pick(spec, *stage))
        .map(|(spec, _)| Arc::clone(spec))
        .ok_or_else(|| ServingError::UnknownModel(format!("{name} {missing}")))
}

fn find_serving(
    models: &HashMap<String, ModelVersions>,
    name: &str,
) -> Result<Arc<ModelSpec>, ServingError> {
    let serving = |_: &ModelSpec, stage| stage == Stage::Serving;
    find_spec(models, name, serving, format_args!("(no serving version)"))
}

fn find_version(
    models: &HashMap<String, ModelVersions>,
    name: &str,
    version: u32,
) -> Result<Arc<ModelSpec>, ServingError> {
    let numbered = |spec: &ModelSpec, _| spec.version == version;
    find_spec(models, name, numbered, format_args!("v{version}"))
}

/// Score one example against a resolved spec. This is the serving hot
/// kernel: it runs outside any registry lock, reuses `scratch` across
/// calls, and builds owned `String`s only on error paths (the success
/// path allocates nothing; `tests/alloc_budget.rs` counts it).
pub fn score_spec(
    spec: &ModelSpec,
    input: &ScoreInput<'_>,
    scratch: &mut MlpScratch,
) -> Result<f64, ServingError> {
    match (&spec.model, input) {
        (ExportedModel::LogReg(m), ScoreInput::Sparse(x)) => Ok(m.predict_proba(x)),
        (ExportedModel::Mlp(m), ScoreInput::Dense(x)) => {
            m.try_predict_proba(x, scratch)
                .map_err(|e| ServingError::ScoreFailed {
                    model: spec.name.clone(),
                    source: e,
                })
        }
        (ExportedModel::LogReg(_), _) => Err(ServingError::WrongInputKind {
            model: spec.name.clone(),
            expected: "sparse",
        }),
        (ExportedModel::Mlp(_), _) => Err(ServingError::WrongInputKind {
            model: spec.name.clone(),
            expected: "dense",
        }),
    }
}

/// A lock-free-readable publication slot for the serving version of one
/// model name.
///
/// Writers ([`ServingRegistry::promote`]) swap the spec and bump the
/// epoch inside one short critical section. Readers pin a
/// [`PinnedSpec`] and call [`PinnedSpec::refresh`] between batches: the
/// steady-state cost is **one atomic load** — the slot lock is touched
/// only when the epoch actually moved. The protocol (including why the
/// epoch must be re-read *under* the slot lock) is proven race-free
/// over all interleavings by the `hot_swap` model in
/// `drybell-modelcheck`.
#[derive(Debug)]
pub struct EpochCell {
    /// Publication counter; bumped once per publish, after the slot
    /// write, inside the slot critical section.
    epoch: AtomicU64,
    slot: Mutex<Arc<ModelSpec>>,
}

impl EpochCell {
    /// A cell seeded with `spec` at epoch 1.
    fn new(spec: Arc<ModelSpec>) -> EpochCell {
        EpochCell {
            epoch: AtomicU64::new(1),
            slot: Mutex::new(spec),
        }
    }

    /// The current publication epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Atomically republish `spec` as the live version: the slot write
    /// and the epoch bump happen inside one critical section, so a
    /// reader that reads both under the same lock can never observe a
    /// torn (epoch, spec) pairing.
    fn publish(&self, spec: Arc<ModelSpec>) {
        let mut slot = lock(&self.slot);
        *slot = spec;
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Pin the currently-published spec for lock-free scoring.
    pub fn pin(&self) -> PinnedSpec {
        let slot = lock(&self.slot);
        PinnedSpec {
            epoch: self.epoch.load(Ordering::Acquire),
            spec: Arc::clone(&slot),
        }
    }
}

/// A reader's snapshot of an [`EpochCell`]: the pinned spec plus the
/// epoch it was published under. Score against [`PinnedSpec::spec`];
/// call [`PinnedSpec::refresh`] at batch boundaries to pick up
/// promotions.
#[derive(Debug, Clone)]
pub struct PinnedSpec {
    spec: Arc<ModelSpec>,
    epoch: u64,
}

impl PinnedSpec {
    /// The pinned model spec.
    pub fn spec(&self) -> &Arc<ModelSpec> {
        &self.spec
    }

    /// The epoch this spec was published under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Catch up with `cell`, returning `true` if the pin moved.
    ///
    /// Steady state is a single atomic load. On an epoch change the
    /// slot lock is taken and **both** the spec and the epoch are
    /// re-read under it — pairing the pre-lock epoch with the
    /// locked-slot read would tear when a second publish lands between
    /// the load and the lock (the bug variant the `hot_swap` modelcheck
    /// test demonstrates).
    pub fn refresh(&mut self, cell: &EpochCell) -> bool {
        if cell.epoch.load(Ordering::Acquire) == self.epoch {
            return false;
        }
        let slot = lock(&cell.slot);
        self.spec = Arc::clone(&slot);
        self.epoch = cell.epoch.load(Ordering::Acquire);
        true
    }
}

/// Reusable scratch for [`score_spec_batch`] / [`batch_session`]:
/// per-batch weight memoization for logistic regression plus the MLP
/// activation buffers. Allocate once per worker; steady-state batches
/// allocate nothing.
#[derive(Debug, Default, Clone)]
pub struct BatchScratch {
    weights: WeightCache,
    mlp: MlpScratch,
}

enum SessionInner<'a> {
    LogReg {
        spec: &'a ModelSpec,
        scorer: drybell_ml::BatchScorer<'a>,
    },
    Mlp {
        spec: &'a ModelSpec,
        scratch: &'a mut MlpScratch,
    },
}

/// Scores the items of one batch against a single pinned spec.
///
/// For logistic regression this amortizes FTRL weight materialization
/// across the batch (each touched coordinate's `sign`/`sqrt`/divide
/// runs at most once per batch instead of once per example); scores are
/// bit-identical to [`score_spec`]. Created by [`batch_session`]; the
/// borrow of the spec guarantees the model cannot change mid-batch.
pub struct BatchSession<'a> {
    inner: SessionInner<'a>,
}

/// Open a batch-scoring session for `spec` over reusable `scratch`.
pub fn batch_session<'a>(spec: &'a ModelSpec, scratch: &'a mut BatchScratch) -> BatchSession<'a> {
    let inner = match &spec.model {
        ExportedModel::LogReg(m) => SessionInner::LogReg {
            spec,
            scorer: m.batch_scorer(&mut scratch.weights),
        },
        ExportedModel::Mlp(_) => SessionInner::Mlp {
            spec,
            scratch: &mut scratch.mlp,
        },
    };
    BatchSession { inner }
}

impl BatchSession<'_> {
    /// Score one item of the batch — bit-identical to [`score_spec`] on
    /// the same input, including the error cases.
    pub fn score(&mut self, input: &ScoreInput<'_>) -> Result<f64, ServingError> {
        match &mut self.inner {
            SessionInner::LogReg { spec, scorer } => match input {
                ScoreInput::Sparse(x) => Ok(scorer.predict_proba(x)),
                ScoreInput::Dense(_) => Err(ServingError::WrongInputKind {
                    model: spec.name.clone(),
                    expected: "sparse",
                }),
            },
            SessionInner::Mlp { spec, scratch } => score_spec(spec, input, scratch),
        }
    }
}

/// Score a whole batch against one resolved spec, amortizing weight
/// materialization (see [`BatchSession`]). Fail-fast: the first input
/// error aborts the batch. `out.len()` must equal `inputs.len()`.
/// Callers needing per-request error isolation (the front-end) drive a
/// [`BatchSession`] directly instead.
pub fn score_spec_batch(
    spec: &ModelSpec,
    inputs: &[ScoreInput<'_>],
    scratch: &mut BatchScratch,
    out: &mut [f64],
) -> Result<(), ServingError> {
    if out.len() != inputs.len() {
        return Err(ServingError::ScoreFailed {
            model: spec.name.clone(),
            source: MlError::DimensionMismatch {
                expected: inputs.len(),
                got: out.len(),
            },
        });
    }
    let mut session = batch_session(spec, scratch);
    for (slot, input) in out.iter_mut().zip(inputs) {
        *slot = session.score(input)?;
    }
    Ok(())
}

/// One line of the export manifest.
#[derive(Debug, Clone)]
struct ManifestEntry {
    name: String,
    version: u32,
    stage: Stage,
    file: String,
    family: String,
}

impl ManifestEntry {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::from(self.name.as_str())),
            ("version", Json::from(self.version)),
            ("stage", self.stage.to_json()),
            ("file", Json::from(self.file.as_str())),
            ("family", Json::from(self.family.as_str())),
        ])
    }

    fn from_json(v: &Json) -> Result<ManifestEntry, String> {
        Ok(ManifestEntry {
            name: field(v, "name", as_string)?,
            version: field(v, "version", as_u32)?,
            stage: field(v, "stage", Some).and_then(Stage::from_json)?,
            file: field(v, "file", as_string)?,
            family: field(v, "family", as_string)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drybell_features::{FeatureHasher, FeatureSpace};
    use drybell_ml::{FtrlConfig, MlpConfig};

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    /// Score one example with the serving version of `name` the way
    /// programs do: the published spec through the kernel.
    fn score(
        reg: &ServingRegistry,
        name: &str,
        input: ScoreInput<'_>,
    ) -> Result<f64, ServingError> {
        score_spec(
            reg.epoch_cell(name)?.pin().spec(),
            &input,
            &mut MlpScratch::default(),
        )
    }

    fn spaces() -> Result<
        (
            SpaceRegistry,
            FeatureSpaceId,
            FeatureSpaceId,
            FeatureSpaceId,
        ),
        Box<dyn std::error::Error>,
    > {
        let mut r = SpaceRegistry::new();
        let text = r
            .register(FeatureSpace::servable("hashed-unigrams", 40))
            .ok_or("space taken")?;
        let event = r
            .register(FeatureSpace::servable("event-signals", 10))
            .ok_or("space taken")?;
        let nlp = r
            .register(FeatureSpace::non_servable("nlp-model-server", 50_000))
            .ok_or("space taken")?;
        Ok((r, text, event, nlp))
    }

    fn trained_logreg() -> Result<LogisticRegression, Box<dyn std::error::Error>> {
        let h = FeatureHasher::new(1 << 10);
        let data = vec![
            (h.bag_of_words(&["yes"]), 1.0),
            (h.bag_of_words(&["no"]), 0.0),
        ];
        let mut m = LogisticRegression::new(
            1 << 10,
            FtrlConfig {
                iterations: 100,
                ..FtrlConfig::default()
            },
        );
        m.fit(&data)?;
        Ok(m)
    }

    #[test]
    fn staging_rejects_non_servable_models() -> TestResult {
        let (r, text, _, nlp) = spaces()?;
        let reg = ServingRegistry::new(r, 10_000);
        let bad = ModelSpec {
            name: "topic".into(),
            version: 1,
            feature_spaces: vec![text, nlp],
            model: ExportedModel::LogReg(trained_logreg()?),
        };
        match reg.stage(bad) {
            Err(ServingError::NotServable { blocking, .. }) => {
                assert_eq!(blocking, vec!["nlp-model-server"]);
            }
            other => panic!("expected NotServable, got {other:?}"),
        }
        Ok(())
    }

    #[test]
    fn staging_enforces_latency_budget() -> TestResult {
        let (mut r, text, _, _) = spaces()?;
        let slow = r
            .register(FeatureSpace::servable("slow-but-servable", 9_999))
            .ok_or("space taken")?;
        let reg = ServingRegistry::new(r, 10_000);
        let spec = ModelSpec {
            name: "m".into(),
            version: 1,
            feature_spaces: vec![text, slow],
            model: ExportedModel::LogReg(trained_logreg()?),
        };
        assert!(matches!(
            reg.stage(spec),
            Err(ServingError::OverBudget {
                cost_us: 10_039,
                ..
            })
        ));
        Ok(())
    }

    #[test]
    fn stage_promote_score_roundtrip() -> TestResult {
        let (r, text, _, _) = spaces()?;
        let reg = ServingRegistry::new(r, 10_000);
        let model = trained_logreg()?;
        let h = FeatureHasher::new(1 << 10);
        reg.stage(ModelSpec {
            name: "topic".into(),
            version: 1,
            feature_spaces: vec![text],
            model: ExportedModel::LogReg(model),
        })?;
        // Not yet serving.
        assert_eq!(reg.serving_version("topic"), None);
        assert!(score(&reg, "topic", ScoreInput::Sparse(&h.bag_of_words(&["yes"]))).is_err());
        reg.promote("topic", 1)?;
        assert_eq!(reg.serving_version("topic"), Some(1));
        let p = score(&reg, "topic", ScoreInput::Sparse(&h.bag_of_words(&["yes"])))?;
        assert!(p > 0.8);
        Ok(())
    }

    #[test]
    fn promotion_swaps_versions() -> TestResult {
        let (r, text, _, _) = spaces()?;
        let reg = ServingRegistry::new(r, 10_000);
        for v in [1, 2] {
            reg.stage(ModelSpec {
                name: "m".into(),
                version: v,
                feature_spaces: vec![text],
                model: ExportedModel::LogReg(trained_logreg()?),
            })?;
        }
        reg.promote("m", 1)?;
        reg.promote("m", 2)?;
        assert_eq!(reg.serving_version("m"), Some(2));
        // Duplicate version rejected.
        assert!(matches!(
            reg.stage(ModelSpec {
                name: "m".into(),
                version: 2,
                feature_spaces: vec![text],
                model: ExportedModel::LogReg(trained_logreg()?),
            }),
            Err(ServingError::DuplicateVersion { version: 2, .. })
        ));
        Ok(())
    }

    #[test]
    fn input_kind_mismatch_is_rejected() -> TestResult {
        let (r, _, event, _) = spaces()?;
        let reg = ServingRegistry::new(r, 10_000);
        let mlp = Mlp::new(
            3,
            MlpConfig {
                iterations: 1,
                ..MlpConfig::default()
            },
        );
        reg.stage(ModelSpec {
            name: "events".into(),
            version: 1,
            feature_spaces: vec![event],
            model: ExportedModel::Mlp(mlp),
        })?;
        reg.promote("events", 1)?;
        let h = FeatureHasher::new(8);
        assert!(matches!(
            score(&reg, "events", ScoreInput::Sparse(&h.bag_of_words(&["x"]))),
            Err(ServingError::WrongInputKind {
                expected: "dense",
                ..
            })
        ));
        assert!(score(&reg, "events", ScoreInput::Dense(&[0.0, 1.0, 0.5])).is_ok());
        Ok(())
    }

    #[test]
    fn wrong_width_degrades_with_score_failed() -> TestResult {
        let (r, _, event, _) = spaces()?;
        let reg = ServingRegistry::new(r, 10_000);
        reg.stage(ModelSpec {
            name: "events".into(),
            version: 1,
            feature_spaces: vec![event],
            model: ExportedModel::Mlp(Mlp::new(
                3,
                MlpConfig {
                    iterations: 1,
                    ..MlpConfig::default()
                },
            )),
        })?;
        reg.promote("events", 1)?;
        // A dense input of the wrong width is a typed error, not a panic.
        match score(&reg, "events", ScoreInput::Dense(&[1.0])) {
            Err(ServingError::ScoreFailed { model, source }) => {
                assert_eq!(model, "events");
                assert_eq!(
                    source,
                    drybell_ml::MlError::DimensionMismatch {
                        expected: 3,
                        got: 1
                    }
                );
            }
            other => panic!("expected ScoreFailed, got {other:?}"),
        }
        // The error chain surfaces the model error as a source.
        let err =
            score(&reg, "events", ScoreInput::Dense(&[1.0])).expect_err("wrong width must fail");
        assert!(std::error::Error::source(&err).is_some());
        Ok(())
    }

    #[test]
    fn export_and_load_roundtrip() -> TestResult {
        let (r, text, event, _) = spaces()?;
        let reg = ServingRegistry::new(r.clone(), 10_000);
        let h = FeatureHasher::new(1 << 10);
        reg.stage(ModelSpec {
            name: "topic".into(),
            version: 3,
            feature_spaces: vec![text],
            model: ExportedModel::LogReg(trained_logreg()?),
        })?;
        reg.promote("topic", 3)?;
        let mut mlp = Mlp::new(
            2,
            MlpConfig {
                hidden: vec![4],
                iterations: 40,
                ..MlpConfig::default()
            },
        );
        mlp.fit(&[(vec![0.0, 1.0], 1.0), (vec![1.0, 0.0], 0.0)]);
        reg.stage(ModelSpec {
            name: "events".into(),
            version: 1,
            feature_spaces: vec![event],
            model: ExportedModel::Mlp(mlp),
        })?;
        reg.promote("events", 1)?;
        let dir = tempfile::tempdir()?;
        reg.export_to_dir(dir.path())?;
        assert!(dir.path().join("manifest.json").exists());
        assert!(dir.path().join("topic-v3.json").exists());
        assert!(dir.path().join("events-v1.json").exists());

        let loaded = ServingRegistry::load_from_dir(r, 10_000, dir.path())?;
        assert_eq!(loaded.serving_version("topic"), Some(3));
        assert_eq!(loaded.serving_version("events"), Some(1));
        let x = h.bag_of_words(&["yes"]);
        let p0 = score(&reg, "topic", ScoreInput::Sparse(&x))?;
        let p1 = score(&loaded, "topic", ScoreInput::Sparse(&x))?;
        assert_eq!(p0.to_bits(), p1.to_bits());
        let d = [0.25, 0.75];
        let q0 = score(&reg, "events", ScoreInput::Dense(&d))?;
        let q1 = score(&loaded, "events", ScoreInput::Dense(&d))?;
        assert_eq!(q0.to_bits(), q1.to_bits());
        Ok(())
    }

    #[test]
    fn telemetry_records_score_latency() -> TestResult {
        let (r, text, _, _) = spaces()?;
        let telemetry = drybell_obs::Telemetry::new();
        let reg = ServingRegistry::new(r, 10_000).with_telemetry(&telemetry);
        let h = FeatureHasher::new(1 << 10);
        for v in [1, 2] {
            reg.stage(ModelSpec {
                name: "m".into(),
                version: v,
                feature_spaces: vec![text],
                model: ExportedModel::LogReg(trained_logreg()?),
            })?;
        }
        reg.promote("m", 1)?;
        let x = h.bag_of_words(&["yes"]);
        crate::ShadowEval::new(&reg, "m", 2)?.observe(ScoreInput::Sparse(&x))?;
        let snap = telemetry.metrics().snapshot();
        assert_eq!(
            snap.histogram("obs/serving/shadow_score_us")
                .ok_or("missing shadow_score_us histogram")?
                .count(),
            1
        );
        Ok(())
    }

    #[test]
    fn load_rejects_manifest_family_mismatch() -> TestResult {
        let (r, text, _, _) = spaces()?;
        let reg = ServingRegistry::new(r.clone(), 10_000);
        reg.stage(ModelSpec {
            name: "m".into(),
            version: 1,
            feature_spaces: vec![text],
            model: ExportedModel::LogReg(trained_logreg()?),
        })?;
        let dir = tempfile::tempdir()?;
        reg.export_to_dir(dir.path())?;
        // Corrupt the manifest's family field.
        let manifest_path = dir.path().join("manifest.json");
        let body = std::fs::read_to_string(&manifest_path)?;
        std::fs::write(&manifest_path, body.replace("logistic-regression", "mlp"))?;
        assert!(matches!(
            ServingRegistry::load_from_dir(r, 10_000, dir.path()),
            Err(ServingError::ManifestMismatch { .. })
        ));
        Ok(())
    }

    #[test]
    fn batched_scoring_is_bit_identical_to_one_at_a_time() -> TestResult {
        // The `shard_determinism`-style gate for the serving batcher:
        // score_spec_batch must produce exactly the bits score_spec does.
        let (r, text, _, _) = spaces()?;
        let reg = ServingRegistry::new(r, 10_000);
        let h = FeatureHasher::new(1 << 10);
        reg.stage(ModelSpec {
            name: "topic".into(),
            version: 1,
            feature_spaces: vec![text],
            model: ExportedModel::LogReg(trained_logreg()?),
        })?;
        reg.promote("topic", 1)?;
        let spec = reg.resolve_serving("topic")?;
        let vectors: Vec<SparseVector> = ["yes", "no", "yes no", "maybe", "yes yes"]
            .iter()
            .map(|s| h.bag_of_words(&s.split(' ').collect::<Vec<_>>()))
            .collect();
        let inputs: Vec<ScoreInput<'_>> = vectors.iter().map(ScoreInput::Sparse).collect();
        let mut scratch = BatchScratch::default();
        let mut batched = vec![0.0; inputs.len()];
        score_spec_batch(&spec, &inputs, &mut scratch, &mut batched)?;
        let mut mlp_scratch = MlpScratch::default();
        for (input, got) in inputs.iter().zip(&batched) {
            let single = score_spec(&spec, input, &mut mlp_scratch)?;
            assert_eq!(single.to_bits(), got.to_bits());
        }
        // Mismatched output length is a typed error, not a panic.
        let mut short = vec![0.0; inputs.len() - 1];
        assert!(matches!(
            score_spec_batch(&spec, &inputs, &mut scratch, &mut short),
            Err(ServingError::ScoreFailed { .. })
        ));
        // Wrong input kind inside a session is a typed error too.
        let dense = [0.0, 1.0];
        let mut session = batch_session(&spec, &mut scratch);
        assert!(matches!(
            session.score(&ScoreInput::Dense(&dense)),
            Err(ServingError::WrongInputKind {
                expected: "sparse",
                ..
            })
        ));
        Ok(())
    }

    #[test]
    fn epoch_cell_observes_promotions_without_polling() -> TestResult {
        let (r, text, _, _) = spaces()?;
        let reg = ServingRegistry::new(r, 10_000);
        for v in [1, 2] {
            reg.stage(ModelSpec {
                name: "m".into(),
                version: v,
                feature_spaces: vec![text],
                model: ExportedModel::LogReg(trained_logreg()?),
            })?;
        }
        // No serving version yet: subscribing fails with a typed error.
        assert!(matches!(
            reg.epoch_cell("m"),
            Err(ServingError::UnknownModel(_))
        ));
        reg.promote("m", 1)?;
        let cell = reg.epoch_cell("m")?;
        let mut pin = cell.pin();
        assert_eq!(pin.spec().version, 1);
        // Steady state: no epoch movement, refresh is a no-op.
        assert!(!pin.refresh(&cell));
        // Promote republishes into the live cell; refresh observes it.
        reg.promote("m", 2)?;
        assert!(pin.refresh(&cell));
        assert_eq!(pin.spec().version, 2);
        assert!(!pin.refresh(&cell));
        // The registry hands back the same cell on re-subscription.
        let again = reg.epoch_cell("m")?;
        assert_eq!(again.epoch(), cell.epoch());
        Ok(())
    }

    #[test]
    fn unknown_model_errors() -> TestResult {
        let (r, _, _, _) = spaces()?;
        let reg = ServingRegistry::new(r, 10_000);
        assert!(matches!(
            reg.promote("ghost", 1),
            Err(ServingError::UnknownModel(_))
        ));
        let h = FeatureHasher::new(8);
        assert!(matches!(
            score(&reg, "ghost", ScoreInput::Sparse(&h.bag_of_words(&["x"]))),
            Err(ServingError::UnknownModel(_))
        ));
        Ok(())
    }
}
