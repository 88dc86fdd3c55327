//! # drybell-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation (§6), plus the `e2e` benchmark. The shared pipeline
//! logic lives in [`harness`]; each `exp_*` binary parameterizes it and
//! prints the rows the paper reports. See `EXPERIMENTS.md` at the
//! workspace root for the paper-vs-measured record.
//!
//! | binary | reproduces |
//! |---|---|
//! | `exp_table1` | Table 1 — dataset statistics |
//! | `exp_figure2` | Figure 2 — LF category distribution |
//! | `exp_table2` | Table 2 — generative vs discriminative, relative P/R/F1 |
//! | `exp_figure5` | Figure 5 — hand-label trade-off sweeps |
//! | `exp_table3` | Table 3 — servable-only vs +non-servable ablation |
//! | `exp_table4` | Table 4 — equal weights vs generative model ablation |
//! | `exp_speed` | §5.2 — sampling-free vs Gibbs throughput |
//! | `exp_realtime` | §6.4 + Figure 6 — events app vs Logical-OR |
//! | `exp_scaling` | §1 — end-to-end throughput at 6M+ scale |
//!
//! Every binary accepts `--scale <f>` (default 0.1) and `--seed <n>`;
//! `--scale 1.0` reproduces paper-scale dataset sizes.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod args;
pub mod harness;

/// FNV-1a over the exact bit patterns of a float sequence: equal
/// checksums ⇔ byte-identical values.
pub fn bits_checksum(xs: impl Iterator<Item = f64>) -> u64 {
    let mut h = drybell_obs::Fnv1a64::new();
    for x in xs {
        h.write(&x.to_bits().to_le_bytes());
    }
    h.finish()
}
