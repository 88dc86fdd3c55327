//! SLO burn-rate tracking for the serving front-end.
//!
//! §5.3's production framing implies a latency/error contract for the
//! served classifier. This module keeps two rolling request windows — a
//! *fast* window that reacts within ~1k requests and a *slow* window
//! (~10k) that remembers enough history to ignore blips — and judges
//! both against the budgets in [`SloConfig`]. A breach fires only
//! when **both** windows burn over the threshold (the standard
//! multi-window burn-rate rule: the fast window proves the problem is
//! current, the slow one proves it is sustained), and it is
//! edge-triggered: one `slo_breach` event per excursion, not one per
//! request while the excursion lasts.
//!
//! Everything here is plain memory writes on preallocated rings — no
//! locks, no allocation, no clock reads — so [`SloTracker::observe`]
//! is safe to call from the front-end's batch loop.

/// Budgets the tracker judges windows against; `SloConfig::default()`
/// holds the service objectives.
#[derive(Debug, Clone, PartialEq)]
pub struct SloConfig {
    /// p99 latency ceiling in microseconds.
    pub p99_budget_us: u64,
    /// Error-rate ceiling in parts per million.
    pub error_budget_ppm: u64,
    /// Burn multiple both windows must exceed to breach (1.0 = burning
    /// exactly the budget).
    pub burn_threshold: f64,
    /// Fast (reactive) window size in requests.
    pub fast_window: usize,
    /// Slow (sustained) window size in requests.
    pub slow_window: usize,
}

impl Default for SloConfig {
    fn default() -> SloConfig {
        SloConfig {
            p99_budget_us: 20_000,
            error_budget_ppm: 1_000,
            burn_threshold: 1.0,
            fast_window: 1_000,
            slow_window: 10_000,
        }
    }
}

/// One rolling window: a ring of per-request log-bucket indices plus an
/// error flag, with incremental bucket counts so p99 is a 65-step walk
/// rather than a sort.
#[derive(Debug, Clone)]
struct Window {
    /// Per-request records: `bucket | ERROR_BIT`.
    ring: Vec<u8>,
    /// Next slot to overwrite.
    head: usize,
    /// Live records (≤ ring.len()).
    len: usize,
    /// Count per latency bucket (bit width of the microsecond value,
    /// mirroring `drybell_obs::Histogram`'s bucketing).
    buckets: [u32; BUCKETS],
    errors: u64,
}

const BUCKETS: usize = 65;
const ERROR_BIT: u8 = 0x80;
const BUCKET_MASK: u8 = 0x7f;

/// Bucket index for a latency: the bit width of the value, so bucket
/// `b` covers `[2^(b-1), 2^b)` microseconds.
fn bucket_of(latency_us: u64) -> u8 {
    (u64::BITS - latency_us.leading_zeros()) as u8
}

/// Upper edge of a bucket — the conservative p99 read-out.
fn bucket_edge(bucket: u8) -> u64 {
    if bucket == 0 {
        0
    } else {
        (1u64 << bucket) - 1
    }
}

impl Window {
    fn new(size: usize) -> Window {
        Window {
            ring: vec![0; size.max(1)],
            head: 0,
            len: 0,
            buckets: [0; BUCKETS],
            errors: 0,
        }
    }

    fn push(&mut self, latency_us: u64, error: bool) {
        if self.len == self.ring.len() {
            let evicted = self.ring.get(self.head).copied().unwrap_or(0);
            if let Some(count) = self.buckets.get_mut((evicted & BUCKET_MASK) as usize) {
                *count -= 1;
            }
            if evicted & ERROR_BIT != 0 {
                self.errors -= 1;
            }
        } else {
            self.len += 1;
        }
        // `bucket_of` is at most 64 and BUCKETS is 65, so both lookups
        // always land; `get_mut` keeps the worker panic-free anyway.
        let bucket = bucket_of(latency_us);
        if let Some(slot) = self.ring.get_mut(self.head) {
            *slot = bucket | if error { ERROR_BIT } else { 0 };
        }
        if let Some(count) = self.buckets.get_mut(bucket as usize) {
            *count += 1;
        }
        if error {
            self.errors += 1;
        }
        self.head = (self.head + 1) % self.ring.len();
    }

    fn p99_us(&self) -> u64 {
        if self.len == 0 {
            return 0;
        }
        // The rank such that ≥99% of requests are at or under it.
        let rank = (self.len as u64 * 99).div_ceil(100);
        let mut seen = 0u64;
        for (b, &count) in self.buckets.iter().enumerate() {
            seen += count as u64;
            if seen >= rank {
                return bucket_edge(b as u8);
            }
        }
        bucket_edge((BUCKETS - 1) as u8)
    }

    fn error_ppm(&self) -> u64 {
        if self.len == 0 {
            0
        } else {
            self.errors * 1_000_000 / self.len as u64
        }
    }

    /// Warm enough to judge: a near-empty window's p99 is one request's
    /// latency, and gating on that would page on the first cold start.
    fn warm(&self) -> bool {
        self.len * 10 >= self.ring.len()
    }
}

/// Read-out of one window's gauges, in the units the metric names
/// promise (`slo/{window}/p99_us` etc.).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Requests currently in the window.
    pub requests: u64,
    /// p99 latency (upper bucket edge) in microseconds.
    pub p99_us: u64,
    /// Error rate in parts per million.
    pub error_ppm: u64,
    /// p99 burn rate in ppm of budget (1_000_000 = at budget).
    pub p99_burn_ppm: u64,
    /// Error burn rate in ppm of budget.
    pub error_burn_ppm: u64,
}

/// An edge-triggered breach: both windows burning over threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloBreach {
    /// Which budget burned: `"p99_us"` or `"error_ppm"`.
    pub signal: &'static str,
    /// Fast-window state at the breach.
    pub fast: WindowStats,
    /// Slow-window state at the breach.
    pub slow: WindowStats,
}

/// Rolling multi-window SLO judge. Not thread-safe by design — the
/// front-end owns one behind its own synchronization and feeds it whole
/// batches.
#[derive(Debug, Clone)]
pub struct SloTracker {
    cfg: SloConfig,
    fast: Window,
    slow: Window,
    /// Inside an excursion: set at the breach edge, cleared when both
    /// signals drop back under threshold.
    burning: bool,
}

impl SloTracker {
    /// A tracker with the given budgets.
    pub fn new(cfg: SloConfig) -> SloTracker {
        let fast = Window::new(cfg.fast_window);
        let slow = Window::new(cfg.slow_window);
        SloTracker {
            cfg,
            fast,
            slow,
            burning: false,
        }
    }

    /// Fold one request into both windows. Returns a breach exactly
    /// once per excursion, at its leading edge.
    pub fn observe(&mut self, latency_us: u64, error: bool) -> Option<SloBreach> {
        self.fast.push(latency_us, error);
        self.slow.push(latency_us, error);
        if !(self.fast.warm() && self.slow.warm()) {
            return None;
        }
        let fast = self.stats_of(&self.fast);
        let slow = self.stats_of(&self.slow);
        let over = |ppm: u64| ppm as f64 > self.cfg.burn_threshold * 1e6;
        let signal = if over(fast.p99_burn_ppm) && over(slow.p99_burn_ppm) {
            Some("p99_us")
        } else if over(fast.error_burn_ppm) && over(slow.error_burn_ppm) {
            Some("error_ppm")
        } else {
            None
        };
        match signal {
            Some(signal) if !self.burning => {
                self.burning = true;
                Some(SloBreach { signal, fast, slow })
            }
            Some(_) => None,
            None => {
                self.burning = false;
                None
            }
        }
    }

    fn stats_of(&self, w: &Window) -> WindowStats {
        let p99_us = w.p99_us();
        let error_ppm = w.error_ppm();
        WindowStats {
            requests: w.len as u64,
            p99_us,
            error_ppm,
            p99_burn_ppm: p99_us * 1_000_000 / self.cfg.p99_budget_us.max(1),
            error_burn_ppm: error_ppm * 1_000_000 / self.cfg.error_budget_ppm.max(1),
        }
    }

    /// Current fast-window gauges.
    pub fn fast(&self) -> WindowStats {
        self.stats_of(&self.fast)
    }

    /// Current slow-window gauges.
    pub fn slow(&self) -> WindowStats {
        self.stats_of(&self.slow)
    }

    /// The budgets this tracker judges against.
    pub fn config(&self) -> &SloConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(p99_budget_us: u64, error_budget_ppm: u64) -> SloTracker {
        SloTracker::new(SloConfig {
            p99_budget_us,
            error_budget_ppm,
            burn_threshold: 1.0,
            fast_window: 10,
            slow_window: 40,
        })
    }

    #[test]
    fn healthy_traffic_never_breaches() {
        let mut t = tiny(1_000, 1_000);
        for _ in 0..200 {
            assert_eq!(t.observe(100, false), None);
        }
        assert!(!t.burning);
        let fast = t.fast();
        assert!(fast.p99_us < 1_000, "p99 {}", fast.p99_us);
        assert_eq!(fast.error_ppm, 0);
        assert!(fast.p99_burn_ppm < 1_000_000);
    }

    #[test]
    fn latency_breach_is_edge_triggered_and_rearms() {
        let mut t = tiny(1_000, 1_000);
        for _ in 0..40 {
            t.observe(100, false);
        }
        // Sustained slowness: every request far over budget.
        let mut breaches = Vec::new();
        for _ in 0..80 {
            breaches.extend(t.observe(50_000, false));
        }
        assert_eq!(breaches.len(), 1, "one excursion, one breach");
        let b = &breaches[0];
        assert_eq!(b.signal, "p99_us");
        assert!(b.fast.p99_burn_ppm > 1_000_000);
        assert!(b.slow.p99_burn_ppm > 1_000_000);
        assert!(t.burning);
        // Recovery drains both windows, clearing the excursion...
        for _ in 0..80 {
            assert_eq!(t.observe(100, false), None);
        }
        assert!(!t.burning);
        // ...so the next excursion fires a fresh breach.
        let again: Vec<_> = (0..80).filter_map(|_| t.observe(50_000, false)).collect();
        assert_eq!(again.len(), 1);
    }

    #[test]
    fn brief_blip_does_not_breach_the_slow_window() {
        let mut t = SloTracker::new(SloConfig {
            p99_budget_us: 1_000,
            error_budget_ppm: 1_000,
            burn_threshold: 1.0,
            fast_window: 10,
            slow_window: 2_000,
        });
        for _ in 0..2_000 {
            t.observe(100, false);
        }
        // A blip under 1% of the slow window: the fast window fills
        // with slow requests and burns, but the slow one still
        // remembers ~99.5% healthy traffic, so its p99 holds.
        let breaches: Vec<_> = (0..12).filter_map(|_| t.observe(50_000, false)).collect();
        assert!(t.fast().p99_burn_ppm > 1_000_000, "fast window must burn");
        assert!(t.slow().p99_burn_ppm <= 1_000_000, "slow window holds");
        assert!(breaches.is_empty(), "slow window must veto the blip");
    }

    #[test]
    fn error_rate_breaches_on_its_own_budget() {
        // 1% error budget.
        let mut t = tiny(1_000_000, 10_000);
        for _ in 0..40 {
            t.observe(100, false);
        }
        // 50% errors, fast: latency stays fine, error burn fires.
        let breaches: Vec<_> = (0..80)
            .enumerate()
            .filter_map(|(i, _)| t.observe(100, i % 2 == 0))
            .collect();
        assert_eq!(breaches.len(), 1);
        assert_eq!(breaches[0].signal, "error_ppm");
        // The edge fires on the first over-budget request: one error in
        // the 10-deep fast window is exactly 10% error mass.
        assert!(breaches[0].fast.error_ppm >= 100_000);
    }

    #[test]
    fn cold_windows_withhold_judgement() {
        let mut t = tiny(1, 1);
        // Far over budget, but the slow window (40) is under 10% full.
        for _ in 0..3 {
            assert_eq!(t.observe(1_000_000, true), None);
        }
    }

    #[test]
    fn p99_tracks_the_tail_not_the_median() {
        let mut t = SloTracker::new(SloConfig {
            fast_window: 100,
            slow_window: 400,
            ..SloConfig::default()
        });
        // 2% of requests are slow; p99 must see them even though a
        // median (or p95) read would be ~100µs.
        for i in 0..400 {
            t.observe(if i % 50 == 0 { 60_000 } else { 100 }, false);
        }
        assert!(t.fast().p99_us >= 60_000, "p99 {}", t.fast().p99_us);
        assert!(t.slow().p99_us >= 60_000, "p99 {}", t.slow().p99_us);
        assert_eq!(t.slow().error_ppm, 0);
    }
}
