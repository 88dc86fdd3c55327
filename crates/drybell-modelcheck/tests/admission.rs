//! Model check for the serving front-end's admission queue
//! (`drybell-serving::frontend`): one lock over `{ queue, open }`.
//!
//! The protocol: `submit` is ONE critical section — closed ⇒
//! `Shutdown`, `queue_depth` waiting ⇒ `QueueFull`, else push. A
//! batcher takes up to `max_batch` requests in one lock hold, scores
//! them outside the lock, and exits once the queue is closed and empty.
//! `shutdown` clears `open` in one critical section, and in a later one
//! takes whatever is still queued and answers it `Shutdown`. The model
//! lets that sweep run before the batcher has exited — more schedules
//! than the real `join` allows — and proves over all of them that every
//! admitted request is answered exactly once, the queue never exceeds
//! `queue_depth`, and nothing is admitted after close.
//!
//! The `broken` variant pins the shape the CAS-then-send design had:
//! the check and the push in two critical sections. Two submitters then
//! overrun the bound, and a push that lands after `shutdown` closed the
//! queue is admitted all the same (and, past the sweep, never answered).

use drybell_modelcheck::{explore, ModelThread, Step, Violation};

const QUEUE_DEPTH: usize = 1;
const MAX_BATCH: usize = 2;

/// What `submit` returned to request `r`'s submitter.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Submit {
    Admitted,
    QueueFull,
    Shutdown,
}

#[derive(Clone)]
struct AdmissionModel {
    /// Request ids waiting in the queue (the state under the lock).
    queue: Vec<usize>,
    /// Cleared by `close` (under the same lock).
    open: bool,
    /// Batcher-local: requests taken from the queue, not yet scored.
    batch: Vec<usize>,
    /// The batcher saw the queue closed and empty, and returned.
    batcher_exited: bool,
    /// Per request: what its `submit` returned (once it has).
    submitted: Vec<Option<Submit>>,
    /// Per request: how many times its response slot was fulfilled.
    answers: Vec<u32>,
    /// Broken variant only: the request passed the check in its first
    /// critical section and will push in its second.
    passed_check: Vec<bool>,
    /// A request was pushed while the queue was already closed.
    admitted_after_close: bool,
}

impl AdmissionModel {
    fn new(requests: usize) -> AdmissionModel {
        AdmissionModel {
            queue: Vec::new(),
            open: true,
            batch: Vec::new(),
            batcher_exited: false,
            submitted: vec![None; requests],
            answers: vec![0; requests],
            passed_check: vec![false; requests],
            admitted_after_close: false,
        }
    }

    fn verdict(&self) -> Option<Submit> {
        if !self.open {
            Some(Submit::Shutdown)
        } else if self.queue.len() >= QUEUE_DEPTH {
            Some(Submit::QueueFull)
        } else {
            None
        }
    }

    /// `Frontend::submit` as shipped: check and push under one lock hold.
    fn submit(&mut self, r: usize) {
        let verdict = self.verdict();
        if verdict.is_none() {
            self.queue.push(r);
        }
        self.submitted[r] = Some(verdict.unwrap_or(Submit::Admitted));
    }

    /// Broken submit, first critical section: the check alone.
    fn submit_check(&mut self, r: usize) {
        match self.verdict() {
            Some(rejected) => self.submitted[r] = Some(rejected),
            None => self.passed_check[r] = true,
        }
    }

    /// Broken submit, second critical section: push on the strength of
    /// a check the queue may have moved past.
    fn submit_push(&mut self, r: usize) {
        if self.passed_check[r] {
            self.admitted_after_close |= !self.open;
            self.queue.push(r);
            self.submitted[r] = Some(Submit::Admitted);
        }
    }

    /// One batcher lock hold: take up to `MAX_BATCH` waiting requests.
    /// An empty open queue is the blocked wait (nothing happens); an
    /// empty closed queue is the exit.
    fn batcher_take(&mut self) {
        if self.batcher_exited {
            return;
        }
        let taken = MAX_BATCH.min(self.queue.len());
        self.batch.extend(self.queue.drain(..taken));
        self.batcher_exited = self.batch.is_empty() && !self.open;
    }

    /// Outside the lock: score the batch, fulfilling each slot.
    fn batcher_score(&mut self) {
        for r in self.batch.drain(..) {
            self.answers[r] += 1;
        }
    }

    /// `shutdown`, first critical section.
    fn close(&mut self) {
        self.open = false;
    }

    /// `shutdown`, last critical section: take what is left; the
    /// `Shutdown` answers are given outside the lock.
    fn sweep(&mut self) {
        for r in std::mem::take(&mut self.queue) {
            self.answers[r] += 1;
        }
    }

    fn invariant(&self) -> Option<String> {
        if self.queue.len() > QUEUE_DEPTH {
            return Some(format!(
                "queue holds {} requests, queue_depth is {QUEUE_DEPTH}",
                self.queue.len()
            ));
        }
        if self.admitted_after_close {
            return Some("a submit succeeded after close".to_owned());
        }
        let twice = self.answers.iter().position(|&n| n > 1)?;
        Some(format!(
            "request {twice} answered {} times",
            self.answers[twice]
        ))
    }

    /// At quiescence: admitted ⇒ answered once, rejected ⇒ never.
    fn accept(&self) -> Option<String> {
        for (r, (submitted, &answers)) in self.submitted.iter().zip(&self.answers).enumerate() {
            let want = u32::from(*submitted == Some(Submit::Admitted));
            if answers != want {
                return Some(format!(
                    "request {r} ({submitted:?}) answered {answers} times, expected {want}"
                ));
            }
        }
        None
    }
}

fn submitter(name: &'static str, r: usize, fixed: bool) -> ModelThread<AdmissionModel> {
    if fixed {
        return ModelThread::new(
            name,
            vec![Box::new(move |s: &mut AdmissionModel| s.submit(r))],
        );
    }
    ModelThread::new(
        name,
        vec![
            Box::new(move |s: &mut AdmissionModel| s.submit_check(r)),
            Box::new(move |s: &mut AdmissionModel| s.submit_push(r)),
        ],
    )
}

/// Two batches' worth of the worker loop: take, score.
fn batcher() -> ModelThread<AdmissionModel> {
    let mut steps: Vec<Step<AdmissionModel>> = Vec::new();
    for _ in 0..2 {
        steps.push(Box::new(AdmissionModel::batcher_take));
        steps.push(Box::new(AdmissionModel::batcher_score));
    }
    ModelThread::new("batcher", steps)
}

fn shutdown() -> ModelThread<AdmissionModel> {
    ModelThread::new(
        "shutdown",
        vec![
            Box::new(AdmissionModel::close),
            Box::new(AdmissionModel::sweep),
        ],
    )
}

fn check(threads: &[ModelThread<AdmissionModel>]) -> Result<u64, Violation> {
    explore(
        &AdmissionModel::new(2),
        threads,
        &AdmissionModel::invariant,
        &AdmissionModel::accept,
    )
    .map(|stats| stats.interleavings)
}

#[test]
fn admission_answers_every_request_once_under_all_interleavings() {
    let threads = [
        submitter("submit_0", 0, true),
        submitter("submit_1", 1, true),
        batcher(),
        shutdown(),
    ];
    let interleavings = check(&threads).unwrap_or_else(|v| panic!("admission violated: {v}"));
    // 8 steps over 4 threads, exhaustively scheduled.
    assert_eq!(interleavings, 840); // 8! / (1!·1!·4!·2!)
}

#[test]
fn check_then_push_overruns_the_bound() {
    // No shutdown, so closing cannot be what breaks: both submitters
    // see an empty queue in their first critical section, then both
    // push — two waiting against a depth of one.
    let threads = [
        submitter("submit_0", 0, false),
        submitter("submit_1", 1, false),
        batcher(),
    ];
    // Per-step invariant only: with nobody to sweep, what the batcher's
    // four steps leave queued is the model's horizon, not a lost request.
    let model = AdmissionModel::new(2);
    let violation = explore(&model, &threads, &AdmissionModel::invariant, &|_| None)
        .expect_err("the overrun must be found");
    assert_eq!(
        violation.message,
        "queue holds 2 requests, queue_depth is 1"
    );
    assert_eq!(
        violation.schedule,
        ["submit_0", "submit_1", "submit_0", "submit_1"]
    );
}

#[test]
fn check_then_push_admits_after_close() {
    // One submitter, so the bound cannot be what breaks: the check
    // passes, `shutdown` closes and sweeps, then the push lands.
    let threads = [submitter("submit_0", 0, false), batcher(), shutdown()];
    let violation = check(&threads).expect_err("the late push must be found");
    assert_eq!(violation.message, "a submit succeeded after close");
    let pushed_last = violation.schedule.last().copied();
    assert_eq!(pushed_last, Some("submit_0"));
    assert!(violation.schedule.contains(&"shutdown"));
}
