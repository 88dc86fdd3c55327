//! Model check for the serving front-end's wake board
//! (`drybell-serving::frontend`): write-once response slots and one
//! `Mutex<usize>` + `Condvar` that every waiter sleeps on.
//!
//! The protocol: a publisher (a worker finishing a batch, or the
//! `shutdown` sweep) writes its slots, then takes the board lock once and
//! wakes everyone only if the count of sleepers is non-zero. A waiter
//! first takes its slot if it is already written; otherwise it takes the
//! board lock, checks the slot again under it, and only then counts
//! itself asleep and waits — releasing the lock atomically. On a wake it
//! re-takes the lock, uncounts itself and checks again.
//!
//! The worker has taken request 0 into its batch; request 1 is still
//! queued. The worker writes slot 0, gathers request 1 and writes its
//! slot if it is still queued, then publishes. The sweep takes what is
//! queued (the admission lock), writes it, then publishes. The model lets
//! the sweep run beside the worker — more schedules than the real `join`
//! allows, among them a sweep that writes after the worker's publish.
//! Over every interleaving it proves that at quiescence no waiter sleeps
//! with its slot written and no wake-up pending, and that each answer is
//! taken exactly once.
//!
//! The `broken` variant checks the slot *outside* the board lock before
//! counting itself asleep. A publish that lands between that check and
//! the sleep finds nobody asleep, wakes nobody, and the waiter sleeps on
//! an answer that is already there.

use drybell_modelcheck::{explore, ModelThread, Step, Violation};

const REQUESTS: usize = 2;

#[derive(Clone)]
struct WakeModel {
    /// Requests no publisher has taken yet.
    queued: Vec<usize>,
    /// Requests the sweep took, not yet written.
    swept: Vec<usize>,
    /// Per slot: how many times it was written.
    writes: [u32; REQUESTS],
    /// Per slot: the answer sits in it, not yet taken.
    filled: [bool; REQUESTS],
    /// Per waiter: how many times it took its answer.
    taken: [u32; REQUESTS],
    /// The board's count of sleeping waiters (under the board lock).
    asleep: usize,
    /// Per waiter: blocked in `Condvar::wait`.
    sleeping: [bool; REQUESTS],
    /// Per waiter: a `notify_all` reached it while it slept.
    notified: [bool; REQUESTS],
    /// Broken variant only: the waiter saw its slot empty outside the
    /// board lock and will sleep on the strength of that.
    saw_empty: [bool; REQUESTS],
}

impl WakeModel {
    fn new() -> WakeModel {
        WakeModel {
            queued: vec![1],
            swept: Vec::new(),
            writes: [0; REQUESTS],
            filled: [false; REQUESTS],
            taken: [0; REQUESTS],
            asleep: 0,
            sleeping: [false; REQUESTS],
            notified: [false; REQUESTS],
            saw_empty: [false; REQUESTS],
        }
    }

    fn write(&mut self, r: usize) {
        self.writes[r] += 1;
        self.filled[r] = true;
    }

    /// Worker: write slot 0, already in the batch.
    fn worker_write_0(&mut self) {
        self.write(0);
    }

    /// Worker: gather request 1 if it is still queued (the admission
    /// lock), then write its slot.
    fn worker_write_1(&mut self) {
        if self.queued.contains(&1) {
            self.queued.clear();
            self.write(1);
        }
    }

    /// Sweep, under the admission lock: take what is still queued.
    fn sweep_take(&mut self) {
        self.swept = std::mem::take(&mut self.queued);
    }

    /// Sweep, outside it: write the `Shutdown` answers.
    fn sweep_write(&mut self) {
        for r in std::mem::take(&mut self.swept) {
            self.write(r);
        }
    }

    /// `WakeBoard::publish`: one hold of the board lock; `notify_all`
    /// only when somebody is counted asleep.
    fn publish(&mut self) {
        if self.asleep > 0 {
            for r in 0..REQUESTS {
                self.notified[r] |= self.sleeping[r];
            }
        }
    }

    /// The slot lock: take the answer if it is there.
    fn try_take(&mut self, r: usize) -> bool {
        let filled = std::mem::take(&mut self.filled[r]);
        self.taken[r] += u32::from(filled);
        filled
    }

    fn sleep(&mut self, r: usize) {
        self.asleep += 1;
        self.sleeping[r] = true;
    }

    fn done(&self, r: usize) -> bool {
        self.taken[r] > 0
    }

    /// `Pending::wait`, first step: the fast take, outside the board lock.
    fn fast_take(&mut self, r: usize) {
        self.try_take(r);
    }

    /// As shipped: under the board lock, check the slot again, and sleep
    /// only if it is still empty.
    fn check_and_sleep(&mut self, r: usize) {
        if !self.done(r) && !self.try_take(r) {
            self.sleep(r);
        }
    }

    /// Broken, first step: the check, outside the board lock.
    fn check_unlocked(&mut self, r: usize) {
        self.saw_empty[r] = !self.done(r) && !self.try_take(r);
    }

    /// Broken, second step: under the board lock, sleep on the check
    /// the first step made.
    fn sleep_on_check(&mut self, r: usize) {
        if std::mem::take(&mut self.saw_empty[r]) {
            self.sleep(r);
        }
    }

    /// On a wake: re-take the board lock, uncount, check, and sleep
    /// again if the answer is still not there. A waiter nobody notified
    /// stays blocked.
    fn recheck_on_wake(&mut self, r: usize) {
        if !self.sleeping[r] || !self.notified[r] {
            return;
        }
        self.sleeping[r] = false;
        self.notified[r] = false;
        self.asleep -= 1;
        if !self.try_take(r) {
            self.sleep(r);
        }
    }

    fn invariant(&self) -> Option<String> {
        (0..REQUESTS).find_map(|r| {
            (self.writes[r] > 1 || self.taken[r] > 1).then(|| {
                format!(
                    "slot {r} written {} times, taken {} times",
                    self.writes[r], self.taken[r]
                )
            })
        })
    }

    /// At quiescence: no waiter sleeps on a written slot with no wake-up
    /// on the way.
    fn no_lost_wake_up(&self) -> Option<String> {
        (0..REQUESTS).find_map(|r| {
            (self.sleeping[r] && !self.notified[r] && self.filled[r])
                .then(|| format!("waiter {r} asleep with its slot written"))
        })
    }

    /// At quiescence: no lost wake-up, and each answer taken exactly
    /// once, counting the take a pending wake-up will make.
    fn accept(&self) -> Option<String> {
        self.no_lost_wake_up().or_else(|| {
            (0..REQUESTS).find_map(|r| {
                let woken = self.sleeping[r] && self.notified[r];
                let takes = self.taken[r] + u32::from(woken && self.filled[r]);
                (takes != 1).then(|| format!("answer {r} taken {takes} times"))
            })
        })
    }
}

fn worker() -> ModelThread<WakeModel> {
    ModelThread::new(
        "worker",
        vec![
            Box::new(WakeModel::worker_write_0),
            Box::new(WakeModel::worker_write_1),
            Box::new(WakeModel::publish),
        ],
    )
}

fn sweep() -> ModelThread<WakeModel> {
    ModelThread::new(
        "sweep",
        vec![
            Box::new(WakeModel::sweep_take),
            Box::new(WakeModel::sweep_write),
            Box::new(WakeModel::publish),
        ],
    )
}

fn waiter(name: &'static str, r: usize, fixed: bool) -> ModelThread<WakeModel> {
    let mut steps: Vec<Step<WakeModel>> = vec![Box::new(move |s: &mut WakeModel| s.fast_take(r))];
    if fixed {
        steps.push(Box::new(move |s: &mut WakeModel| s.check_and_sleep(r)));
    } else {
        steps.push(Box::new(move |s: &mut WakeModel| s.check_unlocked(r)));
        steps.push(Box::new(move |s: &mut WakeModel| s.sleep_on_check(r)));
    }
    steps.push(Box::new(move |s: &mut WakeModel| s.recheck_on_wake(r)));
    ModelThread::new(name, steps)
}

fn check(threads: &[ModelThread<WakeModel>]) -> Result<u64, Violation> {
    explore(
        &WakeModel::new(),
        threads,
        &WakeModel::invariant,
        &WakeModel::accept,
    )
    .map(|stats| stats.interleavings)
}

#[test]
fn no_wake_up_is_lost_under_all_interleavings() {
    let threads = [
        worker(),
        sweep(),
        waiter("wait_0", 0, true),
        waiter("wait_1", 1, true),
    ];
    let interleavings = check(&threads).unwrap_or_else(|v| panic!("wake board violated: {v}"));
    // 12 steps over 4 threads, exhaustively scheduled.
    assert_eq!(interleavings, 369_600); // 12! / (3!·3!·3!·3!)
}

#[test]
fn checking_outside_the_board_lock_loses_a_wake_up() {
    // One waiter and no sweep: the waiter sees its slot empty, the
    // worker writes both slots and publishes to nobody, then the waiter
    // counts itself asleep and sleeps for good.
    let threads = [waiter("wait_0", 0, false), worker()];
    // Answer 1 has no waiter here, so only the lost-wake-up half of
    // acceptance applies.
    let violation = explore(
        &WakeModel::new(),
        &threads,
        &WakeModel::invariant,
        &WakeModel::no_lost_wake_up,
    )
    .expect_err("the lost wake-up must be found");
    assert_eq!(
        violation.message,
        "final state rejected: waiter 0 asleep with its slot written"
    );
    assert_eq!(
        violation.schedule,
        ["wait_0", "wait_0", "worker", "worker", "worker", "wait_0", "wait_0"]
    );
}
