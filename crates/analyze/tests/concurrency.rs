//! The concurrency rules (R11, R12) on `crates/exec`, the one crate
//! with atomics and locks: each rule's seeded defect is a mutation of
//! the real deque/pool source (see [`common::Seed`]); synthetic fixtures
//! remain for the shapes the product tree has one instance of or none —
//! the publication edge, the carve-outs, suppression.

mod common;

use common::{failing_lines, one, Seed};
use northup_analyze::diag::rules;

// --------------------------------------------------------------- R11

/// PR 9's one real finding, reverted: `Stealer::len` reads `bottom`
/// Relaxed although `push` publishes slots through a Release store of
/// it, so a thief can see the new length without the slot it counts.
#[test]
fn atomic_relaxed_load_on_consumption_edge_true_positive() {
    let seed = Seed {
        path: "crates/exec/src/deque.rs",
        with: &[],
        old: "impl<T> Stealer<T> {\n    /// Best-effort current length.\n    pub fn len(&self) -> usize {\n        let b = self.inner.bottom.load(Ordering::Acquire);",
        new: "impl<T> Stealer<T> {\n    /// Best-effort current length.\n    pub fn len(&self) -> usize {\n        let b = self.inner.bottom.load(Ordering::Relaxed); // seeded",
    };
    let message = seed.trips(rules::ATOMIC_ORDER, "Ordering::Relaxed); // seeded");
    assert!(message.contains("consumption edge"), "{message}");
    assert!(message.contains("Release `store`"), "{message}");
}

#[test]
fn atomic_relaxed_store_on_publication_edge_through_call_graph_hop() {
    // The seeded Relaxed-on-publication fixture: the flawed store sits
    // in a helper invoked from a spawned closure (a call-graph hop off
    // the thread boundary); the Acquire load elsewhere makes `ready` a
    // protocol atomic, so the Relaxed store is flagged at its exact
    // line with the consumer as witness.
    let src = "\
pub struct Gate {
    ready: AtomicBool,
}
fn launch(pool: &ThreadPool, g: &Arc<Gate>) {
    pool.spawn(move || publish(g));
}
fn publish(g: &Gate) {
    g.ready.store(true, Ordering::Relaxed);
}
fn consume(g: &Gate) -> bool {
    g.ready.load(Ordering::Acquire)
}
";
    let r = one("crates/exec/src/gate.rs", src);
    assert_eq!(failing_lines(&r, rules::ATOMIC_ORDER), vec![8]);
    let f = r.failing().find(|f| f.rule == rules::ATOMIC_ORDER).unwrap();
    assert!(f.message.contains("publication edge"), "{}", f.message);
    assert!(
        f.message
            .contains("Acquire `load` at crates/exec/src/gate.rs:11"),
        "{}",
        f.message
    );
}

#[test]
fn atomic_clean_cases() {
    // A pure Relaxed counter has no protocol edges; a Relaxed load in a
    // `fence(SeqCst)` fn is the Chase–Lev idiom; the CAS failure
    // ordering is canonically Relaxed; test code is out of scope.
    let src = "\
pub struct Ctr {
    n: AtomicU64,
    top: AtomicIsize,
}
fn add(c: &Ctr) {
    c.n.fetch_add(1, Ordering::Relaxed);
}
fn get(c: &Ctr) -> u64 {
    c.n.load(Ordering::Relaxed)
}
fn steal(c: &Ctr) -> isize {
    let t = c.top.load(Ordering::Relaxed);
    std::sync::atomic::fence(Ordering::SeqCst);
    t
}
fn claim(c: &Ctr, t: isize) -> bool {
    c.top
        .compare_exchange(t, t + 1, Ordering::AcqRel, Ordering::Relaxed)
        .is_ok()
}
#[cfg(test)]
mod tests {
    #[test]
    fn t(c: &super::Ctr) {
        c.top.store(1, Ordering::Relaxed);
    }
}
";
    let r = one("crates/exec/src/ctr.rs", src);
    assert_eq!(r.failing_for(rules::ATOMIC_ORDER), 0);
}

#[test]
fn atomic_suppressed_with_justification() {
    let src = "\
pub struct Gate {
    ready: AtomicBool,
}
fn publish(g: &Gate) {
    g.ready.store(true, Ordering::Release);
}
fn consume(g: &Gate) -> bool {
    // analyze:allow(atomic-order): the caller is the owner thread; its own program order sequences this read
    g.ready.load(Ordering::Relaxed)
}
";
    let r = one("crates/exec/src/gate.rs", src);
    assert_eq!(r.failing().count(), 0);
    assert_eq!(r.findings.iter().filter(|f| f.suppressed).count(), 1);
}

// --------------------------------------------------------------- R12

#[test]
fn blocking_direct_blocker_under_guard_true_positive() {
    let src = "\
fn convoy(s: &S, rx: &Receiver<u64>) {
    let _g = s.state.lock();
    let _ = rx.recv();
}
";
    let r = one("crates/exec/src/convoy.rs", src);
    assert_eq!(failing_lines(&r, rules::BLOCKING_EXTENT), vec![3]);
    let f = r
        .failing()
        .find(|f| f.rule == rules::BLOCKING_EXTENT)
        .unwrap();
    assert!(f.message.contains("`recv` blocks"), "{}", f.message);
    assert!(f.message.contains("guard `state`"), "{}", f.message);
}

/// `inject` keeps the injector guard across `wake_one`, which takes the
/// sleep lock `worker_loop` holds while it re-checks the injector: a
/// lock-order cycle, and a deadlock that hangs `race_stress` and the
/// pool's own tests. The finding is the call, reached through the
/// helper's lock acquisition — the edge the retired lock-order rule
/// would have closed the cycle with.
#[test]
fn blocking_taint_reaches_through_a_helper() {
    let seed = Seed {
        path: "crates/exec/src/pool.rs",
        with: &[],
        old: "        self.injector.lock().push_back(job);\n        self.wake_one();",
        new: "        let mut q = self.injector.lock();\n        q.push_back(job);\n        self.wake_one(); // seeded",
    };
    let message = seed.trips(rules::BLOCKING_EXTENT, "self.wake_one(); // seeded");
    assert!(message.contains("guard `injector`"), "{message}");
    assert!(message.contains("may block via"), "{message}");
    // The other way into the may-block set: `pause` takes no lock, it
    // blocks because it calls a direct blocker (`sleep`).
    let src = "\
fn convoy(s: &S) {
    let _g = s.state.lock();
    pause();
}
fn pause() {
    std::thread::sleep(Duration::from_millis(1));
}
";
    let r = one("crates/exec/src/convoy.rs", src);
    assert_eq!(failing_lines(&r, rules::BLOCKING_EXTENT), vec![3]);
    let f = r.failing().next().expect("the convoy finding");
    assert!(f.message.contains("may block via `pause`"), "{}", f.message);
}

#[test]
fn blocking_nested_acquisition_true_positive() {
    let src = "\
fn nested(s: &S) {
    let _a = s.alpha.lock();
    let _b = s.beta.lock();
}
";
    let r = one("crates/exec/src/nested.rs", src);
    assert_eq!(failing_lines(&r, rules::BLOCKING_EXTENT), vec![3]);
    let f = r
        .failing()
        .find(|f| f.rule == rules::BLOCKING_EXTENT)
        .unwrap();
    assert!(
        f.message.contains("acquiring `beta` while guard `alpha`"),
        "{}",
        f.message
    );
}

#[test]
fn blocking_clean_cases() {
    // A condvar wait handed the held guard is the sleep protocol, not a
    // convoy; dropping the guard before blocking is the fix the rule
    // asks for; atomics under a guard never block.
    let src = "\
fn idle(p: &P) {
    let mut g = p.lock.lock();
    p.cond.wait_for(&mut g, IDLE_WAIT);
}
fn polite(s: &S, rx: &Receiver<u64>) {
    let g = s.state.lock();
    drop(g);
    let _ = rx.recv();
}
fn counted(s: &S) {
    let _g = s.state.lock();
    s.hits.fetch_add(1, Ordering::Relaxed);
}
";
    let r = one("crates/exec/src/quiet.rs", src);
    assert_eq!(r.failing_for(rules::BLOCKING_EXTENT), 0);
}

#[test]
fn blocking_suppressed_with_justification() {
    let src = "\
fn worker(s: &S) {
    let _g = s.lock.lock();
    // analyze:allow(blocking-extent): the re-check must happen under the sleep lock to avoid lost wakeups
    let empty = s.injector.lock().is_empty();
    let _ = empty;
}
";
    let r = one("crates/exec/src/worker.rs", src);
    assert_eq!(r.failing().count(), 0);
    assert_eq!(r.findings.iter().filter(|f| f.suppressed).count(), 1);
}
