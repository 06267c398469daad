//! Freeing superseded artifacts off the request path.
//!
//! A delta supersedes a table version and the prepared artifacts built
//! over it. The last reference to either would die on the delta's own
//! thread — the old table under the catalog write lock, the old artifacts
//! inside the upgrade — and freeing a few thousand rows costs a fraction of
//! a millisecond the client waits for. The service hands them to one
//! reaper thread instead, which drops them in the background and is joined
//! when the service is dropped.
//!
//! The reaper waits [`LINGER`] before it frees what it received. Woken at
//! once, it tends to run on the core of the thread that woke it and
//! preempt it — on a two-core host the freeing then lands on the delta's
//! ack path after all; a moment later that request has answered. On such
//! a host, ten interleaved pairs of hbench `serve_mixed_durable` runs put
//! `op_p50_ms` at 2.54 with the linger against 3.00 freeing at once
//! (`op_tail_ms` 3.52 against 4.01; each better in all ten pairs).

use std::fmt;
use std::sync::mpsc::{channel, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long garbage lingers before the reaper frees it: longer than the
/// rest of the request that retired it.
const LINGER: Duration = Duration::from_millis(1);

/// One background thread that drops what it is handed.
pub(crate) struct Reaper {
    sender: Option<Sender<Box<dyn Send>>>,
    thread: Option<JoinHandle<()>>,
}

impl Reaper {
    pub fn new() -> Self {
        let (sender, garbage) = channel::<Box<dyn Send>>();
        let thread = std::thread::Builder::new()
            .name("hummer-reaper".into())
            .spawn(move || {
                while let Ok(first) = garbage.recv() {
                    std::thread::sleep(LINGER);
                    drop(first);
                    garbage.try_iter().for_each(drop);
                }
            })
            .expect("the reaper thread starts");
        Reaper {
            sender: Some(sender),
            thread: Some(thread),
        }
    }

    /// Drop `garbage` on the reaper thread.
    pub fn retire(&self, garbage: Box<dyn Send>) {
        let sender = self.sender.as_ref().expect("open until the reaper drops");
        // A reaper that died (a panicking destructor) hands the garbage
        // back: it is dropped right here instead.
        let _ = sender.send(garbage);
    }
}

impl Drop for Reaper {
    /// Close the channel and wait until everything handed over is dropped.
    fn drop(&mut self) {
        self.sender.take();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl fmt::Debug for Reaper {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Reaper")
    }
}
