//! The kernel's thread registry.
//!
//! "A thread is a kernel-scheduled thread of control. At any time it is
//! bound to a single processor. An explicit migration operation can move
//! it to another location. It is, however, constrained to execute within
//! a single address space" (§1.1). Threads are globally named, like every
//! PLATINUM abstraction.
//!
//! In the simulator a thread is driven by one OS thread through its
//! [`crate::UserCtx`]; this module is the kernel-side bookkeeping: the
//! global name, the processor binding, the address space, and the
//! lifecycle state, all visible through [`crate::Kernel::thread_info`].

use std::sync::atomic::{AtomicU32, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::ids::{AsId, ThreadId};

/// A thread's lifecycle state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadState {
    /// Bound to a processor and executing (its address space is active).
    Running,
    /// Blocked in the kernel or explicitly suspended; not interrupted by
    /// shootdowns (§3.1's activity optimization).
    Suspended,
    /// Detached from its processor; the name remains valid for queries.
    Terminated,
}

/// A snapshot of one thread's kernel state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThreadInfo {
    /// The thread's global name.
    pub id: ThreadId,
    /// The processor the thread is (or was last) bound to.
    pub proc: usize,
    /// The address space the thread executes in.
    pub space: AsId,
    /// Lifecycle state.
    pub state: ThreadState,
    /// Times the thread migrated between processors.
    pub migrations: u32,
}

/// One thread's kernel state, shared between the registry and the
/// thread's own [`crate::UserCtx`], which is the only writer. Every field
/// is an independent fact that publishes nothing else, so the stores and
/// loads are relaxed and a lifecycle change is one store through the
/// handle the context already holds; a snapshot taken while the owner
/// runs may mix fields from either side of a concurrent change.
pub(crate) struct ThreadCell {
    pub(crate) id: ThreadId,
    state: AtomicU8,
    proc: AtomicUsize,
    space: AtomicU32,
    migrations: AtomicU32,
}

impl ThreadCell {
    /// Updates the thread's state.
    pub(crate) fn set_state(&self, state: ThreadState) {
        self.state.store(state as u8, Ordering::Relaxed);
    }

    /// Records a migration to `proc`.
    pub(crate) fn set_proc(&self, proc: usize) {
        self.proc.store(proc, Ordering::Relaxed);
        self.migrations.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an address-space switch.
    pub(crate) fn set_space(&self, space: AsId) {
        self.space.store(space.0, Ordering::Relaxed);
    }

    fn info(&self) -> ThreadInfo {
        ThreadInfo {
            id: self.id,
            proc: self.proc.load(Ordering::Relaxed),
            space: AsId(self.space.load(Ordering::Relaxed)),
            state: match self.state.load(Ordering::Relaxed) {
                0 => ThreadState::Running,
                1 => ThreadState::Suspended,
                _ => ThreadState::Terminated,
            },
            migrations: self.migrations.load(Ordering::Relaxed),
        }
    }
}

/// The registry of all threads ever created: by-name access to the cells
/// for queries. Only [`ThreadTable::register`] takes the write lock.
pub(crate) struct ThreadTable {
    threads: RwLock<Vec<Arc<ThreadCell>>>,
}

impl ThreadTable {
    pub(crate) fn new() -> Self {
        Self {
            threads: RwLock::new(Vec::new()),
        }
    }

    /// Registers a new thread bound to `proc` in `space`.
    pub(crate) fn register(&self, proc: usize, space: AsId) -> Arc<ThreadCell> {
        let mut t = self.threads.write();
        let cell = Arc::new(ThreadCell {
            id: ThreadId(t.len() as u32),
            state: AtomicU8::new(ThreadState::Running as u8),
            proc: AtomicUsize::new(proc),
            space: AtomicU32::new(space.0),
            migrations: AtomicU32::new(0),
        });
        t.push(Arc::clone(&cell));
        cell
    }

    /// A snapshot of one thread.
    pub(crate) fn get(&self, id: ThreadId) -> Option<ThreadInfo> {
        self.threads.read().get(id.index()).map(|c| c.info())
    }

    /// Snapshots of all threads ever created.
    pub(crate) fn all(&self) -> Vec<ThreadInfo> {
        self.threads.read().iter().map(|c| c.info()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_bookkeeping() {
        let t = ThreadTable::new();
        let a = t.register(0, AsId(0));
        let b = t.register(3, AsId(1));
        assert_eq!(a.id, ThreadId(0));
        assert_eq!(b.id, ThreadId(1));
        assert_eq!(t.get(a.id).unwrap().state, ThreadState::Running);

        a.set_state(ThreadState::Suspended);
        assert_eq!(t.get(a.id).unwrap().state, ThreadState::Suspended);

        b.set_proc(5);
        let info = t.get(b.id).unwrap();
        assert_eq!(info.proc, 5);
        assert_eq!(info.migrations, 1);

        b.set_space(AsId(2));
        assert_eq!(t.get(b.id).unwrap().space, AsId(2));

        b.set_state(ThreadState::Terminated);
        assert_eq!(t.get(b.id).unwrap().state, ThreadState::Terminated);
        assert_eq!(t.all().len(), 2);
        assert!(t.get(ThreadId(9)).is_none());
    }
}
