//! Ports: globally-named message queues (§1.1 of the paper).
//!
//! "A port is a message queue that can have any number of senders and
//! receivers. Messages are variable-length arrays of zero or more bytes.
//! Globally named, ports provide a communication medium usable by threads
//! that do not share a common memory object. They also provide blocking
//! synchronization."
//!
//! Messages here are arrays of 32-bit words (the machine's unit of
//! access). A send charges the block-transfer rate for the message body;
//! a blocked receiver deactivates its address space so shootdowns never
//! wait on it, exactly as a thread blocked in the kernel would on the
//! real system.

use std::collections::VecDeque;

use numa_machine::BLOCK_WORD_NS;
use parking_lot::{Condvar, Mutex};

use crate::costs;
use crate::user::UserCtx;

struct Message {
    data: Vec<u32>,
    /// The sender's virtual time when the send completed; the receiver's
    /// clock advances to at least this (message causality).
    sent_at: u64,
}

/// A port: a multi-sender, multi-receiver message queue.
pub struct Port {
    queue: Mutex<VecDeque<Message>>,
    available: Condvar,
}

impl Port {
    pub(crate) fn new() -> Self {
        Self {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
        }
    }

    /// The number of queued messages.
    pub fn len(&self) -> usize {
        self.queue.lock().len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.lock().is_empty()
    }
}

impl UserCtx {
    /// Sends `data` to `port`. Never blocks (queues are unbounded, as in
    /// the paper's model).
    pub fn port_send(&mut self, port: &Port, data: &[u32]) {
        // Fixed kernel overhead plus the copy into kernel memory at the
        // block-transfer rate.
        self.core
            .charge(costs::PORT_OP_NS + data.len() as u64 * BLOCK_WORD_NS);
        let msg = Message {
            data: data.to_vec(),
            sent_at: self.core.vtime(),
        };
        let mut q = port.queue.lock();
        q.push_back(msg);
        port.available.notify_one();
    }

    /// Receives the next message from `port`, blocking until one arrives.
    ///
    /// While blocked the thread's address space is deactivated, so
    /// shootdown initiators never wait on it; mapping changes are applied
    /// on reactivation (§3.1).
    pub fn port_recv(&mut self, port: &Port) -> Vec<u32> {
        self.deactivate_space();
        let mut q = port.queue.lock();
        let msg = loop {
            if let Some(m) = q.pop_front() {
                break m;
            }
            port.available.wait(&mut q);
        };
        drop(q);
        self.activate_space();
        self.received(msg)
    }

    /// The stepped form of [`UserCtx::port_recv`], for a context a
    /// [`Lockstep`](crate::Lockstep) executor drives: the message, or
    /// `None` with the thread blocked in the kernel — space deactivated,
    /// as `port_recv` leaves it while it waits — until a later call finds
    /// one queued.
    pub fn port_recv_step(&mut self, port: &Port) -> Option<Vec<u32>> {
        if self.is_active() {
            self.deactivate_space();
        }
        let msg = port.queue.lock().pop_front()?;
        self.activate_space();
        Some(self.received(msg))
    }

    /// Completes a receive: the copy out of kernel memory, no earlier
    /// than the send (causality).
    fn received(&mut self, msg: Message) -> Vec<u32> {
        self.core.advance_to(msg.sent_at);
        self.core
            .charge(costs::PORT_OP_NS + msg.data.len() as u64 * BLOCK_WORD_NS);
        msg.data
    }
}
