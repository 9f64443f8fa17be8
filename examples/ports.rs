//! Ports: PLATINUM's message-passing primitive (§1.1).
//!
//! "Globally named, ports provide a communication medium usable by
//! threads that do not share a common memory object. They also provide
//! blocking synchronization." This example builds a pipeline of threads
//! in *separate address spaces* — no shared memory object at all — that
//! communicate only through ports.
//!
//! Run with:
//!   cargo run --release --example ports

use std::sync::Arc;

use platinum_repro::kernel::Rights;
use platinum_repro::machine::Mem;
use platinum_repro::runtime::sim::SimBuilder;

fn main() {
    // The stages make their own address spaces; only the kernel is kept.
    let kernel = SimBuilder::nodes(4).build().kernel;

    // A three-stage pipeline: generate -> square -> sum. Each stage runs
    // in its own address space with its own private scratch memory.
    let to_square = kernel.create_port();
    let to_sum = kernel.create_port();
    const ITEMS: u32 = 64;

    std::thread::scope(|s| {
        {
            let kernel = Arc::clone(&kernel);
            let port = Arc::clone(&to_square);
            s.spawn(move || {
                let space = kernel.create_space();
                let mut ctx = kernel.attach(space, 0, 0).unwrap();
                for i in 1..=ITEMS {
                    ctx.port_send(&port, &[i]);
                }
                println!(
                    "generator ({} on proc 0, space {}) sent {ITEMS} messages",
                    ctx.thread_id(),
                    ctx.space().id()
                );
            });
        }
        {
            let kernel = Arc::clone(&kernel);
            let rx = Arc::clone(&to_square);
            let tx = Arc::clone(&to_sum);
            s.spawn(move || {
                let space = kernel.create_space();
                // Private scratch: visible to this stage only.
                let obj = kernel.create_object(1);
                let scratch = space.map_anywhere(obj, Rights::RW).unwrap();
                let mut ctx = kernel.attach(space, 1, 0).unwrap();
                for _ in 0..ITEMS {
                    let msg = ctx.port_recv(&rx);
                    let x = msg[0];
                    ctx.write(scratch, x * x); // exercise private memory
                    let sq = ctx.read(scratch);
                    ctx.port_send(&tx, &[sq]);
                }
                println!(
                    "squarer ({} on proc 1, space {}) forwarded {ITEMS} squares",
                    ctx.thread_id(),
                    ctx.space().id()
                );
            });
        }
        {
            let kernel = Arc::clone(&kernel);
            let rx = Arc::clone(&to_sum);
            s.spawn(move || {
                let space = kernel.create_space();
                let mut ctx = kernel.attach(space, 2, 0).unwrap();
                let mut total = 0u64;
                for _ in 0..ITEMS {
                    total += u64::from(ctx.port_recv(&rx)[0]);
                }
                let expect: u64 = (1..=u64::from(ITEMS)).map(|x| x * x).sum();
                assert_eq!(total, expect);
                println!(
                    "summer ({} on proc 2, space {}) got {total} (expected {expect}) \
                     at virtual time {} us",
                    ctx.thread_id(),
                    ctx.space().id(),
                    ctx.vtime() / 1000
                );
            });
        }
    });
}
