//! The contention model: bucketed resource utilization.
//!
//! Memory modules and buses are modelled as servers with a fixed service
//! rate. A naive "busy-until" scalar breaks under execution-driven
//! simulation because processors' virtual clocks are only loosely coupled
//! (the skew window): a processor running ahead would reserve the server
//! at *future* virtual times and slower processors would then queue
//! behind work that logically follows them, inflating delays by up to the
//! whole skew window.
//!
//! [`BucketedResource`] instead accounts reserved service time in
//! fixed-width virtual-time buckets. A bucket can serve exactly its own
//! width of service; a request at time `t` with service `s` adds `s` to
//! `t`'s bucket and waits for the work the bucket cannot absorb:
//!
//! > `delay = max(0, load_in_bucket + s − width)`
//!
//! where a fresh bucket inherits the previous bucket's overflow
//! (`max(0, prev_load − width)`) as backlog, so saturation accumulates
//! queueing across buckets the way a real server would. Uncontended
//! streams see zero delay, and clock skew beyond the ring's span degrades
//! gracefully to "no contention observed" instead of to garbage.
//!
//! The approximation deliberately forgets arrival order *within* a
//! bucket: below saturation, requests pass through undelayed (the M/D/1
//! low-load limit), and under overload the delay lands on whichever
//! requests find the bucket already full. Individual delays are
//! redistributed but the machine-level throughput bound — the effect the
//! paper's contention analysis cares about — is modelled faithfully, and
//! crucially this holds regardless of how the host OS schedules the
//! simulating threads.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::stats::RelaxedTally;

/// Number of buckets in the ring. With the default 100 us bucket this
/// spans 6.4 ms of virtual time — comfortably more than the default
/// 2 ms skew window.
const BUCKETS: usize = 64;

const LOAD_BITS: u32 = 40;
const LOAD_MASK: u64 = (1 << LOAD_BITS) - 1;

/// Exact division by a runtime-invariant u64, via the multiply-shift
/// scheme of Granlund & Montgomery ("Division by Invariant Integers using
/// Multiplication", PLDI '94; the round-up variant libdivide ships).
///
/// Virtual clocks cross contention buckets every few charges on the slow
/// path, so the `now / bucket_ns` division runs tens of times per fault
/// and is the single hottest instruction in the uncontended contention
/// model. The divider replaces it with a 64x64→128 multiply plus shifts,
/// returning bit-identical quotients for every `u64` numerator (pinned by
/// the `divider_matches_hardware_division` test).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Divider {
    magic: u64,
    shift: u32,
    /// Power-of-two divisors skip the multiply; `magic` is unused.
    pow2: bool,
    /// Round-up magics that overflow 64 bits use the add-indicator
    /// sequence `q = (((n - mulhi) >> 1) + mulhi) >> shift`.
    add: bool,
}

impl Divider {
    /// Precomputes the magic for `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub(crate) fn new(d: u64) -> Self {
        assert!(d > 0, "division by zero");
        if d.is_power_of_two() {
            return Self {
                magic: 0,
                shift: d.trailing_zeros(),
                pow2: true,
                add: false,
            };
        }
        let floor_log2 = 63 - d.leading_zeros();
        let pow = 1u128 << (64 + floor_log2);
        let proposed = (pow / d as u128) as u64;
        let rem = (pow % d as u128) as u64;
        let e = d - rem;
        if e < (1u64 << floor_log2) {
            // The round-down magic is exact at this shift.
            Self {
                magic: proposed.wrapping_add(1),
                shift: floor_log2,
                pow2: false,
                add: false,
            }
        } else {
            // Need one more magic bit: fold its overflow into the
            // add-indicator division sequence.
            // The doubled magic's 65th bit is implicit: the add-indicator
            // division sequence reconstructs it, so the overflow of this
            // doubling is deliberately discarded.
            let doubled = proposed.wrapping_add(proposed);
            let (rem2, carry) = rem.overflowing_add(rem);
            let bump = 1 + u64::from(rem2 >= d || carry);
            Self {
                magic: doubled.wrapping_add(bump),
                shift: floor_log2,
                pow2: false,
                add: true,
            }
        }
    }

    /// `n / d`, exactly.
    #[inline(always)]
    pub(crate) fn div(&self, n: u64) -> u64 {
        if self.pow2 {
            return n >> self.shift;
        }
        let hi = ((n as u128 * self.magic as u128) >> 64) as u64;
        if self.add {
            (((n - hi) >> 1) + hi) >> self.shift
        } else {
            hi >> self.shift
        }
    }
}

/// A caller-owned memoization of the bucket containing a virtual clock,
/// used by [`BucketedResource::reserve_with`] to keep the bucket-index
/// division off per-access hot paths. A cursor is a function of the clock
/// and the bucket width alone, so one cursor serves every resource of
/// that width (a processor keeps one for all memory modules) and reads
/// as a miss on a resource of any other width. The zero value is an
/// always-stale cursor, so `Default` is a valid starting state for any
/// resource.
#[derive(Clone, Copy, Debug, Default)]
pub struct BucketCursor {
    /// Inclusive start of the memoized bucket, ns.
    start: u64,
    /// Width of the memoized bucket, ns (0 in the default state, which
    /// no resource has, so the cursor never hits until seeded).
    span: u64,
    /// The memoized bucket's index (`start / span`).
    bucket: u64,
}

/// A contended resource (a memory module's bus, the UMA machine's shared
/// bus) with bucketed utilization accounting.
pub struct BucketedResource {
    /// Each slot packs `epoch << 40 | load_ns`. The epoch is the ring
    /// generation (`bucket_index / BUCKETS`), so stale slots from
    /// previous passes around the ring are detected and reset.
    slots: [AtomicU64; BUCKETS],
    bucket_ns: u64,
    /// Magic-constant divider for `now / bucket_ns` (see [`Divider`]).
    bucket_div: Divider,
    /// Bookings dropped behind a newer generation of their slot.
    lost: RelaxedTally,
}

impl BucketedResource {
    /// Creates the resource with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_ns` is zero.
    pub fn new(bucket_ns: u64) -> Self {
        assert!(bucket_ns > 0, "bucket width must be nonzero");
        Self {
            slots: std::array::from_fn(|_| AtomicU64::new(0)),
            bucket_ns,
            bucket_div: Divider::new(bucket_ns),
            lost: RelaxedTally::default(),
        }
    }

    /// Bookings this resource dropped because their ring slot already
    /// held a newer generation: a requester more than the ring's span
    /// (64 buckets) behind another saw no contention and booked nothing.
    /// A run where this is not zero lost part of its contention.
    pub(crate) fn lost_bookings(&self) -> u64 {
        self.lost.get()
    }

    /// The width of a bucket, ns.
    #[inline(always)]
    pub(crate) fn bucket_ns(&self) -> u64 {
        self.bucket_ns
    }

    /// The resource's one state transition: adds `service_ns` to
    /// `bucket`'s load and returns the delay the bucket imposes. Every
    /// booking entry point ends here.
    ///
    /// Both candidate priors are computed — the load this bucket's
    /// generation already holds, and the previous bucket's overflow a
    /// fresh bucket inherits as backlog — and one is *selected*: about
    /// half of all bookings on a 16-module machine are a module's first
    /// in its bucket, a branch on that is a coin toss, and the extra
    /// load hits a line a booking nearby has just touched. The one
    /// branch left is the far-behind laggard, which is rare.
    ///
    /// A relaxed load and a relaxed store, nothing lock-prefixed: exact
    /// in any schedule driven by one host thread; under free-running
    /// threads a racing booking may be lost, as `reserve_with` has
    /// allowed since PR 2.
    #[inline(always)]
    fn book(&self, bucket: u64, service_ns: u64) -> u64 {
        debug_assert!(service_ns <= LOAD_MASK);
        let epoch = bucket / BUCKETS as u64;
        let cell = &self.slots[(bucket as usize) % BUCKETS];
        let cur = cell.load(Ordering::Relaxed);
        if cur >> LOAD_BITS > epoch {
            // The bucket already belongs to a future generation: this
            // requester is far behind every other clock; its access
            // would long since have completed. Nothing is booked, and
            // the drop is counted.
            self.lost.bump();
            return 0;
        }
        // Bucket 0 has no predecessor: `bucket - 1` wraps to a
        // generation no 24-bit epoch field can hold, so its overflow
        // reads 0.
        let carry = self
            .load_of(bucket.wrapping_sub(1))
            .saturating_sub(self.bucket_ns);
        // A seeded bucket of this generation queues behind its load; an
        // empty one (including the all-zero initial state) or a stale
        // generation inherits the carry, so saturation accumulates.
        let load = if cur >> LOAD_BITS == epoch {
            cur & LOAD_MASK
        } else {
            0
        };
        let prior = if load != 0 { load } else { carry };
        let booked = prior + service_ns;
        cell.store(
            (epoch << LOAD_BITS) | booked.min(LOAD_MASK),
            Ordering::Relaxed,
        );
        booked.saturating_sub(self.bucket_ns)
    }

    /// The load booked in `bucket`, or 0 when the slot holds another
    /// generation.
    #[inline(always)]
    fn load_of(&self, bucket: u64) -> u64 {
        let cur = self.slots[(bucket as usize) % BUCKETS].load(Ordering::Relaxed);
        if cur >> LOAD_BITS == bucket / BUCKETS as u64 {
            cur & LOAD_MASK
        } else {
            0
        }
    }

    /// Positions `cursor` on the bucket containing `now` and returns
    /// `now`'s offset into that bucket (`now % bucket_ns`): no division
    /// while the clock stays in the memoized bucket or has moved on to the
    /// next one (a stream crossing the edge), one when it jumped further,
    /// went back, or the cursor was seeded on a resource of another width.
    #[inline(always)]
    pub(crate) fn seek(&self, cursor: &mut BucketCursor, now: u64) -> u64 {
        let into = now.wrapping_sub(cursor.start);
        if cursor.span == self.bucket_ns {
            if into < self.bucket_ns {
                return into;
            }
            // `into >= bucket_ns` here; a clock behind `start` wrapped
            // `into` far past two buckets.
            let past = into - self.bucket_ns;
            if past < self.bucket_ns {
                cursor.start += self.bucket_ns;
                cursor.bucket += 1;
                return past;
            }
        }
        let bucket = self.bucket_div.div(now);
        *cursor = BucketCursor {
            start: bucket * self.bucket_ns,
            span: self.bucket_ns,
            bucket,
        };
        now - cursor.start
    }

    /// Reserves `service_ns` of the resource at virtual time `now`;
    /// returns the queueing delay. `cursor` memoizes the clock's bucket:
    ///
    /// A virtual clock advances by tens to thousands of nanoseconds per
    /// access while a bucket spans 100 us, so the `now / bucket_ns`
    /// division — the most expensive instruction in an uncontended
    /// reservation — is redundant for hundreds of consecutive calls. The
    /// cursor skips it while `now` stays inside the memoized bucket, and
    /// `book` runs on the bucket the cursor names, so the delay and the
    /// slots are what a fresh cursor gives, call for call.
    #[inline(always)]
    pub fn reserve_with(&self, cursor: &mut BucketCursor, now: u64, service_ns: u64) -> u64 {
        self.seek(cursor, now);
        self.book(cursor.bucket, service_ns)
    }

    /// Reserves a long occupancy (e.g. a block transfer's bus time)
    /// starting at `now`, spreading it over as many buckets as it spans.
    /// Returns the queueing delay before the occupancy can begin.
    pub(crate) fn reserve_span(&self, now: u64, occupancy_ns: u64) -> u64 {
        // The delay is what the *first* bucket imposes; the rest of the
        // occupancy is booked into the following buckets so that later
        // traffic queues behind it. The walk is by bucket index — a
        // page-sized transfer spans several buckets and the division
        // per step would otherwise dominate the booking.
        let mut bucket = self.bucket_div.div(now);
        let delay = self.book(bucket, occupancy_ns.min(self.bucket_ns));
        let mut remaining = occupancy_ns.saturating_sub(self.bucket_ns);
        while remaining > 0 {
            bucket += 1;
            let chunk = remaining.min(self.bucket_ns);
            let _ = self.book(bucket, chunk);
            remaining -= chunk;
        }
        delay
    }
}

/// The compare-and-swap implementation this module shipped until PR 21,
/// unchanged (only `bucket_into`, which booked nothing, is dropped, and
/// the cursor's pre-shifted generation field is renamed): the oracle the
/// relaxed load + store transition is proved equal to in every
/// single-threaded schedule.
#[cfg(test)]
mod cas_oracle {
    use super::{Divider, BUCKETS, LOAD_BITS, LOAD_MASK};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A caller-owned memoization of the bucket containing a virtual clock,
    /// used by [`BucketedResource::reserve_with`] to keep the bucket-index
    /// division off per-access hot paths. The zero value is an always-stale
    /// cursor, so `Default` is a valid starting state for any resource.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct BucketCursor {
        /// Inclusive start of the memoized bucket, ns.
        start: u64,
        /// Width of the memoized bucket, ns (0 in the default state, so the
        /// in-bucket test `now - start < span` never passes until seeded).
        span: u64,
        /// The memoized bucket's ring slot (`bucket % BUCKETS`).
        slot: usize,
        /// The memoized bucket's generation tag, pre-shifted into the slot
        /// word's epoch field (`(bucket / BUCKETS) << LOAD_BITS`).
        generation_tag: u64,
    }

    /// A contended resource (a memory module's bus, the UMA machine's shared
    /// bus) with bucketed utilization accounting.
    pub struct BucketedResource {
        /// Each slot packs `epoch << 40 | load_ns`. The epoch is the ring
        /// generation (`bucket_index / BUCKETS`), so stale slots from
        /// previous passes around the ring are detected and reset.
        slots: [AtomicU64; BUCKETS],
        bucket_ns: u64,
        /// Magic-constant divider for `now / bucket_ns` (see [`Divider`]).
        bucket_div: Divider,
    }

    impl BucketedResource {
        /// Creates the resource with the given bucket width.
        ///
        /// # Panics
        ///
        /// Panics if `bucket_ns` is zero.
        pub fn new(bucket_ns: u64) -> Self {
            assert!(bucket_ns > 0, "bucket width must be nonzero");
            Self {
                slots: std::array::from_fn(|_| AtomicU64::new(0)),
                bucket_ns,
                bucket_div: Divider::new(bucket_ns),
            }
        }

        /// Reserves `service_ns` of the resource at virtual time `now`;
        /// returns the queueing delay the requester suffers.
        pub fn reserve(&self, now: u64, service_ns: u64) -> u64 {
            self.reserve_bucket(self.bucket_div.div(now), service_ns)
        }

        /// [`BucketedResource::reserve`] with the bucket index already in
        /// hand, for callers walking consecutive buckets.
        fn reserve_bucket(&self, bucket: u64, service_ns: u64) -> u64 {
            debug_assert!(service_ns <= LOAD_MASK);
            let slot = (bucket as usize) % BUCKETS;
            let epoch = bucket / BUCKETS as u64;
            let cell = &self.slots[slot];
            let mut cur = cell.load(Ordering::Relaxed);
            loop {
                let cur_epoch = cur >> LOAD_BITS;
                let cur_load = cur & LOAD_MASK;
                let (prior, new_load) = match cur_epoch.cmp(&epoch) {
                    // Same generation: queue behind the existing load. A
                    // still-empty bucket (including the all-zero initial
                    // state) inherits the previous bucket's overflow as
                    // backlog so saturation carries.
                    std::cmp::Ordering::Equal => {
                        let prior = if cur_load == 0 && bucket > 0 {
                            self.overflow_of(bucket - 1)
                        } else {
                            cur_load
                        };
                        (prior, prior + service_ns)
                    }
                    // First request of this generation around the ring.
                    std::cmp::Ordering::Less => {
                        let carry = self.overflow_of(bucket.wrapping_sub(1));
                        (carry, carry + service_ns)
                    }
                    // The bucket already belongs to a future generation:
                    // this requester is far behind every other clock; its
                    // access would long since have completed.
                    std::cmp::Ordering::Greater => return 0,
                };
                let new = (epoch << LOAD_BITS) | (new_load.min(LOAD_MASK));
                match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                    Ok(_) => return (prior + service_ns).saturating_sub(self.bucket_ns),
                    Err(actual) => cur = actual,
                }
            }
        }

        /// The service overflow (load beyond capacity) of `bucket`, or 0 when
        /// the slot holds another generation.
        fn overflow_of(&self, bucket: u64) -> u64 {
            let slot = (bucket as usize) % BUCKETS;
            let epoch = bucket / BUCKETS as u64;
            let cur = self.slots[slot].load(Ordering::Relaxed);
            if cur >> LOAD_BITS == epoch {
                (cur & LOAD_MASK).saturating_sub(self.bucket_ns)
            } else {
                0
            }
        }

        /// Like [`BucketedResource::reserve`], but with a caller-held cursor
        /// memoizing the current bucket, for per-access hot paths.
        ///
        /// A virtual clock advances by tens to thousands of nanoseconds per
        /// access while a bucket spans 100 us, so the `now / bucket_ns`
        /// division — the most expensive instruction in an uncontended
        /// reservation — is redundant for hundreds of consecutive calls. The
        /// cursor skips it while `now` stays inside the memoized bucket, and
        /// the common in-bucket case (same generation, already-seeded
        /// bucket, no saturation clamp) books its service with a relaxed
        /// load + store — exactly the state transition
        /// [`BucketedResource::reserve`] would make. Every other case
        /// (fresh bucket's backlog inheritance, generation change, clamp)
        /// delegates to `reserve`, so in any deterministic schedule —
        /// however processors interleave on one simulating thread — the
        /// returned delay and the slot contents are identical to `reserve`,
        /// call for call.
        ///
        /// Under *concurrent* simulation the unlocked store can lose a
        /// racing processor's booking (two writes to one slot within the
        /// same few host nanoseconds). That domain is already
        /// schedule-nondeterministic, and the model explicitly tolerates
        /// redistributing intra-bucket load; the loss is bounded by one
        /// `service_ns` per race. All slow-path traffic (faults, kernel
        /// references, block transfers) still books through the exact CAS
        /// in `reserve`.
        #[inline(always)]
        pub fn reserve_with(&self, cursor: &mut BucketCursor, now: u64, service_ns: u64) -> u64 {
            debug_assert!(service_ns <= LOAD_MASK);
            if now.wrapping_sub(cursor.start) < cursor.span {
                let cell = &self.slots[cursor.slot];
                let cur = cell.load(Ordering::Relaxed);
                // A generation mismatch leaves epoch bits set in `load`,
                // pushing it past LOAD_MASK and into the fallback.
                let load = cur ^ cursor.generation_tag;
                if load != 0 && load <= LOAD_MASK - service_ns {
                    cell.store(cur + service_ns, Ordering::Relaxed);
                    return (load + service_ns).saturating_sub(self.bucket_ns);
                }
                return self.reserve(now, service_ns);
            }
            let bucket = self.bucket_div.div(now);
            *cursor = BucketCursor {
                start: bucket * self.bucket_ns,
                span: self.bucket_ns,
                slot: (bucket as usize) % BUCKETS,
                generation_tag: (bucket / BUCKETS as u64) << LOAD_BITS,
            };
            self.reserve(now, service_ns)
        }

        /// Reserves a long occupancy (e.g. a block transfer's bus time)
        /// starting at `now`, spreading it over as many buckets as it spans.
        /// Returns the queueing delay before the occupancy can begin.
        pub fn reserve_span(&self, now: u64, occupancy_ns: u64) -> u64 {
            // The delay is what the *first* bucket imposes; the rest of the
            // occupancy is booked into the following buckets so that later
            // traffic queues behind it. The walk is by bucket index — a
            // page-sized transfer spans several buckets and the division
            // per step would otherwise dominate the booking.
            let mut bucket = self.bucket_div.div(now);
            let delay = self.reserve_bucket(bucket, occupancy_ns.min(self.bucket_ns));
            let mut remaining = occupancy_ns.saturating_sub(self.bucket_ns);
            while remaining > 0 {
                bucket += 1;
                let chunk = remaining.min(self.bucket_ns);
                let _ = self.reserve_bucket(bucket, chunk);
                remaining -= chunk;
            }
            delay
        }

        /// The load currently booked in the bucket containing `now`
        /// (diagnostics and tests).
        pub fn load_at(&self, now: u64) -> u64 {
            let bucket = self.bucket_div.div(now);
            let slot = (bucket as usize) % BUCKETS;
            let epoch = bucket / BUCKETS as u64;
            let cur = self.slots[slot].load(Ordering::Relaxed);
            if cur >> LOAD_BITS == epoch {
                cur & LOAD_MASK
            } else {
                0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl BucketedResource {
        /// The load currently booked in the bucket containing `now`.
        pub(crate) fn load_at(&self, now: u64) -> u64 {
            self.load_of(self.bucket_div.div(now))
        }
    }

    /// A booking through a fresh cursor: the bucket by division, every time.
    fn reserve(r: &BucketedResource, now: u64, service_ns: u64) -> u64 {
        r.reserve_with(&mut BucketCursor::default(), now, service_ns)
    }

    #[test]
    fn divider_matches_hardware_division() {
        // Every divisor class (1, powers of two, round-down magics,
        // round-up/add-indicator magics, huge divisors) against numerators
        // spanning the full u64 range. Any mismatch anywhere would skew
        // every virtual-time delay downstream, so this is exhaustive-ish
        // by construction: divisors near powers of two on both sides are
        // exactly where the magic selection changes branch.
        let mut divisors = vec![1u64, 2, 3, 5, 7, 10, 100_000, u64::MAX, u64::MAX - 1];
        for k in [1u32, 2, 7, 31, 32, 33, 40, 62, 63] {
            let p = 1u64 << k;
            divisors.extend([p, p - 1, p + 1]);
        }
        let mut numerators = vec![0u64, 1, 2, 3, u64::MAX, u64::MAX - 1];
        for k in [1u32, 5, 17, 32, 40, 52, 63] {
            let p = 1u64 << k;
            numerators.extend([p - 1, p, p + 1]);
        }
        // A deterministic xorshift walk fills in arbitrary patterns.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..4000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            numerators.push(x);
        }
        for &d in &divisors {
            let div = Divider::new(d);
            for &n in &numerators {
                assert_eq!(div.div(n), n / d, "{n} / {d}");
            }
        }
    }

    #[test]
    fn uncontended_stream_sees_no_delay() {
        let r = BucketedResource::new(100_000);
        let mut t = 0u64;
        for _ in 0..100 {
            let d = reserve(&r, t, 600);
            assert_eq!(d, 0, "self-paced stream must not self-queue");
            t += 5000; // latency outpaces service
        }
    }

    #[test]
    fn below_saturation_is_free_beyond_it_queues() {
        let r = BucketedResource::new(1000);
        // The bucket absorbs its own width of service for free...
        assert_eq!(reserve(&r, 0, 600), 0);
        assert_eq!(reserve(&r, 0, 400), 0);
        // ...after which every nanosecond of service queues.
        assert_eq!(reserve(&r, 0, 600), 600);
        assert_eq!(reserve(&r, 0, 600), 1200);
        assert_eq!(r.load_at(0), 2200);
    }

    #[test]
    fn backlog_carries_across_buckets() {
        let r = BucketedResource::new(1000);
        // Overload bucket 0 with 5000 ns of work.
        for _ in 0..5 {
            let _ = reserve(&r, 0, 1000);
        }
        // The first request of bucket 1 inherits 4000 ns of backlog.
        let d = reserve(&r, 1000, 100);
        assert_eq!(d, 3100); // 4000 backlog + 100 service - 1000 capacity
                             // And bucket 2 inherits what bucket 1 could not serve.
        let d = reserve(&r, 2000, 100);
        assert!(d > 2000, "saturation must accumulate: {d}");
    }

    #[test]
    fn saturating_bucket_builds_queue() {
        let r = BucketedResource::new(100_000);
        let mut total = 0u64;
        for _ in 0..300 {
            total += reserve(&r, 50_000, 600);
        }
        // 300 x 600 ns = 180 us demanded of a 100 us bucket: the 80 us
        // of overflow must be charged, amplified by each later arrival
        // queueing behind the whole excess.
        assert!(
            total > 3_000_000,
            "sustained overload must queue heavily: {total}"
        );
    }

    #[test]
    fn scheduling_order_does_not_hide_overload() {
        // Two actors each book 70% of a bucket's capacity, one entirely
        // before the other (coarse host timeslicing): the second must
        // still pay for the aggregate overload.
        let r = BucketedResource::new(100_000);
        let mut delayed = 0u64;
        for i in 0..100 {
            delayed += reserve(&r, i * 1000, 700); // actor A walks the bucket
        }
        for i in 0..100 {
            delayed += reserve(&r, i * 1000, 700); // actor B follows
        }
        assert!(delayed > 30_000, "40% overload must surface: {delayed}");
    }

    #[test]
    fn future_reservations_do_not_penalize_the_past() {
        let r = BucketedResource::new(100_000);
        // A fast clock reserves work at t = 2 ms.
        for _ in 0..50 {
            let _ = reserve(&r, 2_000_000, 600);
        }
        // A slow clock at t = 0 is unaffected (different bucket).
        assert_eq!(reserve(&r, 0, 600), 0);
    }

    #[test]
    fn stale_epochs_reset() {
        let r = BucketedResource::new(100);
        let _ = reserve(&r, 0, 90);
        assert_eq!(r.load_at(0), 90);
        // Same slot, one full ring later: stale load is discarded.
        let ring = 100 * BUCKETS as u64;
        assert_eq!(reserve(&r, ring, 50), 0);
        assert_eq!(r.load_at(ring), 50);
    }

    #[test]
    fn span_reservation_blocks_following_traffic() {
        let r = BucketedResource::new(100_000);
        // A block transfer occupies 864 us starting at t=0.
        let d = r.reserve_span(0, 864_000);
        assert_eq!(d, 0);
        // Traffic shortly after queues behind the occupancy (the span
        // fills its buckets to capacity).
        let d2 = reserve(&r, 150_000, 600);
        assert!(d2 > 0, "must queue behind the block transfer: {d2}");
        // Traffic after the occupancy ends is free.
        let d3 = reserve(&r, 1_000_000, 600);
        assert_eq!(d3, 0);
    }

    #[test]
    fn reserve_with_matches_reserve_call_for_call() {
        // Every regime in one stream: in-bucket hits, bucket and epoch
        // transitions, fresh-bucket backlog inheritance, overload, a
        // non-monotonic clock (vtime can step backwards across kernel
        // entries), and a far-future jump. The cursor path must agree
        // with the reference path on every delay and on the final loads.
        let with = BucketedResource::new(1000);
        let without = BucketedResource::new(1000);
        let mut cursor = BucketCursor::default();
        let ring = 1000 * BUCKETS as u64;
        let schedule: Vec<(u64, u64)> = std::iter::empty()
            .chain((0..50).map(|i| (i * 37, 90))) // overload bucket 0
            .chain((0..200).map(|i| (i * 40, 60))) // walk several buckets
            .chain([(500, 80), (20, 40), (7000, 100)]) // jump back, then ahead
            .chain((0..30).map(|i| (ring * 3 + i * 300, 70))) // epoch jump
            .chain([(0, 50), (ring * 3 + 100, 50)]) // laggard, then return
            .collect();
        for &(now, service) in &schedule {
            assert_eq!(
                with.reserve_with(&mut cursor, now, service),
                reserve(&without, now, service),
                "delay diverged at now={now} service={service}"
            );
        }
        for &(now, _) in &schedule {
            assert_eq!(
                with.load_at(now),
                without.load_at(now),
                "load diverged at {now}"
            );
        }
    }

    #[test]
    fn cursor_survives_saturation_clamp() {
        // Drive a bucket's load to the LOAD_MASK clamp; the cursor path
        // must keep matching the reference (it clamps rather than
        // blindly adding into the clamped value).
        let with = BucketedResource::new(10);
        let without = BucketedResource::new(10);
        let mut cursor = BucketCursor::default();
        let big = LOAD_MASK / 4;
        for _ in 0..8 {
            assert_eq!(
                with.reserve_with(&mut cursor, 5, big),
                reserve(&without, 5, big)
            );
        }
        assert_eq!(with.load_at(5), LOAD_MASK);
        assert_eq!(without.load_at(5), LOAD_MASK);
    }

    #[test]
    fn laggard_is_not_charged() {
        let r = BucketedResource::new(100);
        let ring = 100 * BUCKETS as u64;
        // Someone reserves far in the future (same slot, later epoch).
        let _ = reserve(&r, ring * 5, 90);
        assert_eq!(r.lost_bookings(), 0);
        // A very late clock hitting that slot pays nothing, and the
        // dropped booking is counted — by every entry point.
        assert_eq!(reserve(&r, 0, 60), 0);
        assert_eq!(r.lost_bookings(), 1);
        assert_eq!(r.reserve_span(0, 250), 0);
        assert_eq!(r.lost_bookings(), 2, "the span's first bucket");
        // A slot of this generation or an older one books as usual.
        let _ = reserve(&r, ring * 5 + 100, 60);
        assert_eq!(r.lost_bookings(), 2);
    }

    /// Two cursor policies for the implementation under test: one
    /// cursor for every resource (what a `ProcCore` holds) and one
    /// each (what it held until PR 21, and what the oracle keeps).
    struct World {
        resources: Vec<BucketedResource>,
        cursors: Vec<BucketCursor>,
    }

    impl World {
        fn new(width: u64, resources: usize, cursors: usize) -> Self {
            Self {
                resources: (0..resources)
                    .map(|_| BucketedResource::new(width))
                    .collect(),
                cursors: vec![BucketCursor::default(); cursors],
            }
        }

        fn reserve_with(&mut self, r: usize, now: u64, service: u64) -> u64 {
            let cursor = r % self.cursors.len();
            self.resources[r].reserve_with(&mut self.cursors[cursor], now, service)
        }
    }

    const RESOURCES: usize = 3;

    /// One generated booking: `(entry point, resource, ring generation,
    /// bucket in it, offset into the bucket, service class, service)`.
    type RawOp = (u8, usize, u64, u64, u64, (u8, u64));

    use proptest::prelude::*;

    proptest! {
        /// Property (a): in any single-threaded interleaving of the three
        /// entry points over several resources — clocks that step
        /// backwards, roll the ring's generation, lag a generation
        /// behind, and services that saturate a slot to `LOAD_MASK` —
        /// every delay and every final load equals the CAS oracle's,
        /// whether the cursor is shared by all resources or private to
        /// each. `PROPTEST_CASES` scales it (CI runs 10x).
        #[test]
        fn booking_matches_cas_oracle(
            width in prop_oneof![Just(7u64), Just(64u64), Just(1000u64), Just(100_000u64)],
            ops in prop::collection::vec(
                (0u8..4, 0..RESOURCES, 0u64..3, 0u64..BUCKETS as u64 + 2, 0u64..1 << 20,
                 (0u8..8, 0u64..1 << 20)),
                1..200,
            ),
        ) {
            let ring = width * BUCKETS as u64;
            let mut shared = World::new(width, RESOURCES, 1);
            let mut private = World::new(width, RESOURCES, RESOURCES);
            let oracle: Vec<_> = (0..RESOURCES)
                .map(|_| cas_oracle::BucketedResource::new(width))
                .collect();
            let mut oracle_cursors = [cas_oracle::BucketCursor::default(); RESOURCES];
            let mut clocks = Vec::new();
            for &(entry, r, generation, bucket, offset, (class, amount)) in &ops as &Vec<RawOp> {
                // Most clocks sit in a handful of adjacent buckets so
                // they collide; the rest roam the ring and its
                // generations.
                let bucket = if offset % 4 == 0 { bucket } else { bucket % 4 };
                let now = generation * ring + bucket * width + offset % width;
                let service = match class {
                    // Clamps a slot at the third (a span that long would
                    // walk 10^10 buckets, so spans take the next arm).
                    0 if entry < 3 => LOAD_MASK / 2 - amount,
                    0..=4 => amount % (12 * width), // several buckets' worth
                    _ => amount % width + 1,
                };
                let (got_shared, got_private, want) = match entry {
                    0 => (
                        reserve(&shared.resources[r], now, service),
                        reserve(&private.resources[r], now, service),
                        oracle[r].reserve(now, service),
                    ),
                    1 | 2 => (
                        shared.reserve_with(r, now, service),
                        private.reserve_with(r, now, service),
                        oracle[r].reserve_with(&mut oracle_cursors[r], now, service),
                    ),
                    _ => (
                        shared.resources[r].reserve_span(now, service),
                        private.resources[r].reserve_span(now, service),
                        oracle[r].reserve_span(now, service),
                    ),
                };
                prop_assert_eq!(got_shared, want, "shared cursor: entry {} at {}", entry, now);
                prop_assert_eq!(got_private, want, "cursor each: entry {} at {}", entry, now);
                clocks.push(now);
            }
            for (r, oracle) in oracle.iter().enumerate() {
                // Every bucket any booking could have reached: a span
                // runs at most 12 buckets past its clock.
                for &now in &clocks {
                    for ahead in 0..=12 {
                        let at = now + ahead * width;
                        let want = oracle.load_at(at);
                        prop_assert_eq!(shared.resources[r].load_at(at), want, "load at {}", at);
                        prop_assert_eq!(private.resources[r].load_at(at), want, "load at {}", at);
                    }
                }
            }
        }
    }

    #[test]
    fn cursor_of_another_width_is_a_miss() {
        // One cursor carried between a 100 ns and a 1000 ns resource:
        // after seeding on the narrow one at 350 (bucket 3, start 300) a
        // clock of 390 is "inside" that bucket by the offset test alone,
        // but on the wide resource it belongs to bucket 0. Every call
        // must behave as if its cursor were fresh.
        let (narrow, wide) = (BucketedResource::new(100), BucketedResource::new(1000));
        let (narrow_ref, wide_ref) = (BucketedResource::new(100), BucketedResource::new(1000));
        let mut carried = BucketCursor::default();
        let schedule = [350u64, 390, 395, 1250, 1260, 90, 64_000 + 350, 64_000 + 390];
        for (i, &now) in schedule.iter().enumerate() {
            for service in [60, 70] {
                let (got, want) = if i % 2 == 0 {
                    (
                        narrow.reserve_with(&mut carried, now, service),
                        narrow_ref.reserve_with(&mut BucketCursor::default(), now, service),
                    )
                } else {
                    (
                        wide.reserve_with(&mut carried, now, service),
                        wide_ref.reserve_with(&mut BucketCursor::default(), now, service),
                    )
                };
                assert_eq!(got, want, "delay diverged at now={now}");
            }
        }
        for &now in &schedule {
            assert_eq!(narrow.load_at(now), narrow_ref.load_at(now), "narrow {now}");
            assert_eq!(wide.load_at(now), wide_ref.load_at(now), "wide {now}");
        }
    }

    #[test]
    fn concurrent_booking_is_safe() {
        // Safety only — a racing booking may be lost, by the rule on
        // `book`, so no load is asserted. Four threads drive all three
        // entry points at one resource: nothing panics, no delay exceeds
        // the service ever requested, and every slot still decodes as a
        // generation some clock visited over a load no larger than that.
        const THREADS: u64 = 4;
        const OPS: u64 = 25_000;
        const WIDTH: u64 = 1000;
        const MAX_SERVICE: u64 = 3 * WIDTH;
        let total = THREADS * OPS * MAX_SERVICE;
        let ring = WIDTH * BUCKETS as u64;
        let r = BucketedResource::new(WIDTH);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let r = &r;
                s.spawn(move || {
                    let mut cursor = BucketCursor::default();
                    let mut x = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t + 1);
                    for i in 0..OPS {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        // Clocks crowd a few buckets, drift around the
                        // ring, and occasionally lag a generation.
                        let now = (i / 64) * WIDTH + x % (4 * WIDTH) + (x >> 60 & 1) * ring;
                        let service = x % MAX_SERVICE + 1;
                        let delay = match x >> 32 & 3 {
                            0 => reserve(r, now, service),
                            1 | 2 => r.reserve_with(&mut cursor, now, service),
                            _ => r.reserve_span(now, service),
                        };
                        assert!(
                            delay <= total,
                            "delay {delay} exceeds all service requested"
                        );
                    }
                });
            }
        });
        let max_epoch = (OPS / 64 + 4 + 3) / BUCKETS as u64 + 1;
        for slot in &r.slots {
            let cur = slot.load(Ordering::Relaxed);
            assert!(cur >> LOAD_BITS <= max_epoch, "epoch of {cur:#x}");
            assert!(cur & LOAD_MASK <= total, "load of {cur:#x}");
        }
    }
}
