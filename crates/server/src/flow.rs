//! The packet-pipeline workload: dataplane flow/routing tables.
//!
//! Models the memory behaviour of a software dataplane: every request
//! ("packet") walks a read-mostly lookup chain — a route table entry
//! chosen by the flow hash, then the next-hop table entry it points at —
//! and lands on the flow's state record. Lookups dominate and never
//! write, so the route and next-hop pages are ideal replication targets;
//! the per-flow state records are written on every forwarded packet,
//! concentrating invalidation traffic on the state pages in proportion
//! to flow popularity. The contrast between those two regions under one
//! request stream is precisely the placement decision the policy lab
//! compares.
//!
//! Layout: route and next-hop tables in a read-mostly zone (page
//! aligned, one word per entry); flow state in its own zone,
//! `state_words` words per flow record.

use numa_machine::Va;
use platinum_runtime::zones::Zone;
use platinum_runtime::Stage;

use crate::drive::Workload;
use crate::rng::mix;
use crate::traffic::Request;
use crate::ServerMem;

/// Pipeline geometry.
#[derive(Clone, Debug)]
pub struct FlowConfig {
    /// Distinct flows (requests hash onto `0..flows`).
    pub flows: u64,
    /// Route-table entries.
    pub route_entries: usize,
    /// Next-hop-table entries.
    pub hop_entries: usize,
    /// Words per flow state record.
    pub state_words: usize,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            flows: 1 << 16,
            route_entries: 4096,
            hop_entries: 1024,
            state_words: 8,
        }
    }
}

impl FlowConfig {
    /// Pages for the read-mostly zone (route + next-hop tables).
    pub(crate) fn lookup_pages(&self, page_words: usize) -> usize {
        self.route_entries.div_ceil(page_words) + self.hop_entries.div_ceil(page_words)
    }

    /// Pages for the flow-state zone.
    pub(crate) fn state_pages(&self, page_words: usize) -> usize {
        (self.flows as usize * self.state_words).div_ceil(page_words)
    }
}

/// Flow state record word offsets.
const PKTS: u64 = 0;
const BYTES: u64 = 1;
const LAST_SERIAL: u64 = 2;
const LAST_EGRESS: u64 = 3;

/// Salts for the lookup hashes.
const ROUTE_SALT: u64 = 0x666C_6F77_7274;
const HOP_SALT: u64 = 0x666C_6F77_6870;

/// The laid-out pipeline (addresses only; state lives in simulated
/// memory).
pub struct FlowTables {
    cfg: FlowConfig,
    route_base: Va,
    hop_base: Va,
    state_base: Va,
}

impl FlowTables {
    /// Carves the lookup tables out of `lookup` and the state records
    /// out of `state`. Size the zones with [`FlowConfig::lookup_pages`]
    /// and [`FlowConfig::state_pages`].
    pub(crate) fn layout(cfg: FlowConfig, lookup: &mut Zone, state: &mut Zone) -> Self {
        let route_base = lookup.alloc_page_aligned(cfg.route_entries);
        let hop_base = lookup.alloc_page_aligned(cfg.hop_entries);
        let state_base = state.alloc_page_aligned(cfg.flows as usize * cfg.state_words);
        FlowTables {
            cfg,
            route_base,
            hop_base,
            state_base,
        }
    }

    /// Allocates the read-mostly zone and the flow-state zone on `stage`
    /// and lays the pipeline out in them.
    pub fn stage<S: Stage>(cfg: FlowConfig, stage: &mut S) -> Self {
        let page_words = stage.page_words();
        let mut lookup = stage.alloc_zone(cfg.lookup_pages(page_words));
        let mut state = stage.alloc_zone(cfg.state_pages(page_words));
        Self::layout(cfg, &mut lookup, &mut state)
    }

    /// Fills the entries this worker owns (striped round-robin, so the
    /// read-mostly tables are first-touched across the machine rather
    /// than piled on one node). Route entries point into the next-hop
    /// table; next-hop entries carry a nonzero egress id.
    pub(crate) fn populate_owned<M: ServerMem>(
        &self,
        m: &mut M,
        worker: usize,
        workers: usize,
    ) -> platinum::Result<()> {
        let mut i = worker;
        while i < self.cfg.route_entries {
            let hop = mix(i as u64, ROUTE_SALT) % self.cfg.hop_entries as u64;
            m.try_store(self.route_base + 4 * i as u64, hop as u32)?;
            i += workers;
        }
        let mut i = worker;
        while i < self.cfg.hop_entries {
            let egress = (mix(i as u64, HOP_SALT) as u32) | 1;
            m.try_store(self.hop_base + 4 * i as u64, egress)?;
            i += workers;
        }
        Ok(())
    }

    /// Base address of `flow`'s state record.
    fn state_va(&self, flow: u64) -> Va {
        self.state_base + 4 * flow * self.cfg.state_words as u64
    }

    /// Forwards one packet for the flow hashed from `key`: route
    /// lookup, next-hop lookup, then either a state peek (monitoring
    /// path, `write == false`) or the forwarding update (packet/byte
    /// counters and last-seen stamps).
    pub(crate) fn packet<M: ServerMem>(
        &self,
        m: &mut M,
        key: u64,
        serial: u64,
        write: bool,
    ) -> platinum::Result<u32> {
        let flow = key % self.cfg.flows;
        let ridx = mix(flow, ROUTE_SALT.rotate_left(7)) % self.cfg.route_entries as u64;
        let hop = m.try_load(self.route_base + 4 * ridx)? as u64 % self.cfg.hop_entries as u64;
        let egress = m.try_load(self.hop_base + 4 * hop)?;
        let st = self.state_va(flow);
        if write {
            m.fetch_add(st + 4 * PKTS, 1);
            let bytes = 64 + (mix(key, serial) & 0x5FF) as u32; // 64..=1599 "bytes"
            m.fetch_add(st + 4 * BYTES, bytes);
            m.try_store(st + 4 * LAST_SERIAL, serial as u32)?;
            m.try_store(st + 4 * LAST_EGRESS, egress)?;
        } else {
            let pkts = m.try_load(st + 4 * PKTS)?;
            let last = m.try_load(st + 4 * LAST_SERIAL)?;
            return Ok(egress ^ pkts ^ last);
        }
        Ok(egress)
    }

    /// Folds the whole state table (quiesced) into a checksum: same
    /// packets forwarded ⇒ same checksum.
    pub fn checksum<M: ServerMem>(&self, m: &mut M) -> platinum::Result<u64> {
        let mut sum = 0u64;
        for flow in 0..self.cfg.flows {
            let st = self.state_va(flow);
            for w in 0..self.cfg.state_words {
                sum = sum
                    .rotate_left(1)
                    .wrapping_add(m.try_load(st + 4 * w as u64)? as u64);
            }
        }
        Ok(sum)
    }
}

impl Workload for FlowTables {
    fn populate<M: ServerMem>(
        &self,
        m: &mut M,
        worker: usize,
        workers: usize,
    ) -> platinum::Result<()> {
        self.populate_owned(m, worker, workers)
    }

    fn execute<M: ServerMem>(&self, m: &mut M, req: &Request) -> platinum::Result<()> {
        self.packet(m, req.key, req.serial, req.write).map(|_| ())
    }

    fn class(&self, _req: &Request) -> u8 {
        2
    }

    fn shards(&self) -> usize {
        // Throughput is accounted per state page: the pipeline has no
        // shard structure of its own, so reuse the page grouping.
        16
    }

    fn shard_of(&self, key: u64) -> usize {
        ((key % self.cfg.flows) % 16) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_machine::mem_iface::test_support::FlatMem;

    fn pipeline() -> (FlowTables, FlatMem) {
        let cfg = FlowConfig {
            flows: 256,
            route_entries: 64,
            hop_entries: 16,
            state_words: 8,
        };
        let page_words = 1024;
        let mut lookup = Zone::new(
            0x1_0000,
            cfg.lookup_pages(page_words) * page_words,
            page_words,
        );
        let mut state = Zone::new(
            0x80_0000,
            cfg.state_pages(page_words) * page_words,
            page_words,
        );
        let ft = FlowTables::layout(cfg, &mut lookup, &mut state);
        let mut m = FlatMem::new(0, 1);
        ft.populate_owned(&mut m, 0, 1).unwrap();
        (ft, m)
    }

    #[test]
    fn packets_update_flow_state() {
        let (ft, mut m) = pipeline();
        let before = ft.checksum(&mut m).unwrap();
        ft.packet(&mut m, 42, 1, true).unwrap();
        ft.packet(&mut m, 42, 2, true).unwrap();
        let after = ft.checksum(&mut m).unwrap();
        assert_ne!(before, after);
        let st = ft.state_va(42);
        assert_eq!(*m.words.get(&st).unwrap(), 2, "two packets counted");
    }

    #[test]
    fn reads_leave_state_untouched() {
        let (ft, mut m) = pipeline();
        ft.packet(&mut m, 9, 1, true).unwrap();
        let before = ft.checksum(&mut m).unwrap();
        ft.packet(&mut m, 9, 2, false).unwrap();
        ft.packet(&mut m, 10, 3, false).unwrap();
        assert_eq!(ft.checksum(&mut m).unwrap(), before);
    }

    #[test]
    fn same_packets_same_checksum() {
        let (ft, mut m1) = pipeline();
        let (ft2, mut m2) = pipeline();
        for s in 0..100u64 {
            ft.packet(&mut m1, s * 7, s, s % 3 == 0).unwrap();
            ft2.packet(&mut m2, s * 7, s, s % 3 == 0).unwrap();
        }
        assert_eq!(
            ft.checksum(&mut m1).unwrap(),
            ft2.checksum(&mut m2).unwrap()
        );
    }
}
